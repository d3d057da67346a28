"""Pauli-string algebra and the Jordan-Wigner transformation.

Words are stored symplectically as two bitmasks (bit q set = non-trivial
action on qubit q) plus a complex coefficient:

    x_mask bit only  -> X,   z_mask bit only -> Z,   both bits -> Y.

Qubit 0 is the leftmost tensor factor everywhere, so the textual form of a
word reads left to right in qubit order ("XZIY" puts X on qubit 0).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

COEFF_EPS = 1e-12

_AXIS_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BIT_AXES = {bits: axis for axis, bits in _AXIS_BITS.items()}


# i**k for k = 0..3: the phase of a word product (same values as 1j**k)
_I_POWERS_ARRAY = np.array([1j**k for k in range(4)])


def _axis_of(x: int, z: int) -> str:
    return _BIT_AXES[(x, z)]


def axes_rank(x: int, z: int, n: int) -> int:
    """An integer that orders words as their axes strings do: base-4 digits
    I=0 < X=1 < Y=2 < Z=3, qubit 0 most significant. The digit of qubit q is
    2 z_q + (x_q ^ z_q); each bit string, reversed, reads as base-4 digits."""
    return (2 * int(format(z, f"0{n}b")[::-1], 4)
            + int(format(x ^ z, f"0{n}b")[::-1], 4))


def mask_bits(masks, n: int) -> np.ndarray:
    """(len(masks), n) uint8 array holding bit q of each uint64 mask in column q."""
    raw = np.ascontiguousarray(masks, dtype="<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(raw, axis=1, count=n, bitorder="little")


def word_masks(n: int, x_masks: np.ndarray,
               z_masks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convert the qubit-indexed uint64 Pauli masks of many words to
    amplitude-index masks in one pass over their bit planes; returns uint64
    (x_bits, z_bits) and the int64 Y count of each word. Qubit q is bit q of
    a word mask and bit n - 1 - q of an index mask."""
    weights = np.uint64(1) << np.arange(n - 1, -1, -1, dtype=np.uint64)
    xs, zs = mask_bits(x_masks, n), mask_bits(z_masks, n)
    return xs @ weights, zs @ weights, (xs & zs).sum(axis=1, dtype=np.int64)


MASK_QUBIT_LIMIT = 64  # the width of the uint64 masks of ``PauliSum`` and ``jw_images``


class PauliError(ValueError):
    pass


@dataclass(frozen=True)
class PauliWord:
    """A coefficient times a tensor product of single-qubit Paulis."""

    n: int
    x_mask: int
    z_mask: int
    coefficient: complex = 1.0 + 0j

    def __post_init__(self):
        if self.n < 0 or self.x_mask >> self.n or self.z_mask >> self.n:
            raise PauliError(f"masks exceed {self.n} qubits")

    @classmethod
    def from_axes(cls, axes: str, coefficient: complex = 1.0) -> "PauliWord":
        x = z = 0
        for q, a in enumerate(axes):
            try:
                xb, zb = _AXIS_BITS[a]
            except KeyError:
                raise PauliError(f"invalid axis {a!r}") from None
            x |= xb << q
            z |= zb << q
        return cls(len(axes), x, z, coefficient)

    @property
    def axes(self) -> str:
        return "".join(
            _axis_of((self.x_mask >> q) & 1, (self.z_mask >> q) & 1) for q in range(self.n)
        )

    @property
    def support(self) -> tuple[int, ...]:
        m = self.x_mask | self.z_mask
        return tuple(q for q in range(self.n) if (m >> q) & 1)

    def is_identity(self) -> bool:
        return not (self.x_mask | self.z_mask)

    def qubitwise_commutes_with(self, other: "PauliWord") -> bool:
        """True when on every qubit the axes agree or at least one is I."""
        s1 = self.x_mask | self.z_mask
        s2 = other.x_mask | other.z_mask
        both = s1 & s2
        return (self.x_mask ^ other.x_mask) & both == 0 and (self.z_mask ^ other.z_mask) & both == 0

    def __str__(self) -> str:
        c = self.coefficient
        if abs(c.imag) < COEFF_EPS:
            return f"{c.real:+.12e} {self.axes}"
        return f"({c.real:.12e}{c.imag:+.12e}j) {self.axes}"


class PauliSum:
    """Pauli words on at most ``MASK_QUBIT_LIMIT`` qubits as rows: uint64
    masks ``x`` and ``z`` and complex coefficients ``c``, none below
    ``COEFF_EPS`` in magnitude. ``PauliSum(n, words)`` and ``from_masks``
    merge duplicate words and sort the rows by (x, z); ``from_arrays`` keeps
    the order given. A sum iterates as its ``PauliWord``s."""

    __slots__ = ("n", "x", "z", "c")

    def __init__(self, n: int, terms: Iterable[PauliWord] = ()):
        merged: dict[tuple[int, int], complex] = {}
        for w in terms:
            if w.n != n:
                raise PauliError("qubit counts differ")
            key = (w.x_mask, w.z_mask)
            merged[key] = merged.get(key, 0.0 + 0j) + complex(w.coefficient)
        rows = PauliSum.from_masks(n, merged)
        self.n, self.x, self.z, self.c = rows.n, rows.x, rows.z, rows.c

    @classmethod
    def from_masks(cls, n: int, terms: dict[tuple[int, int], complex]) -> "PauliSum":
        """Sum over a ``(x_mask, z_mask) -> coefficient`` dict, pruned."""
        keys = sorted(terms)
        return cls.from_arrays(n, [x for x, _ in keys], [z for _, z in keys],
                               [terms[k] for k in keys])

    @classmethod
    def from_arrays(cls, n: int, x, z, c) -> "PauliSum":
        """The rows (x[i], z[i], c[i]) in the order given, pruned."""
        if n > MASK_QUBIT_LIMIT:
            raise PauliError(f"a Pauli sum over {n} qubits exceeds the "
                             f"{MASK_QUBIT_LIMIT}-bit Pauli masks")
        rows = cls.__new__(cls)
        rows.n, rows.c = n, np.asarray(c, dtype=complex)
        rows.x, rows.z = (np.asarray(masks, dtype=np.uint64) for masks in (x, z))
        return rows.take(~(np.abs(rows.c) < COEFF_EPS))

    def take(self, rows) -> "PauliSum":
        """The rows that ``rows`` (indices, a mask or a slice) selects, in order."""
        out = PauliSum.__new__(PauliSum)
        out.n, out.x, out.z, out.c = self.n, self.x[rows], self.z[rows], self.c[rows]
        return out

    def words(self) -> Iterator[PauliWord]:
        return (PauliWord(self.n, x, z, c) for (x, z), c in self.items())

    __iter__ = words

    def items(self) -> Iterator[tuple[tuple[int, int], complex]]:
        """``((x_mask, z_mask), coefficient)`` pairs in row order."""
        return zip(zip(self.x.tolist(), self.z.tolist()), self.c.tolist())

    def __len__(self) -> int:
        return len(self.c)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n != other.n:
            raise PauliError("qubit counts differ")
        merged = dict(self.items())
        for key, c in other.items():
            merged[key] = merged.get(key, 0.0 + 0j) + c
        return PauliSum.from_masks(self.n, merged)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (other * -1.0)

    def __mul__(self, scalar: complex) -> "PauliSum":
        return PauliSum.from_arrays(self.n, self.x, self.z, self.c * scalar)

    def is_hermitian(self) -> bool:
        return bool((np.abs(self.c.imag) < COEFF_EPS).all())

    def identity_part(self) -> complex:
        return complex(self.c[(self.x | self.z) == 0].sum())

    def without_identity(self) -> "PauliSum":
        return self.take((self.x | self.z) != 0)


@dataclass(frozen=True)
class FermionTerm:
    """Ordered product of ladder operators times a coefficient.

    ``ops`` entries are (mode index, dagger). Mode indices refer to whatever
    register the caller works in; for us that is qubit order, i.e. spin
    orbitals already sent through a QubitMapping.
    """

    ops: tuple[tuple[int, bool], ...]
    coefficient: complex = 1.0 + 0j

    def adjoint(self) -> "FermionTerm":
        return FermionTerm(
            tuple((p, not dag) for p, dag in reversed(self.ops)),
            self.coefficient.conjugate(),
        )


def jw_images(modes, daggers, coefficients, n: int):
    """Jordan-Wigner images of many ladder products of one length L at once.

    Row t of ``modes`` and ``daggers`` (shape (T, L), or (L,) for
    ``daggers`` shared by every row) is the ordered product a_t1 ... a_tL
    times ``coefficients[t]``. Returns (term, x, z, coefficient) arrays:
    each term's words in term order, the words that share a key summed and
    pruned. The coefficients equal those of the ladder-product chain: the
    term's coefficient times one ladder's two words at a time, pruned after
    each ladder (``tests/oracles.py`` keeps it as
    ``jw_transform_by_products``). This is the one Jordan-Wigner engine:
    the Hamiltonian and the excitation generators both call it.

    Closed form (Seeley, Richard & Love, J. Chem. Phys. 137, 224109
    (2012)): ladder j contributes its X word or, on path bit b_j = 1, its Y
    word, so each of the 2^L paths gives X = xor of 2^m_j, Z = xor of
    (2^m_j - 1) | b_j 2^m_j and the coefficient c 2^-L i^k with
    k = 2 sum_j bit_m_j(Z_<j) + 2 sum_{j undaggered} b_j - popcount(X & Z),
    the phase of each word product (Y = iXZ recanonicalized on every qubit)
    telescoped along the chain (Z_<j: the Z mask of the ladders before j).
    Every factor is +-1/2 or +-i/2 and the paths onto one key agree or
    cancel, so the sums are exact and each image has one magnitude,
    |c| / 2^(distinct modes), which no intermediate image of the chain
    undercuts: the prune keeps an image whole or drops it, as the chain
    does.
    """
    if n > MASK_QUBIT_LIMIT:
        raise PauliError(f"{n} qubits exceed the {MASK_QUBIT_LIMIT}-bit Pauli masks")
    modes = np.asarray(modes, dtype=np.int64)
    n_terms, length = modes.shape
    bad = (modes < 0) | (modes >= n)
    if bad.any():
        raise PauliError(f"mode {modes[bad][0]} out of range for {n} qubits")
    undaggered = ~np.broadcast_to(np.asarray(daggers, dtype=bool), modes.shape)
    modes = modes.astype(np.uint64)

    # ladder by ladder, each path splits into its X word (b_j = 0, first
    # half) and its Y word (b_j = 1, second half): path p has b_j = bit j of p
    z = np.zeros((n_terms, 1), dtype=np.uint64)
    k = np.zeros((n_terms, 1), dtype=np.int64)
    for j in range(length):
        m = modes[:, j, None]
        bit = np.uint64(1) << m
        k += 2 * ((z >> m) & np.uint64(1)).astype(np.int64)
        z ^= bit - np.uint64(1)
        k = np.concatenate([k, k + 2 * undaggered[:, j, None]], axis=1)
        z = np.concatenate([z, z ^ bit], axis=1)
    x = np.bitwise_xor.reduce(np.uint64(1) << modes, axis=1)
    k = (k - np.bitwise_count(x[:, None] & z)) & 3

    # sum each term's paths over equal z, in units of c 2^-L
    order = np.argsort(z, axis=1)
    z = np.take_along_axis(z, order, axis=1).ravel()
    first = np.ones(z.shape, dtype=bool)
    first[1:] = z[1:] != z[:-1]
    first[:: 1 << length] = True
    starts = np.flatnonzero(first)
    unit = np.add.reduceat(_I_POWERS_ARRAY[np.take_along_axis(k, order, axis=1).ravel()],
                           starts) * 0.5**length
    term = starts >> length
    coeff = np.asarray(coefficients, dtype=complex)[term] * unit
    keep = ~(np.abs(coeff) < COEFF_EPS)
    term = term[keep]
    return term, x[term], z[starts[keep]], coeff[keep]


def excitation_generators(excs, mapping) -> list[PauliSum]:
    """Generators t - t^dag of cluster-operator excitations, unit amplitude,
    in the order of ``excs``.

    Each ``exc`` supplies its spin orbitals via
    ``exc.spin_orbital_pairs(n_spatial)`` (a creation/annihilation pair
    list, outermost first) and ``mapping`` sends spin orbitals to qubits.
    The images of t of every excitation of one ladder length come from one
    ``jw_images`` call. The image of t^dag is the adjoint of t's, and every
    Pauli word is hermitian, so it has t's words with conjugated
    coefficients: each word of t - t^dag gets c + conj(c) * -1, the
    coefficient of t's image minus t^dag's. Coefficients
    are purely imaginary: 8 words for a double excitation, 2 for a single.
    """
    n = mapping.n_qubits
    qubit = mapping.perm
    by_length: dict[int, list[int]] = {}
    rows: list[list[int]] = []
    for k, exc in enumerate(excs):
        row = [qubit[so] for pair in exc.spin_orbital_pairs(mapping.n_spatial) for so in pair]
        by_length.setdefault(len(row), []).append(k)
        rows.append(row)

    out: list = [None] * len(rows)
    for length, ks in by_length.items():
        term, x, z, c = jw_images([rows[k] for k in ks], (True, False) * (length // 2),
                                  np.ones(len(ks)), n)
        bounds = np.searchsorted(term, np.arange(len(ks) + 1)).tolist()
        c = c + c.conjugate() * -1.0
        for k, lo, hi in zip(ks, bounds, bounds[1:]):
            out[k] = PauliSum.from_arrays(n, x[lo:hi], z[lo:hi], c[lo:hi])
    return out


def antihermitian_generator(exc, mapping) -> PauliSum:
    """Generator t - t^dag of one excitation (``excitation_generators``)."""
    return excitation_generators([exc], mapping)[0]
