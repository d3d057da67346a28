"""FCIDUMP ingestion, qubit-Hamiltonian assembly, measurement grouping, and
the dense diagonalization reference.

Integrals follow the FCIDUMP conventions: chemists' notation (pq|rs) for the
two-electron block, 8-fold permutational symmetry, 1-based indices on file,
ORBSYM irrep labels per orbital. Spin orbitals are ordered alpha block then
beta block before the qubit mapping permutes them.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import kernels
from .ansatz import ActiveSpace
from .mapping import QubitMapping
from .pauli import (COEFF_EPS, MASK_QUBIT_LIMIT, _I_POWERS_ARRAY, PauliSum, PauliWord,
                    jw_images, mask_bits)
from .sim import word_masks
from .symmetry import OrbitalSymmetry, SpinSector, SymmetryError, in_symmetry_block, index_mask

HERMITICITY_TOL = 1e-10
INTEGRAL_THRESHOLD = 1e-12
DENSE_BLOCK_LIMIT = 2048  # every spin sector up to 14 qubits and screened CAS(8,8) fit


class FcidumpError(ValueError):
    pass


class HamiltonianError(ValueError):
    pass


class BlockSizeError(HamiltonianError):
    pass


@dataclass
class MolecularIntegrals:
    """One- and two-electron integrals in Hartree over N spatial orbitals."""

    n_orbitals: int
    n_electrons: int
    ms2: int
    core_energy: float
    h: np.ndarray              # (N, N), one-electron
    g: np.ndarray              # (N, N, N, N), chemists' (pq|rs)
    orbsym: OrbitalSymmetry


def parse_fcidump(path: str) -> MolecularIntegrals:
    """Read a Molpro-style FCIDUMP file."""
    with open(path) as fh:
        text = fh.read()

    m = re.search(r"(&END|/)", text)
    if not m or "&FCI" not in text.upper():
        raise FcidumpError(f"{path}: missing &FCI ... &END header")
    header, body = text[: m.start()], text[m.end() :]

    def header_int(key: str) -> int:
        hm = re.search(rf"{key}\s*=\s*(-?\d+)", header, re.IGNORECASE)
        if not hm:
            raise FcidumpError(f"{path}: header lacks {key}")
        return int(hm.group(1))

    norb = header_int("NORB")
    nelec = header_int("NELEC")
    ms2_match = re.search(r"MS2\s*=\s*(-?\d+)", header, re.IGNORECASE)
    ms2 = int(ms2_match.group(1)) if ms2_match else 0
    sym_match = re.search(r"ORBSYM\s*=\s*([0-9,\s]+)", header, re.IGNORECASE)
    if sym_match:
        labels = [int(tok) for tok in sym_match.group(1).replace(",", " ").split()]
        if len(labels) != norb:
            raise FcidumpError(f"{path}: ORBSYM lists {len(labels)} labels for NORB={norb}")
        try:
            orbsym = OrbitalSymmetry.from_labels(labels)
        except SymmetryError as exc:
            raise FcidumpError(f"{path}: ORBSYM: {exc}") from None
    else:
        orbsym = OrbitalSymmetry.all_symmetric(norb)

    h = np.zeros((norb, norb))
    g = np.zeros((norb, norb, norb, norb))
    core = 0.0
    first: dict[tuple[int, ...], tuple[float, str]] = {}  # integral -> value, record
    for raw in body.splitlines():
        line = raw.strip()
        if not line:
            continue
        tok = line.split()
        if len(tok) != 5:
            raise FcidumpError(f"{path}: expected 5 columns, got {line!r}")
        try:
            val = float(tok[0])
            i, j, k, l = (int(t) for t in tok[1:])
        except ValueError as exc:
            raise FcidumpError(f"{path}: non-numeric record {line!r}") from exc
        if not np.isfinite(val):
            raise FcidumpError(f"{path}: non-finite value in record {line!r}")
        if max(i, j, k, l) > norb or min(i, j, k, l) < 0:
            raise FcidumpError(f"{path}: orbital index out of range in {line!r}")
        pattern = "".join("0" if t == 0 else "x" for t in (i, j, k, l))
        if pattern == "xxxx":
            p, q, r, s = i - 1, j - 1, k - 1, l - 1
            images = ((p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                      (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p))
            for a, b, c, d in images:
                g[a, b, c, d] = val
        elif pattern == "xx00":
            images = ((i - 1, j - 1), (j - 1, i - 1))
            for a, b in images:
                h[a, b] = val
        elif pattern == "0000":
            images = ((),)
            core = val
        elif pattern == "x000":  # an orbital energy, not part of H
            continue
        else:
            raise FcidumpError(f"{path}: record {line!r} has index pattern {pattern}; "
                               "expected ijkl, ij00, i000 or 0000")
        key = min(images)
        if key in first and first[key][0] != val:
            raise FcidumpError(f"{path}: record {line!r} sets an integral that record "
                               f"{first[key][1]!r} set to a different value")
        first.setdefault(key, (val, line))
    return MolecularIntegrals(norb, nelec, ms2, core, h, g, orbsym)


def write_fcidump(path: str, ints: MolecularIntegrals) -> None:
    """Write integrals back out (canonical-order entries only)."""
    n = ints.n_orbitals
    lines = [
        f" &FCI NORB={n},NELEC={ints.n_electrons},MS2={ints.ms2},",
        "  ORBSYM=" + ",".join(str(l) for l in ints.orbsym.labels()) + ",",
        "  ISYM=1,",
        " &END",
    ]
    for p in range(n):
        for q in range(p + 1):
            for r in range(p + 1):
                smax = q if r == p else r
                for s in range(smax + 1):
                    if abs(ints.g[p, q, r, s]) > 1e-14:
                        lines.append(f" {ints.g[p, q, r, s]:23.16e} {p+1:3d} {q+1:3d} {r+1:3d} {s+1:3d}")
    for p in range(n):
        for q in range(p + 1):
            if abs(ints.h[p, q]) > 1e-14:
                lines.append(f" {ints.h[p, q]:23.16e} {p+1:3d} {q+1:3d}   0   0")
    lines.append(f" {ints.core_energy:23.16e}   0   0   0   0")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class ActiveSelection:
    """Electron count and spatial-orbital indices kept in the correlation
    treatment; everything below stays doubly occupied (frozen core)."""

    n_electrons: int
    orbitals: tuple[int, ...]

    def active_space(self) -> ActiveSpace:
        return ActiveSpace(self.n_electrons, len(self.orbitals))

    @classmethod
    def full(cls, ints: MolecularIntegrals) -> "ActiveSelection":
        return cls(ints.n_electrons, tuple(range(ints.n_orbitals)))


def restrict_to_active(ints: MolecularIntegrals, sel: ActiveSelection):
    """Fold frozen doubly-occupied orbitals into effective integrals.

    Returns (core_eff, h_eff, g_act, orbsym_act) over the active orbitals in
    the order given by the selection.
    """
    act = list(sel.orbitals)
    if len(set(act)) != len(act) or any(o < 0 or o >= ints.n_orbitals for o in act):
        raise HamiltonianError(f"invalid active orbital list {act}")
    n_frozen_elec = ints.n_electrons - sel.n_electrons
    if n_frozen_elec < 0 or n_frozen_elec % 2:
        raise HamiltonianError(
            f"cannot freeze {n_frozen_elec} electrons (total {ints.n_electrons}, "
            f"active {sel.n_electrons})"
        )
    rest = [o for o in range(ints.n_orbitals) if o not in act]
    frozen = rest[: n_frozen_elec // 2]
    if len(frozen) < n_frozen_elec // 2:
        raise HamiltonianError("not enough inactive orbitals to hold frozen electrons")

    h, g = ints.h, ints.g
    core = ints.core_energy
    for f in frozen:
        core += 2.0 * h[f, f]
        for f2 in frozen:
            core += 2.0 * g[f, f, f2, f2] - g[f, f2, f2, f]
    h_eff = h[np.ix_(act, act)].copy()
    for f in frozen:
        h_eff += 2.0 * g[np.ix_(act, act, [f], [f])][:, :, 0, 0]
        h_eff -= g[np.ix_(act, [f], [f], act)][:, 0, 0, :]
    g_act = g[np.ix_(act, act, act, act)].copy()
    orbsym_act = OrbitalSymmetry(tuple(ints.orbsym[o] for o in act))
    return core, h_eff, g_act, orbsym_act


def rhf_energy(core: float, h: np.ndarray, g: np.ndarray, n_occ: int) -> float:
    """Closed-shell mean-field energy of the (effective) active problem."""
    e = core
    for i in range(n_occ):
        e += 2.0 * h[i, i]
        for j in range(n_occ):
            e += 2.0 * g[i, i, j, j] - g[i, j, j, i]
    return float(e)


@dataclass
class QubitHamiltonian:
    """Hermitian Pauli sum plus identity offset over the mapped register.

    ``mapping`` may be None for synthetic operators; sector-aware operations
    then refuse to run.
    """

    n_qubits: int
    terms: PauliSum
    offset: float
    mapping: Optional[QubitMapping]
    active_space: ActiveSpace

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def hf_bitstring(self) -> str:
        if self.mapping is None:
            raise HamiltonianError("no qubit mapping attached")
        bits = ["0"] * self.n_qubits
        for k in range(self.active_space.n_occupied):
            bits[self.mapping.alpha_qubit(k)] = "1"
            bits[self.mapping.beta_qubit(k)] = "1"
        return "".join(bits)


def build_qubit_hamiltonian(
    ints: MolecularIntegrals,
    selection: ActiveSelection,
    mapping: Optional[QubitMapping] = None,
) -> QubitHamiltonian:
    """Jordan-Wigner image of the active-space electronic Hamiltonian.

    H = E_core + sum_pq h_pq a+_ps a_qs + 1/2 sum_pqrs (pq|rs) a+_ps a+_rt a_st a_qs
    with p..s active spatial orbitals and s, t spins.
    """
    core, h_eff, g_act, _ = restrict_to_active(ints, selection)
    space = selection.active_space()
    n_act = space.n_orbitals
    if mapping is None:
        mapping = QubitMapping.identity(n_act)
    if mapping.n_qubits != 2 * n_act:
        raise HamiltonianError("mapping register does not fit the active space")

    n = mapping.n_qubits
    if n > MASK_QUBIT_LIMIT:
        raise HamiltonianError(f"{n} qubits exceed the {MASK_QUBIT_LIMIT} that the uint64 "
                               "Pauli masks of the Jordan-Wigner assembly hold")
    qubit = np.array(mapping.perm)
    spins = (qubit[:n_act], qubit[n_act:])  # alpha, beta qubit of each spatial orbital

    # The distinct (x, z) keys so far in ascending order, and their running
    # sums. np.add.at is unbuffered and adds in row order, so each sum is
    # 0j + c1 + c2 + ... in term order, as a chain of ladder products folds
    # it. A key occurs once per image, so the order within an image changes
    # no sum.
    keys_x = keys_z = np.zeros(0, dtype=np.uint64)
    sums = np.zeros(0, dtype=complex)

    def fold(modes, daggers, coeffs):
        """Merge the images of the terms ``modes[i][t]``, one list entry i per
        spin choice, in (t, i) order, with coefficient ``coeffs[t]``."""
        nonlocal keys_x, keys_z, sums
        rows = np.stack(modes, axis=1).reshape(-1, len(daggers))
        _, xs, zs, cs = jw_images(rows, daggers, np.repeat(coeffs, len(modes)), n)
        # ranks of each mask column make one exact int64 key in (x, z) order
        ux, rank_x = np.unique(np.concatenate([keys_x, xs]), return_inverse=True)
        uz, rank_z = np.unique(np.concatenate([keys_z, zs]), return_inverse=True)
        keys, slot = np.unique(rank_x * len(uz) + rank_z, return_inverse=True)
        merged = np.zeros(len(keys), dtype=complex)
        merged[slot[:len(sums)]] = sums
        np.add.at(merged, slot[len(sums):], cs)
        keys_x, keys_z, sums = ux[keys // len(uz)], uz[keys % len(uz)], merged

    # one-body terms in (p, q, spin) order, then two-body terms in (p, q, r, s,
    # s1, s2) order, one leading orbital p at a time to bound the arrays
    p, q = np.nonzero(np.abs(h_eff) > INTEGRAL_THRESHOLD)
    fold([np.stack([spin[p], spin[q]], axis=1) for spin in spins], (True, False), h_eff[p, q])
    for p in range(n_act):
        q, r, s = np.nonzero(np.abs(g_act[p]) > INTEGRAL_THRESHOLD)
        fold([np.stack([np.full(len(q), s1[p]), s2[r], s2[s], s1[q]], axis=1)
              for s1 in spins for s2 in spins],
             (True, True, False, False), 0.5 * g_act[p, q, r, s])

    # an imaginary part above the tolerance also clears the COEFF_EPS prune,
    # so this names the first bad word of the pruned sum in sorted order
    bad = np.flatnonzero(np.abs(sums.imag) > HERMITICITY_TOL)
    if len(bad):
        x, z, c = int(keys_x[bad[0]]), int(keys_z[bad[0]]), sums[bad[0]]
        raise HamiltonianError(f"non-hermitian assembly: term {PauliWord(n, x, z).axes} has "
                               f"imaginary part {c.imag:.3e}")
    # the real parts, pruned; the identity key (0, 0) sorts first
    keep = ~(np.abs(sums.real) < COEFF_EPS)
    keys_x, keys_z, real = keys_x[keep], keys_z[keep], sums.real[keep]
    start = int(len(real) > 0 and keys_x[0] == 0 and keys_z[0] == 0)
    offset = core + (real[0] if start else 0.0)
    terms = dict(zip(zip(keys_x[start:].tolist(), keys_z[start:].tolist()),
                     real[start:].astype(complex).tolist()))
    return QubitHamiltonian(n, PauliSum.from_masks(n, terms), float(offset), mapping, space)


# ---------------------------------------------------------------------------
# measurement grouping

@dataclass(frozen=True)
class MeasurementGroup:
    """Qubit-wise commuting words plus the shared basis per qubit
    ('X', 'Y', 'Z', or '-' when unconstrained)."""

    index: int
    words: tuple[PauliWord, ...]
    basis: tuple[str, ...]

    def is_z_basis(self) -> bool:
        return all(b in ("Z", "-") for b in self.basis)


def qwc_group(h: QubitHamiltonian) -> list[MeasurementGroup]:
    """Greedy first-fit grouping, words in descending coefficient magnitude
    and then in axes order: the sorted-insertion rule of Crawford et al.,
    Quantum 5, 385 (2021). A word joins the first group that agrees with it
    on every qubit both act on.

    The scan over groups is an OR of bitsets: ``clash[3q + a]`` holds bit k
    when group k fixes qubit q to an axis other than a (a = 0, 1, 2 for X,
    Y, Z). The lowest bit clear in the OR over a word's support is its
    group; joining sets that bit in the other two axes' bitsets of each
    qubit the word acts on.
    """
    n = h.n_qubits
    words = list(h.terms.words())
    xb = mask_bits([w.x_mask for w in words], n)
    zb = mask_bits([w.z_mask for w in words], n)
    digits = 2 * zb + (xb ^ zb)   # the axes order, I < X < Y < Z per qubit
    order = np.lexsort((*digits.T[::-1], [-abs(w.coefficient) for w in words]))
    xb, zb = xb[order], zb[order]
    rows, qs = np.nonzero(xb | zb)
    axis = zb[rows, qs] * (2 - xb[rows, qs])   # X 0, Y 1, Z 2
    slots = (3 * qs + axis).tolist()
    others = (3 * qs + (axis + 1) % 3).tolist(), (3 * qs + (axis + 2) % 3).tolist()
    bounds = np.searchsorted(rows, np.arange(len(words) + 1)).tolist()

    clash = [0] * (3 * n)
    members: list[list[PauliWord]] = []
    group_x: list[int] = []
    group_z: list[int] = []
    for i, lo, hi in zip(order.tolist(), bounds, bounds[1:]):
        w = words[i]
        taken = 0
        for s in slots[lo:hi]:
            taken |= clash[s]
        bit = ~taken & (taken + 1)
        k = bit.bit_length() - 1
        if k == len(members):
            members.append([w])
            group_x.append(w.x_mask)
            group_z.append(w.z_mask)
        else:
            members[k].append(w)
            group_x[k] |= w.x_mask
            group_z[k] |= w.z_mask
        for s in others[0][lo:hi]:
            clash[s] |= bit
        for s in others[1][lo:hi]:
            clash[s] |= bit
    bases = np.array(list("-XZY"))[mask_bits(group_x, n) + 2 * mask_bits(group_z, n)]
    return [MeasurementGroup(k, tuple(ws), tuple(basis))
            for k, (ws, basis) in enumerate(zip(members, bases.tolist()))]


# ---------------------------------------------------------------------------
# dense and sector references

def spin_sector_indices(mapping: QubitMapping, sector: SpinSector,
                        orbsym: Optional[OrbitalSymmetry] = None) -> np.ndarray:
    """Ascending amplitude indices of the block (``in_symmetry_block``).

    The spin sector is enumerated per spin, C(N, N_alpha) alpha occupations
    OR-ed with C(N, N_beta) beta occupations, so no 2^n array is formed;
    the irrep rule then filters the sector."""
    def occupations(qubits, count):
        return np.array([index_mask(mapping.n_qubits, occ)
                         for occ in itertools.combinations(qubits, count)], dtype=np.uint64)

    idx = np.sort((occupations(mapping.alpha_qubits(), sector.n_alpha)[:, None]
                   | occupations(mapping.beta_qubits(), sector.n_beta)[None, :]).ravel())
    return idx[in_symmetry_block(idx, mapping, sector, orbsym)].astype(np.int64)


def sector_indices(h: QubitHamiltonian, sector: SpinSector,
                   orbsym: Optional[OrbitalSymmetry] = None) -> np.ndarray:
    """Amplitude indices of the block under the attached mapping."""
    if h.mapping is None:
        raise HamiltonianError("sector restriction needs a qubit mapping")
    return spin_sector_indices(h.mapping, sector, orbsym)


@dataclass(frozen=True)
class SectorOperator:
    """A Pauli sum restricted to the amplitudes listed in a sector basis.

    Words sharing an x-mask map each basis state to the same partner, so
    each distinct x-mask becomes one gather ``out[dst] += diag * v[src]``
    over sector positions; pairs whose summed matrix element is zero, or
    whose partner leaves the sector, are dropped. An excitation generator
    (8 words on one x-mask for a double, 2 for a single) is one gather.
    ``dtype`` is that of the matrix elements: float unless some are complex.
    """

    dim: int
    gathers: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    dtype: np.dtype

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The product with ``v``. The positions ``dst`` of one gather are
        distinct, so the first gather is assigned to a zero vector (which
        adds it to zero) and the others are added."""
        out = np.zeros(self.dim, dtype=np.promote_types(v.dtype, self.dtype))
        if self.gathers:
            src, dst, diag = self.gathers[0]
            out[dst] = diag * v[src]
            for src, dst, diag in self.gathers[1:]:
                out[dst] += diag * v[src]
        return out

    def matrix(self) -> np.ndarray:
        mat = np.zeros((self.dim, self.dim), dtype=self.dtype)
        for src, dst, diag in self.gathers:
            mat[dst, src] += diag
        return mat


def sector_operator(terms: PauliSum, basis: np.ndarray) -> SectorOperator:
    """Restrict a Pauli sum to the ascending amplitude indices ``basis``.

    Exact for any operator on vectors supported on the basis when only the
    basis block is read, e.g. <psi|H|psi>; for operators that conserve the
    sector (H, excitation generators) the product itself is exact.
    """
    return sector_operators([terms], basis)[0]


def sector_operators(sums: Sequence[PauliSum], basis: np.ndarray) -> list[SectorOperator]:
    """``sector_operator`` of each of several Pauli sums on one register and
    basis, from one table of all their words.

    The table holds each word's amplitude-index masks (``sim.word_masks``,
    one pass) and its coefficient times i**(number of Y). A sum's words come
    in ``items`` order, sorted by x-mask, so each x-mask's words are one run
    and the runs are in first-appearance order. A run's matrix elements are
    one ``kernels.parity_sums`` over its words, in order.
    """
    states = np.asarray(basis, dtype=np.uint64)
    owner, xs, zs, cs = [], [], [], []
    for k, terms in enumerate(sums):
        for (x, z), c in terms.items():
            owner.append(k)
            xs.append(x)
            zs.append(z)
            cs.append(c)
    xb, zb, ny = word_masks(sums[0].n, xs, zs)
    coeffs = np.array(cs, dtype=complex) * _I_POWERS_ARRAY[ny & 3]
    owner = np.array(owner, dtype=np.int64)
    starts = np.flatnonzero(np.r_[len(xb) > 0, (owner[1:] != owner[:-1]) | (xb[1:] != xb[:-1])])
    gathers: list[list] = [[] for _ in sums]
    for lo, hi in zip(starts.tolist(), np.r_[starts[1:], len(xb)].tolist()):
        partner = states ^ xb[lo]
        dst = np.minimum(np.searchsorted(states, partner), len(states) - 1)
        src = np.flatnonzero(states[dst] == partner)
        diag = kernels.parity_sums(states[src], zb[lo:hi], coeffs[lo:hi])
        live = diag != 0
        if not live.any():
            continue
        diag = diag[live]
        if not diag.imag.any():
            diag = diag.real.copy()
        gathers[owner[lo]].append((src[live], dst[src[live]], diag))
    return [SectorOperator(len(states), tuple(g), np.result_type(float, *(d for _, _, d in g)))
            for g in gathers]


def dense_ground(blocks: Sequence[np.ndarray], operator: Callable) -> float:
    """Lowest eigenvalue of ``operator(basis)`` over the nonempty ``blocks``, one dense
    ``eigvalsh`` each; a basis past ``DENSE_BLOCK_LIMIT`` is refused before any is built."""
    largest = max(len(keep) for keep in blocks)
    if largest > DENSE_BLOCK_LIMIT:
        raise BlockSizeError(f"symmetry block of {largest} determinants exceeds the "
                             f"dense cap of {DENSE_BLOCK_LIMIT}")
    if largest == 0:
        raise HamiltonianError("empty symmetry block")
    return float(min(np.linalg.eigvalsh(operator(keep).matrix())[0]
                     for keep in blocks if len(keep)))


def exact_ground_energy(h: QubitHamiltonian, sector: Optional[SpinSector] = None,
                        orbsym: Optional[OrbitalSymmetry] = None) -> float:
    """Lowest eigenvalue on the symmetry block (``in_symmetry_block``) by one
    dense ``eigvalsh``. With no sector, the lowest over every spin sector:
    the whole register for an operator that conserves both spin counts.
    Molecular Hamiltonians conserve both and, with integrals that respect
    ``orbsym``, the irrep, so a block is exact rather than a projection."""
    counts = range(h.n_qubits // 2 + 1)
    blocks = [sector_indices(h, s, orbsym) for s in
              ([sector] if sector else [SpinSector(a, b) for a in counts for b in counts])]
    return dense_ground(blocks, lambda keep: sector_operator(h.terms, keep)) + h.offset
