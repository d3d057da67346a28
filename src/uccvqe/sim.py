"""Dense statevector execution, exact expectations, shot sampling, and the
statevector-free basis-state check of a zero-parameter circuit.

Amplitude indices put qubit 0 in the most significant bit, matching the
textual bitstring convention (qubit 0 leftmost). Sampling runs through
numpy's PCG64 generator so histograms are reproducible bit-for-bit across
platforms for a given seed.
"""
from __future__ import annotations

import math
from types import MappingProxyType
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import kernels
from .circuit import Circuit
from .pauli import word_masks

MAX_QUBITS = 24

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class SimulationError(ValueError):
    pass


def _check_cap(n_qubits: int) -> None:
    if n_qubits > MAX_QUBITS:
        raise SimulationError(f"{n_qubits} qubits exceeds the dense cap of {MAX_QUBITS}")


class Statevector:
    """2**n complex amplitudes, unit norm."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray):
        _check_cap(n_qubits)
        if amplitudes.shape != (1 << n_qubits,):
            raise SimulationError("amplitude array has wrong length")
        self.n_qubits = n_qubits
        self.amplitudes = amplitudes

    @classmethod
    def zero(cls, n_qubits: int) -> "Statevector":
        _check_cap(n_qubits)
        amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return cls(n_qubits, amps)


def apply_circuit(state: Statevector, circuit: Circuit,
                  params: Optional[dict[str, float]] = None) -> Statevector:
    """Run a circuit gate by gate; returns a new statevector."""
    if circuit.n_qubits != state.n_qubits:
        raise SimulationError("register sizes differ")
    params = params or {}
    amps = state.amplitudes.copy()
    n = state.n_qubits
    for g in circuit.gates:
        if g.kind == "CNOT":
            kernels.apply_cnot(amps, g.qubits[0], g.qubits[1])
        elif g.kind == "X":
            kernels.apply_1q(amps, g.qubits[0], 0.0, 1.0, 1.0, 0.0)
        elif g.kind == "H":
            kernels.apply_1q(amps, g.qubits[0], _INV_SQRT2, _INV_SQRT2, _INV_SQRT2, -_INV_SQRT2)
        elif g.kind == "S":
            kernels.apply_phase(amps, g.qubits[0], 1.0, 1.0j)
        elif g.kind == "SDG":
            kernels.apply_phase(amps, g.qubits[0], 1.0, -1.0j)
        elif g.kind == "RZ":
            theta = g.resolve_angle(params)
            kernels.apply_phase(
                amps, g.qubits[0],
                complex(math.cos(theta / 2), -math.sin(theta / 2)),
                complex(math.cos(theta / 2), math.sin(theta / 2)),
            )
        else:  # pragma: no cover - Gate validates kinds
            raise SimulationError(f"cannot simulate gate {g.kind}")
    return Statevector(n, amps)


def expectation(state: Statevector, hamiltonian) -> float:
    """<psi| H |psi> for a QubitHamiltonian-like object (offset + PauliSum)."""
    if hamiltonian.n_qubits != state.n_qubits:
        raise SimulationError("register sizes differ")
    terms = hamiltonian.terms
    acc = complex(hamiltonian.offset)
    xbs, zbs, nys = word_masks(state.n_qubits, terms.x, terms.z)
    for c, xb, zb, ny in zip(terms.c.tolist(), xbs.tolist(), zbs.tolist(), nys.tolist()):
        acc += c * (1j**ny) * kernels.pauli_expectation(state.amplitudes, xb, zb)
    if abs(acc.imag) > 1e-10:
        raise SimulationError(f"expectation has imaginary residue {acc.imag:.3e}")
    return float(acc.real)


def prepared_basis_state(circuit: Circuit) -> str:
    """The basis state b that ``circuit`` prepares from |0...0> with every
    parameter at zero, as a bitstring (qubit 0 leftmost), without a
    statevector.

    Parametrized RZ gates are the identity at zero and the rest is Clifford,
    so each Z_q is conjugated backwards through the gates on a bit-sliced
    tableau (Aaronson & Gottesman, PRA 70, 052328 (2004)). Row q holds
    U^dag Z_q U: bit q of ``x[j]``/``z[j]`` says that it acts on qubit j
    with X/Z (both set: Y), bit q of ``sign`` that it is negative. U|0...0>
    is a phase times |b> exactly when no row has an X part; b_q is then the
    sign bit of row q, because <0...0| U^dag Z_q U |0...0> = (-1)^b_q.
    """
    n = circuit.n_qubits
    x = [0] * n
    z = [1 << q for q in range(n)]
    sign = 0
    for i in range(len(circuit.gates) - 1, -1, -1):
        g = circuit.gates[i]
        a = g.qubits[0]
        if g.kind == "CNOT":
            t = g.qubits[1]
            sign ^= x[a] & z[t] & ~(x[t] ^ z[a])
            x[t] ^= x[a]
            z[a] ^= z[t]
        elif g.kind == "H":
            sign ^= x[a] & z[a]
            x[a], z[a] = z[a], x[a]
        elif g.kind == "X":
            sign ^= z[a]
        elif g.kind == "S":  # S^dag X S = -Y, S^dag Y S = X
            sign ^= x[a] & ~z[a]
            z[a] ^= x[a]
        elif g.kind == "SDG":  # S X S^dag = Y, S Y S^dag = -X
            sign ^= x[a] & z[a]
            z[a] ^= x[a]
        elif not isinstance(g.angle, tuple):
            raise SimulationError(f"gate {i} is an RZ by the constant angle {g.angle!r}, "
                                  "which is not the identity at zero parameters")
    for q in range(n):
        if any(xj >> q & 1 for xj in x):
            raise SimulationError(f"qubit {q} is not in a basis state at zero parameters")
    return "".join("1" if sign >> q & 1 else "0" for q in range(n))


class Histogram:
    """One group's distinct ``outcomes`` on ``n_qubits`` (1 to 64) as ascending uint64
    amplitude indices, and their int64 ``tallies``. Bitstrings appear only in the
    ``{bits: count}`` constructor, the read-only, ascending ``counts`` and the text form."""

    def __init__(self, counts: dict[str, int], shots: int, group_id: int, seed: int):
        width = _check_width(len(next(iter(counts), "")))
        for bits, count in counts.items():
            if bits.strip("01") or len(bits) != width:
                raise SimulationError(f"bitstring {bits!r} is not {width} characters of 0/1")
            if count < 0:
                raise SimulationError(f"record '{bits} {count}' has a negative count")
        outcomes, tallies = zip(*sorted((int(b, 2), c) for b, c in counts.items()))
        self._fill(width, outcomes, tallies, shots, group_id, seed)

    @classmethod
    def from_outcomes(cls, n_qubits, outcomes, tallies, shots, group_id, seed) -> "Histogram":
        """From ascending, distinct indices below 2**n_qubits and their counts."""
        return cls.__new__(cls)._fill(_check_width(n_qubits), outcomes, tallies, shots, group_id, seed)

    def _fill(self, n_qubits, outcomes, tallies, shots, group_id, seed) -> "Histogram":
        self.n_qubits, self.shots, self.group_id, self.seed = n_qubits, shots, group_id, seed
        self.outcomes = np.asarray(outcomes, dtype=np.uint64)
        self.tallies = np.asarray(tallies, dtype=np.int64)
        if (self.tallies < 0).any():
            raise SimulationError(f"a count is negative: {self.tallies.min()}")
        if int(self.tallies.sum()) != shots:
            raise SimulationError(f"counts sum to {self.tallies.sum()}, expected {shots}")
        return self

    @property
    def counts(self) -> MappingProxyType:
        return MappingProxyType(dict(zip(bitstrings(self.outcomes, self.n_qubits),
                                         self.tallies.tolist())))

    def to_text(self) -> str:
        """The one section of ``format_sections`` for this histogram alone."""
        return format_sections([self])

    @classmethod
    def from_text(cls, text: str) -> "Histogram":
        """Read the ``to_text`` form: the one section of ``parse_sections``."""
        first, *more = parse_sections(text)
        if more:
            raise SimulationError(f"line {more[0].lines['GROUP']}: a second GROUP; "
                                  "the text of one histogram holds one section")
        return first.histogram


class Section(NamedTuple):
    """One parsed section: its histogram, its ``BASIS`` (None when the
    section has none) and the line number of each header key."""

    histogram: Histogram
    basis: Optional[str]
    lines: dict[str, int]


def format_sections(histograms: Sequence[Histogram],
                    bases: Optional[Sequence[str]] = None) -> str:
    """One section per histogram: ``GROUP``, then ``BASIS`` when ``bases``
    is given, ``SHOTS`` and ``SEED`` lines, then one ``<bits> <count>``
    record per outcome, ascending. All histograms share one width; the
    records of all of them are laid out as ASCII bytes in one pass."""
    if not histograms:
        return ""
    width = histograms[0].n_qubits
    if any(h.n_qubits != width for h in histograms):
        raise SimulationError("histograms of different widths cannot share one text")
    records = _record_bytes(np.concatenate([h.outcomes for h in histograms]),
                            np.concatenate([h.tallies for h in histograms]), width)
    parts, end = [], 0
    for k, h in enumerate(histograms):
        head = [f"GROUP {h.group_id}", *([f"BASIS {bases[k]}"] if bases is not None else []),
                f"SHOTS {h.shots}", f"SEED {h.seed}"]
        rows = records[end:end + len(h.outcomes)]
        parts += ["\n".join(head), "\n", rows[rows != 0].tobytes().decode()]
        end += len(h.outcomes)
    return "".join(parts)


def _record_bytes(outcomes: np.ndarray, tallies: np.ndarray, width: int) -> np.ndarray:
    """Row i holds the ASCII bytes of record i, ``<bits> <count>`` and a
    newline; the count is right-aligned after zero bytes, which hold no text."""
    digits = len(str(int(tallies.max(initial=0))))
    out = np.zeros((len(outcomes), width + digits + 2), dtype=np.uint8)
    _bit_chars(outcomes, width, out[:, :width])
    out[:, width] = ord(" ")
    rest = tallies.copy()
    for j in range(width + digits, width, -1):  # the last digit always, leading zeros never
        out[:, j] = np.where((rest > 0) | (j == width + digits), rest % 10 + ord("0"), 0)
        rest //= 10
    out[:, -1] = ord("\n")
    return out


def parse_sections(text: str, with_basis: bool = False, width: Optional[int] = None,
                   first_line: int = 1) -> list[Section]:
    """Read the ``format_sections`` form, numbering lines from ``first_line``.

    A section is a ``GROUP`` line, the ``BASIS`` line when ``with_basis``,
    ``SHOTS`` and ``SEED`` lines, then records: each ``width`` characters of
    0/1 (by default the length of the first record's bitstring), one space
    and a decimal count below 2**63. Blank lines are skipped. The bit and
    count fields of every record are sliced out of one byte array. Anything
    else, and a bitstring repeated within a section, is refused with its
    line number.
    """
    keys = ("GROUP", "BASIS", "SHOTS", "SEED") if with_basis else ("GROUP", "SHOTS", "SEED")
    lines = _Lines(text, first_line)
    record = ~lines.blank
    if not record.any():
        raise SimulationError(f"no histogram: a section needs {_listed(keys)} lines")
    first = int(np.argmax(record))  # the first line that is not blank
    heads = [i for i in np.flatnonzero(record & (lines.first == ord("G"))).tolist()
             if lines[i].split()[0] == "GROUP"]
    if not heads or heads[0] != first:
        raise SimulationError(f"line {lines.number(first)}: expected 'GROUP <integer>', "
                              f"got {lines[first]!r}")
    headers = []
    for head, stop in zip(heads, heads[1:] + [len(lines)]):
        own = np.flatnonzero(record[head:stop])[:len(keys)] + head
        if len(own) < len(keys):
            raise SimulationError(f"line {lines.number(head)}: a section needs "
                                  f"{_listed(keys)} lines")
        record[own] = False
        headers.append(_section_header(lines, keys, own))
    rows = np.flatnonzero(record)
    if width is None:
        width = len(lines[rows[0]].split()[0]) if len(rows) else 0
    outcomes, tallies = _records(lines, rows, _check_width(width))

    section = np.searchsorted(heads, rows, side="right") - 1
    if not ((section[1:] != section[:-1]) | (outcomes[1:] > outcomes[:-1])).all():
        # records out of ascending order, or repeated: sort each section's
        order = np.lexsort((outcomes, section))
        outcomes, tallies, section = outcomes[order], tallies[order], section[order]
        repeats = np.flatnonzero((section[1:] == section[:-1]) & (outcomes[1:] == outcomes[:-1]))
        if len(repeats):
            bad = rows[order[repeats + 1].min()]
            raise SimulationError(f"line {lines.number(bad)}: bitstring "
                                  f"{lines[bad].split()[0]!r} repeats an earlier record")
    bounds = np.searchsorted(section, np.arange(len(heads) + 1))
    out = []
    for begin, end, (header, numbers) in zip(bounds, bounds[1:], headers):
        try:
            hist = Histogram.from_outcomes(width, outcomes[begin:end], tallies[begin:end],
                                           header["SHOTS"], header["GROUP"], header["SEED"])
        except SimulationError as exc:
            raise SimulationError(f"line {numbers['SHOTS']}: {exc}") from None
        out.append(Section(hist, header.get("BASIS"), numbers))
    return out


class _Lines:
    """The lines of a text as byte ranges of its UTF-8 encoding: ``lines[i]``
    is line i as text, ``first`` holds each line's first byte (0 when it is
    empty) and ``blank`` says which lines hold only whitespace."""

    def __init__(self, text: str, first_line: int):
        self.data, self.first_line = text.encode(), first_line
        self.buf = np.frombuffer(self.data, dtype=np.uint8)
        breaks = np.flatnonzero(self.buf == 10)
        self.starts, self.ends = np.r_[0, breaks + 1], np.r_[breaks, len(self.buf)]
        empty = self.starts == self.ends
        self.first = np.zeros(len(self.starts), dtype=np.uint8)
        self.first[~empty] = self.buf[self.starts[~empty]]
        # only an empty line or one that starts with whitespace can be blank
        self.blank = empty | _WHITESPACE[self.first]
        for i in np.flatnonzero(self.blank & ~empty).tolist():
            self.blank[i] = not self.data[self.starts[i]:self.ends[i]].strip()

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, i) -> str:
        return self.data[self.starts[i]:self.ends[i]].decode()

    def number(self, i) -> int:
        return int(i) + self.first_line


def _section_header(lines: _Lines, keys: Sequence[str], own: np.ndarray):
    """The header values of a section, read from its lines ``own`` (one per
    key), by key, and the line number of each key."""
    values, numbers = {}, {}
    for key, i in zip(keys, own):
        tok = lines[i].split()
        numbers[key] = k = lines.number(i)
        if len(tok) != 2 or tok[0] != key:
            kind = "axes" if key == "BASIS" else "integer"
            raise SimulationError(f"line {k}: expected '{key} <{kind}>', got {' '.join(tok)!r}")
        values[key] = tok[1] if key == "BASIS" else _line_int(k, tok[1])
    return values, numbers


def _records(lines: _Lines, rows: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The outcome and the count of each record on ``rows``, read in blocks
    of ``kernels.BLOCK`` records, which bounds the temporaries of a large file."""
    outcomes = np.empty(len(rows), dtype=np.uint64)
    counts = np.empty(len(rows), dtype=np.int64)
    step = kernels.BLOCK
    for a in range(0, len(rows), step):
        outcomes[a:a + step], counts[a:a + step] = _record_block(lines, rows[a:a + step], width)
    return outcomes, counts


def _record_block(lines: _Lines, rows: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The outcome and the count of each record on ``rows``, read one byte
    column at a time from fixed-width fields: bits at 0..width-1, a space at
    ``width``, then the count's digits to the end of the line."""
    buf, starts, ends = lines.buf, lines.starts[rows], lines.ends[rows]
    lengths = ends - starts
    good = (lengths > width + 1) & (lengths <= width + 1 + _COUNT_DIGITS)
    column = lambda j: buf[np.minimum(starts + j, len(buf) - 1)]
    outcomes = np.zeros(len(rows), dtype=np.uint64)
    for j in range(width):
        bit = column(j)
        good &= (bit | 1) == ord("1")
        outcomes = (outcomes << np.uint64(1)) | (bit & 1)
    good &= column(width) == ord(" ")
    counts = np.zeros(len(rows), dtype=np.uint64)
    for j in range(width + 1, min(int(lengths.max(initial=0)), width + 1 + _COUNT_DIGITS)):
        inside = starts + j < ends
        digit = column(j) - ord("0")
        good &= ~inside | (digit <= 9)
        counts = np.where(inside, counts * np.uint64(10) + digit, counts)
    good &= counts <= _INT64_MAX
    if not good.all():
        bad = rows[np.argmin(good)]
        raise SimulationError(_bad_record(lines.number(bad), lines[bad], width))
    return outcomes, counts


_WHITESPACE = np.isin(np.arange(256), [9, 10, 11, 12, 13, 32])
_COUNT_DIGITS = 19  # every count below 2**63 has at most 19 digits
_INT64_MAX = np.iinfo(np.int64).max


def _listed(keys: Sequence[str]) -> str:
    return f"{', '.join(keys[:-1])} and {keys[-1]}"


def _bad_record(k: int, line: str, width: int) -> str:
    """Why the record on line ``k`` does not read as ``<bits> <count>``."""
    tok = line.split()
    if len(tok) != 2:
        return f"line {k}: expected '<bits> <count>', got {' '.join(tok)!r}"
    bits, count = tok
    if bits.strip("01") or len(bits) != width:
        return f"line {k}: bitstring {bits!r} is not {width} characters of 0/1"
    value = _line_int(k, count)
    if value < 0:
        return f"line {k}: record '{bits} {count}' has a negative count"
    if value > _INT64_MAX:
        return f"line {k}: count {value} does not fit in int64"
    return f"line {k}: expected '<bits> <count>' with one space and decimal digits, got {line!r}"


def bitstrings(outcomes: np.ndarray, n_qubits: int) -> list[str]:
    """``format(i, f"0{n_qubits}b")`` of each uint64 outcome, from its bit
    planes (``_bit_chars``) read as strings."""
    chars = _bit_chars(outcomes, n_qubits, np.empty((len(outcomes), n_qubits), dtype=np.uint8))
    return [b.decode() for b in chars.view(f"S{n_qubits}").ravel().tolist()]


def _bit_chars(outcomes: np.ndarray, n_qubits: int, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with one ASCII '0'/'1' byte per bit of each uint64
    outcome, most significant first, one bit plane at a time."""
    for j in range(n_qubits):
        out[:, j] = (outcomes >> np.uint64(n_qubits - 1 - j)) & np.uint64(1)
    out += np.uint8(ord("0"))
    return out


def _check_width(n_qubits: int) -> int:
    if not 1 <= n_qubits <= 64:
        raise SimulationError(f"a histogram register has 1 to 64 qubits, not {n_qubits}")
    return n_qubits


def _line_int(line: int, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise SimulationError(f"line {line}: {token!r} is not an integer") from None


def sample_group(state: Statevector, group, shots: int, seed: int) -> Histogram:
    """Rotate a copy of the amplitudes into the group's eigenbasis and draw multinomial shots."""
    if shots <= 0:
        raise SimulationError("shots must be positive")
    n = state.n_qubits
    if len(group.basis) != n:
        raise SimulationError(f"group {getattr(group, 'index', 0)}: basis of "
                              f"{len(group.basis)} qubits on a {n}-qubit state")
    amps = state.amplitudes.copy()
    for q, axis in enumerate(group.basis):
        if axis == "Y":
            kernels.apply_phase(amps, q, 1.0, -1.0j)  # Sdg
        if axis in ("X", "Y"):
            kernels.apply_1q(amps, q, _INV_SQRT2, _INV_SQRT2, _INV_SQRT2, -_INV_SQRT2)  # H
    probs = np.abs(amps) ** 2
    draws = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
    return Histogram.from_outcomes(n, np.flatnonzero(draws), draws[draws > 0],
                                   shots, getattr(group, "index", 0), seed)


def group_outcomes(groups: Sequence, histograms: Sequence[Histogram]) -> list[
        tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per group, with one histogram each: the outcomes (the histogram's
    ascending uint64 indices), the group's value on each, and their counts
    as floats.

    After the basis change every member word is diagonal, so its value on
    an outcome is the parity of the outcome's bits on the word's support.
    The supports of the words of all groups come from one ``word_masks``
    pass over their concatenated rows; each group's values are one
    ``kernels.parity_sums`` over its words, in ``group.words`` order.
    """
    if len(groups) != len(histograms):
        raise SimulationError(f"{len(groups)} groups but {len(histograms)} histograms")
    if not groups:
        return []
    n = len(groups[0].basis)
    if any(len(g.basis) != n for g in groups):
        raise SimulationError("groups of different widths cannot share one word table")
    x, z, c = (np.concatenate([getattr(g.words, key) for g in groups]) for key in "xzc")
    xb, zb, _ = word_masks(n, x, z)
    support, coeffs = xb | zb, c.real
    out, lo = [], 0
    for group, hist in zip(groups, histograms):
        if hist.n_qubits != n:
            raise SimulationError(f"group {hist.group_id}: bitstrings are not {n} bits long")
        hi = lo + len(group.words)
        values = kernels.parity_sums(hist.outcomes, support[lo:hi], coeffs[lo:hi])
        out.append((hist.outcomes, values, hist.tallies.astype(np.float64)))
        lo = hi
    return out


def group_estimate(values: np.ndarray, weights: np.ndarray, group_id: int) -> tuple[float, float]:
    """One group's share of the energy estimate: the mean of its per-shot
    totals, and their sample variance over the shot count (0.0 for a single
    shot), which is what the group adds to the variance of the estimate.
    All member words are read off the same shots, so their covariance
    enters through the per-shot totals."""
    shots = weights.sum()
    if shots <= 0:
        raise SimulationError(f"group {group_id} has no shots")
    mean = float(np.dot(values, weights) / shots)
    if shots > 1:
        return mean, float(np.dot(weights, (values - mean) ** 2) / (shots - 1)) / shots
    return mean, 0.0


def summed_estimate(estimates, offset: float) -> tuple[float, float]:
    """Energy and standard error from each group's ``group_estimate``, added
    in group order: groups are sampled independently, so their variances add."""
    energy = float(offset)
    variance = 0.0
    for mean, var in estimates:
        energy += mean
        variance += var
    return energy, math.sqrt(variance)


def energy_from_histograms(groups: Sequence, histograms: Sequence[Histogram],
                           offset: float) -> tuple[float, float]:
    """Energy estimate and standard error from one histogram per group."""
    valued = group_outcomes(groups, histograms)
    return summed_estimate((group_estimate(values, weights, hist.group_id)
                            for (_, values, weights), hist in zip(valued, histograms)), offset)
