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
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .circuit import Circuit, Gate

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

    @classmethod
    def from_bitstring(cls, bits: str) -> "Statevector":
        n = len(bits)
        _check_cap(n)
        amps = np.zeros(1 << n, dtype=np.complex128)
        amps[int(bits, 2)] = 1.0
        return cls(n, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def copy(self) -> "Statevector":
        return Statevector(self.n_qubits, self.amplitudes.copy())


def word_masks(n: int, x_mask: int, z_mask: int) -> tuple[int, int, int]:
    """Convert qubit-indexed Pauli masks to amplitude-index masks; returns
    (x_bits, z_bits, y_count). Qubit q is bit q of a word mask and bit
    n - 1 - q of an index mask, so the conversion reverses the n bits."""
    xb, zb = (int(format(mask, f"0{n}b")[::-1], 2) for mask in (x_mask, z_mask))
    return xb, zb, (x_mask & z_mask).bit_count()


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
            kernels.apply_cnot(amps, n, g.qubits[0], g.qubits[1])
        elif g.kind == "X":
            kernels.apply_1q(amps, n, g.qubits[0], 0.0, 1.0, 1.0, 0.0)
        elif g.kind == "H":
            kernels.apply_1q(amps, n, g.qubits[0], _INV_SQRT2, _INV_SQRT2, _INV_SQRT2, -_INV_SQRT2)
        elif g.kind == "S":
            kernels.apply_phase(amps, n, g.qubits[0], 1.0, 1.0j)
        elif g.kind == "SDG":
            kernels.apply_phase(amps, n, g.qubits[0], 1.0, -1.0j)
        elif g.kind == "RZ":
            theta = g.resolve_angle(params)
            kernels.apply_phase(
                amps, n, g.qubits[0],
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
    n = state.n_qubits
    acc = complex(hamiltonian.offset)
    for w in hamiltonian.terms.words():
        xb, zb, ny = word_masks(n, w.x_mask, w.z_mask)
        acc += w.coefficient * (1j**ny) * kernels.pauli_expectation(state.amplitudes, n, xb, zb)
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
        if int(self.tallies.sum()) != shots:
            raise SimulationError(f"counts sum to {self.tallies.sum()}, expected {shots}")
        return self

    @property
    def counts(self) -> MappingProxyType:
        return MappingProxyType(dict(zip(bitstrings(self.outcomes, self.n_qubits),
                                         self.tallies.tolist())))

    def to_text(self) -> str:
        lines = [f"GROUP {self.group_id}", f"SHOTS {self.shots}", f"SEED {self.seed}"]
        lines += [f"{bits} {count}" for bits, count in
                  zip(bitstrings(self.outcomes, self.n_qubits), self.tallies.tolist())]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Histogram":
        """Read the ``to_text`` form: ``GROUP``, ``SHOTS`` and ``SEED`` lines
        with one integer each, then one ``<bits> <count>`` record per
        bitstring. Blank lines are skipped; anything else is refused with
        its line number."""
        lines = [(k, ln.split()) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        header = []
        for key, (k, tok) in zip(("GROUP", "SHOTS", "SEED"), lines):
            if len(tok) != 2 or tok[0] != key:
                raise SimulationError(f"line {k}: expected '{key} <integer>', got {' '.join(tok)!r}")
            header.append(_line_int(k, tok[1]))
        if len(header) < 3:
            raise SimulationError("malformed histogram file: needs GROUP, SHOTS and SEED lines")
        counts: dict[str, int] = {}
        for k, tok in lines[3:]:
            if len(tok) != 2:
                raise SimulationError(f"line {k}: expected '<bits> <count>', got {' '.join(tok)!r}")
            if tok[0] in counts:
                raise SimulationError(f"line {k}: bitstring {tok[0]!r} repeats an earlier record")
            counts[tok[0]] = _line_int(k, tok[1])
        group_id, shots, seed = header
        return cls(counts, shots, group_id, seed)


def bitstrings(outcomes: np.ndarray, n_qubits: int) -> list[str]:
    """``format(i, f"0{n_qubits}b")`` of each uint64 outcome, from bit planes:
    one ASCII '0'/'1' byte per bit, most significant first, read as strings."""
    shifts = np.arange(n_qubits - 1, -1, -1, dtype=np.uint64)
    chars = ((outcomes[:, None] >> shifts) & np.uint64(1)).astype(np.uint8) + np.uint8(48)
    return [b.decode() for b in chars.view(f"S{n_qubits}").ravel().tolist()]


def _check_width(n_qubits: int) -> int:
    if not 1 <= n_qubits <= 64:
        raise SimulationError(f"a histogram register has 1 to 64 qubits, not {n_qubits}")
    return n_qubits


def _line_int(line: int, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise SimulationError(f"line {line}: {token!r} is not an integer") from None


def basis_change_circuit(group, n: int) -> Circuit:
    """H for X-assigned qubits, Sdg then H for Y-assigned ones."""
    gates = []
    for q, axis in enumerate(group.basis):
        if axis == "X":
            gates.append(Gate("H", (q,)))
        elif axis == "Y":
            gates.append(Gate("SDG", (q,)))
            gates.append(Gate("H", (q,)))
    return Circuit(n, gates)


def sample_group(state: Statevector, group, shots: int, seed: int) -> Histogram:
    """Rotate into the group's shared eigenbasis and draw multinomial shots."""
    if shots <= 0:
        raise SimulationError("shots must be positive")
    rotated = apply_circuit(state, basis_change_circuit(group, state.n_qubits))
    probs = rotated.probabilities()
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs)
    return Histogram.from_outcomes(state.n_qubits, np.flatnonzero(draws), draws[draws > 0],
                                   shots, getattr(group, "index", 0), seed)


def group_outcomes(group, histogram: Histogram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A group's outcomes (the histogram's ascending uint64 indices), the
    group's value on each, and their counts as floats.

    After the basis change every member word is diagonal, so its value on
    an outcome is the parity of the outcome's bits on the word's support.
    """
    n = len(group.basis)
    if histogram.n_qubits != n:
        raise SimulationError(f"group {histogram.group_id}: bitstrings are not {n} bits long")
    values = np.zeros(len(histogram.outcomes))
    for w in group.words:
        xb, zb, _ = word_masks(n, w.x_mask, w.z_mask)
        values += w.coefficient.real * kernels.parity_signs(histogram.outcomes, xb | zb)
    return histogram.outcomes, values, histogram.tallies.astype(np.float64)


def estimate_energy(samples, offset: float = 0.0) -> tuple[float, float]:
    """Energy estimate and standard error from (values, counts, group id) per group.

    Within a group all member words are read off the same shots, so their
    covariance enters through the per-shot group totals; groups are sampled
    independently and their variances add.
    """
    energy = float(offset)
    variance = 0.0
    for values, weights, group_id in samples:
        shots = weights.sum()
        if shots <= 0:
            raise SimulationError(f"group {group_id} has no shots")
        mean = float(np.dot(values, weights) / shots)
        energy += mean
        if shots > 1:
            var = float(np.dot(weights, (values - mean) ** 2) / (shots - 1))
            variance += var / shots
    return energy, math.sqrt(variance)


def energy_from_histograms(groups: Sequence, histograms: Sequence[Histogram],
                           offset: float = 0.0) -> tuple[float, float]:
    """Energy estimate and standard error from one histogram per group."""
    if len(groups) != len(histograms):
        raise SimulationError(f"{len(groups)} groups but {len(histograms)} histograms")
    return estimate_energy(((*group_outcomes(group, hist)[1:], hist.group_id)
                            for group, hist in zip(groups, histograms)), offset)
