"""Independent dense-matrix oracles shared across the test suite.

Everything here is built directly from numpy primitives (kron products,
occupation-number ladder matrices, scipy expm) so it exercises none of the
code paths under test, except ``dense_matrix``: the full 2^n matrix of a
qubit Hamiltonian from its words' amplitude-index masks, for registers up
to 14 qubits. The reference implementations further down (gate
cancellation, QWC grouping, gate kernels, expectation, the Jordan-Wigner
product chain, the Hamiltonian assembled term by term through that chain,
the 2^n filter of a symmetry block, greedy mapping and its candidate
cost, excitation generators one ladder-product chain at a time, the
gate-level Hartree-Fock check,
post-selection on bitstrings, ansatz assembly block by block through the
rewrite pass, ansatz assembly as ``Gate`` lists on axis strings, word
masks one string reversal at a time, sector operators, histogram values
and energy estimates one word or group at a time, the sector product
from a zero vector) are the simple earlier forms of optimized library
routines, kept to pin those routines' output exactly.
"""
import math

import numpy as np
from scipy.linalg import expm

from uccvqe.circuit import (
    DOUBLE_TERM_ORDER,
    Circuit,
    CircuitError,
    Gate,
    cancel_adjacent,
    rewrite_cx_h_cx,
    synth_paired_excitation,
    synth_spatial_to_spin,
)
from uccvqe import kernels
from uccvqe.hamio import (
    HERMITICITY_TOL,
    INTEGRAL_THRESHOLD,
    HamiltonianError,
    MeasurementGroup,
    QubitHamiltonian,
    SectorOperator,
    restrict_to_active,
)
from uccvqe.mapping import QubitMapping, _best_window
from uccvqe.pauli import (
    COEFF_EPS,
    FermionTerm,
    PauliError,
    PauliSum,
    PauliWord,
    antihermitian_generator,
)
from uccvqe.mitigate import MitigationReport, PolicyOutcome, PostSelectionPolicy, MitigationError
from uccvqe.sim import Histogram, SimulationError, Statevector, apply_circuit
from uccvqe.symmetry import in_symmetry_block

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
PAULI_1Q = {"I": I2, "X": X, "Y": Y, "Z": Z}


def word_matrix(word: PauliWord) -> np.ndarray:
    m = np.array([[word.coefficient]], dtype=complex)
    for axis in word.axes:
        m = np.kron(m, PAULI_1Q[axis])
    return m


def sum_matrix(terms: PauliSum) -> np.ndarray:
    dim = 1 << terms.n
    out = np.zeros((dim, dim), dtype=complex)
    for w in terms.words():
        out += word_matrix(w)
    return out


DENSE_QUBIT_LIMIT = 14


def dense_matrix(h: QubitHamiltonian) -> np.ndarray:
    """Full 2^n matrix of a qubit Hamiltonian, offset included, from its
    amplitude-index masks (small references only)."""
    n = h.n_qubits
    if n > DENSE_QUBIT_LIMIT:
        raise HamiltonianError(f"{n} qubits too large for a dense matrix")
    dim = 1 << n
    idx = np.arange(dim, dtype=np.uint64)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[idx.astype(np.int64), idx.astype(np.int64)] = h.offset
    for xb, zb, coeff in mask_table(h.terms):
        src = idx.astype(np.int64)
        dst = (idx ^ np.uint64(xb)).astype(np.int64)
        mat[dst, src] += coeff * kernels.parity_signs(idx, zb)
    return mat


def word_masks_by_format(n: int, x_mask: int, z_mask: int) -> tuple[int, int, int]:
    """One word's amplitude-index masks and Y count, each n-bit mask
    reversed through its binary string."""
    xb, zb = (int(format(mask, f"0{n}b")[::-1], 2) for mask in (x_mask, z_mask))
    return xb, zb, (x_mask & z_mask).bit_count()


def mask_table(terms: PauliSum) -> list[tuple[int, int, complex]]:
    """(x_bits, z_bits, coefficient times i**nY) per word, in ``items`` order."""
    table = []
    for (x, z), c in terms.items():
        xb, zb, ny = word_masks_by_format(terms.n, x, z)
        table.append((xb, zb, c * (1j**ny)))
    return table


def sector_operator_per_word(terms: PauliSum, basis) -> SectorOperator:
    """``sector_operator`` grouping words by x-mask in a dict and adding one
    word's coefficient times its parity signs at a time."""
    states = np.asarray(basis, dtype=np.uint64)
    by_x: dict[int, list[tuple[int, complex]]] = {}
    for xb, zb, coeff in mask_table(terms):
        by_x.setdefault(xb, []).append((zb, coeff))
    gathers = []
    for xb, rows in by_x.items():
        partner = states ^ np.uint64(xb)
        dst = np.minimum(np.searchsorted(states, partner), len(states) - 1)
        src = np.flatnonzero(states[dst] == partner)
        dst = dst[src]
        diag = np.zeros(len(src), dtype=complex)
        for zb, coeff in rows:
            diag += coeff * kernels.parity_signs(states[src], zb)
        live = diag != 0
        if not live.any():
            continue
        diag = diag[live]
        if not diag.imag.any():
            diag = diag.real.copy()
        gathers.append((src[live], dst[live], diag))
    return SectorOperator(len(states), tuple(gathers),
                          np.result_type(float, *(d for _, _, d in gathers)))


def sector_apply_from_zero(op: SectorOperator, v: np.ndarray) -> np.ndarray:
    """``SectorOperator.apply`` adding every gather to a zero vector."""
    out = np.zeros(op.dim, dtype=np.result_type(v, *(diag for _, _, diag in op.gathers)))
    for src, dst, diag in op.gathers:
        out[dst] += diag * v[src]
    return out


def group_outcomes_per_word(group, histogram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One group's outcomes, values and float counts, adding one word's
    coefficient times its parity signs at a time."""
    n = len(group.basis)
    if histogram.n_qubits != n:
        raise SimulationError(f"group {histogram.group_id}: bitstrings are not {n} bits long")
    values = np.zeros(len(histogram.outcomes))
    for w in group.words:
        xb, zb, _ = word_masks_by_format(n, w.x_mask, w.z_mask)
        values += w.coefficient.real * kernels.parity_signs(histogram.outcomes, xb | zb)
    return histogram.outcomes, values, histogram.tallies.astype(np.float64)


def estimate_energy_in_one_loop(samples, offset: float = 0.0) -> tuple[float, float]:
    """Energy and standard error from (values, counts, group id) per group,
    each group's mean and variance added as it is computed."""
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


def run_policies_over_all_groups(groups, valued, sector, mapping, h,
                                 kinds=("particle", "spin")) -> MitigationReport:
    """``run_policies`` estimating every group again for the raw estimate
    and for each policy (``estimate_energy_in_one_loop``)."""
    if len(groups) != len(valued):
        raise MitigationError(f"{len(groups)} groups but {len(valued)} valued histograms")
    if kinds and not any(g.is_z_basis() for g in groups):
        raise MitigationError("no computational-basis measurement group found")

    def outcome(policy: PostSelectionPolicy) -> PolicyOutcome:
        samples, retained = [], 0
        for g, (idx, values, weights) in zip(groups, valued):
            if g.is_z_basis():
                keep = policy.keeps(idx, mapping)
                values, weights = values[keep], weights[keep]
                retained += int(weights.sum())
                if not weights.any():
                    raise policy.discarded(g.index)
            samples.append((values, weights, g.index))
        return PolicyOutcome(*estimate_energy_in_one_loop(samples, h.offset), retained)

    raw = outcome(PostSelectionPolicy("none", sector))
    return MitigationReport(raw.retained_shots, raw,
                            {kind: outcome(PostSelectionPolicy(kind, sector)) for kind in kinds})


def ladder_matrix(p: int, dagger: bool, n: int) -> np.ndarray:
    """Fermionic creation/annihilation in the occupation basis, mode 0 in the
    most significant bit, with the standard ordered-product sign."""
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    for s in range(dim):
        occ = [(s >> (n - 1 - q)) & 1 for q in range(n)]
        if dagger and not occ[p]:
            m[s | (1 << (n - 1 - p)), s] = (-1) ** sum(occ[:p])
        elif not dagger and occ[p]:
            m[s & ~(1 << (n - 1 - p)), s] = (-1) ** sum(occ[:p])
    return m


def fermion_matrix(term: FermionTerm, n: int) -> np.ndarray:
    m = np.eye(1 << n, dtype=complex) * term.coefficient
    for p, dag in term.ops:
        m = m @ ladder_matrix(p, dag, n)
    return m


def circuit_unitary(circuit, params=None) -> np.ndarray:
    dim = 1 << circuit.n_qubits
    u = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[col] = 1.0
        u[:, col] = apply_circuit(Statevector(circuit.n_qubits, amps), circuit, params or {}).amplitudes
    return u


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float) -> tuple[bool, float]:
    anchor = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(a[anchor]) < 1e-13:
        return False, float("inf")
    phase = b[anchor] / a[anchor]
    dev = float(np.max(np.abs(a * phase - b)))
    return dev < tol, dev


def shot_values_by_string(group, histogram) -> tuple[np.ndarray, np.ndarray]:
    """Per-bitstring group totals read character by character: a word is
    (-1)**(number of '1's on its support), summed in ``group.words`` order."""
    values, weights = [], []
    for bits, count in sorted(histogram.counts.items()):
        total = 0.0
        for w in group.words:
            ones = sum(bits[q] == "1" for q in w.support)
            total += w.coefficient.real * (-1 if ones % 2 else 1)
        values.append(total)
        weights.append(count)
    return np.asarray(values), np.asarray(weights, dtype=np.float64)


INVERSE_KIND = {"H": "H", "X": "X", "CNOT": "CNOT", "S": "SDG", "SDG": "S"}


def cancel_adjacent_restarting(circuit: Circuit) -> Circuit:
    """Reference cancellation: find the first gate whose next gate on any of
    its qubits is its inverse on the same qubits, drop both, rescan from the
    start until nothing cancels. Quadratic or worse, but plainly correct."""
    gates = list(circuit.gates)
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(gates):
            inv = INVERSE_KIND.get(g.kind)
            if inv is None:
                continue
            for j in range(i + 1, len(gates)):
                gj = gates[j]
                if not set(gj.qubits) & set(g.qubits):
                    continue
                if gj.kind == inv and gj.qubits == g.qubits:
                    del gates[j]
                    del gates[i]
                    changed = True
                break
            if changed:
                break
    return Circuit(circuit.n_qubits, gates)


def _two_cnot_interface(prev: str, new: str, active, target: int) -> list:
    """Gates between adjacent chain rotations with the interface core left
    as CNOT(u,t) H(u) CNOT(u,t) for the rewrite pass to shrink."""
    changed = [q for q in active if prev[q] != new[q]]
    if not (len(changed) == 2 and target in changed
            and all({prev[q], new[q]} == {"X", "Y"} for q in changed)):
        out = _ladder(active, target)[::-1]
        out += [g for q in active for g in _close_basis(prev[q], q)]
        out += [g for q in active for g in _open_basis(new[q], q)]
        return out + _ladder(active, target)
    u = changed[0] if changed[0] != target else changed[1]
    t_kind = "SDG" if prev[target] == "Y" else "S"
    u_kind = "SDG" if prev[u] == "Y" else "S"
    return [Gate(t_kind, (target,)), Gate("H", (target,)), Gate(t_kind, (target,)),
            Gate(u_kind, (u,)), Gate("CNOT", (u, target)), Gate("H", (u,)),
            Gate("CNOT", (u, target)), Gate(u_kind, (u,))]


def _two_cnot_chain(n: int, terms) -> Circuit:
    active = [q for q, a in enumerate(terms[0][0]) if a != "I"]
    target = active[-1]
    gates = [g for q in active for g in _open_basis(terms[0][0][q], q)]
    gates += _ladder(active, target) + [Gate("RZ", (target,), terms[0][1])]
    for (prev, _), (axes, angle) in zip(terms, terms[1:]):
        gates += _two_cnot_interface(prev, axes, active, target)
        gates.append(Gate("RZ", (target,), angle))
    gates += _ladder(active, target)[::-1]
    gates += [g for q in active for g in _close_basis(terms[-1][0][q], q)]
    return Circuit(n, gates)


def excitation_block_by_rewrite(exc, mapping) -> Circuit:
    """One unpaired excitation as a block: its rotation chain with two-CNOT
    interfaces, then ``rewrite_cx_h_cx``, then ``cancel_adjacent``."""
    terms = _rotation_terms(antihermitian_generator(exc, mapping), f"t{exc.param_id}")
    if exc.kind == "double":
        by_label = {"".join(a for a in axes if a in "XY"): (axes, angle) for axes, angle in terms}
        terms = [by_label[label] for label in DOUBLE_TERM_ORDER]
    else:
        terms = sorted(terms, key=lambda t: t[0])
    return cancel_adjacent(rewrite_cx_h_cx(_two_cnot_chain(mapping.n_qubits, terms)))


def build_ansatz_by_blocks(spec, mapping) -> tuple[Circuit, list[Circuit]]:
    """Reference ansatz assembly: Hartree-Fock X gates, paired blocks,
    fan-out, then each unpaired excitation rewritten and cancelled as its
    own block, and one more cancellation over the whole circuit. Returns
    the circuit and the unpaired blocks in order."""
    gates = [Gate("X", (mapping.alpha_qubit(k),)) for k in range(spec.active_space.n_occupied)]
    for exc in spec.excitations:
        if exc.paired:
            gates += synth_paired_excitation(exc, mapping).gates
    gates += synth_spatial_to_spin(mapping, spec.active_space).gates
    blocks = [excitation_block_by_rewrite(exc, mapping) for exc in spec.excitations
              if not exc.paired]
    for block in blocks:
        gates += block.gates
    return cancel_adjacent(Circuit(mapping.n_qubits, gates)), blocks


def qwc_group_by_axes(h) -> list:
    """Reference first-fit QWC grouping on axis strings, qubit by qubit."""
    order = sorted(h.terms.words(), key=lambda w: (-abs(w.coefficient), w.axes))
    bases: list[list[str]] = []
    members: list[list[PauliWord]] = []
    for w in order:
        axes = w.axes
        placed = False
        for basis, group in zip(bases, members):
            if all(basis[q] in ("-", axes[q]) for q in w.support):
                for q in w.support:
                    basis[q] = axes[q]
                group.append(w)
                placed = True
                break
        if not placed:
            basis = ["-"] * h.n_qubits
            for q in w.support:
                basis[q] = axes[q]
            bases.append(basis)
            members.append([w])
    return [
        MeasurementGroup(i, tuple(ws), tuple(basis))
        for i, (ws, basis) in enumerate(zip(members, bases))
    ]


# Gate kernels as plain whole-array expressions (temporaries allocated per
# call); the production kernels must reproduce them bit for bit.

def apply_1q_dense(state, q, m00, m01, m10, m11) -> None:
    view = state.reshape(1 << q, 2, -1)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = m00 * a0 + m01 * a1
    view[:, 1, :] = m10 * a0 + m11 * a1


def apply_phase_dense(state, q, p0, p1) -> None:
    view = state.reshape(1 << q, 2, -1)
    view[:, 0, :] *= p0
    view[:, 1, :] *= p1


def apply_cnot_dense(state, control, target) -> None:
    if control < target:
        view = state.reshape(1 << control, 2, 1 << (target - control - 1), 2, -1)
        tmp = view[:, 1, :, 0, :].copy()
        view[:, 1, :, 0, :] = view[:, 1, :, 1, :]
        view[:, 1, :, 1, :] = tmp
    else:
        view = state.reshape(1 << target, 2, 1 << (control - target - 1), 2, -1)
        tmp = view[:, 0, :, 1, :].copy()
        view[:, 0, :, 1, :] = view[:, 1, :, 1, :]
        view[:, 1, :, 1, :] = tmp


def expectation_per_word(state, hamiltonian) -> float:
    """<psi|H|psi> with one gather, sign vector and product per word."""
    n = state.n_qubits
    amps = state.amplitudes
    idx = np.arange(amps.size, dtype=np.uint64)
    acc = complex(hamiltonian.offset)
    for w in hamiltonian.terms.words():
        xb, zb, ny = word_masks_by_format(n, w.x_mask, w.z_mask)
        signs = 1.0 - 2.0 * (np.bitwise_count(idx & np.uint64(zb)) & np.uint64(1)).astype(np.float64)
        flipped = (idx ^ np.uint64(xb)).astype(np.int64)
        acc += w.coefficient * (1j**ny) * complex(np.sum(np.conj(amps[flipped]) * signs * amps))
    return float(acc.real)


def hf_check_by_statevector(circuit, hamiltonian) -> tuple[str, float]:
    """The gate-level Hartree-Fock check: run the circuit at zero parameters
    on |0...0>, require a single basis state up to phase, and return its
    bitstring and the per-word expectation of H on it."""
    n = circuit.n_qubits
    state = apply_circuit(Statevector.zero(n), circuit, {p: 0.0 for p in circuit.parameters})
    k = int(np.argmax(np.abs(state.amplitudes)))
    assert abs(abs(state.amplitudes[k]) - 1.0) < 1e-10, "not a basis state"
    return format(k, f"0{n}b"), expectation_per_word(state, hamiltonian)


def exp_generator(generator: PauliSum, theta: float) -> np.ndarray:
    return expm(theta * sum_matrix(generator))


def _word_product(w1: PauliWord, w2: PauliWord) -> PauliWord:
    x3 = w1.x_mask ^ w2.x_mask
    z3 = w1.z_mask ^ w2.z_mask
    k = (
        (w1.x_mask & w1.z_mask).bit_count()
        + (w2.x_mask & w2.z_mask).bit_count()
        - (x3 & z3).bit_count()
        + 2 * (w1.z_mask & w2.x_mask).bit_count()
    ) % 4
    return PauliWord(w1.n, x3, z3, w1.coefficient * w2.coefficient * (1j**k))


def _merged(words) -> dict:
    """(x, z) -> summed coefficient in the order given, |c| < COEFF_EPS dropped."""
    out: dict = {}
    for w in words:
        key = (w.x_mask, w.z_mask)
        out[key] = out.get(key, 0.0 + 0j) + complex(w.coefficient)
    return {k: c for k, c in out.items() if not abs(c) < COEFF_EPS}


def _sorted_words(terms: dict, n: int) -> list:
    return [PauliWord(n, x, z, c) for (x, z), c in sorted(terms.items())]


def product_by_words(a: PauliSum, b: PauliSum) -> dict:
    """Every word of a times every word of b, both walked in sorted order,
    each product a new PauliWord, merged and pruned."""
    return _merged(_word_product(w1, w2) for w1 in a.words() for w2 in b.words())


def jw_transform_by_products(term: FermionTerm, n: int) -> dict:
    """Jordan-Wigner image as a chain of word-by-word products, one per
    ladder operator, each ladder's two words built as PauliWords, pruned
    after every ladder."""
    terms = _merged([PauliWord(n, 0, 0, term.coefficient)])
    for p, dagger in term.ops:
        if not 0 <= p < n:
            raise PauliError(f"mode {p} out of range for {n} qubits")
        zchain = (1 << p) - 1
        sign = -1j if dagger else 1j
        ladder = _merged([PauliWord(n, 1 << p, zchain, 0.5),
                          PauliWord(n, 1 << p, zchain | (1 << p), 0.5 * sign)])
        terms = _merged(_word_product(w1, w2) for w1 in _sorted_words(terms, n)
                        for w2 in _sorted_words(ladder, n))
    return terms


def build_qubit_hamiltonian_by_chains(ints, selection, mapping=None) -> QubitHamiltonian:
    """``build_qubit_hamiltonian`` with one ladder chain
    (``jw_transform_by_products``) per fermion term, same-spin terms with
    p == r or q == s skipped."""
    core, h_eff, g_act, _ = restrict_to_active(ints, selection)
    space = selection.active_space()
    n_act = space.n_orbitals
    if mapping is None:
        mapping = QubitMapping.identity(n_act)
    if mapping.n_qubits != 2 * n_act:
        raise HamiltonianError("mapping register does not fit the active space")

    n = mapping.n_qubits
    alpha = lambda p: mapping.qubit_of(p)
    beta = lambda p: mapping.qubit_of(n_act + p)
    spins = (alpha, beta)

    # One dict merges each image as its term is generated and prunes once.
    # A key occurs once per image, so the order within an image changes no sum.
    merged: dict[tuple[int, int], complex] = {}

    def add(ops, coeff):
        for key, c in jw_transform_by_products(FermionTerm(ops, coeff), n).items():
            merged[key] = merged.get(key, 0j) + c

    for p in range(n_act):
        for q in range(n_act):
            if abs(h_eff[p, q]) > INTEGRAL_THRESHOLD:
                for spin in spins:
                    add(((spin(p), True), (spin(q), False)), h_eff[p, q])
    for p, q, r, s in np.argwhere(np.abs(g_act) > INTEGRAL_THRESHOLD):
        for s1 in spins:
            for s2 in spins:
                if not (s1 is s2 and (p == r or q == s)):  # a+_p a+_p = a_q a_q = 0 in one spin
                    add(((s1(p), True), (s2(r), True), (s2(s), False), (s1(q), False)),
                        0.5 * g_act[p, q, r, s])

    for w in PauliSum.from_masks(n, merged).words():
        if abs(w.coefficient.imag) > HERMITICITY_TOL:
            raise HamiltonianError(
                f"non-hermitian assembly: term {w.axes} has imaginary part "
                f"{w.coefficient.imag:.3e}"
            )
    real_terms = PauliSum.from_masks(n, {key: complex(c.real) for key, c in merged.items()})
    offset = core + real_terms.identity_part().real
    return QubitHamiltonian(n, real_terms.without_identity(), float(offset), mapping, space)


def spin_sector_indices_by_filter(mapping, sector, orbsym=None) -> np.ndarray:
    """Every amplitude index of the register, kept by ``in_symmetry_block``."""
    idx = np.arange(1 << mapping.n_qubits, dtype=np.uint64)
    return idx[in_symmetry_block(idx, mapping, sector, orbsym)].astype(np.int64)


def greedy_map_rescanning(excs, n_qubits: int, seed: int = 0, restarts: int = 32) -> QubitMapping:
    """Greedy mapping that recounts every remaining excitation's placed
    orbitals from its frozenset after every placement, and scores each
    candidate from freshly built spin-orbital sets."""
    n_spatial = n_qubits // 2
    rng = np.random.default_rng(seed)

    def run() -> QubitMapping:
        placed: dict[int, int] = {}
        free = list(range(n_spatial))
        todo = sorted(range(len(excs)), key=lambda k: excs[k].sort_key())
        current = int(rng.integers(len(todo)))
        while todo:
            idx = todo.pop(current)
            orbitals = sorted(excs[idx].spatial_orbitals())
            unplaced = [o for o in orbitals if o not in placed]
            anchor = [placed[o] for o in orbitals if o in placed]
            if unplaced:
                if anchor:
                    for o in unplaced:
                        pos = min(free, key=lambda p: (sum(abs(p - a) for a in anchor), p))
                        placed[o] = pos
                        free.remove(pos)
                        anchor.append(pos)
                else:
                    win = _best_window(free, len(unplaced), sorted(placed.values()))
                    for o, pos in zip(unplaced, win):
                        placed[o] = pos
                        free.remove(pos)
            if not todo:
                break
            shares = [len(excs[k].spatial_orbitals() & placed.keys()) for k in todo]
            if max(shares) > 0:
                current = min(k for k in range(len(todo)) if shares[k] == max(shares))
            else:
                current = int(rng.integers(len(todo)))
        positions = [placed[o] if o in placed else free.pop(0) for o in range(n_spatial)]
        return QubitMapping.from_spatial_order(positions)

    def cost(m):
        total = 0
        for exc in excs:
            qs = sorted(m.qubit_of(so) for so in exc.spin_orbitals(n_spatial))
            total += qs[-1] - qs[0] + 1 - len(qs)
        return total

    candidates = [QubitMapping.identity(n_spatial)] + [run() for _ in range(restarts)]
    return min(candidates, key=lambda m: (cost(m), m.perm))


def mapping_cost_by_sets(excs, mapping) -> int:
    """The candidate cost of ``greedy_map_rescanning``: every excitation's
    span slack from a freshly built spin-orbital set."""
    n_spatial = mapping.n_spatial
    total = 0
    for exc in excs:
        qs = sorted(mapping.qubit_of(so) for so in exc.spin_orbitals(n_spatial))
        total += qs[-1] - qs[0] + 1 - len(qs)
    return total


def antihermitian_generator_by_chains(exc, mapping) -> PauliSum:
    """Generator t - t^dag of one excitation from two ladder-product chains
    (``jw_transform_by_products``, one for t and one for t^dag) and a
    ``PauliSum`` subtraction."""
    n = mapping.n_qubits
    ops: list[tuple[int, bool]] = []
    for create_so, annihilate_so in exc.spin_orbital_pairs(mapping.n_spatial):
        ops.append((mapping.qubit_of(create_so), True))
        ops.append((mapping.qubit_of(annihilate_so), False))
    t = FermionTerm(tuple(ops))
    image = lambda term: PauliSum.from_masks(n, jw_transform_by_products(term, n))
    return image(t) - image(t.adjoint())


def postselect_by_string(hist, kind: str, n_alpha: int, n_beta: int, mapping=None):
    """Reference post-selection on bitstrings: 'particle' counts every '1',
    'spin' counts the '1's on the mapping's alpha and beta qubits."""
    kept = {}
    for bits, count in hist.counts.items():
        if kind == "particle":
            ok = bits.count("1") == n_alpha + n_beta
        else:
            ok = (sum(bits[q] == "1" for q in mapping.alpha_qubits()) == n_alpha
                  and sum(bits[q] == "1" for q in mapping.beta_qubits()) == n_beta)
        if ok:
            kept[bits] = count
    assert kept, f"post-selection '{kind}' discarded every shot of group {hist.group_id}"
    return Histogram(kept, sum(kept.values()), hist.group_id, hist.seed)


# D2h character table over the operations (E, C2z, C2y, C2x, i, s_xy, s_xz,
# s_yz); rows ordered by the ORBSYM label convention (Ag, B3u, B2u, B1g,
# B1u, B2g, B3g, Au). Multiplying characters pointwise and matching the
# result row gives an irrep product oracle that never touches XOR codes.
D2H_CHARACTERS = {
    1: (1, 1, 1, 1, 1, 1, 1, 1),      # Ag
    2: (1, -1, -1, 1, -1, 1, 1, -1),  # B3u
    3: (1, -1, 1, -1, -1, 1, -1, 1),  # B2u
    4: (1, 1, -1, -1, 1, 1, -1, -1),  # B1g
    5: (1, 1, -1, -1, -1, -1, 1, 1),  # B1u
    6: (1, -1, 1, -1, 1, -1, 1, -1),  # B2g
    7: (1, -1, -1, 1, 1, -1, -1, 1),  # B3g
    8: (1, 1, 1, 1, -1, -1, -1, -1),  # Au
}


def d2h_product_label(a: int, b: int) -> int:
    chars = tuple(x * y for x, y in zip(D2H_CHARACTERS[a], D2H_CHARACTERS[b]))
    for label, row in D2H_CHARACTERS.items():
        if row == chars:
            return label
    raise AssertionError(f"no irrep with characters {chars}")


# Ansatz synthesis as ``Gate`` lists on axis strings: every rotation carries
# its full axes string, every emitted gate is a ``Gate``, and the assembled
# chain goes through one ``cancel_adjacent`` on a validated ``Circuit``.

def _open_basis(axis: str, q: int) -> list:
    if axis == "X":
        return [Gate("H", (q,))]
    if axis == "Y":
        return [Gate("SDG", (q,)), Gate("H", (q,))]
    return []


def _close_basis(axis: str, q: int) -> list:
    if axis == "X":
        return [Gate("H", (q,))]
    if axis == "Y":
        return [Gate("H", (q,)), Gate("S", (q,))]
    return []


def _ladder(active, target: int) -> list:
    return [Gate("CNOT", (q, target)) for q in active if q != target]


def _rewrite_template(c: int, t: int) -> list:
    return [Gate("S", (c,)), Gate("H", (t,)), Gate("CNOT", (t, c)), Gate("SDG", (c,)),
            Gate("S", (t,)), Gate("H", (c,)), Gate("H", (t,))]


def _rotation_terms(generator: PauliSum, param: str) -> list:
    """(axes string, angle) per word of an anti-hermitian generator."""
    terms = []
    for w in generator.words():
        if abs(w.coefficient.real) > 1e-9:
            raise CircuitError("generator coefficients must be purely imaginary")
        terms.append((w.axes, (-2.0 * w.coefficient.imag, param)))
    return terms


def _interface_on_axes(prev: str, new: str, active, target: int) -> list:
    changed = [q for q in active if prev[q] != new[q]]
    if not (len(changed) == 2 and changed[1] == target
            and all({prev[q], new[q]} == {"X", "Y"} for q in changed)):
        out = _ladder(active, target)[::-1]
        for q in active:
            out.extend(_close_basis(prev[q], q))
        for q in active:
            out.extend(_open_basis(new[q], q))
        out.extend(_ladder(active, target))
        return out
    u = changed[0]
    t_kind = "SDG" if prev[target] == "Y" else "S"
    u_kind = "SDG" if prev[u] == "Y" else "S"
    return [Gate(t_kind, (target,)), Gate("H", (target,)), Gate(t_kind, (target,)),
            Gate(u_kind, (u,)), *_rewrite_template(u, target), Gate(u_kind, (u,))]


def gadget_chain_on_axes(terms) -> list:
    """Gate list of a chain of (axes string, angle) rotations on one support."""
    first_axes = terms[0][0]
    active = [q for q, a in enumerate(first_axes) if a != "I"]
    if not active:
        raise CircuitError("rotation with empty support")
    for axes, _ in terms:
        if [q for q, a in enumerate(axes) if a != "I"] != active:
            raise CircuitError("chain terms act on different qubit sets")
    target = active[-1]
    gates = []
    for q in active:
        gates.extend(_open_basis(first_axes[q], q))
    gates.extend(_ladder(active, target))
    gates.append(Gate("RZ", (target,), terms[0][1]))
    for (prev, _), (axes, angle) in zip(terms, terms[1:]):
        gates.extend(_interface_on_axes(prev, axes, active, target))
        gates.append(Gate("RZ", (target,), angle))
    gates.extend(_ladder(active, target)[::-1])
    for q in active:
        gates.extend(_close_basis(terms[-1][0][q], q))
    return gates


def excitation_chain_on_axes(exc, mapping, param: str) -> list:
    """Uncancelled chain of an unpaired excitation: a single's two rotations
    in axes order, a double's eight in ``DOUBLE_TERM_ORDER``."""
    terms = _rotation_terms(antihermitian_generator(exc, mapping), param)
    if exc.kind == "single":
        return gadget_chain_on_axes(sorted(terms, key=lambda t: t[0]))
    by_label = {}
    support = None
    for axes, angle in terms:
        xy = [q for q, a in enumerate(axes) if a in "XY"]
        if support is None:
            support = xy
        elif xy != support:
            raise CircuitError("double-excitation words disagree on X/Y support")
        by_label["".join(axes[q] for q in xy)] = (axes, angle)
    if len(by_label) != 8:
        raise CircuitError(f"expected 8 rotation terms, got {len(by_label)}")
    return gadget_chain_on_axes([by_label[label] for label in DOUBLE_TERM_ORDER])


def build_ansatz_on_axes(spec, mapping) -> Circuit:
    """Reference ansatz assembly: Hartree-Fock X gates, paired blocks,
    fan-out and every unpaired chain as ``Gate`` lists, then one
    ``cancel_adjacent`` over the whole circuit."""
    gates = [Gate("X", (mapping.alpha_qubit(k),)) for k in range(spec.active_space.n_occupied)]
    for exc in spec.excitations:
        if exc.paired:
            gates += synth_paired_excitation(exc, mapping).gates
    gates += synth_spatial_to_spin(mapping, spec.active_space).gates
    for exc in spec.excitations:
        if not exc.paired:
            gates += excitation_chain_on_axes(exc, mapping, f"t{exc.param_id}")
    return cancel_adjacent(Circuit(mapping.n_qubits, gates))
