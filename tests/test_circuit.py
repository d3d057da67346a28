import hashlib

import numpy as np
import pytest

from conftest import random_block_mapping, random_integrals
from oracles import (
    INVERSE_KIND,
    build_ansatz_by_blocks,
    build_ansatz_on_axes,
    cancel_adjacent_restarting,
    circuit_unitary,
    equal_up_to_phase,
    exp_generator,
    sum_matrix,
)
from uccvqe.ansatz import VARIANTS, ActiveSpace, AnsatzSpec, Excitation, enumerate_excitations
from uccvqe.circuit import (
    Circuit,
    CircuitError,
    DOUBLE_TERM_ORDER,
    Gate,
    build_ansatz_circuit,
    cancel_adjacent,
    count_2qge,
    rewrite_cx_h_cx,
    synth_double_excitation,
    synth_paired_excitation,
    synth_single_excitation,
    synth_spatial_to_spin,
)
from uccvqe.hamio import ActiveSelection
from uccvqe.mapping import QubitMapping, greedy_map
from uccvqe.pauli import antihermitian_generator
from uccvqe.sim import Statevector, apply_circuit
from uccvqe.symmetry import OrbitalSymmetry, SpinSector


def random_clifford_rz(n, length, rng):
    gates = []
    for _ in range(length):
        kind = rng.choice(["X", "H", "S", "SDG", "RZ", "CNOT"])
        if kind == "CNOT":
            c, t = rng.choice(n, size=2, replace=False)
            gates.append(Gate("CNOT", (int(c), int(t))))
        elif kind == "RZ":
            gates.append(Gate("RZ", (int(rng.integers(n)),), float(rng.normal())))
        else:
            gates.append(Gate(kind, (int(rng.integers(n)),)))
    return Circuit(n, gates)


class TestGateAndCircuit:
    def test_cnot_needs_distinct_qubits(self):
        with pytest.raises(CircuitError):
            Gate("CNOT", (1, 1))

    def test_rz_needs_angle(self):
        with pytest.raises(CircuitError):
            Gate("RZ", (0,))

    @pytest.mark.parametrize("kind, qubits, angle, message", [
        ("CZ", (0, 1), None, "unknown gate kind 'CZ'"),
        ("H", (0, 1), None, "H is a single-qubit gate"),
        ("RZ", (), 0.5, "RZ is a single-qubit gate"),
        ("CNOT", (2,), None, "CNOT needs distinct control and target"),
    ])
    def test_bad_gate_refused(self, kind, qubits, angle, message):
        with pytest.raises(CircuitError, match=message):
            Gate(kind, qubits, angle)

    @pytest.mark.parametrize("gate", [Gate("H", (2,)), Gate("CNOT", (0, 2)), Gate("X", (-1,))])
    def test_gate_outside_register_refused(self, gate):
        with pytest.raises(CircuitError, match="outside 2-qubit register"):
            Circuit(2, [Gate("H", (0,)), gate])
        with pytest.raises(CircuitError, match="outside 2-qubit register"):
            Circuit.from_text(f"QUBITS 2\n{gate.to_line()}\n")

    def test_unbound_parameter(self):
        g = Gate("RZ", (0,), (0.5, "t0"))
        with pytest.raises(CircuitError, match="t0"):
            g.resolve_angle({})

    def test_text_round_trip(self):
        c = Circuit(3, [
            Gate("X", (0,)),
            Gate("H", (2,)),
            Gate("CNOT", (0, 2)),
            Gate("RZ", (1,), 0.25),
            Gate("RZ", (2,), (-0.25, "t1")),
            Gate("SDG", (1,)),
        ])
        again = Circuit.from_text(c.to_text())
        assert again.gates == c.gates
        assert again.n_qubits == 3

    def test_parameters_in_first_use_order(self):
        c = Circuit(2, [Gate("RZ", (0,), (1.0, "b")), Gate("RZ", (1,), (2.0, "a"))])
        assert c.parameters == ("b", "a")


def pauli_rotation(axes, angle):
    """The gadget chain of the one rotation exp(-i angle/2 P), P given as
    an axes string."""
    from uccvqe.circuit import _gadget_chain

    return _op_circuit(len(axes), _gadget_chain(_mask_terms([(axes, angle)])))


class TestPauliRotation:
    def test_single_z_is_bare_rz(self):
        c = pauli_rotation("Z", 0.7)
        assert len(c.gates) == 1 and c.gates[0].kind == "RZ"
        assert count_2qge(c) == 0

    def test_four_qubit_word_needs_six_cnots(self):
        assert count_2qge(pauli_rotation("XXXY", 0.3)) == 6

    def test_empty_support_rejected(self):
        with pytest.raises(CircuitError):
            pauli_rotation("II", 0.1)

    def test_matches_dense_exponential(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            n = int(rng.integers(1, 5))
            axes = "".join(rng.choice(list("IXYZ")) for _ in range(n))
            if set(axes) == {"I"}:
                continue
            theta = float(rng.normal())
            got = circuit_unitary(pauli_rotation(axes, theta))
            want = exp_generator(_as_sum(axes, -0.5j), theta)
            ok, dev = equal_up_to_phase(got, want, 1e-10)
            assert ok, (axes, dev)


def _as_sum(axes, coeff):
    from uccvqe.pauli import PauliSum, PauliWord

    return PauliSum(len(axes), [PauliWord.from_axes(axes, coeff)])


class TestDoubleExcitation:
    def test_term_order_structure(self):
        # adjacent labels differ on exactly two slots and the ladder target
        # (last slot) always flips between the X and Y eigenbases
        for prev, cur in zip(DOUBLE_TERM_ORDER, DOUBLE_TERM_ORDER[1:]):
            diffs = [k for k in range(4) if prev[k] != cur[k]]
            assert len(diffs) == 2
            assert 3 in diffs

    def test_unitary_matches_generator_exponential(self):
        rng = np.random.default_rng(31)
        cases = [
            (Excitation("double", "ab", (0, 1), (2, 3), 0), QubitMapping.identity(4)),
            (Excitation("double", "ab", (0, 0), (1, 2), 0), QubitMapping.identity(3)),
            (Excitation("double", "aa", (0, 1), (2, 3), 0), QubitMapping.identity(4)),
            (Excitation("double", "ab", (0, 1), (3, 2), 0), QubitMapping.from_spatial_order([0, 2, 1, 3])),
        ]
        for exc, mapping in cases:
            theta = float(rng.normal())
            circ = synth_double_excitation(exc, mapping, "t")
            got = circuit_unitary(circ, {"t": theta})
            want = exp_generator(antihermitian_generator(exc, mapping), theta)
            ok, dev = equal_up_to_phase(got, want, 1e-10)
            assert ok, (exc.label(), dev)

    def test_merged_chain_beats_standalone_synthesis(self):
        exc = Excitation("double", "aa", (0, 1), (2, 3), 0)
        mapping = QubitMapping.identity(4)
        merged = count_2qge(synth_double_excitation(exc, mapping, "t"))
        standalone = sum(
            count_2qge(pauli_rotation(w.axes, 1.0))
            for w in antihermitian_generator(exc, mapping).words()
        )
        assert merged == 13
        assert merged < standalone

    def test_zero_angle_is_identity(self):
        circ = synth_double_excitation(Excitation("double", "aa", (0, 1), (2, 3), 0),
                                       QubitMapping.identity(4), "t")
        u = circuit_unitary(circ, {"t": 0.0})
        ok, _ = equal_up_to_phase(u, np.eye(u.shape[0]), 1e-10)
        assert ok

    def test_paired_input_rejected(self):
        with pytest.raises(CircuitError):
            synth_double_excitation(Excitation("double", "ab", (0, 0), (1, 1), 0),
                                    QubitMapping.identity(2), "t")


class TestGadgetChains:
    def test_general_interfaces_match_rotation_products(self):
        # exercises the close-everything/reopen fallback for term pairs that
        # do not fit the two-qubit X<->Y interface
        from scipy.linalg import expm

        from uccvqe.circuit import _gadget_chain
        from uccvqe.pauli import PauliSum, PauliWord

        chains = [
            [("XZY", 0.4), ("ZXY", -0.7)],
            [("XZZ", 0.2), ("XXX", 0.5)],
            [("ZZZZ", 1.1), ("XXZZ", -0.2), ("YYZZ", 0.8)],
        ]
        for terms in chains:
            n = len(terms[0][0])
            got = circuit_unitary(_op_circuit(n, _gadget_chain(_mask_terms(terms))))
            want = np.eye(1 << n, dtype=complex)
            for axes, angle in terms:
                mat = sum_matrix(PauliSum(n, [PauliWord.from_axes(axes, 1.0)]))
                want = expm(-1j * angle / 2 * mat) @ want
            ok, dev = equal_up_to_phase(got, want, 1e-10)
            assert ok, ([t[0] for t in terms], dev)

    def test_mixed_support_rejected(self):
        from uccvqe.circuit import _gadget_chain

        with pytest.raises(CircuitError, match="different qubit sets"):
            _gadget_chain(_mask_terms([("XY", 0.1), ("XI", 0.2)]))


def _mask_terms(terms):
    """(axes string, angle) rotations as the (x_mask, z_mask, angle) terms
    that synthesis takes."""
    from uccvqe.pauli import PauliWord

    words = [(PauliWord.from_axes(axes), angle) for axes, angle in terms]
    return [(w.x_mask, w.z_mask, angle) for w, angle in words]


def _op_circuit(n, ops):
    """A validated circuit of emitted (kind, qubits, angle) tuples."""
    return Circuit(n, [Gate(*op) for op in ops])


class TestRewrite:
    def test_bare_pattern_becomes_one_cnot(self):
        pattern = Circuit(2, [Gate("CNOT", (0, 1)), Gate("H", (0,)), Gate("CNOT", (0, 1))])
        out = rewrite_cx_h_cx(pattern)
        assert out.cnot_count() == 1
        ok, dev = equal_up_to_phase(circuit_unitary(out), circuit_unitary(pattern), 1e-12)
        assert ok, dev

    def test_no_match_is_fixpoint(self):
        c = Circuit(2, [Gate("CNOT", (0, 1)), Gate("H", (1,)), Gate("CNOT", (0, 1))])
        assert rewrite_cx_h_cx(c).gates == c.gates

    def test_random_circuits_preserved(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            c = random_clifford_rz(4, 40, rng)
            out = rewrite_cx_h_cx(c)
            assert out.cnot_count() <= c.cnot_count()
            ok, dev = equal_up_to_phase(circuit_unitary(out), circuit_unitary(c), 1e-12)
            assert ok, dev

    def test_idempotent_at_fixpoint(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            c = random_clifford_rz(3, 30, rng)
            once = rewrite_cx_h_cx(c)
            assert rewrite_cx_h_cx(once).gates == once.gates

    def test_cancel_adjacent_preserves_unitary(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            c = random_clifford_rz(4, 30, rng)
            out = cancel_adjacent(c)
            assert len(out.gates) <= len(c.gates)
            ok, dev = equal_up_to_phase(circuit_unitary(out), circuit_unitary(c), 1e-12)
            assert ok, dev


class TestPairedExcitation:
    def test_two_cnots(self):
        exc = Excitation("double", "ab", (0, 0), (1, 1), 0)
        assert count_2qge(synth_paired_excitation(exc, QubitMapping.identity(2), "t")) == 2

    def test_zero_angle_identity(self):
        exc = Excitation("double", "ab", (0, 0), (1, 1), 0)
        circ = synth_paired_excitation(exc, QubitMapping.identity(2), "t")
        u = circuit_unitary(circ, {"t": 0.0})
        ok, _ = equal_up_to_phase(u, np.eye(16), 1e-10)
        assert ok

    def test_matches_pair_generator_through_fanout(self):
        # on pair states the encoded block plus fan-out reproduces the full
        # Jordan-Wigner rotation of the pair generator
        rng = np.random.default_rng(53)
        space = ActiveSpace(2, 3)
        mapping = QubitMapping.identity(3)
        exc = Excitation("double", "ab", (0, 0), (2, 2), 0)
        theta = float(rng.normal())
        prep = Circuit(6, [Gate("X", (mapping.alpha_qubit(0),))])
        circ = Circuit(6, prep.gates + synth_paired_excitation(exc, mapping, "t").gates
                       + synth_spatial_to_spin(mapping, space).gates)
        state = apply_circuit(Statevector.zero(6), circ, {"t": theta})
        hf = np.zeros(1 << 6, dtype=complex)
        hf[int("100100", 2)] = 1.0
        want = exp_generator(antihermitian_generator(exc, mapping), theta) @ hf
        assert abs(abs(np.vdot(want, state.amplitudes)) - 1.0) < 1e-10

    def test_non_paired_rejected(self):
        with pytest.raises(CircuitError):
            synth_paired_excitation(Excitation("double", "ab", (0, 1), (2, 3), 0),
                                    QubitMapping.identity(4), "t")


class TestSpatialToSpin:
    def test_cnot_count_equals_orbital_count(self):
        assert count_2qge(synth_spatial_to_spin(QubitMapping.identity(2), ActiveSpace(2, 2))) == 2
        assert count_2qge(synth_spatial_to_spin(QubitMapping.identity(4), ActiveSpace(4, 4))) == 4

    def test_copies_alpha_register(self):
        mapping = QubitMapping.identity(4)
        prep = Circuit(8, [Gate("X", (0,)), Gate("X", (1,))])
        circ = Circuit(8, prep.gates + synth_spatial_to_spin(mapping, ActiveSpace(4, 4)).gates)
        state = apply_circuit(Statevector.zero(8), circ)
        assert abs(state.amplitudes[int("11001100", 2)] - 1.0) < 1e-12


class TestBuildAnsatz:
    def test_minimal_space_gate_count(self):
        spec = enumerate_excitations("uccdab", ActiveSpace(2, 2), OrbitalSymmetry.from_labels([1, 5]))
        circ = build_ansatz_circuit(spec, QubitMapping.identity(2))
        assert count_2qge(circ) == 4

    def test_benzene_pi_space_gate_count(self, benzene_pi_symmetry):
        spec = enumerate_excitations("uccdab", ActiveSpace(4, 4), benzene_pi_symmetry)
        mapping = greedy_map(spec.excitations, 8, seed=0, restarts=32)
        assert count_2qge(build_ansatz_circuit(spec, mapping)) == 72

    def test_nothing_to_prepare_gives_no_gates(self):
        # no electron and no excitation: no orbital is ever filled
        spec = enumerate_excitations("uccdab", ActiveSpace(0, 2))
        assert spec.parameter_count == 0
        assert build_ansatz_circuit(spec, QubitMapping.identity(2)).gates == ()

    def test_fan_out_skips_orbitals_never_filled(self):
        # orbital 1 is virtual and reached only by the unpaired single, which
        # acts after the fan-out; orbital 2 is reached by the paired double
        space = ActiveSpace(2, 3)
        excs = (Excitation("double", "ab", (0, 0), (2, 2), 0),
                Excitation("single", "aa", (0,), (1,), 1),
                Excitation("single", "bb", (0,), (1,), 2))
        spec = AnsatzSpec("uccsd", space, excs, None)
        rng = np.random.default_rng(71)
        mapping = random_block_mapping(3, rng)
        got = build_ansatz_circuit(spec, mapping)
        full = build_ansatz_on_axes(spec, mapping)
        assert count_2qge(got) == count_2qge(full) - 1
        binding = dict(zip(spec.parameter_names(), rng.normal(size=3).tolist()))
        a, b = (apply_circuit(Statevector.zero(6), c, binding).amplitudes for c in (got, full))
        assert np.allclose(a, b, atol=1e-12)

    def test_zero_parameters_give_hartree_fock(self, benzene_pi_symmetry):
        spec = enumerate_excitations("uccdab", ActiveSpace(4, 4), benzene_pi_symmetry)
        mapping = greedy_map(spec.excitations, 8, seed=0, restarts=8)
        circ = build_ansatz_circuit(spec, mapping)
        state = apply_circuit(Statevector.zero(8), circ, {p: 0.0 for p in spec.parameter_names()})
        hf_index = 0
        for k in range(2):
            hf_index |= 1 << (7 - mapping.alpha_qubit(k))
            hf_index |= 1 << (7 - mapping.beta_qubit(k))
        assert abs(abs(state.amplitudes[hf_index]) - 1.0) < 1e-12

    def test_matches_dense_exponential_product(self, benzene_pi_symmetry):
        rng = np.random.default_rng(61)
        spec = enumerate_excitations("uccdab", ActiveSpace(4, 4), benzene_pi_symmetry)
        mapping = greedy_map(spec.excitations, 8, seed=0, restarts=8)
        thetas = rng.normal(scale=0.4, size=spec.parameter_count)
        binding = dict(zip(spec.parameter_names(), map(float, thetas)))
        state = apply_circuit(Statevector.zero(8), build_ansatz_circuit(spec, mapping), binding)

        hf = np.zeros(1 << 8, dtype=complex)
        idx = 0
        for k in range(2):
            idx |= 1 << (7 - mapping.alpha_qubit(k))
            idx |= 1 << (7 - mapping.beta_qubit(k))
        hf[idx] = 1.0
        ref = hf
        ordered = [e for e in spec.excitations if e.paired] + [e for e in spec.excitations if not e.paired]
        for exc in ordered:
            g = antihermitian_generator(exc, mapping)
            ref = exp_generator(g, binding[f"t{exc.param_id}"]) @ ref
        assert abs(abs(np.vdot(ref, state.amplitudes)) - 1.0) < 1e-9

    def test_parameter_relabeling_only_touches_rz_references(self, benzene_pi_symmetry):
        spec = enumerate_excitations("uccdab", ActiveSpace(4, 4), benzene_pi_symmetry)
        mapping = greedy_map(spec.excitations, 8, seed=0, restarts=4)
        relabeled = type(spec)(
            spec.variant, spec.active_space,
            tuple(e.with_param(spec.parameter_count - 1 - e.param_id) for e in spec.excitations),
            spec.orbsym,
        )
        a = build_ansatz_circuit(spec, mapping)
        b = build_ansatz_circuit(relabeled, mapping)
        assert len(a.gates) == len(b.gates)
        for ga, gb in zip(a.gates, b.gates):
            assert ga.kind == gb.kind and ga.qubits == gb.qubits
            if ga.kind == "RZ":
                assert ga.angle[0] == gb.angle[0]

    def test_state_stays_in_hartree_fock_sector(self, benzene_pi_symmetry):
        rng = np.random.default_rng(67)
        for variant in ("upccd", "uccdab", "uccd", "uccsd"):
            spec = enumerate_excitations(variant, ActiveSpace(4, 4), benzene_pi_symmetry)
            mapping = greedy_map(spec.excitations, 8, seed=1, restarts=4)
            binding = dict(zip(spec.parameter_names(),
                               map(float, rng.normal(size=spec.parameter_count))))
            state = apply_circuit(Statevector.zero(8), build_ansatz_circuit(spec, mapping), binding)
            keep = _sector_mask(mapping, SpinSector(2, 2))
            leak = float(np.sum(np.abs(state.amplitudes[~keep]) ** 2))
            assert leak < 1e-20, (variant, leak)

    def test_register_mismatch_rejected(self):
        spec = enumerate_excitations("upccd", ActiveSpace(2, 2))
        with pytest.raises(CircuitError):
            build_ansatz_circuit(spec, QubitMapping.identity(3))

    @pytest.mark.parametrize("variant", ["upccd", "uccsd"])
    def test_registers_past_the_pauli_masks_rejected(self, variant):
        # the generators are built on uint64 masks: 66 qubits are refused by
        # name, whether or not the ansatz has unpaired excitations
        spec = enumerate_excitations(variant, ActiveSpace(2, 33))
        with pytest.raises(CircuitError, match="66 qubits exceed the 64"):
            build_ansatz_circuit(spec, QubitMapping.identity(33))
        spec = enumerate_excitations(variant, ActiveSpace(2, 32))
        assert count_2qge(build_ansatz_circuit(spec, QubitMapping.identity(32))) > 0


def _sector_mask(mapping, sector):
    n = mapping.n_qubits
    a_bits = sum(1 << (n - 1 - q) for q in mapping.alpha_qubits())
    b_bits = sum(1 << (n - 1 - q) for q in mapping.beta_qubits())
    idx = np.arange(1 << n, dtype=np.uint64)
    na = np.bitwise_count(idx & np.uint64(a_bits))
    nb = np.bitwise_count(idx & np.uint64(b_bits))
    return (na == sector.n_alpha) & (nb == sector.n_beta)


class TestSingleExcitation:
    def test_matches_generator_exponential(self):
        exc = Excitation("single", "aa", (0,), (2,), 0)
        mapping = QubitMapping.identity(3)
        theta = 0.9137
        circ = synth_single_excitation(exc, mapping, "t")
        got = circuit_unitary(circ, {"t": theta})
        want = exp_generator(antihermitian_generator(exc, mapping), theta)
        ok, dev = equal_up_to_phase(got, want, 1e-10)
        assert ok, dev



def random_cancelling_circuit(n, length, rng):
    """Random gates of every kind, CNOTs in both directions and Rz blockers,
    where about half the gates invert one of the last few gates, so
    cancellations nest and cascade."""
    gates = []
    kinds = ["X", "H", "S", "SDG", "RZ"] + (["CNOT"] if n > 1 else [])
    for _ in range(length):
        recent = [g for g in gates[-4:] if g.kind != "RZ"]
        if recent and rng.random() < 0.5:
            g = recent[int(rng.integers(len(recent)))]
            gates.append(Gate(INVERSE_KIND[g.kind], g.qubits))
            continue
        kind = str(rng.choice(kinds))
        if kind == "CNOT":
            c, t = rng.choice(n, size=2, replace=False)
            gates.append(Gate("CNOT", (int(c), int(t))))
        elif kind == "RZ":
            gates.append(Gate("RZ", (int(rng.integers(n)),), float(rng.normal())))
        else:
            gates.append(Gate(kind, (int(rng.integers(n)),)))
    return Circuit(n, gates)


class TestCancelAdjacent:
    def test_matches_restarting_reference_on_random_circuits(self):
        rng = np.random.default_rng(97)
        removed = 0
        for trial in range(1200):
            n = 1 + trial % 4
            c = random_cancelling_circuit(n, int(rng.integers(0, 40)), rng)
            want = cancel_adjacent_restarting(c)
            assert cancel_adjacent(c).gates == want.gates, c.to_text()
            removed += len(c.gates) - len(want.gates)
        assert removed > 5000

    def test_cascade_and_blockers(self):
        h0, h1, cx = Gate("H", (0,)), Gate("H", (1,)), Gate("CNOT", (0, 1))
        nested = Circuit(2, [h0, cx, Gate("S", (1,)), Gate("SDG", (1,)), cx, h0])
        assert cancel_adjacent(nested).gates == ()
        reversed_cx = Circuit(2, [cx, Gate("CNOT", (1, 0))])
        assert cancel_adjacent(reversed_cx).gates == reversed_cx.gates
        blocked = Circuit(2, [h1, Gate("RZ", (1,), 0.3), h1, cx, h0, cx])
        assert cancel_adjacent(blocked).gates == blocked.gates

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_ansatz_circuits_match_restarting_reference(self, variant, monkeypatch):
        # the reference assembly on axis strings, cancelled by the restarting pass
        import oracles

        monkeypatch.setattr(oracles, "cancel_adjacent", cancel_adjacent_restarting)
        rng = np.random.default_rng(101)
        for _ in range(2):
            spec = enumerate_excitations(variant, ActiveSpace(4, 4))
            mapping = random_block_mapping(4, rng)
            got = build_ansatz_circuit(spec, mapping)
            assert got.gates == build_ansatz_on_axes(spec, mapping).gates


def _case_grid(rng):
    """(spec, mapping) for every variant on 2-7 orbitals at every
    closed-shell electron count short of full, with all-symmetric and with
    random ORBSYM labels, each under a random block mapping."""
    for variant in VARIANTS:
        for n in range(2, 8):
            for n_occ in range(1, n):
                for sym in (None, OrbitalSymmetry.from_labels(rng.integers(1, 9, size=n))):
                    spec = enumerate_excitations(variant, ActiveSpace(2 * n_occ, n), sym)
                    yield spec, random_block_mapping(n, rng)


class TestOneCnotInterface:
    def test_build_matches_per_block_rewrite_reference(self):
        rng = np.random.default_rng(113)
        checked = 0
        for spec, mapping in _case_grid(rng):
            want, blocks = build_ansatz_by_blocks(spec, mapping)
            assert build_ansatz_circuit(spec, mapping).gates == want.gates, spec.variant
            if spec.active_space.n_orbitals > 5:
                continue  # the per-excitation entry points wrap the same chains
            unpaired = [exc for exc in spec.excitations if not exc.paired]
            for exc, block in zip(unpaired, blocks, strict=True):
                synth = synth_double_excitation if exc.kind == "double" else synth_single_excitation
                assert synth(exc, mapping, f"t{exc.param_id}").gates == block.gates, exc
            checked += len(blocks)
        assert checked > 500

    def test_emitted_chains_hold_no_rewrite_pattern(self):
        from uccvqe.circuit import _excitation_chain

        rng = np.random.default_rng(127)
        chains = 0
        for spec, mapping in _case_grid(rng):
            for exc in spec.excitations:
                if not exc.paired:
                    chain = _op_circuit(mapping.n_qubits, _excitation_chain(exc, mapping, "t"))
                    assert rewrite_cx_h_cx(chain).gates == chain.gates, exc
                    chains += 1
        assert chains > 3000

    def test_one_build_cancels_once_and_never_rewrites(self, monkeypatch):
        # the build cancels its emitted gate tuples in one pass of the
        # cancel_adjacent core, and never calls the rewrite pass
        import uccvqe.circuit as circuit_module

        calls = {"_survivors": 0, "cancel_adjacent": 0, "rewrite_cx_h_cx": 0}
        for name in calls:
            def counted(*args, fn=getattr(circuit_module, name), name=name):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(circuit_module, name, counted)
        spec = enumerate_excitations("uccsd", ActiveSpace(4, 4))
        build_ansatz_circuit(spec, random_block_mapping(4, np.random.default_rng(131)))
        assert calls == {"_survivors": 1, "cancel_adjacent": 0, "rewrite_cx_h_cx": 0}


class TestSynthesisOnMasks:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_build_equals_gate_list_reference(self, variant):
        # block mappings and unconstrained permutations of the spin orbitals
        rng = np.random.default_rng(137)
        for n in range(2, 7):
            for n_occ in range(1, n):
                sym = OrbitalSymmetry.from_labels(rng.integers(1, 5, size=n))
                spec = enumerate_excitations(variant, ActiveSpace(2 * n_occ, n), sym)
                for mapping in (random_block_mapping(n, rng),
                                QubitMapping(tuple(int(q) for q in rng.permutation(2 * n)))):
                    got = build_ansatz_circuit(spec, mapping)
                    want = build_ansatz_on_axes(spec, mapping)
                    assert got.gates == want.gates, (variant, n, n_occ, mapping.perm)
                    assert got.n_qubits == want.n_qubits
                    assert Circuit(got.n_qubits, got.gates).gates == got.gates

    def test_random_chains_equal_gate_list_reference(self):
        # random axes on one support reach both the one-CNOT interface and
        # the close/reopen fallback
        from oracles import gadget_chain_on_axes

        from uccvqe.circuit import _gadget_chain

        rng = np.random.default_rng(149)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            support = rng.random(n) < 0.7
            support[int(rng.integers(n))] = True
            terms = [("".join(rng.choice(list("XYZ")) if on else "I" for on in support),
                      (float(rng.normal()), "t"))
                     for _ in range(int(rng.integers(1, 6)))]
            got = _op_circuit(n, _gadget_chain(_mask_terms(terms))).gates
            assert got == tuple(gadget_chain_on_axes(terms)), [t[0] for t in terms]

    def test_pauli_rotation_equals_gate_list_reference(self):
        from oracles import gadget_chain_on_axes

        rng = np.random.default_rng(139)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            axes = "".join(rng.choice(list("IXYZ"), size=n))
            if set(axes) == {"I"}:
                continue
            assert pauli_rotation(axes, 0.5).gates == tuple(
                gadget_chain_on_axes([(axes, 0.5)]))


# SHA-256 of build_ansatz_circuit(...).to_text() as produced by the
# restarting cancellation pass and block-by-block assembly; the CAS(n, n)
# cases are uCCSD under a random block mapping drawn after the integrals.
PINNED_CIRCUIT_SHA256 = {
    "h2": "e6ddf7605a23b57fc45c1ce04124c3972b68a5b597363402e81c9dfb5b10f7fe",
    4: "1a4e7b076635390054c424bd38004bb755733b0f8cc8e6691c5f1cc83f3edf70",
    6: "eaaecf9c9722be028fea07bc6351d7a362c8c51edc8d560bb58fb775cb4f3b7b",
    8: "13ce4b5aecd837ad1242d79f4a6da92f3d3e16f157776485509408a3907ec6b9",
}


class TestPinnedCircuitText:
    def test_h2(self, h2_spec):
        text = build_ansatz_circuit(h2_spec, QubitMapping.identity(2)).to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CIRCUIT_SHA256["h2"]

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_seeded_uccsd(self, n):
        rng = np.random.default_rng(n)
        ints = random_integrals(n, n, rng)
        spec = enumerate_excitations("uccsd", ActiveSelection.full(ints).active_space(), ints.orbsym)
        text = build_ansatz_circuit(spec, random_block_mapping(n, rng)).to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CIRCUIT_SHA256[n]
