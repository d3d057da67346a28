import numpy as np
import pytest

from conftest import closed_shell_reference, make_closed_shell_2o
from oracles import exp_generator
from uccvqe.ansatz import ActiveSpace, enumerate_excitations
from uccvqe.circuit import build_ansatz_circuit
from uccvqe.hamio import qwc_group
from uccvqe.hamio import ActiveSelection, QubitHamiltonian, build_qubit_hamiltonian, exact_ground_energy
from uccvqe.mapping import QubitMapping, greedy_map
from uccvqe.pauli import PauliSum, PauliWord, antihermitian_generator
from uccvqe.sim import Statevector, apply_circuit, energy_from_histograms, expectation, group_outcomes
from uccvqe.symmetry import OrbitalSymmetry, SpinSector
from uccvqe.vqe import OptimizeConfig, VqeError, evaluate_sampled, optimize

H2_FCI = -1.137265554375321


class TestOptimize:
    def test_zero_hamiltonian_converges_at_start(self, h2_spec):
        h = QubitHamiltonian(4, PauliSum(4), 0.0, QubitMapping.identity(2), ActiveSpace(2, 2))
        res = optimize(h, h2_spec, QubitMapping.identity(2))
        assert res.energy == 0.0
        assert res.converged
        assert np.allclose(res.params, 0.0)

    def test_h2_reaches_sector_ground_state(self, h2_hamiltonian, h2_spec):
        res = optimize(h2_hamiltonian, h2_spec, QubitMapping.identity(2))
        want = exact_ground_energy(h2_hamiltonian, SpinSector(1, 1))
        assert res.converged
        assert res.energy == pytest.approx(want, abs=1e-6)
        assert res.energy == pytest.approx(H2_FCI, abs=1e-6)

    def test_trace_energies_non_increasing(self, h2_hamiltonian, h2_spec):
        res = optimize(h2_hamiltonian, h2_spec, QubitMapping.identity(2))
        energies = [e for _, e in res.trace]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
        assert res.energy == pytest.approx(min(energies))

    def test_never_above_initial_energy(self, h2_hamiltonian, h2_spec):
        rng = np.random.default_rng(3)
        for _ in range(3):
            init = rng.normal(scale=0.5, size=h2_spec.parameter_count)
            res = optimize(h2_hamiltonian, h2_spec, QubitMapping.identity(2), init=init)
            assert res.energy <= res.trace[0][1] + 1e-12

    def test_energy_at_zero_equals_hartree_fock(self, h2_hamiltonian, h2_spec):
        res = optimize(h2_hamiltonian, h2_spec, QubitMapping.identity(2),
                       config=OptimizeConfig(max_iterations=0))
        state = Statevector.from_bitstring(h2_hamiltonian.hf_bitstring())
        assert res.trace[0][1] == pytest.approx(expectation(state, h2_hamiltonian), abs=1e-12)

    def test_wrong_parameter_count(self, h2_hamiltonian, h2_spec):
        with pytest.raises(VqeError):
            optimize(h2_hamiltonian, h2_spec, QubitMapping.identity(2), init=[0.0, 0.0])

    def test_register_mismatch_rejected(self, h2_hamiltonian, h2_spec):
        with pytest.raises(VqeError, match="register sizes differ"):
            optimize(h2_hamiltonian, h2_spec, QubitMapping.identity(3))

    def test_hamiltonian_of_another_mapping_rejected(self, h2_hamiltonian, h2_spec):
        swapped = QubitMapping((1, 0, 3, 2))
        with pytest.raises(VqeError, match=r"built under the qubit mapping \(0, 1, 2, 3\), "
                                           r"not the mapping passed, \(1, 0, 3, 2\)"):
            optimize(h2_hamiltonian, h2_spec, swapped)

    def test_non_hermitian_rejected(self, h2_spec):
        terms = PauliSum(4, [PauliWord.from_axes("XIII", 0.5j)])
        h = QubitHamiltonian(4, terms, 0.0, QubitMapping.identity(2), ActiveSpace(2, 2))
        with pytest.raises(VqeError, match="hermitian"):
            optimize(h, h2_spec, QubitMapping.identity(2))

    def test_doubles_exact_on_closed_shell_instances(self):
        mapping = QubitMapping.identity(2)
        space = ActiveSpace(2, 2)
        sym = OrbitalSymmetry.from_labels([1, 5])
        checked = 0
        for seed in range(20):
            if checked == 3:
                break
            ints = make_closed_shell_2o(seed)
            h = build_qubit_hamiltonian(ints, ActiveSelection.full(ints), mapping)
            sector = exact_ground_energy(h, SpinSector(1, 1))
            if abs(closed_shell_reference(ints) - sector) > 1e-10:
                continue  # open-shell ground state: outside the ansatz design space
            for variant in ("uccd", "uccsd"):
                spec = enumerate_excitations(variant, space, sym)
                res = optimize(h, spec, mapping)
                assert res.energy == pytest.approx(sector, abs=1e-6), (seed, variant)
            checked += 1
        assert checked == 3


class TestCircuitVersusDensePath:
    def test_energies_agree_at_random_parameters(self, benzene_pi_symmetry):
        rng = np.random.default_rng(29)
        spec = enumerate_excitations("uccdab", ActiveSpace(4, 4), benzene_pi_symmetry)
        mapping = greedy_map(spec.excitations, 8, seed=0, restarts=8)
        # random hermitian Hamiltonian over the register as the observable
        words = [
            PauliWord.from_axes("".join(rng.choice(list("IXYZ")) for _ in range(8)),
                                float(rng.normal()))
            for _ in range(12)
        ]
        h = QubitHamiltonian(8, PauliSum(8, [w for w in words if not w.is_identity()]),
                             0.0, mapping, ActiveSpace(4, 4))
        thetas = rng.normal(scale=0.3, size=spec.parameter_count)
        binding = dict(zip(spec.parameter_names(), map(float, thetas)))
        circ_state = apply_circuit(Statevector.zero(8), build_ansatz_circuit(spec, mapping), binding)

        ref = np.zeros(1 << 8, dtype=complex)
        idx = 0
        for k in range(2):
            idx |= 1 << (7 - mapping.alpha_qubit(k))
            idx |= 1 << (7 - mapping.beta_qubit(k))
        ref[idx] = 1.0
        ordered = [e for e in spec.excitations if e.paired] + [e for e in spec.excitations if not e.paired]
        for exc in ordered:
            ref = exp_generator(antihermitian_generator(exc, mapping),
                                binding[f"t{exc.param_id}"]) @ ref
        dense_state = Statevector(8, ref)
        assert expectation(circ_state, h) == pytest.approx(expectation(dense_state, h), abs=1e-9)


class TestEvaluateSampled:
    def test_deterministic_for_fixed_seed(self, h2_hamiltonian, h2_spec):
        res = optimize(h2_hamiltonian, h2_spec, QubitMapping.identity(2))
        a = evaluate_sampled(h2_hamiltonian, h2_spec, QubitMapping.identity(2),
                             res.params, 2000, seed=5)
        b = evaluate_sampled(h2_hamiltonian, h2_spec, QubitMapping.identity(2),
                             res.params, 2000, seed=5)
        assert a.energy == b.energy and a.standard_error == b.standard_error
        assert all(x.counts == y.counts for x, y in zip(a.histograms, b.histograms))

    def test_large_shot_count_consistent_with_exact(self, h2_hamiltonian, h2_spec):
        res = optimize(h2_hamiltonian, h2_spec, QubitMapping.identity(2))
        ev = evaluate_sampled(h2_hamiltonian, h2_spec, QubitMapping.identity(2),
                              res.params, 1_000_000, seed=11)
        assert abs(ev.energy - res.energy) < 3 * ev.standard_error + 1e-9

    def test_standard_error_decreases_with_shots(self, h2_hamiltonian, h2_spec):
        res = optimize(h2_hamiltonian, h2_spec, QubitMapping.identity(2))
        ses = [
            evaluate_sampled(h2_hamiltonian, h2_spec, QubitMapping.identity(2),
                             res.params, shots, seed=13).standard_error
            for shots in (600, 6000, 60000)
        ]
        assert ses[0] > ses[1] > ses[2]

    def test_total_shot_mode_splits_budget(self, h2_hamiltonian, h2_spec):
        ev = evaluate_sampled(h2_hamiltonian, h2_spec, QubitMapping.identity(2),
                              np.zeros(1), 1001, seed=1, shot_mode="total")
        assert sum(ev.shots_per_group) == 1001
        assert max(ev.shots_per_group) - min(ev.shots_per_group) <= 1

    def test_unknown_shot_mode(self, h2_hamiltonian, h2_spec):
        with pytest.raises(VqeError):
            evaluate_sampled(h2_hamiltonian, h2_spec, QubitMapping.identity(2),
                             np.zeros(1), 100, seed=0, shot_mode="bogus")

    def test_register_mismatch_rejected(self, h2_hamiltonian, h2_spec):
        with pytest.raises(VqeError, match="register sizes differ"):
            evaluate_sampled(h2_hamiltonian, h2_spec, QubitMapping.identity(3),
                             np.zeros(1), 100, seed=0)

    def test_hamiltonian_of_another_mapping_rejected(self, h2_hamiltonian, h2_spec):
        # sampling the state of one mapping against the words of another
        # gives a wrong energy with no error otherwise
        swapped = QubitMapping((1, 0, 3, 2))
        with pytest.raises(VqeError, match=r"built under the qubit mapping \(0, 1, 2, 3\), "
                                           r"not the mapping passed, \(1, 0, 3, 2\)"):
            evaluate_sampled(h2_hamiltonian, h2_spec, swapped, np.zeros(1), 100, seed=0)

    def test_given_circuit_and_groups_sample_identically(self, h2_hamiltonian, h2_spec):
        mapping = QubitMapping.identity(2)
        params = np.array([0.3])
        built = evaluate_sampled(h2_hamiltonian, h2_spec, mapping, params, 700, seed=9)
        given = evaluate_sampled(h2_hamiltonian, h2_spec, mapping, params, 700, seed=9,
                                 circuit=build_ansatz_circuit(h2_spec, mapping),
                                 groups=qwc_group(h2_hamiltonian))
        assert [h.to_text() for h in given.histograms] == [h.to_text() for h in built.histograms]
        assert (given.energy, given.standard_error) == (built.energy, built.standard_error)

    @pytest.mark.parametrize("shot_mode", ["per-group", "total"])
    def test_valued_groups_are_the_histograms_outcomes(self, h2_hamiltonian, h2_spec, shot_mode):
        ev = evaluate_sampled(h2_hamiltonian, h2_spec, QubitMapping.identity(2),
                              np.array([0.2]), 901, seed=4, shot_mode=shot_mode)
        assert len(ev.valued) == len(ev.groups) == len(ev.histograms)
        for got, want in zip(ev.valued, group_outcomes(ev.groups, ev.histograms)):
            assert len(got) == len(want) == 3
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert (ev.energy, ev.standard_error) == energy_from_histograms(
            ev.groups, ev.histograms, h2_hamiltonian.offset)
