import json

import numpy as np
import pytest

from oracles import dense_matrix, greedy_map_rescanning, mapping_cost_by_sets
from uccvqe.ansatz import VARIANTS, ActiveSpace, Excitation, enumerate_excitations
from uccvqe.hamio import ActiveSelection, build_qubit_hamiltonian
from uccvqe.mapping import (MappingError, QubitMapping, _costs, _spin_orbital_table, greedy_map,
                            mapping_cost)
from uccvqe.symmetry import OrbitalSymmetry


def ab_double(i, j, a, b):
    return Excitation("double", "ab", (i, j), (a, b), 0)


class TestQubitMapping:
    def test_identity(self):
        m = QubitMapping.identity(3)
        assert m.perm == (0, 1, 2, 3, 4, 5)
        assert m.alpha_qubits() == (0, 1, 2)
        assert m.beta_qubits() == (3, 4, 5)

    def test_from_spatial_order(self):
        m = QubitMapping.from_spatial_order([2, 0, 1])
        assert m.qubit_of(0) == 2 and m.qubit_of(3) == 5
        assert m.perm == (2, 0, 1, 5, 3, 4)

    def test_rejects_non_permutation(self):
        with pytest.raises(MappingError):
            QubitMapping((0, 0, 1, 2))

    def test_numpy_positions_become_python_ints(self):
        m = QubitMapping.from_spatial_order(np.random.default_rng(0).permutation(4))
        assert all(type(q) is int for q in m.perm)
        assert json.loads(json.dumps(list(m.perm))) == list(m.perm)

    def test_rejects_float_entries(self):
        with pytest.raises(MappingError, match="integers"):
            QubitMapping((0.0, 1.0, 2.0, 3.0))


class TestMappingCost:
    def test_adjacent_pair_costs_nothing(self):
        # an alpha single 0 -> 1 sits on adjacent qubits 0 and 1
        assert mapping_cost([Excitation("single", "aa", (0,), (1,), 0)],
                            QubitMapping.identity(2)) == 0

    def test_interval_slack(self):
        # a beta single 0 -> 2 on qubits 3 and 5: span 3, two qubits
        single = Excitation("single", "bb", (0,), (2,), 0)
        assert mapping_cost([single], QubitMapping.identity(3)) == 1
        # a paired double 0 -> 2 on qubits 0, 2, 3 and 5: span 6, four qubits;
        # the costs of several excitations add
        paired = ab_double(0, 0, 2, 2)
        assert mapping_cost([paired], QubitMapping.identity(3)) == 2
        assert mapping_cost([single, paired], QubitMapping.identity(3)) == 3

    def test_recount_after_permutation(self):
        # an alpha single (0 -> 1) is adjacent under the identity; swapping
        # qubits 1 and 3 stretches it across the register
        exc = Excitation("single", "aa", (0,), (1,), 0)
        assert mapping_cost([exc], QubitMapping.identity(2)) == 0
        swapped = QubitMapping((0, 3, 2, 1))
        assert mapping_cost([exc], swapped) == 2

    def test_unmapped_index(self):
        with pytest.raises(MappingError):
            mapping_cost([ab_double(0, 0, 4, 4)], QubitMapping.identity(2))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_vectorized_score_matches_oracle_on_random_permutations(self, variant):
        rng = np.random.default_rng(VARIANTS.index(variant) + 70)
        for n_elec, n_orb in ((2, 2), (4, 4), (4, 6), (6, 8)):
            excs = list(enumerate_excitations(variant, ActiveSpace(n_elec, n_orb)).excitations)
            excs += [Excitation("single", "aa", (0,), (n_orb - 1,), 0),
                     ab_double(0, 0, 1, n_orb - 1)]
            perms = [tuple(int(q) for q in rng.permutation(2 * n_orb)) for _ in range(12)]
            want = [mapping_cost_by_sets(excs, QubitMapping(p)) for p in perms]
            assert [mapping_cost(excs, QubitMapping(p)) for p in perms] == want
            table, size = _spin_orbital_table(excs, 2 * n_orb)
            assert _costs(table, size, np.array(perms)).tolist() == want

    def test_no_excitations_cost_nothing(self):
        assert mapping_cost([], QubitMapping.identity(3)) == 0


class TestGreedyMap:
    def test_single_pair_placed_adjacent(self):
        exc = Excitation("single", "aa", (0,), (1,), 0)
        m = greedy_map([exc], 4, seed=0, restarts=4)
        assert mapping_cost([exc], m) == 0

    def test_never_worse_than_identity(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            n_spatial = int(rng.integers(3, 6))
            excs = []
            for _ in range(int(rng.integers(2, 6))):
                i, j = rng.integers(0, n_spatial, size=2)
                a, b = rng.integers(0, n_spatial, size=2)
                excs.append(ab_double(int(i), int(j), int(a), int(b)))
            m = greedy_map(excs, 2 * n_spatial, seed=trial, restarts=8)
            assert mapping_cost(excs, m) <= mapping_cost(excs, QubitMapping.identity(n_spatial))

    def test_deterministic_for_fixed_seed(self):
        excs = [ab_double(0, 1, 2, 3), ab_double(1, 0, 3, 2)]
        a = greedy_map(excs, 8, seed=12, restarts=16)
        b = greedy_map(excs, 8, seed=12, restarts=16)
        assert a.perm == b.perm

    def test_output_is_valid_block_permutation(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            excs = [ab_double(int(i), int(j), int(a), int(b))
                    for i, j, a, b in rng.integers(0, 4, size=(4, 4))]
            m = greedy_map(excs, 8, seed=trial, restarts=4)
            assert sorted(m.perm) == list(range(8))
            assert m.beta_qubits() == tuple(q + 4 for q in m.alpha_qubits())

    def test_more_restarts_never_hurt(self):
        excs = [ab_double(0, 1, 2, 3), ab_double(1, 0, 3, 2), ab_double(0, 0, 3, 3)]
        costs = [
            mapping_cost(excs, greedy_map(excs, 8, seed=3, restarts=r))
            for r in (1, 4, 16, 32)
        ]
        assert all(c2 <= c1 for c1, c2 in zip(costs, costs[1:]))

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("screened", [False, True])
    def test_matches_rescanning_reference(self, variant, screened):
        rng = np.random.default_rng(VARIANTS.index(variant) + 10 * screened)
        for n_elec, n_orb in ((2, 3), (4, 4), (4, 6), (6, 6), (8, 8)):
            sym = (OrbitalSymmetry.from_labels(rng.integers(1, 5, size=n_orb))
                   if screened else None)
            excs = enumerate_excitations(variant, ActiveSpace(n_elec, n_orb), sym).excitations
            if not excs:
                continue
            seed = int(rng.integers(1 << 30))
            assert (greedy_map(excs, 2 * n_orb, seed=seed, restarts=6).perm
                    == greedy_map_rescanning(excs, 2 * n_orb, seed=seed, restarts=6).perm)

    def test_matches_rescanning_reference_on_sparse_sets(self):
        # few doubles over many orbitals: runs often restart from a random pick
        rng = np.random.default_rng(41)
        for trial in range(40):
            n_spatial = int(rng.integers(4, 9))
            excs = [ab_double(*(int(o) for o in rng.integers(0, n_spatial, size=4)))
                    for _ in range(int(rng.integers(1, 6)))]
            assert (greedy_map(excs, 2 * n_spatial, seed=trial, restarts=8).perm
                    == greedy_map_rescanning(excs, 2 * n_spatial, seed=trial, restarts=8).perm)

    @pytest.mark.parametrize("restarts", [0, 1, 32])
    def test_matches_rescanning_reference_across_restart_budgets(self, restarts):
        rng = np.random.default_rng(restarts + 17)
        for variant in VARIANTS:
            for n_elec, n_orb in ((2, 3), (4, 4), (4, 6), (6, 6)):
                sym = OrbitalSymmetry.from_labels(rng.integers(1, 5, size=n_orb))
                for screen in (None, sym):
                    excs = enumerate_excitations(variant, ActiveSpace(n_elec, n_orb),
                                                 screen).excitations
                    if not excs:
                        continue
                    seed = int(rng.integers(1 << 30))
                    assert (greedy_map(excs, 2 * n_orb, seed=seed, restarts=restarts).perm
                            == greedy_map_rescanning(excs, 2 * n_orb, seed=seed,
                                                     restarts=restarts).perm)

    def test_matches_rescanning_reference_on_uccsd_cas1010(self):
        excs = enumerate_excitations("uccsd", ActiveSpace(10, 10)).excitations
        assert (greedy_map(excs, 20, seed=29, restarts=1).perm
                == greedy_map_rescanning(excs, 20, seed=29, restarts=1).perm)

    def test_matches_rescanning_reference_with_idle_orbitals(self):
        # excitations of a smaller space spread over a larger one, some
        # dropped, so some orbitals belong to no excitation
        rng = np.random.default_rng(83)
        for trial in range(24):
            variant = VARIANTS[trial % len(VARIANTS)]
            n_elec, n_orb = ((2, 3), (4, 4), (4, 5))[trial % 3]
            n_spatial = n_orb + int(rng.integers(1, 5))
            spread = [int(o) for o in np.sort(rng.choice(n_spatial, n_orb, replace=False))]
            excs = [Excitation(e.kind, e.spin_pattern, tuple(spread[o] for o in e.occ),
                               tuple(spread[o] for o in e.virt), e.param_id)
                    for e in enumerate_excitations(variant, ActiveSpace(n_elec, n_orb)).excitations
                    if rng.random() < 0.6]
            if not excs:
                continue
            used = set().union(*(e.spatial_orbitals() for e in excs))
            assert len(used) < n_spatial
            for restarts in (1, 8):
                assert (greedy_map(excs, 2 * n_spatial, seed=trial, restarts=restarts).perm
                        == greedy_map_rescanning(excs, 2 * n_spatial, seed=trial,
                                                 restarts=restarts).perm)

    def test_empty_excitations_rejected(self):
        with pytest.raises(MappingError):
            greedy_map([], 4, seed=0, restarts=32)

    def test_negative_restart_budget_rejected(self):
        with pytest.raises(MappingError, match="-3"):
            greedy_map([ab_double(0, 1, 2, 3)], 8, seed=0, restarts=-3)


class TestEnergyInvariance:
    def test_spectrum_independent_of_mapping(self, h2_ints):
        sel = ActiveSelection.full(h2_ints)
        mats = []
        for m in (
            QubitMapping.identity(2),
            QubitMapping.from_spatial_order([1, 0]),
            QubitMapping((2, 0, 3, 1)),  # not block structured
        ):
            h = build_qubit_hamiltonian(h2_ints, sel, m)
            mats.append(np.sort(np.linalg.eigvalsh(dense_matrix(h))))
        assert np.allclose(mats[0], mats[1], atol=1e-10)
        assert np.allclose(mats[0], mats[2], atol=1e-10)
