import math

import numpy as np
import pytest

from oracles import sum_matrix
from uccvqe.ansatz import ActiveSpace, AnsatzError, enumerate_excitations
from uccvqe.hamio import QubitHamiltonian
from uccvqe.mapping import QubitMapping
from uccvqe.pauli import PauliSum, antihermitian_generator
from uccvqe.symmetry import OrbitalSymmetry


def class_counts(spec):
    paired = sum(1 for e in spec.excitations if e.paired)
    unpaired = sum(1 for e in spec.excitations if e.kind == "double" and not e.paired)
    singles = sum(1 for e in spec.excitations if e.kind == "single")
    return paired, unpaired, singles


class TestEnumeration:
    @pytest.mark.parametrize("n_elec,n_orb", [(2, 2), (2, 4), (4, 4), (4, 6), (6, 6)])
    def test_unscreened_counts_match_combinatorics(self, n_elec, n_orb):
        space = ActiveSpace(n_elec, n_orb)
        o = space.n_occupied
        v = space.n_orbitals - o
        spec = enumerate_excitations("uccsd", space)
        paired, unpaired, singles = class_counts(spec)
        ab_total = sum(
            1 for e in spec.excitations if e.kind == "double" and e.spin_pattern == "ab"
        )
        same_spin = 2 * math.comb(o, 2) * math.comb(v, 2)
        assert paired == o * v
        assert ab_total == o * o * v * v
        assert unpaired == (ab_total - paired) + same_spin
        assert singles == 2 * o * v

    def test_variant_containment(self):
        space = ActiveSpace(4, 6)
        keys = {
            v: {(e.kind, e.spin_pattern, e.occ, e.virt) for e in
                enumerate_excitations(v, space).excitations}
            for v in ("upccd", "uccdab", "uccd", "uccsd")
        }
        assert keys["upccd"] < keys["uccdab"] < keys["uccd"] < keys["uccsd"]

    def test_ordering_paired_then_unpaired_then_singles(self):
        spec = enumerate_excitations("uccsd", ActiveSpace(4, 6))
        kinds = []
        for e in spec.excitations:
            kinds.append("paired" if e.paired else ("unpaired" if e.kind == "double" else "single"))
        first_unpaired = kinds.index("unpaired")
        first_single = kinds.index("single")
        assert all(k == "paired" for k in kinds[:first_unpaired])
        assert all(k != "single" for k in kinds[:first_single])
        assert [e.param_id for e in spec.excitations] == list(range(len(spec.excitations)))

    def test_benzene_uccdab_parameter_count(self, benzene_pi_symmetry):
        spec = enumerate_excitations("uccdab", ActiveSpace(4, 4), benzene_pi_symmetry)
        assert spec.parameter_count == 8

    def test_minimal_space_parameter_count(self):
        spec = enumerate_excitations("uccdab", ActiveSpace(2, 2), OrbitalSymmetry.from_labels([1, 5]))
        assert spec.parameter_count == 1

    def test_benzene_uccsd_singles_screened(self, benzene_pi_symmetry):
        spec = enumerate_excitations("uccsd", ActiveSpace(4, 4), benzene_pi_symmetry)
        assert sum(1 for e in spec.excitations if e.kind == "single") == 0

    def test_screening_never_increases_counts(self):
        rng = np.random.default_rng(2)
        space = ActiveSpace(4, 5)
        base = enumerate_excitations("uccsd", space).parameter_count
        for _ in range(10):
            sym = OrbitalSymmetry.from_labels(rng.integers(1, 9, size=5))
            assert enumerate_excitations("uccsd", space, sym).parameter_count <= base

    def test_all_symmetric_equals_unscreened(self):
        space = ActiveSpace(4, 5)
        screened = enumerate_excitations("uccsd", space, OrbitalSymmetry.all_symmetric(5))
        assert screened.parameter_count == enumerate_excitations("uccsd", space).parameter_count

    def test_open_shell_rejected(self):
        with pytest.raises(AnsatzError, match="open-shell"):
            ActiveSpace(3, 3)

    def test_symmetry_length_mismatch(self):
        with pytest.raises(AnsatzError):
            enumerate_excitations("uccd", ActiveSpace(2, 3), OrbitalSymmetry.all_symmetric(2))

    def test_unknown_variant(self):
        with pytest.raises(AnsatzError):
            enumerate_excitations("ccsd(t)", ActiveSpace(2, 2))


def hf_occupation(space: ActiveSpace) -> str:
    """The Hartree-Fock determinant of ``space`` under the identity mapping,
    where the spin orbitals (alpha block first) are the qubits."""
    return QubitHamiltonian(space.n_qubits, PauliSum(space.n_qubits), 0.0,
                            QubitMapping.identity(space.n_orbitals), space).hf_bitstring()


class TestHfOccupation:
    def test_four_in_four(self):
        assert hf_occupation(ActiveSpace(4, 4)) == "11001100"

    def test_two_in_two(self):
        assert hf_occupation(ActiveSpace(2, 2)) == "1010"

    def test_vacuum(self):
        assert hf_occupation(ActiveSpace(0, 3)) == "000000"


class TestGeneratorSymmetries:
    def test_generators_conserve_particle_number_and_spin(self):
        space = ActiveSpace(2, 3)
        mapping = QubitMapping.identity(3)
        n = 6
        dim = 1 << n
        idx = np.arange(dim)
        bits = (idx[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
        number_op = np.diag(bits.sum(axis=1).astype(float))
        sz_op = np.diag((bits[:, :3].sum(axis=1) - bits[:, 3:].sum(axis=1)) / 2.0)
        spec = enumerate_excitations("uccsd", space)
        for exc in spec.excitations:
            g = sum_matrix(antihermitian_generator(exc, mapping))
            assert np.allclose(g @ number_op, number_op @ g, atol=1e-12), exc.label()
            assert np.allclose(g @ sz_op, sz_op @ g, atol=1e-12), exc.label()
