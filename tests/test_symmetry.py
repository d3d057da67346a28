import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import d2h_product_label
from uccvqe.ansatz import Excitation
from uccvqe.mapping import QubitMapping
from uccvqe.symmetry import (
    Irrep,
    OrbitalSymmetry,
    SpinSector,
    SymmetryError,
    excitation_allowed,
    in_symmetry_block,
)


def allowed(labels) -> bool:
    """Whether screening keeps the double (0, 1 -> 2, 3) on four orbitals
    labelled ``labels``, which it does exactly when their product is Ag."""
    return excitation_allowed(Excitation("double", "ab", (0, 1), (2, 3), 0),
                              OrbitalSymmetry.from_labels(labels))


class TestIrrepProduct:
    """The irrep product as screening applies it, through ``allowed``."""

    def test_identity_element(self):
        for label in range(1, 9):
            for other in range(1, 9):
                assert allowed((1, label, other, 1)) == (label == other)

    def test_against_character_table(self):
        for a, b, c in itertools.product(range(1, 9), repeat=3):
            assert allowed((a, b, c, 1)) == (c == d2h_product_label(a, b)), (a, b, c)

    def test_named_products(self):
        ag, b1g, b1u, b2g, b3g, au = 1, 4, 5, 6, 7, 8
        assert [c for c in range(1, 9) if allowed((b2g, b3g, c, ag))] == [b1g]
        assert [c for c in range(1, 9) if allowed((au, b1u, c, ag))] == [b1g]

    def test_group_axioms(self):
        # each irrep is its own inverse; order and grouping do not matter
        for a, b in itertools.product(range(1, 9), repeat=2):
            assert allowed((a, a, b, b))
        for labels in itertools.product(range(1, 9), repeat=3):
            fourth = [d for d in range(1, 9) if allowed((*labels, d))]
            assert len(fourth) == 1
            assert all(allowed(p) for p in itertools.permutations((*labels, *fourth)))

    def test_label_out_of_range(self):
        with pytest.raises(SymmetryError, match="D2h"):
            Irrep(9)
        with pytest.raises(SymmetryError):
            Irrep(0)


class TestScreening:
    def test_paired_always_allowed(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            sym = OrbitalSymmetry.from_labels(rng.integers(1, 9, size=4))
            exc = Excitation("double", "ab", (0, 0), (3, 3), 0)
            assert excitation_allowed(exc, sym)

    def test_benzene_singles_all_forbidden(self, benzene_pi_symmetry):
        for i in (0, 1):
            for a in (2, 3):
                exc = Excitation("single", "aa", (i,), (a,), 0)
                assert not excitation_allowed(exc, benzene_pi_symmetry)

    def test_benzene_ab_doubles_half_allowed(self, benzene_pi_symmetry):
        allowed = 0
        for i, j, a, b in itertools.product((0, 1), (0, 1), (2, 3), (2, 3)):
            exc = Excitation("double", "ab", (i, j), (a, b), 0)
            if excitation_allowed(exc, benzene_pi_symmetry):
                allowed += 1
        assert allowed == 8

    def test_all_symmetric_never_screens(self):
        sym = OrbitalSymmetry.all_symmetric(5)
        rng = np.random.default_rng(1)
        for _ in range(20):
            i, j = rng.integers(0, 2, size=2)
            a, b = rng.integers(2, 5, size=2)
            exc = Excitation("double", "ab", (int(i), int(j)), (int(a), int(b)), 0)
            assert excitation_allowed(exc, sym)

    @given(st.permutations(range(4)), st.lists(st.integers(1, 8), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_screening_stable_under_relabeling(self, perm, labels):
        sym = OrbitalSymmetry.from_labels(labels)
        sym_p = OrbitalSymmetry.from_labels([labels[perm[k]] for k in range(4)])
        inverse = {perm[k]: k for k in range(4)}
        excs = [
            Excitation("double", "ab", (i, j), (a, b), 0)
            for i, j, a, b in itertools.product((0, 1), (0, 1), (2, 3), (2, 3))
        ]
        count = sum(excitation_allowed(e, sym) for e in excs)
        count_p = sum(
            excitation_allowed(
                Excitation("double", "ab",
                           (inverse[e.occ[0]], inverse[e.occ[1]]),
                           (inverse[e.virt[0]], inverse[e.virt[1]]), 0),
                sym_p,
            )
            for e in excs
        )
        assert count == count_p

    def test_orbital_outside_table(self):
        exc = Excitation("single", "aa", (0,), (5,), 0)
        with pytest.raises(SymmetryError):
            excitation_allowed(exc, OrbitalSymmetry.all_symmetric(3))


class TestSpinSector:
    @staticmethod
    def in_block(index, mapping, sector):
        return bool(in_symmetry_block(np.array([index], dtype=np.uint64), mapping, sector)[0])

    def test_all_zero_bitstring(self):
        assert self.in_block(0b0000, QubitMapping.identity(2), SpinSector(0, 0))

    def test_hartree_fock_occupation(self):
        m = QubitMapping.identity(4)
        assert self.in_block(0b11001100, m, SpinSector(2, 2))

    def test_single_alpha_flip(self):
        m = QubitMapping.identity(4)
        assert self.in_block(0b10001100, m, SpinSector(1, 2))
        assert not self.in_block(0b10001100, m, SpinSector(2, 2))

    def test_respects_mapping(self):
        m = QubitMapping.from_spatial_order([1, 0])
        # alpha qubits are 1 and 0; "10" on the first two qubits is one alpha
        assert self.in_block(0b1000, m, SpinSector(1, 0))

    def test_negative_counts_rejected(self):
        with pytest.raises(SymmetryError):
            SpinSector(-1, 0)


class TestSymmetryBlock:
    @staticmethod
    def by_characters(index, mapping, sector, labels):
        """Block membership read off the bitstring character by character,
        irreps multiplied through the D2h character table."""
        bits = format(index, f"0{mapping.n_qubits}b")
        n_alpha = sum(bits[mapping.alpha_qubit(k)] == "1" for k in range(mapping.n_spatial))
        n_beta = sum(bits[mapping.beta_qubit(k)] == "1" for k in range(mapping.n_spatial))
        if (n_alpha, n_beta) != (sector.n_alpha, sector.n_beta):
            return False
        if labels is None:
            return True
        label = 1
        for k in range(mapping.n_spatial):
            for q in (mapping.alpha_qubit(k), mapping.beta_qubit(k)):
                if bits[q] == "1":
                    label = d2h_product_label(label, labels[k])
        return label == 1

    def test_matches_character_count_under_random_mappings(self):
        rng = np.random.default_rng(17)
        for n_spatial in (1, 2, 3, 4, 5):
            n = 2 * n_spatial
            idx = np.arange(1 << n, dtype=np.uint64)
            for _ in range(3):
                mapping = QubitMapping(tuple(int(q) for q in rng.permutation(n)))
                labels = tuple(int(l) for l in rng.integers(1, 9, size=n_spatial))
                sector = SpinSector(*(int(c) for c in rng.integers(0, n_spatial + 1, size=2)))
                for sym in (None, OrbitalSymmetry.from_labels(labels)):
                    got = in_symmetry_block(idx, mapping, sector, sym)
                    want = [self.by_characters(int(i), mapping, sector,
                                               None if sym is None else labels) for i in idx]
                    assert got.tolist() == want

    def test_hartree_fock_determinant_is_in_its_block(self):
        m = QubitMapping.from_spatial_order([2, 0, 3, 1])
        hf = sum(1 << (7 - q) for k in (0, 1) for q in (m.alpha_qubit(k), m.beta_qubit(k)))
        sym = OrbitalSymmetry.from_labels([6, 7, 8, 5])
        assert in_symmetry_block(np.array([hf], dtype=np.uint64), m, SpinSector(2, 2), sym)[0]

    def test_irrep_table_must_fit_the_mapping(self):
        with pytest.raises(SymmetryError, match="3 orbital irreps"):
            in_symmetry_block(np.arange(16, dtype=np.uint64), QubitMapping.identity(2),
                              SpinSector(1, 1), OrbitalSymmetry.all_symmetric(3))
