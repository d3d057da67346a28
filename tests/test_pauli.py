import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coefficient, random_block_mapping
from oracles import (
    antihermitian_generator_by_chains,
    fermion_matrix,
    jw_transform_by_products,
    sum_matrix,
)
from uccvqe.ansatz import VARIANTS, ActiveSpace, Excitation, enumerate_excitations
from uccvqe.mapping import QubitMapping
from uccvqe.pauli import (
    COEFF_EPS,
    MASK_QUBIT_LIMIT,
    FermionTerm,
    PauliError,
    PauliSum,
    PauliWord,
    antihermitian_generator,
    axes_rank,
    excitation_generators,
    jw_images,
    mask_bits,
)

PAPER_DOUBLE_AXES = {"XXXY", "XXYX", "YXYY", "YXXX", "YYXY", "YYYX", "XYYY", "XYXX"}


def exact_terms(terms: dict) -> list[tuple[int, int, str]]:
    """Sorted (x, z, repr(coefficient)); the repr tells -0.0 from 0.0."""
    return [(x, z, repr(c)) for (x, z), c in sorted(terms.items())]


def masks(s: PauliSum) -> dict:
    return {(w.x_mask, w.z_mask): w.coefficient for w in s.words()}


def jw_row(term: FermionTerm, n: int) -> PauliSum:
    """Jordan-Wigner image of one ladder-operator product: its one row of
    ``jw_images``, each coefficient plus 0j as the product chain starts from
    0j + coefficient, so signed zeros match it too."""
    _, x, z, c = jw_images([[p for p, _ in term.ops]], [dag for _, dag in term.ops],
                           [term.coefficient], n)
    return PauliSum.from_masks(n, dict(zip(zip(x.tolist(), z.tolist()), (c + 0j).tolist())))


def ladder(p: int, dagger: bool, n: int) -> PauliSum:
    """Jordan-Wigner image of the single ladder operator on mode p of n."""
    return jw_row(FermionTerm(((p, dagger),)), n)


class TestPauliWord:
    def test_axes_round_trip(self):
        w = PauliWord.from_axes("XZIY", 2.0 - 1.0j)
        assert w.axes == "XZIY"
        assert w.support == (0, 1, 3)
        assert w.n == 4

    def test_invalid_axis_rejected(self):
        with pytest.raises(PauliError):
            PauliWord.from_axes("XQ")

    def test_qubitwise_commutation(self):
        w = PauliWord.from_axes("XIZ")
        assert w.qubitwise_commutes_with(PauliWord.from_axes("XYZ"))
        assert w.qubitwise_commutes_with(PauliWord.from_axes("IIZ"))
        assert not w.qubitwise_commutes_with(PauliWord.from_axes("ZIZ"))

    def test_str_formats_with_full_precision(self):
        assert str(PauliWord.from_axes("XXIY", 0.25)) == "+2.500000000000e-01 XXIY"

    @pytest.mark.parametrize("n", [1, 3, 8, 70])
    def test_axes_rank_orders_as_axes_strings(self, n):
        rng = np.random.default_rng(n)
        words = [PauliWord.from_axes("".join(rng.choice(list("IXYZ"), size=n)))
                 for _ in range(300)]
        by_rank = sorted(words, key=lambda w: axes_rank(w.x_mask, w.z_mask, n))
        assert [w.axes for w in by_rank] == sorted(w.axes for w in words)

    @pytest.mark.parametrize("n", [0, 1, 9, 64])
    def test_mask_bits_columns_are_qubits(self, n):
        rng = np.random.default_rng(n + 1)
        masks = [int(rng.integers(0, 2**62)) << max(0, n - 62) & ((1 << n) - 1)
                 for _ in range(20)] + [(1 << n) - 1, 0]
        bits = mask_bits(np.array(masks, dtype=np.uint64), n)
        assert bits.shape == (len(masks), n)
        assert bits.tolist() == [[m >> q & 1 for q in range(n)] for m in masks]


class TestPauliSum:
    def test_merges_duplicates_and_prunes(self):
        s = PauliSum(2, [PauliWord.from_axes("XZ", 1.0), PauliWord.from_axes("XZ", -1.0 + 1e-13)])
        assert len(s) == 0

    @pytest.mark.parametrize("build", [
        lambda: PauliSum(65),
        lambda: PauliSum(70, [PauliWord.from_axes("X" * 70)]),
        lambda: PauliSum.from_masks(65, {(1 << 64, 0): 1.0}),
        lambda: PauliSum.from_arrays(65, [], [], []),
    ], ids=["empty", "words", "masks", "arrays"])
    def test_sums_past_the_masks_refused(self, build):
        with pytest.raises(PauliError, match=r"^a Pauli sum over (65|70) qubits exceeds the "
                                             r"64-bit Pauli masks$"):
            build()

    def test_hermitian_detection(self):
        assert PauliSum(1, [PauliWord.from_axes("X", 0.5)]).is_hermitian()
        assert not PauliSum(1, [PauliWord.from_axes("X", 0.5j)]).is_hermitian()

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="IXYZ", min_size=3, max_size=3),
                st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
            ),
            max_size=8,
        ),
        st.lists(
            st.tuples(
                st.text(alphabet="IXYZ", min_size=3, max_size=3),
                st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_canonicalization_idempotent_and_linear(self, terms_a, terms_b):
        # linearity holds up to the pruning threshold: dropping a barely
        # sub-threshold term before or after addition may differ by <= eps
        def coeffs(s):
            return {(w.x_mask, w.z_mask): w.coefficient for w in s.words()}

        def close(d1, d2, tol=2e-12):
            return all(abs(d1.get(k, 0) - d2.get(k, 0)) < tol for k in set(d1) | set(d2))

        build = lambda terms: PauliSum(3, (PauliWord.from_axes(ax, c) for ax, c in terms))
        a, b = build(terms_a), build(terms_b)
        joint = PauliSum(3, (PauliWord.from_axes(ax, c) for ax, c in terms_a + terms_b))
        merged = a + b
        assert close(coeffs(merged), coeffs(joint))
        again = PauliSum(3, merged.words())
        assert coeffs(again) == coeffs(merged)


class TestJordanWigner:
    def test_ladder_single_mode(self):
        s = ladder(0, True, 1)
        assert coefficient(s, "X") == pytest.approx(0.5)
        assert coefficient(s, "Y") == pytest.approx(-0.5j)

    def test_ladder_with_z_prefix(self):
        s = ladder(1, False, 2)
        assert coefficient(s, "ZX") == pytest.approx(0.5)
        assert coefficient(s, "ZY") == pytest.approx(0.5j)

    def test_ladder_coefficient_magnitudes(self):
        for p, dag, n in [(0, True, 3), (2, False, 4), (3, True, 5)]:
            words = list(ladder(p, dag, n).words())
            assert len(words) == 2
            assert all(abs(abs(w.coefficient) - 0.5) < 1e-15 for w in words)

    def test_ladder_index_out_of_range(self):
        with pytest.raises(PauliError):
            ladder(3, True, 3)

    def test_registers_past_the_masks_refused(self):
        n = MASK_QUBIT_LIMIT + 1
        match = f"{n} qubits exceed the {MASK_QUBIT_LIMIT}-bit Pauli masks"
        with pytest.raises(PauliError, match=match):
            ladder(0, True, n)
        with pytest.raises(PauliError, match=match):
            jw_row(FermionTerm(((1, True), (0, False))), n)

    def test_number_operator(self):
        got = sum_matrix(jw_row(FermionTerm(((0, True), (0, False))), 2))
        want = sum_matrix(
            PauliSum(2, [PauliWord.from_axes("II", 0.5), PauliWord.from_axes("ZI", -0.5)])
        )
        assert np.allclose(got, want, atol=1e-14)

    def test_single_excitation_image(self):
        s = jw_row(FermionTerm(((1, True), (0, False))), 2)
        assert coefficient(s, "XX") == pytest.approx(0.25)
        assert coefficient(s, "YY") == pytest.approx(0.25)
        assert coefficient(s, "YX") == pytest.approx(0.25j)
        assert coefficient(s, "XY") == pytest.approx(-0.25j)

    def test_long_range_excitation_carries_z_chain(self):
        s = jw_row(FermionTerm(((3, True), (0, False))), 4)
        for w in s.words():
            assert w.axes[1] == "Z" and w.axes[2] == "Z"

    def test_against_dense_fermion_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            ops = tuple(
                (int(rng.integers(n)), bool(rng.integers(2)))
                for _ in range(int(rng.integers(1, 5)))
            )
            term = FermionTerm(ops, complex(rng.normal(), rng.normal()))
            got = sum_matrix(jw_row(term, n))
            assert np.allclose(got, fermion_matrix(term, n), atol=1e-12)

    def test_number_operator_from_ladder_product(self):
        for p, n in [(0, 2), (2, 4)]:
            prod = sum_matrix(ladder(p, True, n)) @ sum_matrix(ladder(p, False, n))
            term = FermionTerm(((p, True), (p, False)))
            assert np.allclose(prod, fermion_matrix(term, n), atol=1e-14)


class TestProductChainOracle:
    """A row of ``jw_images`` must give the coefficients of the word-by-word
    product chain exactly, signed zeros included."""

    @staticmethod
    def random_terms(seed, count, scale=1.0):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(1, 7))
            # few modes per register, so ladders repeat modes often
            ops = tuple((int(rng.integers(n)), bool(rng.integers(2)))
                        for _ in range(int(rng.integers(1, 5))))
            yield FermionTerm(ops, scale * complex(rng.normal(), rng.normal())), n

    def assert_matches(self, term, n):
        want = exact_terms(jw_transform_by_products(term, n))
        assert exact_terms(masks(jw_row(term, n))) == want

    def test_seeded_random_sequences(self):
        for term, n in self.random_terms(23, 400):
            self.assert_matches(term, n)

    def test_ladders(self):
        # the widest register puts the top mode on bit 63
        for n in (1, 2, 5, MASK_QUBIT_LIMIT):
            for p in {0, n // 2, n - 1}:
                for dagger in (True, False):
                    want = jw_transform_by_products(FermionTerm(((p, dagger),)), n)
                    assert exact_terms(masks(ladder(p, dagger, n))) == exact_terms(want)

    @pytest.mark.parametrize("ops", [
        ((1, True), (1, True)),                               # a+_p a+_p = 0
        ((0, True), (0, False), (2, True), (2, False)),       # n_pa n_pb
        ((2, True), (0, True), (0, False), (2, False)),       # same, two-body order
        ((1, False), (1, True), (1, False), (1, True)),
        ((3, True), (1, True), (1, False), (3, False)),
    ])
    def test_repeated_modes(self, ops):
        for coeff in (1.0, -0.37, 0.25 - 0.5j, 1 - 0j):
            self.assert_matches(FermionTerm(ops, coeff), 4)

    def test_coefficients_near_the_prune_threshold(self):
        # Every image along a ladder chain has words of one magnitude,
        # |c| / 2**(modes so far), so the ladders' factors of 1/2 carry whole
        # images across COEFF_EPS. The threshold rule (drop |c| < COEFF_EPS,
        # keep |c| == COEFF_EPS) must match, including at exactly COEFF_EPS.
        # With |c| ~ COEFF_EPS, images of 1-4 modes land near COEFF_EPS/2..COEFF_EPS/16.
        for term, n in self.random_terms(29, 400, scale=COEFF_EPS):
            self.assert_matches(term, n)
        for k in range(-2, 6):
            for ops in (((0, True), (1, False)), ((1, True), (0, True), (0, False), (1, False))):
                self.assert_matches(FermionTerm(ops, COEFF_EPS * 2.0**k), 2)

    @pytest.mark.parametrize("ops", [((4, True),), ((0, True), (-1, False)),
                                     ((0, True), (0, False), (7, True))])
    def test_mode_out_of_range(self, ops):
        for coeff in (1.0, 0.0):
            with pytest.raises(PauliError):
                jw_row(FermionTerm(ops, coeff), 4)
            with pytest.raises(PauliError):
                jw_transform_by_products(FermionTerm(ops, coeff), 4)


class TestBatchedImages:
    """``jw_images`` must give, term by term, the words of the product chain
    (``jw_transform_by_products``) with equal coefficients. Signed zeros are
    compared after adding to 0j, as the Hamiltonian assembly folds them."""

    @staticmethod
    def assert_matches(modes, daggers, coeffs, n):
        term, x, z, c = jw_images(modes, daggers, coeffs, n)
        assert list(term) == sorted(term)
        daggers = np.broadcast_to(daggers, np.shape(modes))
        for t in range(len(modes)):
            ops = tuple((int(m), bool(d)) for m, d in zip(modes[t], daggers[t]))
            want = jw_transform_by_products(FermionTerm(ops, complex(coeffs[t])), n)
            got = {(int(a), int(b)): v for a, b, v in
                   zip(x[term == t], z[term == t], c[term == t].tolist())}
            assert len(got) == (term == t).sum()
            assert exact_terms({k: 0j + v for k, v in got.items()}) == \
                exact_terms({k: 0j + v for k, v in want.items()}), ops

    @pytest.mark.parametrize("daggers", [(True, False), (True, True, False, False)])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 34, 64])
    def test_one_and_two_body_sequences(self, daggers, n):
        # few modes per register repeat modes often; wide registers reach bit 63
        rng = np.random.default_rng(n + len(daggers))
        low = max(0, n - 6)
        modes = rng.integers(low, n, size=(300, len(daggers)))
        coeffs = rng.normal(size=300) * 10.0 ** rng.uniform(-12.5, 0.5, size=300)
        self.assert_matches(modes, daggers, coeffs, n)

    def test_any_length_and_daggers_complex_coefficients(self):
        rng = np.random.default_rng(37)
        for length in range(6):
            n = int(rng.integers(1, 7))
            modes = rng.integers(0, n, size=(60, length))
            daggers = rng.integers(0, 2, size=(60, length)).astype(bool)
            coeffs = rng.normal(size=60) + 1j * rng.normal(size=60)
            self.assert_matches(modes, daggers, coeffs, n)

    def test_coefficients_at_the_prune_threshold(self):
        # images of 1, 2 and 4 distinct modes sit at COEFF_EPS * 2**(k - d)
        ops = [(0, 1, 1, 0), (0, 1, 2, 3), (1, 0, 0, 1), (2, 2, 3, 3)]
        for k in range(-2, 6):
            self.assert_matches(np.array(ops), (True, True, False, False),
                                np.full(len(ops), COEFF_EPS * 2.0**k), 4)

    def test_empty_batch(self):
        term, x, z, c = jw_images(np.zeros((0, 4), dtype=int), (True, True, False, False),
                                  np.zeros(0), 4)
        assert len(term) == len(x) == len(z) == len(c) == 0

    @pytest.mark.parametrize("modes, n, match", [
        ([[0, 4]], 4, "mode 4 out of range for 4 qubits"),
        ([[-1, 0]], 4, "mode -1 out of range"),
        ([[0, 1]], 65, "65 qubits exceed the 64-bit Pauli masks"),
    ])
    def test_refusals(self, modes, n, match):
        with pytest.raises(PauliError, match=match):
            jw_images(modes, (True, False), [1.0], n)


class TestGenerators:
    def test_double_excitation_word_set(self):
        exc = Excitation("double", "ab", (0, 1), (2, 3), 0)
        gen = antihermitian_generator(exc, QubitMapping.identity(4))
        words = list(gen.words())
        assert len(words) == 8
        labels = set()
        for w in words:
            xy = [q for q, a in enumerate(w.axes) if a in "XY"]
            labels.add("".join(w.axes[q] for q in xy))
            assert abs(w.coefficient.real) < 1e-14
            assert abs(abs(w.coefficient.imag) - 0.125) < 1e-14
        assert labels == PAPER_DOUBLE_AXES

    def test_single_excitation_words(self):
        exc = Excitation("single", "aa", (0,), (1,), 0)
        gen = antihermitian_generator(exc, QubitMapping.identity(2))
        words = list(gen.words())
        assert len(words) == 2
        assert all(abs(abs(w.coefficient.imag) - 0.5) < 1e-14 for w in words)

    def test_antihermitian(self):
        rng = np.random.default_rng(8)
        mapping = QubitMapping.identity(3)
        for exc in [
            Excitation("double", "ab", (0, 0), (1, 2), 0),
            Excitation("double", "ab", (0, 0), (2, 2), 0),
            Excitation("single", "bb", (0,), (2,), 0),
        ]:
            g = sum_matrix(antihermitian_generator(exc, mapping))
            assert np.allclose(g.conj().T, -g, atol=1e-14)

    def test_generator_words_mutually_commute(self):
        mapping = QubitMapping.identity(4)
        for exc in [
            Excitation("double", "ab", (0, 1), (2, 3), 0),
            Excitation("double", "aa", (0, 1), (2, 3), 0),
            Excitation("single", "aa", (0,), (3,), 0),
        ]:
            # two words commute when their symplectic product is even
            keys = [key for key, _ in antihermitian_generator(exc, mapping).items()]
            assert all(((x1 & z2).bit_count() + (z1 & x2).bit_count()) % 2 == 0
                       for x1, z1 in keys for x2, z2 in keys)


class TestBatchedGenerators:
    """``excitation_generators`` must give each excitation the words and
    coefficients of two ladder-product chains and a subtraction."""

    @staticmethod
    def exact_words(s: PauliSum) -> list[tuple[int, int, str]]:
        return [(w.x_mask, w.z_mask, repr(w.coefficient)) for w in s.words()]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_chains_under_block_and_random_mappings(self, variant):
        rng = np.random.default_rng(VARIANTS.index(variant) + 51)
        checked = 0
        for n_elec, n_orb in ((2, 2), (2, 3), (4, 4), (4, 6), (6, 6), (6, 8)):
            excs = list(enumerate_excitations(variant, ActiveSpace(n_elec, n_orb)).excitations)
            # singles and 3-orbital doubles whatever the variant enumerates
            excs += [Excitation("single", "aa", (0,), (n_orb - 1,), 0),
                     Excitation("single", "bb", (n_orb - 1,), (0,), 0),
                     Excitation("double", "ab", (0, 0), (n_orb - 1, 1), 0),
                     Excitation("double", "ab", (1, 0), (n_orb - 1, n_orb - 1), 0)]
            for mapping in (random_block_mapping(n_orb, rng),
                            QubitMapping(tuple(int(q) for q in rng.permutation(2 * n_orb)))):
                got = excitation_generators(excs, mapping)
                assert len(got) == len(excs)
                for exc, gen in zip(excs, got):
                    want = self.exact_words(antihermitian_generator_by_chains(exc, mapping))
                    assert self.exact_words(gen) == want, (exc, mapping)
                    assert self.exact_words(antihermitian_generator(exc, mapping)) == want
                    checked += 1
        assert checked > 100

    def test_empty_batch(self):
        assert excitation_generators([], QubitMapping.identity(3)) == []

    def test_refuses_registers_past_the_masks(self):
        exc = Excitation("single", "aa", (0,), (32,), 0)
        with pytest.raises(PauliError, match="66 qubits exceed the 64-bit Pauli masks"):
            excitation_generators([exc], QubitMapping.identity(33))
        # 64 qubits still fit: the top mode sits on bit 63
        top = Excitation("single", "bb", (0,), (31,), 0)
        [gen] = excitation_generators([top], QubitMapping.identity(32))
        assert all(w.x_mask >> 63 for w in gen.words())
