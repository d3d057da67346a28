import dataclasses
import hashlib
import itertools
import re
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import basis_state, coefficient, random_block_mapping, random_integrals
from oracles import (
    build_qubit_hamiltonian_by_chains,
    dense_matrix,
    jw_transform_by_products,
    ladder_matrix,
    qwc_group_by_axes,
    spin_sector_indices_by_filter,
)
from uccvqe.ansatz import ActiveSpace
from uccvqe.hamio import (
    ActiveSelection,
    BlockSizeError,
    FcidumpError,
    HamiltonianError,
    MolecularIntegrals,
    build_qubit_hamiltonian,
    exact_ground_energy,
    parse_fcidump,
    qwc_group,
    restrict_to_active,
    rhf_energy,
    spin_sector_indices,
    write_fcidump,
)
from uccvqe.mapping import QubitMapping
from uccvqe.pauli import FermionTerm, PauliSum, PauliWord
from uccvqe.symmetry import OrbitalSymmetry, SpinSector

H2_RHF = -1.11668005011617
H2_FCI = -1.137265554375321


def write(tmp_path, text, name="test.fcidump"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestParse:
    def test_minimal_single_orbital(self, tmp_path):
        path = write(tmp_path, """ &FCI NORB=1,NELEC=2,MS2=0,
  ORBSYM=1,
 &END
 -1.0   1   1   0   0
  0.5   0   0   0   0
""")
        ints = parse_fcidump(path)
        assert ints.n_orbitals == 1
        assert ints.h[0, 0] == -1.0
        assert ints.core_energy == 0.5

    def test_eightfold_expansion(self, tmp_path):
        path = write(tmp_path, """ &FCI NORB=2,NELEC=2,MS2=0,
 &END
  0.25   2   1   2   1
  0.0    0   0   0   0
""")
        g = parse_fcidump(path).g
        for idx in [(1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1)]:
            assert g[idx] == 0.25

    def test_orbsym_parsed(self, h2_ints):
        assert h2_ints.orbsym.labels() == (1, 5)

    def test_missing_orbsym_defaults_to_symmetric(self, tmp_path):
        path = write(tmp_path, " &FCI NORB=2,NELEC=2,MS2=0,\n &END\n 0.0 0 0 0 0\n")
        assert parse_fcidump(path).orbsym.labels() == (1, 1)

    @pytest.mark.parametrize("labels", ["1,5,1", "1"], ids=["extra", "missing"])
    def test_orbsym_count_must_match_norb(self, tmp_path, labels):
        # extra labels used to be cut to the first NORB without a word
        path = write(tmp_path, f" &FCI NORB=2,NELEC=2,MS2=0,\n  ORBSYM={labels},\n &END\n"
                               " 0.0 0 0 0 0\n", name="sym.fcidump")
        count = len(labels.split(","))
        with pytest.raises(FcidumpError, match=rf"sym\.fcidump: ORBSYM lists {count} labels "
                                               "for NORB=2"):
            parse_fcidump(path)

    @pytest.mark.parametrize("labels", ["1,9", "1,0"])
    def test_orbsym_label_outside_d2h_rejected_with_file_name(self, tmp_path, labels):
        path = write(tmp_path, f" &FCI NORB=2,NELEC=2,MS2=0,\n  ORBSYM={labels},\n &END\n"
                               " 0.0 0 0 0 0\n", name="sym.fcidump")
        label = labels.split(",")[1]
        with pytest.raises(FcidumpError, match=rf"sym\.fcidump: ORBSYM: irrep label {label} "
                                               r"outside 1\.\.8"):
            parse_fcidump(path)

    @pytest.mark.parametrize("header, message", [
        ("NORB=2,NELEC=2,MS2=0,\n NELEC=4,", "header states NELEC twice"),
        ("NORB=3,NELEC=2,MS2=0,\n norb=2,", "header states NORB twice"),
        ("NORB=2 abc,NELEC=2,MS2=0,", "header key NORB: '2,abc' is not one integer"),
        ("NORB=2,NELEC=2,nan,MS2=0,", "header key NELEC: '2,nan' is not one integer"),
        ("NORB=2,NELEC=2,MS2=0 1e400,", "header key MS2: '0,1e400' is not one integer"),
        ("NORB=2,NELEC=2,MS2=0,\n ORBSYM=1,1,abc,", "header key ORBSYM: '1,1,abc' is not a "
                                                    "list of integers"),
        ("abc NORB=2,NELEC=2,MS2=0,", "header text 'abc' is not KEY=value"),
        ("NORB=-1,NELEC=2,MS2=0,", "header key NORB: -1 is negative"),
        ("NORB=2,NELEC=-2,MS2=0,", "header key NELEC: -2 is negative"),
    ], ids=["nelec-twice", "norb-twice", "norb-token", "nelec-nan", "ms2-float",
            "orbsym-token", "stray-token", "norb-negative", "nelec-negative"])
    def test_header_read_once_and_refused_by_key(self, tmp_path, header, message):
        path = write(tmp_path, f" &FCI {header}\n &END\n 0.0 0 0 0 0\n", name="head.fcidump")
        with pytest.raises(FcidumpError, match=rf"^{re.escape(path)}: {re.escape(message)}$"):
            parse_fcidump(path)

    def test_header_keys_the_pipeline_does_not_read_pass(self, tmp_path):
        path = write(tmp_path, " &FCI NORB=2,NELEC=2,MS2=0,\n  ORBSYM=1,5,\n  ISYM=abc,"
                               "UHF=.FALSE.,\n &END\n 0.0 0 0 0 0\n")
        ints = parse_fcidump(path)
        assert (ints.n_orbitals, ints.n_electrons, ints.ms2) == (2, 2, 0)
        assert ints.orbsym.labels() == (1, 5)

    def test_missing_header(self, tmp_path):
        with pytest.raises(FcidumpError, match="header"):
            parse_fcidump(write(tmp_path, "1.0 1 1 0 0\n"))

    def test_index_out_of_range(self, tmp_path):
        with pytest.raises(FcidumpError, match="out of range"):
            parse_fcidump(write(tmp_path, " &FCI NORB=1,NELEC=2,\n &END\n 1.0 2 2 0 0\n"))

    def test_non_numeric_value(self, tmp_path):
        with pytest.raises(FcidumpError, match="non-numeric"):
            parse_fcidump(write(tmp_path, " &FCI NORB=1,NELEC=2,\n &END\n abc 1 1 0 0\n"))

    def test_orbital_energy_records_skipped(self, tmp_path, h2_path, h2_ints):
        with open(h2_path) as fh:
            text = fh.read()
        ints = parse_fcidump(write(tmp_path, text + " -0.578 1 0 0 0\n 0.671 2 0 0 0\n"))
        assert np.array_equal(ints.h, h2_ints.h)
        assert np.array_equal(ints.g, h2_ints.g)
        assert ints.core_energy == h2_ints.core_energy

    @pytest.mark.parametrize("record", ["0.1 1 0 1 0", "0.1 0 1 0 0", "0.1 1 1 1 0",
                                        "0.1 0 0 1 1", "0.1 1 0 0 1"])
    def test_unknown_index_pattern_rejected(self, tmp_path, record):
        path = write(tmp_path, f" &FCI NORB=2,NELEC=2,\n &END\n {record}\n", name="odd.fcidump")
        with pytest.raises(FcidumpError, match=rf"odd\.fcidump: record '{record}'"):
            parse_fcidump(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    @pytest.mark.parametrize("indices", ["1   1   1   1", "1   1   0   0"])
    def test_non_finite_value_rejected(self, tmp_path, h2_path, indices, value):
        # nan fails every comparison: a threshold test would drop it silently
        with open(h2_path) as fh:
            lines = fh.read().splitlines()
        k = next(i for i, ln in enumerate(lines) if ln.endswith(indices))
        lines[k] = f" {value}   {indices}"
        path = write(tmp_path, "\n".join(lines) + "\n", name="bad.fcidump")
        with pytest.raises(FcidumpError,
                           match=rf"bad\.fcidump: non-finite value in record '{value}   {indices}'"):
            parse_fcidump(path)

    # Every image of (12|13) under the 8-fold symmetry, both orders of h_12,
    # and the core energy: a second record with another value is refused.
    @pytest.mark.parametrize("first, second", [
        *(("0.5 1 2 1 3", f"0.25 {ijkl}") for ijkl in
          ("1 2 1 3", "2 1 1 3", "1 2 3 1", "2 1 3 1", "1 3 1 2", "3 1 1 2", "1 3 2 1", "3 1 2 1")),
        ("0.5 1 2 0 0", "0.25 1 2 0 0"),
        ("0.5 1 2 0 0", "0.25 2 1 0 0"),
        ("0.5 0 0 0 0", "0.25 0 0 0 0"),
    ])
    def test_conflicting_record_rejected(self, tmp_path, first, second):
        text = f" &FCI NORB=3,NELEC=2,\n &END\n {first}\n 0.1 2 2 0 0\n {second}\n"
        path = write(tmp_path, text, name="twice.fcidump")
        with pytest.raises(FcidumpError, match=rf"twice\.fcidump: record '{second}' sets an "
                                               rf"integral that record '{first}' set"):
            parse_fcidump(path)

    def test_conflicting_coulomb_record_rejected(self, tmp_path, h2_path):
        # h2_sto3g sets (11|22) on its '2 2 1 1' line
        with open(h2_path) as fh:
            text = fh.read()
        with pytest.raises(FcidumpError, match="'0.9999 1 1 2 2' sets an integral"):
            parse_fcidump(write(tmp_path, text + " 0.9999 1 1 2 2\n"))

    def test_repeated_equal_records_accepted(self, tmp_path):
        images = ("1 2 1 3", "2 1 1 3", "1 2 3 1", "2 1 3 1", "1 3 1 2", "3 1 1 2", "1 3 2 1", "3 1 2 1")
        head = " &FCI NORB=3,NELEC=2,\n &END\n"
        once = parse_fcidump(write(tmp_path, head + " 0.5 1 2 1 3\n -1 1 2 0 0\n 0.7 0 0 0 0\n",
                                   name="once.fcidump"))
        body = "".join(f" 0.5 {ijkl}\n" for ijkl in images)
        body += " -1 1 2 0 0\n -1.0 2 1 0 0\n 0.7 0 0 0 0\n 0.7 0 0 0 0\n"
        again = parse_fcidump(write(tmp_path, head + body, name="again.fcidump"))
        assert np.array_equal(again.g, once.g) and np.array_equal(again.h, once.h)
        assert again.core_energy == once.core_energy == 0.7

    def test_round_trip(self, tmp_path, h2_ints):
        path = str(tmp_path / "out.fcidump")
        write_fcidump(path, h2_ints)
        again = parse_fcidump(path)
        assert np.allclose(again.h, h2_ints.h)
        assert np.allclose(again.g, h2_ints.g)
        assert again.core_energy == pytest.approx(h2_ints.core_energy)
        assert again.orbsym.labels() == h2_ints.orbsym.labels()

    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), nelec=st.integers(0, 8),
           ms2=st.integers(-2, 2), labels=st.lists(st.integers(1, 8), min_size=4, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_random_round_trip_is_exact(self, n, seed, nelec, ms2, labels):
        ints = random_integrals(n, nelec, np.random.default_rng(seed))
        # the writer drops entries at or below 1e-14
        assume(min(np.abs(ints.h).min(), np.abs(ints.g).min()) > 1e-14)
        ints = dataclasses.replace(ints, ms2=ms2, orbsym=OrbitalSymmetry.from_labels(labels[:n]))
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/rt.fcidump"
            write_fcidump(path, ints)
            again = parse_fcidump(path)
        assert np.array_equal(again.h, ints.h)
        assert np.array_equal(again.g, ints.g)
        assert again.core_energy == ints.core_energy
        assert (again.n_orbitals, again.n_electrons, again.ms2) == (n, nelec, ms2)
        assert again.orbsym.labels() == ints.orbsym.labels()


class TestBuild:
    def test_single_orbital_hubbard_like(self):
        # 1 spatial orbital: H = eps (n_a + n_b) + U n_a n_b
        eps, u = -0.8, 0.45
        h = np.array([[eps]])
        g = np.full((1, 1, 1, 1), u)
        ints = MolecularIntegrals(1, 2, 0, 0.0, h, g, OrbitalSymmetry.all_symmetric(1))
        hq = build_qubit_hamiltonian(ints, ActiveSelection.full(ints), QubitMapping.identity(1))
        got = dense_matrix(hq)
        dim = 4
        want = np.zeros((dim, dim), dtype=complex)
        na = ladder_matrix(0, True, 2) @ ladder_matrix(0, False, 2)
        nb = ladder_matrix(1, True, 2) @ ladder_matrix(1, False, 2)
        want = eps * (na + nb) + u * (na @ nb)
        assert np.allclose(got, want, atol=1e-12)

    def test_hermitian(self, h2_hamiltonian):
        assert h2_hamiltonian.terms.is_hermitian()
        m = dense_matrix(h2_hamiltonian)
        assert np.allclose(m, m.conj().T, atol=1e-12)

    def test_dense_reconstruction_matches_second_quantized(self, h2_ints):
        # assemble the matrix directly from ladder operators as a cross-check
        hq = build_qubit_hamiltonian(h2_ints, ActiveSelection.full(h2_ints), QubitMapping.identity(2))
        got = dense_matrix(hq)
        n = 4
        dim = 1 << n
        want = np.eye(dim, dtype=complex) * h2_ints.core_energy
        so = lambda p, spin: p + 2 * spin
        for p in range(2):
            for q in range(2):
                for spin in (0, 1):
                    want += h2_ints.h[p, q] * (
                        ladder_matrix(so(p, spin), True, n) @ ladder_matrix(so(q, spin), False, n)
                    )
        for p in range(2):
            for q in range(2):
                for r in range(2):
                    for s in range(2):
                        for s1 in (0, 1):
                            for s2 in (0, 1):
                                want += 0.5 * h2_ints.g[p, q, r, s] * (
                                    ladder_matrix(so(p, s1), True, n)
                                    @ ladder_matrix(so(r, s2), True, n)
                                    @ ladder_matrix(so(s, s2), False, n)
                                    @ ladder_matrix(so(q, s1), False, n)
                                )
        assert np.allclose(got, want, atol=1e-10)

    def test_hf_expectation_equals_mean_field(self, h2_ints, h2_hamiltonian):
        from uccvqe.sim import expectation

        core, h_eff, g_act, _ = restrict_to_active(h2_ints, ActiveSelection.full(h2_ints))
        want = rhf_energy(core, h_eff, g_act, 1)
        state = basis_state(h2_hamiltonian.hf_bitstring())
        assert expectation(state, h2_hamiltonian) == pytest.approx(want, abs=1e-10)
        assert want == pytest.approx(H2_RHF, abs=1e-9)

    def test_non_hermitian_integrals_rejected(self):
        h = np.array([[0.0, 0.3], [0.1, 0.0]])  # not symmetric
        g = np.zeros((2, 2, 2, 2))
        ints = MolecularIntegrals(2, 2, 0, 0.0, h, g, OrbitalSymmetry.all_symmetric(2))
        with pytest.raises(HamiltonianError, match="hermitian"):
            build_qubit_hamiltonian(ints, ActiveSelection.full(ints), QubitMapping.identity(2))

    def test_frozen_core_exact_for_decoupled_orbital(self):
        # orbital 0 is deep and only Coulomb-coupled, so freezing it is exact
        h = np.diag([-9.0, -1.2, -0.5])
        g = np.zeros((3, 3, 3, 3))

        def set8(p, q, r, s, v):
            for a, b, c, d in ((p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                               (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p)):
                g[a, b, c, d] = v

        set8(0, 0, 0, 0, 0.9)
        set8(0, 0, 1, 1, 0.55)
        set8(0, 0, 2, 2, 0.52)
        set8(1, 1, 1, 1, 0.62)
        set8(2, 2, 2, 2, 0.58)
        set8(1, 1, 2, 2, 0.50)
        set8(1, 2, 1, 2, 0.12)
        ints = MolecularIntegrals(3, 4, 0, 0.3, h, g, OrbitalSymmetry.from_labels([1, 1, 5]))
        full = build_qubit_hamiltonian(ints, ActiveSelection.full(ints), QubitMapping.identity(3))
        frozen = build_qubit_hamiltonian(ints, ActiveSelection(2, (1, 2)), QubitMapping.identity(2))
        e_full = exact_ground_energy(full, SpinSector(2, 2))
        e_frozen = exact_ground_energy(frozen, SpinSector(1, 1))
        assert e_frozen == pytest.approx(e_full, abs=1e-9)

    def test_skipped_same_spin_terms_have_zero_image(self):
        # a+_p a+_r a_s a_q within one spin vanishes when p == r or q == s, and
        # build_qubit_hamiltonian relies on the image cancelling inside the term
        for p, q, r, s in itertools.product(range(4), repeat=4):
            if p == r or q == s:
                term = FermionTerm(((p, True), (r, True), (s, False), (q, False)), 0.3)
                assert jw_transform_by_products(term, 4) == {}, (p, q, r, s)

    def test_odd_frozen_electron_count_rejected(self, h2_ints):
        with pytest.raises(HamiltonianError):
            build_qubit_hamiltonian(h2_ints, ActiveSelection(1, (0, 1)), QubitMapping.identity(2))


def hamiltonian_sha256(h) -> str:
    text = "".join(f"{w.x_mask} {w.z_mask} {w.coefficient!r}\n" for w in h.terms.words())
    return hashlib.sha256((text + repr(h.offset)).encode()).hexdigest()


# Every (x, z, repr(coefficient)) and repr(offset), computed with the
# PauliSum-product Jordan-Wigner chain; the mask chain must match bit for bit.
PINNED_HAMILTONIAN_SHA256 = {
    "h2": "e6e16ee605392c583a09cf6f86811300cf48db88530c11c0b9506b47ce4fa3fb",
    4: "baa7d0029c16550312816f4d634ac130bf01e405ee076c56201b6a4852ac2304",
    6: "2a1fa974ee8549b7d4031eaf21744d43337208253bd848d6d9400cecd84af7a1",
    8: "95c8a6c6d536cf996ada49aef086f675b60f7f04c83788b61ec4a926523c5fba",
}


class TestPinnedHamiltonian:
    def test_h2(self, h2_hamiltonian):
        assert hamiltonian_sha256(h2_hamiltonian) == PINNED_HAMILTONIAN_SHA256["h2"]

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_seeded(self, n):
        rng = np.random.default_rng(n)
        ints = random_integrals(n, n, rng)
        h = build_qubit_hamiltonian(ints, ActiveSelection.full(ints), random_block_mapping(n, rng))
        assert hamiltonian_sha256(h) == PINNED_HAMILTONIAN_SHA256[n]


def exact_hamiltonian(h) -> tuple[list, str]:
    return [(w.x_mask, w.z_mask, repr(w.coefficient)) for w in h.terms.words()], repr(h.offset)


class TestClosedFormAssembly:
    """The batched closed-form assembly gives the words, coefficients and
    offset of one ladder chain per term, bit for bit."""

    @staticmethod
    def assert_matches(ints, selection, mapping):
        assert exact_hamiltonian(build_qubit_hamiltonian(ints, selection, mapping)) == \
            exact_hamiltonian(build_qubit_hamiltonian_by_chains(ints, selection, mapping))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_random_integrals_and_mappings(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(3 if n < 8 else 1):
            ints = random_integrals(n, n - n % 2, rng)
            self.assert_matches(ints, ActiveSelection.full(ints), random_block_mapping(n, rng))

    def test_frozen_core_selections(self):
        rng = np.random.default_rng(111)
        for n, frozen, n_act, electrons in ((4, 1, 2, 4), (5, 1, 3, 4), (6, 2, 3, 6), (6, 1, 4, 6)):
            ints = random_integrals(n, electrons, rng)
            act = tuple(int(o) for o in rng.permutation(n)[:n_act])
            selection = ActiveSelection(electrons - 2 * frozen, act)
            self.assert_matches(ints, selection, random_block_mapping(n_act, rng))

    @pytest.mark.parametrize("scale", [3e-12, 5e-12, 1e-11, 2e-11])
    def test_integrals_near_the_prune_threshold(self, scale):
        # images of |c| / 2**(distinct modes) straddle COEFF_EPS: the chain
        # drops some whole and keeps others
        rng = np.random.default_rng(int(scale * 1e13))
        ints = random_integrals(4, 4, rng)
        ints = dataclasses.replace(ints, h=ints.h * scale, g=ints.g * scale)
        self.assert_matches(ints, ActiveSelection.full(ints), random_block_mapping(4, rng))

    def test_sparse_34_qubit_register(self):
        # beta qubits of the last spatial positions are 32 and 33
        n = 17
        rng = np.random.default_rng(117)
        h = np.diag(-np.arange(n, 0, -1.0))
        g = np.zeros((n, n, n, n))
        for _ in range(40):
            p, q, r, s = (int(i) for i in rng.integers(0, n, size=4))
            v = float(rng.normal(scale=0.2))
            for a, b, c, d in ((p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                               (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p)):
                g[a, b, c, d] = v
            h[p, q] = h[q, p] = float(rng.normal(scale=0.1))
        ints = MolecularIntegrals(n, 4, 0, 0.2, h, g, OrbitalSymmetry.all_symmetric(n))
        mapping = random_block_mapping(n, rng)
        hq = build_qubit_hamiltonian(ints, ActiveSelection.full(ints), mapping)
        assert max(max(w.support) for w in hq.terms.words()) == 33
        assert any(w.x_mask >> 32 for w in hq.terms.words())
        self.assert_matches(ints, ActiveSelection.full(ints), mapping)

    def test_sparse_64_qubit_register_sets_bit_63(self):
        n = 32
        rng = np.random.default_rng(164)
        mapping = random_block_mapping(n, rng)
        top = mapping.perm.index(63) - n   # the spatial orbital whose beta qubit is 63
        h = np.diag(-np.arange(n, 0, -1.0))
        g = np.zeros((n, n, n, n))
        for k in range(30):
            p, q, r, s = (int(i) for i in rng.integers(0, n, size=4))
            p = top if k % 3 == 0 else p
            v = float(rng.normal(scale=0.2))
            for a, b, c, d in ((p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                               (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p)):
                g[a, b, c, d] = v
            h[p, q] = h[q, p] = float(rng.normal(scale=0.1))
        ints = MolecularIntegrals(n, 4, 0, -0.7, h, g, OrbitalSymmetry.all_symmetric(n))
        hq = build_qubit_hamiltonian(ints, ActiveSelection.full(ints), mapping)
        assert any(w.x_mask >> 63 for w in hq.terms.words())
        assert any(w.z_mask >> 63 and not w.x_mask >> 63 for w in hq.terms.words())
        self.assert_matches(ints, ActiveSelection.full(ints), mapping)

    @staticmethod
    def two_pair_integrals(v_12, v_21):
        """Three orbitals: a one-body part on orbital 0 alone and (11|22) =
        ``v_12``, (22|11) = ``v_21``, so the n_1 n_2 words are made only in
        the blocks of leading orbitals 1 and 2. Any real pair is hermitian."""
        h = np.zeros((3, 3))
        h[0, 0] = -1.3
        g = np.zeros((3, 3, 3, 3))
        g[1, 1, 2, 2], g[2, 2, 1, 1] = v_12, v_21
        g[0, 0, 0, 0] = 0.6
        return MolecularIntegrals(3, 2, 0, 0.4, h, g, OrbitalSymmetry.all_symmetric(3))

    @staticmethod
    def number_pair_word(mapping, p, r, spins=(0, 0)) -> str:
        axes = ["I"] * mapping.n_qubits
        axes[mapping.perm[spins[0] * 3 + p]] = axes[mapping.perm[spins[1] * 3 + r]] = "Z"
        return "".join(axes)

    def test_keys_first_made_in_a_later_leading_orbital_block(self):
        rng = np.random.default_rng(118)
        for _ in range(4):
            v_12, v_21 = rng.normal(scale=0.3, size=2)
            ints = self.two_pair_integrals(v_12, v_21)
            mapping = random_block_mapping(3, rng)
            hq = build_qubit_hamiltonian(ints, ActiveSelection.full(ints), mapping)
            for spins in ((0, 0), (0, 1), (1, 0), (1, 1)):
                assert coefficient(hq.terms, self.number_pair_word(mapping, 1, 2, spins)) != 0
            self.assert_matches(ints, ActiveSelection.full(ints), mapping)

    @pytest.mark.parametrize("residue, kept", [(0.0, False), (3e-13, False), (1e-11, True)])
    def test_sums_cancelling_across_blocks(self, residue, kept):
        # the p = 1 block adds v/8 to each n_1 n_2 word and the p = 2 block
        # (residue - v)/8: the word is pruned once the sum falls below COEFF_EPS
        rng = np.random.default_rng(119)
        v = 0.37
        ints = self.two_pair_integrals(v, residue - v)
        mapping = random_block_mapping(3, rng)
        hq = build_qubit_hamiltonian(ints, ActiveSelection.full(ints), mapping)
        words = [self.number_pair_word(mapping, 1, 2, spins)
                 for spins in ((0, 0), (0, 1), (1, 0), (1, 1))]
        assert [coefficient(hq.terms, w) != 0 for w in words] == [kept] * 4
        self.assert_matches(ints, ActiveSelection.full(ints), mapping)

    def test_asymmetric_one_body_refused_as_the_chains_refuse(self):
        rng = np.random.default_rng(120)
        for _ in range(3):
            ints = random_integrals(4, 4, rng)
            ints.h[0, 2] += 0.05
            ints.h[3, 1] -= 0.2
            mapping = random_block_mapping(4, rng)
            messages = []
            for build in (build_qubit_hamiltonian, build_qubit_hamiltonian_by_chains):
                with pytest.raises(HamiltonianError, match="^non-hermitian assembly: term ") as exc:
                    build(ints, ActiveSelection.full(ints), mapping)
                messages.append(str(exc.value))
            assert messages[0] == messages[1]

    def test_register_wider_than_the_masks_refused(self):
        n = 33
        ints = MolecularIntegrals(n, 2, 0, 0.0, np.eye(n), np.zeros((n, n, n, n)),
                                  OrbitalSymmetry.all_symmetric(n))
        with pytest.raises(HamiltonianError, match="66 qubits exceed the 64"):
            build_qubit_hamiltonian(ints, ActiveSelection.full(ints), QubitMapping.identity(n))


class TestSpinSectorIndices:
    @pytest.mark.parametrize("n_spatial", range(1, 7))
    def test_matches_the_full_register_filter(self, n_spatial):
        rng = np.random.default_rng(120 + n_spatial)
        for _ in range(4):
            mapping = QubitMapping(tuple(int(q) for q in rng.permutation(2 * n_spatial)))
            orbsym = OrbitalSymmetry.from_labels(rng.integers(1, 9, size=n_spatial).tolist())
            for n_alpha in range(n_spatial + 2):
                for n_beta in range(n_spatial + 2):
                    sector = SpinSector(n_alpha, n_beta)
                    for sym in (None, orbsym):
                        got = spin_sector_indices(mapping, sector, sym)
                        want = spin_sector_indices_by_filter(mapping, sector, sym)
                        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestQwcGrouping:
    def test_all_z_words_share_one_group(self):
        terms = PauliSum(2, [PauliWord.from_axes("ZI", 0.5),
                             PauliWord.from_axes("IZ", 0.4),
                             PauliWord.from_axes("ZZ", 0.3)])
        h = _wrap(terms)
        groups = qwc_group(h)
        assert len(groups) == 1
        assert groups[0].is_z_basis()

    def test_conflicting_axes_split(self):
        terms = PauliSum(1, [PauliWord.from_axes("X", 0.5), PauliWord.from_axes("Z", 0.4)])
        assert len(qwc_group(_wrap(terms))) == 2

    def test_h2_group_count(self, h2_hamiltonian):
        # regression: minimal-basis H2 compiles to 5 measurement groups
        groups = qwc_group(h2_hamiltonian)
        assert len(groups) == 5
        assert sum(len(g.words) for g in groups) == h2_hamiltonian.term_count

    def test_groups_partition_and_commute(self, h2_hamiltonian):
        groups = qwc_group(h2_hamiltonian)
        seen = set()
        for g in groups:
            for w in g.words:
                key = (w.x_mask, w.z_mask)
                assert key not in seen
                seen.add(key)
                for q in w.support:
                    assert g.basis[q] == w.axes[q]
            assert all(a.qubitwise_commutes_with(b) for a in g.words for b in g.words)
        assert len(seen) == h2_hamiltonian.term_count

    def test_group_words_are_rows_of_h_in_join_order(self, h2_hamiltonian):
        rng = np.random.default_rng(89)
        ints = random_integrals(4, 4, rng)
        molecular = build_qubit_hamiltonian(ints, ActiveSelection.full(ints),
                                            random_block_mapping(4, rng))
        for h in (h2_hamiltonian, molecular):
            words = list(h.terms.words())
            row_of = {(w.x_mask, w.z_mask): i for i, w in enumerate(words)}
            # the sorted-insertion order in which words join their groups
            order = sorted(range(len(words)),
                           key=lambda i: (-abs(words[i].coefficient), words[i].axes))
            joined_at = {row: k for k, row in enumerate(order)}
            seen = []
            for g in qwc_group(h):
                rows = [row_of[key] for key, _ in g.words.items()]
                for got, want in zip("xzc", (h.terms.x, h.terms.z, h.terms.c)):
                    assert getattr(g.words, got).tobytes() == want[rows].tobytes()
                assert [joined_at[r] for r in rows] == sorted(joined_at[r] for r in rows)
                seen += rows
            assert sorted(seen) == list(range(len(words)))

    def test_random_hamiltonians_group_validity(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            words = [
                PauliWord.from_axes(
                    "".join(rng.choice(list("IXYZ")) for _ in range(n)), float(rng.normal())
                )
                for _ in range(int(rng.integers(3, 20)))
            ]
            words = [w for w in words if not w.is_identity()]
            h = _wrap(PauliSum(n, words))
            groups = qwc_group(h)
            total = sum(len(g.words) for g in groups)
            assert total == h.term_count
            for g in groups:
                assert all(a.qubitwise_commutes_with(b) for a in g.words for b in g.words)


    def test_matches_axis_string_reference(self):
        rng = np.random.default_rng(73)
        cases = []
        for _ in range(30):
            n = int(rng.integers(1, 9))
            words = [PauliWord.from_axes("".join(rng.choice(list("IXYZ"), size=n)),
                                         float(rng.normal()))
                     for _ in range(int(rng.integers(1, 60)))]
            cases.append(_wrap(PauliSum(n, [w for w in words if not w.is_identity()])))
        for n_orb in (2, 4, 6):
            ints = random_integrals(n_orb, n_orb, rng)
            cases.append(build_qubit_hamiltonian(ints, ActiveSelection.full(ints),
                                                 random_block_mapping(n_orb, rng)))
        for h in cases:
            assert group_rows(qwc_group(h)) == group_rows(qwc_group_by_axes(h))

    @staticmethod
    def _random_sum(rng, n, count, coefficients, weights=(0.4, 0.2, 0.2, 0.2)):
        words = [PauliWord.from_axes("".join(rng.choice(list("IXYZ"), size=n, p=weights)),
                                     float(rng.choice(coefficients)))
                 for _ in range(count)]
        return _wrap(PauliSum(n, [w for w in words if not w.is_identity()]))

    def test_tied_coefficients_match_reference(self):
        # few distinct magnitudes, so the axes order decides most placements
        rng = np.random.default_rng(79)
        ties = (0.25, -0.25, 0.5, -0.5, 1.0, -1.0)
        for _ in range(40):
            h = self._random_sum(rng, int(rng.integers(1, 11)), int(rng.integers(1, 90)), ties)
            assert group_rows(qwc_group(h)) == group_rows(qwc_group_by_axes(h))

    def test_wide_words_match_reference(self):
        rng = np.random.default_rng(83)
        for n in (33, 40, 63, 64):
            for weights in ((0.9, 0.03, 0.03, 0.04), (0.4, 0.2, 0.2, 0.2)):
                h = self._random_sum(rng, n, 120, (0.25, -0.5, 1.0, 0.125), weights)
                groups = qwc_group(h)
                assert group_rows(groups) == group_rows(qwc_group_by_axes(h))
                assert sum(len(g.words) for g in groups) == h.term_count

    def test_empty_and_one_qubit_sums(self):
        empty = _wrap(PauliSum(4))
        assert qwc_group(empty) == qwc_group_by_axes(empty) == []
        one = _wrap(PauliSum(1, [PauliWord.from_axes(a, c) for a, c in
                                 (("X", 0.5), ("Y", -0.5), ("Z", 0.25))]))
        groups = qwc_group(one)
        assert group_rows(groups) == group_rows(qwc_group_by_axes(one))
        assert [g.basis for g in groups] == [("X",), ("Y",), ("Z",)]


def group_rows(groups) -> list:
    """Each group's index, words and basis, with the words as a tuple of
    ``PauliWord``s, so that groups compare by value."""
    return [(g.index, tuple(g.words), g.basis) for g in groups]


def _wrap(terms: PauliSum):
    from uccvqe.hamio import QubitHamiltonian

    mapping = QubitMapping.identity(terms.n // 2) if terms.n % 2 == 0 else None
    return QubitHamiltonian(terms.n, terms, 0.0, mapping, ActiveSpace(0, max(1, terms.n // 2)))


class TestExactGroundEnergy:
    def test_h2_reference_energy(self, h2_hamiltonian):
        assert exact_ground_energy(h2_hamiltonian, SpinSector(1, 1)) == pytest.approx(H2_FCI,
                                                                                      abs=1e-9)

    def test_sector_restriction_matches_full(self, h2_hamiltonian):
        # H2's ground state lies in its (1, 1) sector: the block gives the
        # lowest eigenvalue of the whole register
        full = np.linalg.eigvalsh(dense_matrix(h2_hamiltonian))[0]
        sector = exact_ground_energy(h2_hamiltonian, SpinSector(1, 1))
        assert sector == pytest.approx(full, abs=1e-9)

    def test_variational_bound(self, h2_ints, h2_hamiltonian):
        core, h_eff, g_act, _ = restrict_to_active(h2_ints, ActiveSelection.full(h2_ints))
        assert (exact_ground_energy(h2_hamiltonian, SpinSector(1, 1))
                <= rhf_energy(core, h_eff, g_act, 1))

    def test_dimension_cap(self):
        # the (4,4) sector of 8 spatial orbitals holds C(8,4)^2 = 4900 determinants
        terms = PauliSum(16, [PauliWord.from_axes("Z" * 16, 1.0)])
        h = _wrap(terms)
        with pytest.raises(BlockSizeError, match="block of 4900 determinants exceeds the dense cap"):
            exact_ground_energy(h, SpinSector(4, 4))

    def test_iterative_path_matches_dense(self, h2_hamiltonian):
        # a 12-qubit padded copy: H2's two electrons sit in the (2, 0) block
        # of this mapping
        from uccvqe.hamio import QubitHamiltonian

        n = 12
        padded_terms = PauliSum(n, [PauliWord(n, w.x_mask, w.z_mask, w.coefficient)
                                    for w in h2_hamiltonian.terms.words()])
        padded = QubitHamiltonian(n, padded_terms, h2_hamiltonian.offset,
                                  QubitMapping.identity(6), ActiveSpace(2, 6))
        assert exact_ground_energy(padded, SpinSector(2, 0)) == pytest.approx(H2_FCI, abs=1e-7)
