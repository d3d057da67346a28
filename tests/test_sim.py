import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_block_mapping, random_integrals
from oracles import (
    apply_1q_dense,
    apply_cnot_dense,
    apply_phase_dense,
    expectation_per_word,
    group_outcomes_per_word,
    shot_values_by_string,
    sum_matrix,
    word_masks_by_format,
)
from uccvqe import kernels
from uccvqe.ansatz import ActiveSpace
from uccvqe.circuit import Circuit, Gate
from uccvqe.hamio import ActiveSelection, MeasurementGroup, QubitHamiltonian, build_qubit_hamiltonian, qwc_group
from uccvqe.mapping import QubitMapping
from uccvqe.pauli import PauliSum, PauliWord
from uccvqe.sim import (
    MAX_QUBITS,
    Histogram,
    bitstrings,
    SimulationError,
    Statevector,
    apply_circuit,
    energy_from_histograms,
    expectation,
    group_outcomes,
    parse_sections,
    prepared_basis_state,
    sample_group,
    word_masks,
)
from uccvqe.symmetry import index_mask


def make_hamiltonian(terms: PauliSum, offset=0.0):
    mapping = QubitMapping.identity(terms.n // 2) if terms.n % 2 == 0 else None
    return QubitHamiltonian(terms.n, terms, offset, mapping, ActiveSpace(0, max(1, terms.n // 2)))


def random_circuit(n, length, rng):
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


class TestApplyCircuit:
    def test_x_flips(self):
        out = apply_circuit(Statevector.zero(1), Circuit(1, [Gate("X", (0,))]))
        assert abs(out.amplitudes[1] - 1.0) < 1e-15

    def test_cnot_on_10(self):
        state = Statevector.from_bitstring("10")
        out = apply_circuit(state, Circuit(2, [Gate("CNOT", (0, 1))]))
        assert abs(out.amplitudes[int("11", 2)] - 1.0) < 1e-15

    def test_norm_preserved_on_long_random_circuit(self):
        rng = np.random.default_rng(5)
        circ = random_circuit(5, 200, rng)
        out = apply_circuit(Statevector.zero(5), circ)
        assert abs(out.norm() - 1.0) < 1e-10

    def test_unbound_parameter_raises(self):
        circ = Circuit(1, [Gate("RZ", (0,), (1.0, "t9"))])
        with pytest.raises(Exception, match="t9"):
            apply_circuit(Statevector.zero(1), circ, {})

    def test_input_state_untouched(self):
        state = Statevector.zero(2)
        apply_circuit(state, Circuit(2, [Gate("X", (0,))]))
        assert abs(state.amplitudes[0] - 1.0) < 1e-15


class TestExpectation:
    def test_z_on_zero_state(self):
        h = make_hamiltonian(PauliSum(1, [PauliWord.from_axes("Z", 1.0)]))
        assert expectation(Statevector.zero(1), h) == pytest.approx(1.0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            words = [
                PauliWord.from_axes("".join(rng.choice(list("IXYZ")) for _ in range(n)),
                                    float(rng.normal()))
                for _ in range(8)
            ]
            terms = PauliSum(n, [w for w in words if not w.is_identity()])
            h = make_hamiltonian(terms, offset=float(rng.normal()))
            state = apply_circuit(Statevector.zero(n), random_circuit(n, 30, rng))
            dense = sum_matrix(terms) + h.offset * np.eye(1 << n)
            want = float(np.real(state.amplitudes.conj() @ dense @ state.amplitudes))
            assert expectation(state, h) == pytest.approx(want, abs=1e-10)


class TestWordMasks:
    @pytest.mark.parametrize("n", range(1, 65))
    def test_bit_reversal_matches_per_qubit_scan(self, n):
        rng = np.random.default_rng(n)
        full = (1 << n) - 1
        draws = [int.from_bytes(rng.bytes(8), "little") & full for _ in range(40)]
        xs, zs = draws[:20] + [full], draws[20:] + [1]
        xb, zb, ny = word_masks(n, xs, zs)
        assert xb.dtype == zb.dtype == np.uint64 and ny.dtype == np.int64
        want = [tuple(index_mask(n, [q for q in range(n) if m >> q & 1]) for m in (x, z))
                + ((x & z).bit_count(),) for x, z in zip(xs, zs)]
        assert list(zip(xb.tolist(), zb.tolist(), ny.tolist())) == want
        assert want == [word_masks_by_format(n, x, z) for x, z in zip(xs, zs)]
        assert want[-1] == (full, 1 << (n - 1), 1)


def z_group(n):
    return MeasurementGroup(0, (PauliWord.from_axes("Z" * n, 1.0),), ("Z",) * n)


def basis_rotation(group, n) -> Circuit:
    """A group's basis change as gates: H on an X axis, Sdg then H on a Y axis."""
    gates = []
    for q, axis in enumerate(group.basis):
        if axis == "Y":
            gates.append(Gate("SDG", (q,)))
        if axis in ("X", "Y"):
            gates.append(Gate("H", (q,)))
    return Circuit(n, gates)


class TestSampling:
    def test_basis_state_is_deterministic(self):
        hist = sample_group(Statevector.zero(2), z_group(2), shots=100, seed=1)
        assert hist.counts == {"00": 100}

    def test_plus_state_frequencies(self):
        state = apply_circuit(Statevector.zero(1), Circuit(1, [Gate("H", (0,))]))
        hist = sample_group(state, z_group(1), shots=1_000_000, seed=7)
        freq = hist.counts["0"] / hist.shots
        assert abs(freq - 0.5) < 0.002

    def test_same_seed_same_histogram(self):
        state = apply_circuit(Statevector.zero(3), Circuit(3, [Gate("H", (q,)) for q in range(3)]))
        a = sample_group(state, z_group(3), 5000, seed=3)
        b = sample_group(state, z_group(3), 5000, seed=3)
        assert a.counts == b.counts

    def test_rotated_basis_measurement(self):
        # X on qubit 0 measured via H rotation: |+> gives all zeros
        group = MeasurementGroup(0, (PauliWord.from_axes("X", 1.0),), ("X",))
        state = apply_circuit(Statevector.zero(1), Circuit(1, [Gate("H", (0,))]))
        hist = sample_group(state, group, 500, seed=0)
        assert hist.counts == {"0": 500}

    def test_outcomes_are_the_drawn_indices(self):
        rng = np.random.default_rng(9)
        state = Statevector(6, random_amplitudes(6, rng))
        hist = sample_group(state, z_group(6), 500, seed=4)
        probs = state.probabilities()
        draws = np.random.default_rng(4).multinomial(500, probs / probs.sum())
        assert hist.n_qubits == 6
        assert hist.outcomes.tolist() == np.flatnonzero(draws).tolist()
        assert hist.tallies.tolist() == draws[draws > 0].tolist()

    @pytest.mark.parametrize("n", range(1, 13))
    def test_rotation_matches_the_gate_level_basis_change_bit_for_bit(self, n, monkeypatch):
        rng = np.random.default_rng(700 + n)
        state = Statevector(n, random_amplitudes(n, rng))
        before = state.amplitudes.copy()
        rotated = []
        apply_1q = kernels.apply_1q

        def spy(amps, *args):
            rotated[:] = [amps]
            apply_1q(amps, *args)

        monkeypatch.setattr(kernels, "apply_1q", spy)
        for k in range(12):
            # qubit 0 cycles through every axis; the rest are drawn
            basis = ("XYZ-"[k % 4], *rng.choice(list("XYZ-"), size=n - 1).tolist())
            word = PauliWord.from_axes("".join(basis).replace("-", "I"), 1.0)
            group = MeasurementGroup(k, (word,), basis)
            rotated.clear()
            got = sample_group(state, group, 3000, seed=k)
            mine = rotated[:]  # apply_circuit below calls the spy too
            gates = apply_circuit(state, basis_rotation(group, n)).amplitudes
            if mine:
                assert np.array_equal(mine[0], gates)
            probs = np.abs(gates) ** 2
            draws = np.random.default_rng(k).multinomial(3000, probs / probs.sum())
            assert got.outcomes.tolist() == np.flatnonzero(draws).tolist()
            assert got.tallies.tolist() == draws[draws > 0].tolist()
            assert (got.shots, got.group_id, got.seed) == (3000, k, k)
        assert np.array_equal(state.amplitudes, before)

    def test_shots_must_be_positive(self):
        with pytest.raises(SimulationError):
            sample_group(Statevector.zero(1), z_group(1), 0, seed=0)

    @pytest.mark.parametrize("basis", [("X",), ("X", "Z", "Y")])
    def test_basis_width_must_match_the_register(self, basis, monkeypatch):
        def no_rotation(*args):
            raise AssertionError("rotated before refusing the basis")

        monkeypatch.setattr(kernels, "apply_1q", no_rotation)
        monkeypatch.setattr(kernels, "apply_phase", no_rotation)
        word = PauliWord.from_axes("".join(basis), 1.0)
        group = MeasurementGroup(5, (word,), basis)
        with pytest.raises(SimulationError,
                           match=rf"^group 5: basis of {len(basis)} qubits on a 2-qubit state$"):
            sample_group(Statevector.zero(2), group, 100, seed=0)

    @pytest.mark.parametrize("n", [1, 4, 8, 12])
    def test_counts_match_enumerate_all_form(self, n):
        rng = np.random.default_rng(150 + n)
        state = Statevector(n, random_amplitudes(n, rng))
        hist = sample_group(state, z_group(n), 3000, seed=n)
        probs = state.probabilities()
        draws = np.random.default_rng(n).multinomial(3000, probs / probs.sum())
        want = {format(idx, f"0{n}b"): int(c) for idx, c in enumerate(draws) if c}
        assert list(hist.counts.items()) == list(want.items())
        assert hist.to_text() == Histogram(want, 3000, 0, n).to_text()


class TestHistogram:
    def test_counts_must_sum_to_shots(self):
        with pytest.raises(SimulationError):
            Histogram({"00": 3}, 4, 0, 0)

    def test_text_round_trip(self):
        h = Histogram({"01": 3, "10": 7}, 10, 2, 99)
        again = Histogram.from_text(h.to_text())
        assert again.counts == h.counts
        assert (again.shots, again.group_id, again.seed) == (10, 2, 99)

    def test_malformed_file(self):
        with pytest.raises(SimulationError):
            Histogram.from_text("oops\n")

    @pytest.mark.parametrize("n", [1, 16, 64])
    def test_bit_plane_strings_match_format(self, n):
        rng = np.random.default_rng(n)
        top = (1 << n) - 1
        picks = {0, top, 1, 1 << (n - 1)} | {int(v) & top for v in
                                             rng.integers(0, 2**63, size=200, dtype=np.uint64)}
        picks |= {v | (1 << (n - 1)) for v in list(picks)}
        outcomes = np.array(sorted(picks), dtype=np.uint64)
        want = [format(int(i), f"0{n}b") for i in outcomes]
        assert bitstrings(outcomes, n) == want
        tallies = np.arange(1, len(outcomes) + 1)
        h = Histogram.from_outcomes(n, outcomes, tallies, int(tallies.sum()), 4, 11)
        lines = [f"{bits} {c}" for bits, c in zip(want, tallies.tolist())]
        assert h.to_text() == "\n".join(["GROUP 4", f"SHOTS {tallies.sum()}", "SEED 11",
                                          *lines]) + "\n"
        assert list(h.counts) == want

    @pytest.mark.parametrize("bits", ["0201", "0b01", "1_01", "+101", "011x"])
    def test_non_binary_bitstring_rejected(self, bits):
        text = f"GROUP 0\nSHOTS 5\nSEED 1\n0011 3\n{bits} 2\n"
        with pytest.raises(SimulationError, match="characters of 0/1"):
            Histogram.from_text(text)

    def test_negative_count_rejected(self):
        with pytest.raises(SimulationError, match="record '11 -2' has a negative count"):
            Histogram({"00": 6, "11": -2}, 4, 0, 0)
        with pytest.raises(SimulationError, match="negative count"):
            Histogram.from_text("GROUP 0\nSHOTS 4\nSEED 1\n00 6\n11 -2\n")

    @pytest.mark.parametrize("text, message", [
        ("GROUP 0\nSHOTS 4\nSEED 1\n00 3\n\n00 1\n", "line 6: bitstring '00' repeats"),
        ("GROUP 0\nSHOTS\nSEED 1\n00 4\n", "line 2: expected 'SHOTS <integer>', got 'SHOTS'"),
        ("GROUP 0\nSEED 1\nSHOTS 4\n00 4\n", "line 2: expected 'SHOTS <integer>'"),
        ("GROUP 0\nSHOTS 4 4\nSEED 1\n00 4\n", "line 2: expected 'SHOTS <integer>'"),
        ("GROUP 0\nSHOTS four\nSEED 1\n00 4\n", "line 2: 'four' is not an integer"),
        ("GROUP 0\nSHOTS 4\nSEED 1\n00 4 x\n", "line 4: expected '<bits> <count>'"),
        ("GROUP 0\nSHOTS 4\nSEED 1\n00\n", "line 4: expected '<bits> <count>'"),
        ("GROUP 0\nSHOTS 4\nSEED 1\n00 4.0\n", "line 4: '4.0' is not an integer"),
        ("GROUP 0\nSHOTS 4\n", "needs GROUP, SHOTS and SEED"),
    ], ids=["repeat", "bare-key", "key-order", "extra-token", "word", "long-record",
            "short-record", "float", "no-seed"])
    def test_unreadable_lines_named(self, text, message):
        with pytest.raises(SimulationError, match=re.escape(message)):
            Histogram.from_text(text)

    def test_differing_lengths_rejected(self):
        with pytest.raises(SimulationError, match="'011' is not 4 characters"):
            Histogram.from_text("GROUP 0\nSHOTS 5\nSEED 1\n0011 3\n011 2\n")
        with pytest.raises(SimulationError):
            Histogram({"0011": 3, "00111": 2}, 5, 0, 0)

    def test_arrays_and_counts_view(self):
        hist = Histogram({"10": 7, "01": 3, "11": 0}, 10, 2, 99)
        assert hist.n_qubits == 2
        assert hist.outcomes.dtype == np.uint64 and hist.outcomes.tolist() == [1, 2, 3]
        assert hist.tallies.dtype == np.int64 and hist.tallies.tolist() == [3, 7, 0]
        assert list(hist.counts.items()) == [("01", 3), ("10", 7), ("11", 0)]
        assert len(hist.counts) == 3 and hist.counts["10"] == 7
        for absent in ("00", "1", "010", "0b1", 1):
            assert absent not in hist.counts
        with pytest.raises(TypeError):
            hist.counts["00"] = 1

    @pytest.mark.parametrize("width", [0, 65, 100])
    def test_width_outside_1_to_64_refused(self, width):
        with pytest.raises(SimulationError, match=f"1 to 64 qubits, not {width}$"):
            Histogram({"1" * width: 2}, 2, 0, 0)
        if width:
            with pytest.raises(SimulationError, match=f"1 to 64 qubits, not {width}$"):
                Histogram.from_text(f"GROUP 0\nSHOTS 2\nSEED 1\n{'0' * width} 2\n")

    def test_empty_histogram_has_no_width(self):
        # its text form would hold a record '' that from_text cannot read
        with pytest.raises(SimulationError, match="1 to 64 qubits, not 0"):
            Histogram({"": 0}, 0, 0, 0)
        with pytest.raises(SimulationError, match="1 to 64 qubits, not 0"):
            Histogram({}, 0, 0, 0)

    def test_64_qubit_register(self):
        top = 1 << 63
        hist = Histogram({"0" * 64: 1, "1" + "0" * 63: 2, "1" * 64: 3}, 6, 4, 0)
        assert hist.outcomes.tolist() == [0, top, 2 * top - 1]
        again = Histogram.from_text(hist.to_text())
        assert again.counts == hist.counts and again.n_qubits == 64
        group = MeasurementGroup(4, (PauliWord.from_axes("Z" + "I" * 63, 1.0),),
                                 ("Z",) + ("-",) * 63)
        [(_, values, weights)] = group_outcomes([group], [again])
        assert values.tolist() == [1.0, -1.0, -1.0] and weights.tolist() == [1.0, 2.0, 3.0]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sections_read_as_their_records_one_by_one(self, data):
        # records in any order and blank lines anywhere; the reference is the
        # {bits: count} constructor, fed one record at a time
        width = data.draw(st.sampled_from([1, 3, 63, 64]))
        text, want = [], []
        for group in range(data.draw(st.integers(1, 3))):
            records = data.draw(st.dictionaries(
                st.integers(0, (1 << width) - 1), st.integers(0, 1 << 60), min_size=1, max_size=5))
            counts = {format(o, f"0{width}b"): c for o, c in records.items()}
            shots, seed = sum(counts.values()), data.draw(st.integers(0, 2**64))
            want.append(Histogram(counts, shots, group, seed))
            lines = [f"GROUP {group}", f"SHOTS {shots}", f"SEED {seed}"]
            lines += data.draw(st.permutations([f"{b} {c}" for b, c in counts.items()]))
            for _ in range(data.draw(st.integers(0, 2))):
                lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(
                    ["", "  ", "\t"])))
            text += lines
        got = parse_sections("\n".join(text))
        assert len(got) == len(want)
        for section, hist in zip(got, want):
            assert section.basis is None
            assert section.histogram.outcomes.tolist() == hist.outcomes.tolist()
            assert section.histogram.tallies.tolist() == hist.tallies.tolist()
            assert (section.histogram.shots, section.histogram.group_id, section.histogram.seed) \
                == (hist.shots, hist.group_id, hist.seed)

    def test_from_outcomes_refuses_wrong_totals_and_widths(self):
        with pytest.raises(SimulationError, match="counts sum to 2, expected 3"):
            Histogram.from_outcomes(2, [0, 3], [1, 1], 3, 0, 0)
        with pytest.raises(SimulationError, match="not 65"):
            Histogram.from_outcomes(65, [0], [1], 1, 0, 0)


def random_groups(n_qubits: int, rng) -> list[MeasurementGroup]:
    """QWC groups of a random Pauli sum and of a molecular Hamiltonian under
    a random qubit mapping; together they use X, Y and Z bases."""
    words = [PauliWord.from_axes("".join(rng.choice(list("IXYZ"), size=n_qubits)),
                                 float(rng.normal())) for _ in range(40)]
    random_sum = make_hamiltonian(PauliSum(n_qubits, [w for w in words if not w.is_identity()]))
    n_orb = n_qubits // 2
    ints = random_integrals(n_orb, n_orb, rng)
    molecular = build_qubit_hamiltonian(ints, ActiveSelection.full(ints),
                                        random_block_mapping(n_orb, rng))
    return qwc_group(random_sum) + qwc_group(molecular)


class TestGroupShotValues:
    @pytest.mark.parametrize("n_qubits", [8, 12])
    def test_matches_string_oracle_exactly(self, n_qubits):
        rng = np.random.default_rng(n_qubits)
        groups = random_groups(n_qubits, rng)
        assert {axis for g in groups for axis in g.basis} == {"X", "Y", "Z", "-"}
        hists = []
        for group in groups:
            outcomes = rng.integers(0, 1 << n_qubits, size=300)
            counts = {}
            for s in outcomes:
                bits = format(int(s), f"0{n_qubits}b")
                counts[bits] = counts.get(bits, 0) + 1
            hists.append(Histogram(counts, len(outcomes), group.index, 0))
        for group, hist, got in zip(groups, hists, group_outcomes(groups, hists)):
            want_values, want_weights = shot_values_by_string(group, hist)
            assert np.array_equal(got[1], want_values)
            assert np.array_equal(got[2], want_weights)
            per_word = group_outcomes_per_word(group, hist)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, per_word))

    def test_register_width_mismatch_rejected(self):
        group = MeasurementGroup(3, (PauliWord.from_axes("ZZI", 1.0),), ("Z", "Z", "-"))
        with pytest.raises(SimulationError, match="group 3: bitstrings are not 3 bits long"):
            group_outcomes([group], [Histogram({"0110": 4}, 4, 3, 0)])


class TestEnergyEstimator:
    def test_exact_distribution_recovers_expectation(self):
        # uniform 2-qubit state has exactly representable probabilities
        terms = PauliSum(2, [PauliWord.from_axes("ZI", 0.7),
                             PauliWord.from_axes("ZZ", -0.2),
                             PauliWord.from_axes("XX", 0.5)])
        h = make_hamiltonian(terms, offset=0.1)
        circ = Circuit(2, [Gate("H", (0,)), Gate("H", (1,))])
        state = apply_circuit(Statevector.zero(2), circ)
        groups = qwc_group(h)
        hists = []
        for g in groups:
            rotated = apply_circuit(state, basis_rotation(g, 2))
            probs = rotated.probabilities()
            counts = {format(i, "02b"): int(round(p * 4096)) for i, p in enumerate(probs) if p > 1e-15}
            hists.append(Histogram(counts, 4096, g.index, 0))
        energy, _ = energy_from_histograms(groups, hists, h.offset)
        assert energy == pytest.approx(expectation(state, h), abs=1e-12)

    def test_quadrupling_shots_halves_standard_error(self):
        terms = PauliSum(2, [PauliWord.from_axes("ZI", 0.7), PauliWord.from_axes("XX", 0.4)])
        h = make_hamiltonian(terms)
        state = apply_circuit(Statevector.zero(2),
                              Circuit(2, [Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("S", (1,))]))
        groups = qwc_group(h)
        ratios = []
        for seed in range(10):
            ses = []
            for shots in (2000, 8000):
                hists = [sample_group(state, g, shots, seed=100 * seed + g.index) for g in groups]
                ses.append(energy_from_histograms(groups, hists, 0.0)[1])
            ratios.append(ses[0] / ses[1])
        mean_ratio = float(np.mean(ratios))
        assert abs(mean_ratio - 2.0) < 0.4

    def test_unbiased_over_many_seeds(self):
        terms = PauliSum(2, [PauliWord.from_axes("ZZ", 0.8), PauliWord.from_axes("XI", -0.3)])
        h = make_hamiltonian(terms, offset=-0.05)
        state = apply_circuit(Statevector.zero(2),
                              Circuit(2, [Gate("H", (0,)), Gate("CNOT", (0, 1))]))
        groups = qwc_group(h)
        exact = expectation(state, h)
        energies = []
        for seed in range(200):
            hists = [sample_group(state, g, 800, seed=17 * seed + g.index) for g in groups]
            energies.append(energy_from_histograms(groups, hists, h.offset)[0])
        mean = float(np.mean(energies))
        se_of_mean = float(np.std(energies, ddof=1) / np.sqrt(len(energies)))
        assert abs(mean - exact) < 3 * se_of_mean + 1e-12

    def test_group_histogram_count_mismatch(self):
        terms = PauliSum(1, [PauliWord.from_axes("Z", 1.0)])
        h = make_hamiltonian(terms)
        groups = qwc_group(h)
        with pytest.raises(SimulationError):
            energy_from_histograms(groups, [], h.offset)


def random_amplitudes(n, rng):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


class TestKernelsMatchDenseExpressions:
    """The in-place kernels give the same bits as whole-array expressions at
    every qubit position, including the last ones, where the inner stride is
    1 or 2 and the Hadamard and phase kernels run down the blocks."""

    R = 1 / np.sqrt(2)

    @pytest.mark.parametrize("n", [*range(1, 13), 16])
    def test_single_qubit_gates(self, n):
        rng = np.random.default_rng(200 + n)
        theta = float(rng.normal())
        rz = (complex(np.cos(theta / 2), -np.sin(theta / 2)),
              complex(np.cos(theta / 2), np.sin(theta / 2)))
        for q in range(n):
            psi = random_amplitudes(n, rng)
            for matrix in ((self.R, self.R, self.R, -self.R), (0.0, 1.0, 1.0, 0.0)):
                want, got = psi.copy(), psi.copy()
                apply_1q_dense(want, q, *matrix)
                kernels.apply_1q(got, n, q, *matrix)
                assert np.array_equal(got, want), (q, matrix)
            for p0, p1 in ((1.0, 1.0j), (1.0, -1.0j), rz, (1.0, 1.0)):
                want, got = psi.copy(), psi.copy()
                apply_phase_dense(want, q, p0, p1)
                kernels.apply_phase(got, n, q, p0, p1)
                assert np.array_equal(got, want), (q, p0, p1)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_cnot_every_pair(self, n):
        rng = np.random.default_rng(300 + n)
        psi = random_amplitudes(n, rng)
        for c in range(n):
            for t in range(n):
                if c == t:
                    continue
                want, got = psi.copy(), psi.copy()
                apply_cnot_dense(want, c, t)
                kernels.apply_cnot(got, n, c, t)
                assert np.array_equal(got, want), (c, t)


@pytest.mark.parametrize("n_idx", [0, 1, 5, kernels.BLOCK, 2 * kernels.BLOCK + 3])
@pytest.mark.parametrize("dtype", [float, complex])
def test_parity_sums_match_the_per_word_loop(n_idx, dtype):
    # one index is a one-column table, and more than BLOCK indices take
    # several passes; both must add the words in order, bit for bit
    rng = np.random.default_rng(n_idx)
    idx = rng.integers(0, 1 << 20, size=n_idx).astype(np.uint64)
    for n_words in (1, 9, 40):
        z_bits = rng.integers(0, 1 << 20, size=n_words).astype(np.uint64)
        coeffs = rng.normal(size=n_words) * 10.0 ** rng.integers(-6, 6, size=n_words)
        if dtype is complex:
            coeffs = coeffs + 1j * rng.normal(size=n_words)
        want = np.zeros(n_idx, dtype=dtype)
        for z, c in zip(z_bits.tolist(), coeffs.tolist()):
            want += c * kernels.parity_signs(idx, z)
        got = kernels.parity_sums(idx, z_bits, coeffs)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestExpectationMatchesPerWordLoop:
    @pytest.mark.parametrize("n_orb", [2, 4, 6])
    def test_molecular_hamiltonians_under_random_mappings(self, n_orb):
        rng = np.random.default_rng(400 + n_orb)
        for _ in range(2):
            ints = random_integrals(n_orb, n_orb, rng)
            h = build_qubit_hamiltonian(ints, ActiveSelection.full(ints),
                                        random_block_mapping(n_orb, rng))
            state = Statevector(2 * n_orb, random_amplitudes(2 * n_orb, rng))
            assert expectation(state, h) == expectation_per_word(state, h)
            circ = random_circuit(2 * n_orb, 60, rng)
            state = apply_circuit(Statevector.zero(2 * n_orb), circ)
            assert expectation(state, h) == expectation_per_word(state, h)

    def test_pauli_expectation_per_word(self):
        rng = np.random.default_rng(409)
        n = 7
        psi = random_amplitudes(n, rng)
        idx = np.arange(psi.size, dtype=np.uint64)
        for _ in range(50):
            xb, zb = (int(v) for v in rng.integers(0, 1 << n, size=2))
            signs = 1.0 - 2.0 * (np.bitwise_count(idx & np.uint64(zb)) & np.uint64(1))
            want = complex(np.sum(np.conj(psi[(idx ^ np.uint64(xb)).astype(np.int64)]) * signs * psi))
            assert kernels.pauli_expectation(psi, n, xb, zb) == want


def random_clifford_circuit(n, length, rng):
    """Gates drawn from the zero-parameter gate set; RZ carries a parameter."""
    kinds = ["X", "H", "S", "SDG", "RZ"] + ["CNOT"] * (2 if n > 1 else 0)
    gates = []
    for _ in range(length):
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "CNOT":
            c, t = rng.choice(n, size=2, replace=False)
            gates.append(Gate("CNOT", (int(c), int(t))))
        elif kind == "RZ":
            gates.append(Gate("RZ", (int(rng.integers(n)),), (float(rng.normal()), "t")))
        else:
            gates.append(Gate(kind, (int(rng.integers(n)),)))
    return Circuit(n, gates)


class TestPreparedBasisState:
    def test_matches_statevector_on_random_clifford_circuits(self):
        rng = np.random.default_rng(2004)
        outcomes = {"basis": 0, "refused": 0}
        for _ in range(3000):
            n = int(rng.integers(1, 6))
            circ = random_clifford_circuit(n, int(rng.integers(1, 16)), rng)
            probs = apply_circuit(Statevector.zero(n), circ, {"t": 0.0}).probabilities()
            idx = np.arange(1 << n)
            z = [float(np.sum(probs * (1 - 2 * ((idx >> (n - 1 - q)) & 1)))) for q in range(n)]
            if all(abs(abs(v) - 1.0) < 1e-9 for v in z):
                outcomes["basis"] += 1
                assert prepared_basis_state(circ) == "".join("1" if v < 0 else "0" for v in z)
            else:
                outcomes["refused"] += 1
                with pytest.raises(SimulationError, match="is not in a basis state") as err:
                    prepared_basis_state(circ)
                q = int(str(err.value).split()[1])
                assert abs(z[q]) < 1e-9, (q, z)
        assert min(outcomes.values()) > 1000, outcomes

    def test_single_gate_rules(self):
        # X|0> = |1>; S, SDG and H-pairs leave |0>; H S S H = X up to phase
        assert prepared_basis_state(Circuit(1, [Gate("X", (0,))])) == "1"
        for kinds in (["S"], ["SDG"], ["H", "H"], ["H", "S", "S", "H"], ["H", "SDG", "SDG", "H"]):
            want = "1" if kinds.count("S") + kinds.count("SDG") == 2 else "0"
            assert prepared_basis_state(Circuit(1, [Gate(k, (0,)) for k in kinds])) == want
        assert prepared_basis_state(Circuit(3, [Gate("X", (0,)), Gate("CNOT", (0, 2))])) == "101"

    def test_parametrized_rz_is_identity(self):
        circ = Circuit(2, [Gate("X", (1,)), Gate("RZ", (1,), (0.5, "t0"))])
        assert prepared_basis_state(circ) == "01"

    def test_superposition_names_the_qubit(self):
        circ = Circuit(3, [Gate("X", (0,)), Gate("H", (2,))])
        with pytest.raises(SimulationError, match="qubit 2 is not in a basis state"):
            prepared_basis_state(circ)

    def test_constant_rz_refused_with_gate_index(self):
        circ = Circuit.from_text("QUBITS 2\nX 0\nRZ 1 0.25\n")
        with pytest.raises(SimulationError, match="gate 1 is an RZ by the constant angle 0.25"):
            prepared_basis_state(circ)


class TestDenseCap:
    @pytest.mark.parametrize("make", [lambda: Statevector.zero(MAX_QUBITS + 1),
                                      lambda: Statevector.from_bitstring("0" * (MAX_QUBITS + 1))])
    def test_refused_before_allocating(self, make, monkeypatch):
        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated a statevector above the cap")

        monkeypatch.setattr(np, "zeros", no_alloc)
        with pytest.raises(SimulationError, match=f"exceeds the dense cap of {MAX_QUBITS}"):
            make()
