import dataclasses

import numpy as np
import pytest

from conftest import random_block_mapping, random_integrals, word_sum
from oracles import group_outcomes_per_word, postselect_by_string, run_policies_over_all_groups
from uccvqe.hamio import (
    ActiveSelection,
    MeasurementGroup,
    build_qubit_hamiltonian,
    qwc_group,
    spin_sector_indices,
)
from uccvqe.mapping import QubitMapping
from uccvqe.mitigate import (
    MitigationError,
    PostSelectionPolicy,
    mitigated_energy,
    postselect,
    run_policies,
)
from uccvqe.pauli import PauliSum, PauliWord
from uccvqe.sim import Histogram, SimulationError, energy_from_histograms, group_outcomes
from uccvqe.symmetry import SpinSector, in_symmetry_block
from uccvqe.vqe import evaluate_sampled, optimize

SECTOR = SpinSector(1, 1)
H2_MAPPING = QubitMapping.identity(2)


def contaminate(hist: Histogram, fraction: float, n: int, rng) -> Histogram:
    """Replace a fraction of shots by uniform random bitstrings."""
    counts = dict(hist.counts)
    n_replace = int(round(fraction * hist.shots))
    keys = list(counts)
    probs = np.array([counts[k] for k in keys], dtype=float)
    probs /= probs.sum()
    for key, r in zip(keys, rng.multinomial(n_replace, probs)):
        counts[key] -= min(int(r), counts[key])
    deficit = hist.shots - sum(counts.values())
    for s in rng.integers(0, 1 << n, size=deficit):
        b = format(int(s), f"0{n}b")
        counts[b] = counts.get(b, 0) + 1
    return Histogram({k: v for k, v in counts.items() if v > 0}, hist.shots,
                     hist.group_id, hist.seed)


class TestPostselect:
    def test_none_policy_is_identity(self):
        hist = Histogram({"0011": 50, "0111": 30}, 80, 0, 0)
        out = postselect(hist, PostSelectionPolicy("none", SECTOR), H2_MAPPING)
        assert out.counts == hist.counts

    def test_particle_filter_keeps_correct_totals(self):
        hist = Histogram({"0011": 50, "0111": 30, "1100": 20}, 100, 0, 0)
        out = postselect(hist, PostSelectionPolicy("particle", SpinSector(1, 1)), H2_MAPPING)
        assert out.counts == {"0011": 50, "1100": 20}
        assert out.shots == 70

    def test_spin_filter_drops_cross_manifold_transfer(self):
        mapping = QubitMapping.identity(2)
        # "0011": zero alpha ones, two beta ones: right total, wrong spin split
        hist = Histogram({"0011": 40, "1010": 60}, 100, 0, 0)
        particle = postselect(hist, PostSelectionPolicy("particle", SECTOR), mapping)
        spin = postselect(hist, PostSelectionPolicy("spin", SECTOR), mapping)
        assert "0011" in particle.counts
        assert spin.counts == {"1010": 60}

    def test_idempotent(self):
        mapping = QubitMapping.identity(2)
        hist = Histogram({"0011": 40, "1010": 60, "1110": 5}, 105, 0, 0)
        for kind in ("particle", "spin"):
            once = postselect(hist, PostSelectionPolicy(kind, SECTOR), mapping)
            twice = postselect(once, PostSelectionPolicy(kind, SECTOR), mapping)
            assert once.counts == twice.counts

    def test_spin_subset_of_particle(self):
        rng = np.random.default_rng(2)
        mapping = QubitMapping.identity(2)
        counts = {}
        for s in rng.integers(0, 16, size=400):
            b = format(int(s), "04b")
            counts[b] = counts.get(b, 0) + 1
        hist = Histogram(counts, 400, 0, 0)
        particle = postselect(hist, PostSelectionPolicy("particle", SECTOR), mapping)
        spin = postselect(hist, PostSelectionPolicy("spin", SECTOR), mapping)
        assert set(spin.counts) <= set(particle.counts)
        assert spin.shots <= particle.shots <= hist.shots

    def test_sector_soundness(self):
        mapping = QubitMapping.identity(2)
        counts = {format(int(s), "04b"): 1 for s in range(16)}
        hist = Histogram(counts, 16, 0, 0)
        spin = postselect(hist, PostSelectionPolicy("spin", SECTOR), mapping)
        assert in_symmetry_block(spin.outcomes, mapping, SECTOR).all()
        assert len(spin.counts) == 4  # one alpha on 2 qubits times one beta on 2

    def test_spin_on_another_register_width_rejected(self):
        hist = Histogram({"001100": 3}, 3, 6, 0)
        with pytest.raises(MitigationError, match="group 6: bitstrings are not 4 bits long"):
            postselect(hist, PostSelectionPolicy("spin", SECTOR), QubitMapping.identity(2))

    def test_kept_outcomes_keep_their_arrays(self):
        hist = Histogram({"0011": 40, "1010": 60, "1110": 5}, 105, 3, 8)
        kept = postselect(hist, PostSelectionPolicy("particle", SECTOR), H2_MAPPING)
        assert (kept.n_qubits, kept.shots, kept.group_id, kept.seed) == (4, 100, 3, 8)
        assert kept.outcomes.tolist() == [0b0011, 0b1010] and kept.tallies.tolist() == [40, 60]

    def test_empty_retention_is_an_error(self):
        hist = Histogram({"1111": 10}, 10, 0, 0)
        with pytest.raises(MitigationError, match="discarded every shot"):
            postselect(hist, PostSelectionPolicy("particle", SECTOR), H2_MAPPING)

    def test_unknown_policy(self):
        with pytest.raises(MitigationError):
            PostSelectionPolicy("majority-vote", SECTOR)


@pytest.fixture(scope="module")
def h2_sampled(h2_hamiltonian, h2_spec):
    mapping = QubitMapping.identity(2)
    res = optimize(h2_hamiltonian, h2_spec, mapping)
    ev = evaluate_sampled(h2_hamiltonian, h2_spec, mapping, res.params, 6000, seed=21)
    return res, ev


class TestMitigatedEnergy:
    def test_noiseless_samples_fully_retained(self, h2_hamiltonian, h2_sampled):
        _, ev = h2_sampled
        mapping = QubitMapping.identity(2)
        for policy_kind in ("particle", "spin"):
            policy = PostSelectionPolicy(policy_kind, SECTOR)
            for group, hist in zip(ev.groups, ev.histograms):
                if group.is_z_basis():
                    assert postselect(hist, policy, mapping).shots == hist.shots

    def test_none_policy_matches_raw_estimate(self, h2_hamiltonian, h2_sampled):
        _, ev = h2_sampled
        e, se = mitigated_energy(ev.groups, ev.histograms,
                                 PostSelectionPolicy("none", SECTOR),
                                 QubitMapping.identity(2), h2_hamiltonian)
        assert e == pytest.approx(ev.energy, abs=1e-12)
        assert se == pytest.approx(ev.standard_error, abs=1e-12)

    def test_noiseless_mitigation_changes_nothing(self, h2_hamiltonian, h2_sampled):
        _, ev = h2_sampled
        e, _ = mitigated_energy(ev.groups, ev.histograms,
                                PostSelectionPolicy("spin", SECTOR),
                                QubitMapping.identity(2), h2_hamiltonian)
        assert e == pytest.approx(ev.energy, abs=1e-12)

    def test_error_ordering_under_contamination(self, h2_hamiltonian, h2_sampled):
        res, ev = h2_sampled
        mapping = QubitMapping.identity(2)
        raw_err, part_err, spin_err, raw_se, spin_se = [], [], [], [], []
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            dirty = [
                contaminate(hist, 0.10, 4, rng) if grp.is_z_basis() else hist
                for grp, hist in zip(ev.groups, ev.histograms)
            ]
            e_raw, se_r = energy_from_histograms(ev.groups, dirty, h2_hamiltonian.offset)
            e_part, _ = mitigated_energy(ev.groups, dirty,
                                         PostSelectionPolicy("particle", SECTOR),
                                         mapping, h2_hamiltonian)
            e_spin, se_s = mitigated_energy(ev.groups, dirty,
                                            PostSelectionPolicy("spin", SECTOR),
                                            mapping, h2_hamiltonian)
            raw_err.append(abs(e_raw - res.energy))
            part_err.append(abs(e_part - res.energy))
            spin_err.append(abs(e_spin - res.energy))
            raw_se.append(se_r)
            spin_se.append(se_s)
        assert np.mean(raw_err) > np.mean(part_err) > np.mean(spin_err)
        assert np.mean(spin_se) <= np.mean(raw_se)

    def test_no_z_basis_group_is_an_error(self, h2_hamiltonian):
        group = MeasurementGroup(0, word_sum("XIII"), ("X", "-", "-", "-"))
        hist = Histogram({"0000": 5}, 5, 0, 0)
        with pytest.raises(MitigationError, match="computational-basis"):
            mitigated_energy([group], [hist], PostSelectionPolicy("particle", SECTOR),
                             QubitMapping.identity(2), h2_hamiltonian)

    def test_count_mismatch_is_one_error(self, h2_hamiltonian, h2_sampled):
        _, ev = h2_sampled
        n = len(ev.groups)
        short = ev.histograms[:-1]
        for estimate in (
                lambda: mitigated_energy(ev.groups, short, PostSelectionPolicy("spin", SECTOR),
                                         H2_MAPPING, h2_hamiltonian),
                lambda: energy_from_histograms(ev.groups, short, h2_hamiltonian.offset)):
            with pytest.raises(SimulationError, match=rf"^{n} groups but {n - 1} histograms$"):
                estimate()

    def test_run_policies_accounting(self, h2_hamiltonian, h2_sampled):
        _, ev = h2_sampled
        report = run_policies(ev.groups, ev.valued, SECTOR, H2_MAPPING, h2_hamiltonian,
                              ("particle", "spin"))
        assert report.raw.retained_shots == report.total_z_shots
        assert report.outcomes["spin"].retained_shots <= report.outcomes["particle"].retained_shots
        assert report.outcomes["particle"].retained_shots <= report.total_z_shots

    def test_run_policies_matches_postselect_under_contamination(self, h2_hamiltonian, h2_sampled):
        _, ev = h2_sampled
        mapping = QubitMapping.identity(2)
        rng = np.random.default_rng(77)
        dirty = [contaminate(hist, 0.2, 4, rng) if grp.is_z_basis() else hist
                 for grp, hist in zip(ev.groups, ev.histograms)]
        report = run_policies(ev.groups, group_outcomes(ev.groups, dirty), SECTOR, mapping,
                              h2_hamiltonian, ("particle", "spin"))
        for kind in ("particle", "spin"):
            policy = PostSelectionPolicy(kind, SECTOR)
            kept = sum(postselect(hist, policy, mapping).shots
                       for grp, hist in zip(ev.groups, dirty) if grp.is_z_basis())
            outcome = report.outcomes[kind]
            assert outcome.retained_shots == kept < report.total_z_shots
            assert (outcome.energy, outcome.standard_error) == mitigated_energy(
                ev.groups, dirty, policy, mapping, h2_hamiltonian)


def contaminated_case(n_orbitals: int, seed: int):
    """A random molecular Hamiltonian under a random block mapping, its
    diagonal words measured as one Z-basis group and the rest grouped by
    ``qwc_group``, with one histogram per group: 3/4 of the shots in the
    reference spin sector, 1/4 uniform over the register."""
    rng = np.random.default_rng(seed)
    ints = random_integrals(n_orbitals, n_orbitals, rng)
    mapping = random_block_mapping(n_orbitals, rng)
    h = build_qubit_hamiltonian(ints, ActiveSelection.full(ints), mapping)
    n = 2 * n_orbitals
    diagonal = PauliSum(n, [w for w in h.terms.words() if w.x_mask == 0])
    rest = PauliSum(n, [w for w in h.terms.words() if w.x_mask != 0])
    groups = [MeasurementGroup(0, diagonal, ("Z",) * n)] + [
        MeasurementGroup(1 + g.index, g.words, g.basis)
        for g in qwc_group(dataclasses.replace(h, terms=rest))]
    sector = SpinSector(n_orbitals // 2, n_orbitals // 2)
    in_sector = spin_sector_indices(mapping, sector)
    histograms = []
    for group in groups:
        draws = np.concatenate([rng.choice(in_sector, size=300), rng.integers(0, 1 << n, size=100)])
        counts = {}
        for d in draws:
            bits = format(int(d), f"0{n}b")
            counts[bits] = counts.get(bits, 0) + 1
        histograms.append(Histogram(counts, len(draws), group.index, seed))
    return groups, histograms, sector, mapping, h


@pytest.mark.parametrize("n_orbitals", [4, 6])
def test_index_filters_match_the_bitstring_oracle(n_orbitals):
    for seed in range(2):
        groups, hists, sector, mapping, h = contaminated_case(n_orbitals, 100 * n_orbitals + seed)
        report = run_policies(groups, group_outcomes(groups, hists), sector, mapping, h,
                              ("particle", "spin"))
        assert report == run_policies_over_all_groups(
            groups, [group_outcomes_per_word(g, hist) for g, hist in zip(groups, hists)],
            sector, mapping, h)
        assert (report.raw.energy, report.raw.standard_error) == energy_from_histograms(
            groups, hists, h.offset)
        for kind in ("particle", "spin"):
            policy = PostSelectionPolicy(kind, sector)
            want = [postselect_by_string(hist, kind, sector.n_alpha, sector.n_beta, mapping)
                    if g.is_z_basis() else hist for g, hist in zip(groups, hists)]
            energy, se = energy_from_histograms(groups, want, h.offset)
            kept = sum(w.shots for g, w in zip(groups, want) if g.is_z_basis())
            outcome = report.outcomes[kind]
            assert (outcome.energy, outcome.standard_error, outcome.retained_shots) == (
                energy, se, kept)
            assert kept < report.total_z_shots
            assert mitigated_energy(groups, hists, policy, mapping, h) == (energy, se)
            for g, hist, w in zip(groups, hists, want):
                if g.is_z_basis():
                    got = postselect(hist, policy, mapping)
                    assert (got.counts, got.shots) == (w.counts, w.shots)
