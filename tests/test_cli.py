import json
import sys

import numpy as np
import pytest

from conftest import random_block_mapping, random_integrals
from oracles import hf_check_by_statevector
from uccvqe.circuit import Circuit, Gate, build_ansatz_circuit
from uccvqe import hamio, sim
from uccvqe.cli import CliError, Pipeline, RunConfig, load_report, main, validate_report
from uccvqe.hamio import (
    ActiveSelection,
    MolecularIntegrals,
    build_qubit_hamiltonian,
    restrict_to_active,
    rhf_energy,
    write_fcidump,
)
from uccvqe.sim import MAX_QUBITS, prepared_basis_state
from uccvqe.symmetry import OrbitalSymmetry


def run(args):
    return main(args)


def strip_timings(report):
    out = dict(report)
    out.pop("timings_seconds", None)
    return out


class TestSynth:
    def test_h2_counts(self, h2_path, tmp_path):
        code = run(["synth", "--fcidump", h2_path, "--electrons", "2",
                    "--out", str(tmp_path)])
        assert code == 0
        report = load_report(tmp_path / "report.json")
        assert report["qubits"] == 4
        assert report["parameter_count"] == 1
        assert report["two_qubit_gate_count"] == 4
        assert report["qwc_group_count"] == 5
        assert report["energies_hartree"]["hf"] == pytest.approx(-1.11668005, abs=1e-7)

    def test_symmetry_off_never_lowers_parameter_count(self, h2_path, tmp_path):
        run(["synth", "--fcidump", h2_path, "--electrons", "2",
             "--variant", "uccsd", "--out", str(tmp_path / "on")])
        run(["synth", "--fcidump", h2_path, "--electrons", "2",
             "--variant", "uccsd", "--no-symmetry", "--out", str(tmp_path / "off")])
        with_sym = load_report(tmp_path / "on" / "report.json")["parameter_count"]
        without = load_report(tmp_path / "off" / "report.json")["parameter_count"]
        assert without >= with_sym

    def test_circuit_file_round_trips(self, h2_path, tmp_path):
        run(["synth", "--fcidump", h2_path, "--electrons", "2", "--out", str(tmp_path)])
        text = (tmp_path / "circuit.txt").read_text()
        circ = Circuit.from_text(text)
        assert circ.to_text() == text

    def test_missing_file_fails_nonzero(self, tmp_path):
        code = run(["synth", "--fcidump", str(tmp_path / "nope.fcidump"),
                    "--electrons", "2", "--out", str(tmp_path)])
        assert code == 1

    def test_bad_orbital_list_fails(self, h2_path, tmp_path):
        code = run(["synth", "--fcidump", h2_path, "--electrons", "2",
                    "--orbitals", "0;1", "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("symmetry", [[], ["--no-symmetry"]])
    def test_orbital_past_norb_rejected_with_file_name(self, h2_path, tmp_path, capsys, symmetry):
        # the screened run used to die with an IndexError from the irrep table
        code = run(["synth", "--fcidump", h2_path, "--electrons", "2", "--orbitals", "0,5",
                    *symmetry, "--out", str(tmp_path)])
        assert code == 1
        assert (f"{h2_path}: --orbitals names orbital 5, outside 0..1 of the header's NORB=2"
                in capsys.readouterr().err)
        assert not (tmp_path / "report.json").exists()

    def test_negative_restart_budget_rejected(self, h2_path, tmp_path, capsys):
        code = run(["synth", "--fcidump", h2_path, "--electrons", "2",
                    "--map-restarts", "-3", "--out", str(tmp_path)])
        assert code == 1
        assert "uccvqe: error: restart budget must be non-negative, got -3" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", ["synth", "vqe"])
    def test_nonzero_ms2_rejected_with_file_name(self, command, h2_path, tmp_path, capsys):
        # the closed-shell pipeline would otherwise run a triplet file as a singlet
        path = tmp_path / "triplet.fcidump"
        with open(h2_path) as fh:
            path.write_text(fh.read().replace("MS2=0", "MS2=2", 1))
        code = run([command, "--fcidump", str(path), "--electrons", "2",
                    "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{path}: header has MS2=2" in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_more_electrons_than_nelec_rejected_with_file_name(self, h2_path, tmp_path, capsys):
        code = run(["synth", "--fcidump", h2_path, "--electrons", "4", "--out", str(tmp_path)])
        assert code == 1
        assert f"{h2_path}: --electrons 4 exceeds the header's NELEC=2" in capsys.readouterr().err

    @pytest.mark.parametrize("indices", ["1   1   1   1", "1   1   0   0"])
    def test_nan_integral_rejected(self, indices, h2_path, tmp_path, capsys):
        # a nan (1 1 1 1) used to be dropped by the integral threshold, and a
        # nan (1 1 0 0) to give "hf": NaN, both with exit status 0
        with open(h2_path) as fh:
            lines = fh.read().splitlines()
        k = next(i for i, ln in enumerate(lines) if ln.endswith(indices))
        lines[k] = f" nan   {indices}"
        path = tmp_path / "nan.fcidump"
        path.write_text("\n".join(lines) + "\n")
        code = run(["synth", "--fcidump", str(path), "--electrons", "2",
                    "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"{path}: non-finite value in record 'nan   {indices}'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()


def pair_integrals(n_orb: int, n_electrons: int) -> MolecularIntegrals:
    """Diagonal one-electron part and only (pp|qq) and (pq|pq) two-electron
    integrals: a small Hamiltonian on a wide register."""
    h = np.diag(np.linspace(-2.0, 1.0, n_orb))
    g = np.zeros((n_orb,) * 4)
    for p in range(n_orb):
        for q in range(n_orb):
            g[p, p, q, q] = 0.4 / (1 + abs(p - q))
            if p != q:
                g[p, q, p, q] = g[p, q, q, p] = 0.05 / (1 + abs(p - q))
    return MolecularIntegrals(n_orb, n_electrons, 0, 1.5, h, g, OrbitalSymmetry.all_symmetric(n_orb))


class TestHartreeFockCheck:
    @staticmethod
    def pipeline(tmp_path, ints, variant, mapping) -> Pipeline:
        path = tmp_path / f"{variant}.fcidump"
        write_fcidump(str(path), ints)
        pipe = Pipeline(RunConfig(str(path), ints.n_electrons, (), variant=variant,
                                  map_restarts=2))
        pipe.mapping = mapping
        pipe.hamiltonian = build_qubit_hamiltonian(pipe.ints, pipe.selection, mapping)
        pipe.circuit = build_ansatz_circuit(pipe.spec, mapping)
        return pipe

    @pytest.mark.parametrize("variant", ["upccd", "uccdab", "uccd", "uccsd"])
    @pytest.mark.parametrize("n_orb", [2, 4, 6])
    def test_matches_statevector_oracle_under_random_mappings(self, variant, n_orb, tmp_path):
        rng = np.random.default_rng(500 + n_orb)
        ints = random_integrals(n_orb, n_orb, rng)
        pipe = self.pipeline(tmp_path, ints, variant, random_block_mapping(n_orb, rng))
        want_bits, want_energy = hf_check_by_statevector(pipe.circuit, pipe.hamiltonian)
        assert prepared_basis_state(pipe.circuit) == want_bits
        assert want_bits == pipe.hamiltonian.hf_bitstring()
        assert pipe.hf_energy_check() == pytest.approx(want_energy, abs=1e-10)

    def test_wrong_determinant_names_both_bitstrings(self, h2_path, tmp_path):
        pipe = Pipeline(RunConfig(h2_path, 2, ()))
        hf_bits = pipe.hamiltonian.hf_bitstring()
        pipe.circuit = Circuit(4, pipe.circuit.gates + (Gate("X", (3,)),))
        flipped = hf_bits[:3] + ("0" if hf_bits[3] == "1" else "1")
        with pytest.raises(CliError, match=rf"prepares \|{flipped}>, not the "
                                           rf"Hartree-Fock determinant \|{hf_bits}>"):
            pipe.hf_energy_check()

    def test_nan_energy_fails(self, h2_path):
        # abs(nan - reference) > 1e-8 is False, so the test must be "not <="
        pipe = Pipeline(RunConfig(h2_path, 2, ()))
        pipe.hamiltonian.offset = float("nan")
        with pytest.raises(CliError, match="HF energy nan != mean-field reference"):
            pipe.hf_energy_check()

    def test_synth_past_the_statevector_cap(self, tmp_path):
        # 26 qubits: no 2^n array is ever allocated by synth
        ints = pair_integrals(13, 6)
        path = tmp_path / "pairs.fcidump"
        write_fcidump(str(path), ints)
        code = run(["synth", "--fcidump", str(path), "--electrons", "6", "--variant", "upccd",
                    "--out", str(tmp_path / "out")])
        assert code == 0
        report = load_report(tmp_path / "out" / "report.json")
        assert report["qubits"] == 26 > MAX_QUBITS
        core, h, g, _ = restrict_to_active(ints, ActiveSelection.full(ints))
        assert report["energies_hartree"]["hf"] == pytest.approx(rhf_energy(core, h, g, 3), abs=1e-10)

    @pytest.mark.parametrize("command", [["vqe"], ["sweep", "--shot-list", "300,600"]])
    def test_vqe_and_sweep_refuse_oversized_registers_up_front(self, command, tmp_path,
                                                              capsys, monkeypatch):
        import uccvqe.cli as cli_module

        def no_optimize(*args, **kwargs):
            raise AssertionError("optimized before refusing the register")

        monkeypatch.setattr(cli_module, "optimize", no_optimize)
        path = tmp_path / "pairs.fcidump"
        write_fcidump(str(path), pair_integrals(13, 6))
        code = run(command[:1] + ["--fcidump", str(path), "--electrons", "6",
                                  "--variant", "upccd", "--out", str(tmp_path / "out")]
                   + command[1:])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{path}: `uccvqe {command[0]}` samples a statevector of 26 qubits" in err
        assert not (tmp_path / "out" / "report.json").exists()


class TestVqe:
    def test_full_run_report(self, h2_path, tmp_path):
        code = run(["vqe", "--fcidump", h2_path, "--electrons", "2",
                    "--shots", "2000", "--sample-seed", "7", "--out", str(tmp_path)])
        assert code == 0
        report = load_report(tmp_path / "report.json")
        energies = report["energies_hartree"]
        assert energies["variational"] == pytest.approx(-1.1372655544, abs=1e-7)
        assert energies["exact_ground"] == pytest.approx(-1.1372655544, abs=1e-7)
        for key in ("sampled_raw", "sampled_particle", "sampled_spin"):
            assert key in energies
            assert key in report["standard_errors_hartree"]
        retained = report["retained_shots"]
        assert retained["spin"] <= retained["particle"] <= retained["z_basis_total"]
        hist_files = sorted(tmp_path.glob("group_*.hist"))
        assert len(hist_files) == report["qwc_group_count"]

    def test_rerun_replaces_the_histograms_in_out(self, h2_path, tmp_path):
        # a wider run first leaves more group files than the H2 run writes
        wide = tmp_path / "wide.fcidump"
        write_fcidump(str(wide), pair_integrals(4, 4))
        out = tmp_path / "out"
        assert run(["vqe", "--fcidump", str(wide), "--electrons", "4", "--variant", "upccd",
                    "--shots", "100", "--out", str(out)]) == 0
        wide_groups = load_report(out / "report.json")["qwc_group_count"]
        assert run(["vqe", "--fcidump", h2_path, "--electrons", "2", "--shots", "100",
                    "--out", str(out)]) == 0
        groups = load_report(out / "report.json")["qwc_group_count"]
        assert wide_groups > groups
        assert sorted(p.name for p in out.glob("group_*.hist")) == [
            f"group_{k:03d}.hist" for k in range(groups)]
        assert run(["mitigate", "--report", str(out / "report.json"),
                    "--histograms", str(out), "--policy", "all"]) == 0

    def test_repeat_runs_identical_apart_from_timings(self, h2_path, tmp_path):
        run(["vqe", "--fcidump", h2_path, "--electrons", "2", "--shots", "500",
             "--sample-seed", "3", "--out", str(tmp_path / "a")])
        run(["vqe", "--fcidump", h2_path, "--electrons", "2", "--shots", "500",
             "--sample-seed", "3", "--out", str(tmp_path / "b")])
        ra = strip_timings(load_report(tmp_path / "a" / "report.json"))
        rb = strip_timings(load_report(tmp_path / "b" / "report.json"))
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)

    def test_seeded_numbers_pinned(self, h2_path, tmp_path):
        # Seeded runs are reproducible number for number, so exact equality.
        run(["vqe", "--fcidump", h2_path, "--electrons", "2", "--shots", "2000",
             "--sample-seed", "7", "--out", str(tmp_path)])
        report = load_report(tmp_path / "report.json")
        assert report["energies_hartree"] == {
            "hf": -1.1166800501161702,
            "variational": -1.1372655543753205,
            "exact_ground": -1.1372655543753205,
            "sampled_raw": -1.1329489486853153,
            "sampled_particle": -1.1329489486853153,
            "sampled_spin": -1.1329489486853153,
        }
        assert report["standard_errors_hartree"] == {
            key: 0.004458876837742775
            for key in ("sampled_raw", "sampled_particle", "sampled_spin")
        }
        assert report["retained_shots"] == {"z_basis_total": 2000, "particle": 2000, "spin": 2000}


    def test_exact_ground_is_the_hartree_fock_irrep_block(self, tmp_path):
        # Two orbitals of different irreps. The (1,1) sector also holds the
        # two open-shell determinants of the other irrep, whose ground lies
        # 94 mEh lower; the doubles ansatz is exact on the irrep-1 block.
        g = np.zeros((2, 2, 2, 2))
        for (p, q, r, s_), v in (((0, 0, 0, 0), 0.7), ((1, 1, 1, 1), 0.7),
                                 ((0, 0, 1, 1), 0.6), ((0, 1, 0, 1), 0.2)):
            for a, b, c, d in ((p, q, r, s_), (q, p, r, s_), (p, q, s_, r), (q, p, s_, r),
                               (r, s_, p, q), (s_, r, p, q), (r, s_, q, p), (s_, r, q, p)):
                g[a, b, c, d] = v
        path = tmp_path / "two.fcidump"
        write_fcidump(str(path), MolecularIntegrals(
            2, 2, 0, 0.0, np.diag([-1.0, -0.95]), g, OrbitalSymmetry.from_labels([1, 2])))
        energies = {}
        for flags in ([], ["--no-symmetry"]):
            out = tmp_path / ("off" if flags else "on")
            assert run(["vqe", "--fcidump", str(path), "--electrons", "2", "--shots", "200",
                        "--out", str(out)] + flags) == 0
            energies[bool(flags)] = load_report(out / "report.json")["energies_hartree"]
        screened, unscreened = energies[False], energies[True]
        assert screened["exact_ground"] == pytest.approx(screened["variational"], abs=1e-9)
        assert screened["exact_ground"] == pytest.approx(-1.4561552812808836, abs=1e-12)
        assert unscreened["exact_ground"] == pytest.approx(-1.55, abs=1e-12)

    def test_block_over_the_cap_leaves_exact_ground_out(self, h2_path, tmp_path, monkeypatch):
        monkeypatch.setattr(hamio, "DENSE_BLOCK_LIMIT", 1)
        assert run(["vqe", "--fcidump", h2_path, "--electrons", "2", "--shots", "200",
                    "--out", str(tmp_path)]) == 0
        energies = load_report(tmp_path / "report.json")["energies_hartree"]
        assert "exact_ground" not in energies
        assert energies["variational"] == pytest.approx(-1.1372655544, abs=1e-7)


class TestBuildsOnce:
    @pytest.mark.parametrize("command", [
        ["vqe", "--shots", "500"],
        ["sweep", "--shot-list", "300,600"],
    ])
    def test_sampling_reuses_the_pipeline_circuit_and_groups(self, command, h2_path,
                                                             tmp_path, monkeypatch):
        import uccvqe.vqe as vqe_module

        def rebuilt(*args, **kwargs):
            raise AssertionError("sampling rebuilt what the pipeline holds")

        monkeypatch.setattr(vqe_module, "build_ansatz_circuit", rebuilt)
        monkeypatch.setattr(vqe_module, "qwc_group", rebuilt)
        code = run(command[:1] + ["--fcidump", h2_path, "--electrons", "2",
                                  "--out", str(tmp_path)] + command[1:])
        assert code == 0


class TestValuesEachHistogramOnce:
    @pytest.fixture
    def outcome_calls(self, monkeypatch):
        """Count ``group_outcomes`` calls under every name a module holds it by."""
        original, calls = sim.group_outcomes, []

        def counted(group, histogram):
            calls.append(group.index)
            return original(group, histogram)

        for name, module in list(sys.modules.items()):
            if name.startswith("uccvqe") and getattr(module, "group_outcomes", None) is original:
                monkeypatch.setattr(module, "group_outcomes", counted)
        return calls

    @pytest.mark.parametrize("policy", ["all", "spin", "none"])
    def test_vqe_then_mitigate_value_each_group_once(self, policy, h2_path, tmp_path,
                                                     outcome_calls):
        assert run(["vqe", "--fcidump", h2_path, "--electrons", "2", "--shots", "300",
                    "--policy", policy, "--out", str(tmp_path)]) == 0
        groups = list(range(load_report(tmp_path / "report.json")["qwc_group_count"]))
        assert sorted(outcome_calls) == groups
        outcome_calls.clear()
        assert run(["mitigate", "--report", str(tmp_path / "report.json"),
                    "--histograms", str(tmp_path), "--policy", "spin"]) == 0
        assert sorted(outcome_calls) == groups

    def test_policy_none_writes_raw_only_and_mitigate_reproduces_it(self, h2_path, tmp_path):
        assert run(["vqe", "--fcidump", h2_path, "--electrons", "2", "--shots", "700",
                    "--sample-seed", "4", "--policy", "none", "--out", str(tmp_path)]) == 0
        report = load_report(tmp_path / "report.json")
        assert set(report["energies_hartree"]) == {"hf", "variational", "exact_ground",
                                                   "sampled_raw"}
        assert set(report["standard_errors_hartree"]) == {"sampled_raw"}
        assert report["retained_shots"] == {}
        assert run(["mitigate", "--report", str(tmp_path / "report.json"),
                    "--histograms", str(tmp_path), "--policy", "spin"]) == 0
        after = load_report(tmp_path / "report.json")
        for block in ("energies_hartree", "standard_errors_hartree"):
            assert after[block]["sampled_raw"] == report[block]["sampled_raw"]
            assert after[block]["sampled_spin"] == report[block]["sampled_raw"]  # noiseless
        assert after["retained_shots"] == {"z_basis_total": 700, "spin": 700}


class TestSweep:
    def test_table_rows(self, h2_path, tmp_path, capsys):
        code = run(["sweep", "--fcidump", h2_path, "--electrons", "2",
                    "--shot-list", "600,6000", "--out", str(tmp_path)])
        assert code == 0
        report = load_report(tmp_path / "report.json")
        assert [row["shots"] for row in report["sweep"]] == [600, 6000]
        assert report["sweep"][0]["standard_error"] > report["sweep"][1]["standard_error"]
        out = capsys.readouterr().out
        assert "shots" in out and "600" in out

    def test_empty_shot_list_is_usage_error(self, h2_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--fcidump", h2_path, "--electrons", "2",
                 "--shot-list", "", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_single_value_rejected(self, h2_path, tmp_path):
        code = run(["sweep", "--fcidump", h2_path, "--electrons", "2",
                    "--shot-list", "600", "--out", str(tmp_path)])
        assert code == 1


class TestMitigateCommand:
    def test_reruns_policies_on_saved_histograms(self, h2_path, tmp_path):
        run(["vqe", "--fcidump", h2_path, "--electrons", "2", "--shots", "800",
             "--sample-seed", "5", "--out", str(tmp_path)])
        before = load_report(tmp_path / "report.json")
        code = run(["mitigate", "--report", str(tmp_path / "report.json"),
                    "--histograms", str(tmp_path), "--policy", "all"])
        assert code == 0
        after = load_report(tmp_path / "report.json")
        assert after["energies_hartree"]["sampled_spin"] == pytest.approx(
            before["energies_hartree"]["sampled_spin"], abs=1e-12
        )

    def _vqe_run(self, h2_path, tmp_path):
        run(["vqe", "--fcidump", h2_path, "--electrons", "2", "--shots", "800",
             "--sample-seed", "5", "--out", str(tmp_path)])
        return load_report(tmp_path / "report.json")

    def _mitigate(self, tmp_path):
        return run(["mitigate", "--report", str(tmp_path / "report.json"),
                    "--histograms", str(tmp_path), "--policy", "all"])

    def test_histograms_paired_by_group_id_not_file_name(self, h2_path, tmp_path):
        # Names that sort out of id order, as group_1000 sorts before group_101.
        before = self._vqe_run(h2_path, tmp_path)
        files = sorted(tmp_path.glob("group_*.hist"))
        texts = [p.read_text() for p in files]
        for p in files:
            p.unlink()
        for k, text in enumerate(reversed(texts)):
            (tmp_path / f"group_{k:03d}.hist").write_text(text)
        assert self._mitigate(tmp_path) == 0
        after = load_report(tmp_path / "report.json")
        for key in ("sampled_raw", "sampled_particle", "sampled_spin"):
            assert after["energies_hartree"][key] == before["energies_hartree"][key]

    def test_duplicate_group_id_rejected(self, h2_path, tmp_path, capsys):
        self._vqe_run(h2_path, tmp_path)
        (tmp_path / "group_001.hist").write_text((tmp_path / "group_000.hist").read_text())
        assert self._mitigate(tmp_path) == 1
        assert "second histogram for group 0" in capsys.readouterr().err

    def test_missing_group_id_rejected(self, h2_path, tmp_path, capsys):
        self._vqe_run(h2_path, tmp_path)
        text = (tmp_path / "group_002.hist").read_text()
        (tmp_path / "group_002.hist").write_text(text.replace("GROUP 2", "GROUP 9", 1))
        assert self._mitigate(tmp_path) == 1
        assert "missing ids [2], unknown ids [9]" in capsys.readouterr().err

    def test_non_binary_bitstring_rejected_with_file_name(self, h2_path, tmp_path, capsys):
        # A scorer that only looks for '1' reads "0201" as "0001"; the file
        # must be refused instead, naming the file.
        self._vqe_run(h2_path, tmp_path)
        path = tmp_path / "group_000.hist"
        lines = path.read_text().splitlines()
        bits, count = lines[3].split()
        lines[3] = f"{bits[0]}2{bits[2:]} {count}"
        path.write_text("\n".join(lines) + "\n")
        assert self._mitigate(tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"uccvqe: error: {path}: ")
        assert "characters of 0/1" in err

    @pytest.mark.parametrize("case, message", [
        ("negative", "has a negative count"),
        ("repeat", "repeats an earlier record"),
        ("bare-shots", "line 2: expected 'SHOTS <integer>'"),
    ])
    def test_unreadable_histogram_named(self, h2_path, tmp_path, capsys, case, message):
        self._vqe_run(h2_path, tmp_path)
        path = tmp_path / "group_000.hist"
        lines = path.read_text().splitlines()
        header, records = lines[:3], lines[3:]
        (b0, c0), (b1, c1) = (r.split() for r in records[:2])
        edited = {
            # the counts still sum to SHOTS; only the sign check refuses them
            "negative": header + [f"{b0} {int(c0) + int(c1) + 6}", f"{b1} -6"] + records[2:],
            "repeat": header + records + records[:1],
            "bare-shots": [header[0], "SHOTS", header[2]] + records,
        }[case]
        path.write_text("\n".join(edited) + "\n")
        assert self._mitigate(tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"uccvqe: error: {path}: ")
        assert message in err

    def test_count_past_int64_rejected_with_file_name(self, h2_path, tmp_path, capsys):
        self._vqe_run(h2_path, tmp_path)
        path = tmp_path / "group_000.hist"
        lines = path.read_text().splitlines()
        lines[1] = f"SHOTS {1 << 64}"
        lines[3:] = [f"{lines[3].split()[0]} {1 << 64}"]
        path.write_text("\n".join(lines) + "\n")
        assert self._mitigate(tmp_path) == 1
        assert capsys.readouterr().err.startswith(f"uccvqe: error: {path}: ")

    def test_histogram_of_another_sample_seed_rejected(self, h2_path, tmp_path, capsys):
        self._vqe_run(h2_path, tmp_path / "run")
        run(["vqe", "--fcidump", h2_path, "--electrons", "2", "--shots", "800",
             "--sample-seed", "9", "--out", str(tmp_path / "other")])
        path = tmp_path / "run" / "group_002.hist"
        path.write_text((tmp_path / "other" / "group_002.hist").read_text())
        assert self._mitigate(tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"uccvqe: error: {path}: SEED ")
        assert "sample seed 5 gives group 2 the seed" in err

    @pytest.mark.parametrize("shot_mode, shots, group_shots", [
        ("per-group", "800", 800), ("total", "1001", 201)])
    def test_histogram_with_another_shot_count_rejected(self, h2_path, tmp_path, capsys,
                                                       shot_mode, shots, group_shots):
        run(["vqe", "--fcidump", h2_path, "--electrons", "2", "--shots", shots,
             "--shot-mode", shot_mode, "--out", str(tmp_path)])
        assert self._mitigate(tmp_path) == 0  # the budget the run spent is accepted
        path = tmp_path / "group_000.hist"
        group, _, seed, first = path.read_text().splitlines()[:4]
        path.write_text(f"{group}\nSHOTS 2\n{seed}\n{first.split()[0]} 2\n")
        assert self._mitigate(tmp_path) == 1
        assert capsys.readouterr().err.startswith(
            f"uccvqe: error: {path}: SHOTS 2, but {shots} shots ({shot_mode}) "
            f"give group 0 {group_shots}")

    def test_bitstrings_wider_than_the_register_rejected_with_file_name(self, h2_path, tmp_path,
                                                                         capsys):
        self._vqe_run(h2_path, tmp_path)
        path = tmp_path / "group_000.hist"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + ["0" + rec for rec in lines[3:]]) + "\n")
        assert self._mitigate(tmp_path) == 1
        assert capsys.readouterr().err == (f"uccvqe: error: {path}: bitstrings are 5 bits long, "
                                           "but the register has 4 qubits\n")

    def test_synth_report_rejected_and_left_unchanged(self, h2_path, tmp_path, capsys):
        # histograms of a vqe run, then a synth report written over its report
        self._vqe_run(h2_path, tmp_path)
        run(["synth", "--fcidump", h2_path, "--electrons", "2", "--out", str(tmp_path)])
        before = (tmp_path / "report.json").read_text()
        assert self._mitigate(tmp_path) == 1
        assert capsys.readouterr().err.endswith(
            f"{tmp_path / 'report.json'}: a 'synth' report; mitigate needs the report "
            "of a 'vqe' run\n")
        assert (tmp_path / "report.json").read_text() == before

    def test_report_missing_config_key_is_a_clean_error(self, h2_path, tmp_path, capsys):
        self._vqe_run(h2_path, tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        del data["config"]["shot_mode"]
        (tmp_path / "report.json").write_text(json.dumps(data))
        assert self._mitigate(tmp_path) == 1
        assert "missing keys ['shot_mode']" in capsys.readouterr().err


class TestReportSchema:
    def test_unknown_top_level_field_rejected(self, h2_path, tmp_path):
        run(["synth", "--fcidump", h2_path, "--electrons", "2", "--out", str(tmp_path)])
        data = json.loads((tmp_path / "report.json").read_text())
        data["surprise"] = 1
        with pytest.raises(CliError, match="unknown report fields"):
            validate_report(data)

    def test_unknown_energy_field_rejected(self, h2_path, tmp_path):
        run(["synth", "--fcidump", h2_path, "--electrons", "2", "--out", str(tmp_path)])
        data = json.loads((tmp_path / "report.json").read_text())
        data["energies_hartree"]["mystery"] = 0.0
        with pytest.raises(CliError, match="unknown energy fields"):
            validate_report(data)

    def test_config_keys_checked(self, h2_path, tmp_path):
        run(["synth", "--fcidump", h2_path, "--electrons", "2", "--out", str(tmp_path)])
        data = json.loads((tmp_path / "report.json").read_text())
        data["config"]["extra"] = 1
        with pytest.raises(CliError, match=r"missing keys \[\], unknown keys \['extra'\]"):
            validate_report(data)
        data["config"] = []
        with pytest.raises(CliError, match="missing keys"):
            validate_report(data)

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(CliError, match="schema"):
            validate_report({"schema_version": 99})
