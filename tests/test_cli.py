import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_block_mapping, random_integrals
from oracles import hf_check_by_statevector
from uccvqe.circuit import Circuit, Gate, build_ansatz_circuit
from uccvqe import cli, hamio, sim, vqe
from uccvqe.cli import CliError, Pipeline, RunConfig, load_report, main, validate_report
from uccvqe.hamio import (
    ActiveSelection,
    MolecularIntegrals,
    build_qubit_hamiltonian,
    restrict_to_active,
    rhf_energy,
    write_fcidump,
)
from uccvqe.pauli import PauliWord
from uccvqe.sim import MAX_QUBITS, prepared_basis_state
from uccvqe.symmetry import OrbitalSymmetry


def run(args):
    return main(args)


def histogram_sections(path):
    """A histogram file's header lines and each section's lines, GROUP first."""
    lines = path.read_text().splitlines()
    heads = [k for k, line in enumerate(lines) if line.startswith("GROUP ")]
    return lines[:heads[0]], [lines[a:b] for a, b in zip(heads, heads[1:] + [len(lines)])]


def write_sections(path, header, sections):
    path.write_text("\n".join(header + [line for s in sections for line in s]) + "\n")


def line_number(header, sections, i, j):
    """The file line of line j of section i."""
    return len(header) + sum(map(len, sections[:i])) + j + 1


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

    def test_negative_restart_budget_rejected(self, h2_path, tmp_path, capsys, monkeypatch):
        def no_parse(*args, **kwargs):
            raise AssertionError("read the FCIDUMP before refusing the restart budget")

        monkeypatch.setattr(cli, "parse_fcidump", no_parse)
        code = run(["synth", "--fcidump", h2_path, "--electrons", "2",
                    "--map-restarts", "-3", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == \
            "uccvqe: error: --map-restarts -3: a restart budget must be non-negative\n"
        assert not (tmp_path / "report.json").exists()

    def test_negative_restart_budget_rejected_without_excitations(self, h2_path, tmp_path,
                                                                  capsys):
        # no excitations, so greedy_map, which checks the budget too, never runs
        code = run(["synth", "--fcidump", h2_path, "--electrons", "0", "--orbitals", "1",
                    "--map-restarts", "-3", "--out", str(tmp_path)])
        assert code == 1
        assert "--map-restarts -3: a restart budget must be non-negative" in capsys.readouterr().err
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

    @pytest.mark.parametrize("args, message", [
        (["--electrons", "-2"], "--electrons -2: the closed-shell pipeline needs an even, "
                                "non-negative active electron count"),
        (["--electrons", "2", "--orbitals", "0,0"], "--orbitals names orbital 0 twice"),
        (["--electrons", "0"], "--electrons 0 leaves 2 of the header's NELEC=2 electrons to "
                               "freeze, which takes 1 inactive orbitals, but --orbitals leaves 0"),
    ], ids=["negative-electrons", "repeated-orbital", "no-room-to-freeze"])
    def test_bad_active_space_rejected_by_option_and_file_name(self, args, message, h2_path,
                                                               tmp_path, capsys):
        code = run(["synth", "--fcidump", h2_path, *args, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"uccvqe: error: {h2_path}: {message}\n"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", [
        ["synth", "--map-seed", "-1"],
        ["vqe", "--map-seed", "-1"],
        ["vqe", "--sample-seed", "-1"],
        ["sweep", "--shot-list", "300,600", "--sample-seed", "-1"],
    ])
    def test_negative_seed_rejected_up_front_by_option(self, command, h2_path, tmp_path, capsys,
                                                       monkeypatch):
        def no_parse(*args, **kwargs):
            raise AssertionError("read the FCIDUMP before refusing the seed")

        monkeypatch.setattr(cli, "parse_fcidump", no_parse)
        code = run(command[:1] + ["--fcidump", h2_path, "--electrons", "2",
                                  "--out", str(tmp_path)] + command[1:])
        assert code == 1
        message = f"{command[-2]} -1: a seed must be non-negative"
        assert capsys.readouterr().err == f"uccvqe: error: {message}\n"
        assert not (tmp_path / "report.json").exists()

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

        def no_circuit(*args, **kwargs):
            raise AssertionError("compiled the circuit before refusing the register")

        monkeypatch.setattr(cli_module, "optimize", no_optimize)
        monkeypatch.setattr(cli_module, "build_ansatz_circuit", no_circuit)
        path = tmp_path / "pairs.fcidump"
        write_fcidump(str(path), pair_integrals(13, 6))
        code = run(command[:1] + ["--fcidump", str(path), "--electrons", "6",
                                  "--variant", "upccd", "--out", str(tmp_path / "out")]
                   + command[1:])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{path}: `uccvqe {command[0]}` samples a statevector of 26 qubits" in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("command, message", [
        (["vqe", "--shots", "0"], "--shots 0: a shot count must be positive"),
        (["vqe", "--shots", "-5"], "--shots -5: a shot count must be positive"),
        (["sweep", "--shot-list", "600,0"], "--shot-list 0: a shot count must be positive"),
        (["vqe", "--shot-mode", "total", "--shots", "3"],
         "--shots 3: 3 total shots cannot cover 5 groups"),
        (["sweep", "--shot-mode", "total", "--shot-list", "600,3"],
         "--shot-list 3: 3 total shots cannot cover 5 groups"),
        (["sweep", "--shot-list", "600,abc"], "--shot-list 'abc': a shot count must be an integer"),
        (["sweep", "--shot-list", "1.5,600"], "--shot-list '1.5': a shot count must be an integer"),
    ])
    def test_vqe_and_sweep_refuse_bad_shot_budgets_up_front(self, command, message, h2_path,
                                                            tmp_path, capsys, monkeypatch):
        import uccvqe.cli as cli_module

        def no_optimize(*args, **kwargs):
            raise AssertionError("optimized before refusing the shot budget")

        monkeypatch.setattr(cli_module, "optimize", no_optimize)
        code = run(command[:1] + ["--fcidump", h2_path, "--electrons", "2",
                                  "--out", str(tmp_path / "out")] + command[1:])
        assert code == 1
        assert capsys.readouterr().err == f"uccvqe: error: {message}\n"
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("command", [["vqe", "--shot-mode", "total"],
                                         ["vqe", "--shot-mode", "per-group"],
                                         ["sweep", "--shot-list", "300,600"]])
    def test_no_measurable_word_refused_up_front(self, command, tmp_path, capsys, monkeypatch):
        import uccvqe.cli as cli_module

        def no_optimize(*args, **kwargs):
            raise AssertionError("optimized before refusing the Hamiltonian")

        monkeypatch.setattr(cli_module, "optimize", no_optimize)
        path = core_energy_fcidump(tmp_path)
        code = run(command[:1] + ["--fcidump", str(path), "--electrons", "2",
                                  "--out", str(tmp_path / "out")] + command[1:])
        assert code == 1
        assert capsys.readouterr().err == (f"uccvqe: error: {path}: the Hamiltonian holds no "
                                           "non-identity Pauli word, so there is nothing to "
                                           "sample\n")
        assert not (tmp_path / "out" / "report.json").exists()

    def test_synth_counts_no_group_without_a_measurable_word(self, tmp_path):
        path = core_energy_fcidump(tmp_path)
        assert run(["synth", "--fcidump", str(path), "--electrons", "2",
                    "--out", str(tmp_path)]) == 0
        report = load_report(tmp_path / "report.json")
        assert (report["qwc_group_count"], report["pauli_term_count"]) == (0, 0)


def core_energy_fcidump(tmp_path):
    """An FCIDUMP whose one record is the core energy: its Hamiltonian is a
    constant, with no Pauli word to measure."""
    path = tmp_path / "core.fcidump"
    path.write_text(" &FCI NORB=2,NELEC=2,MS2=0,\n &END\n 1.5 0 0 0 0\n")
    return path


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
        assert not list(tmp_path.glob("group_*.hist"))
        _, sections = histogram_sections(tmp_path / "histograms.txt")
        assert [s[0] for s in sections] == [f"GROUP {k}" for k in range(report["qwc_group_count"])]

    def test_rerun_replaces_the_histograms_in_out(self, h2_path, tmp_path):
        # a wider run first writes more sections than the H2 run
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
        assert sorted(p.name for p in out.iterdir()) == ["histograms.txt", "report.json"]
        assert len(histogram_sections(out / "histograms.txt")[1]) == groups
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


    def test_vqe_restricts_the_hamiltonian_to_its_block_once(self, h2_path, tmp_path,
                                                              monkeypatch):
        # the optimizer's block operator also gives exact_ground
        build, restrict = cli.build_qubit_hamiltonian, hamio.sector_operators
        built, calls = [], []

        def recorded_build(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        def counted(sums, basis):
            calls.extend(any(terms is h.terms for h in built) for terms in sums)
            return restrict(sums, basis)

        monkeypatch.setattr(cli, "build_qubit_hamiltonian", recorded_build)
        for module in (hamio, vqe):
            monkeypatch.setattr(module, "sector_operators", counted)
        assert run(["vqe", "--fcidump", h2_path, "--electrons", "2", "--shots", "500",
                    "--out", str(tmp_path)]) == 0
        assert len(built) == 1 and calls.count(True) == 1
        energies = load_report(tmp_path / "report.json")["energies_hartree"]
        assert energies["exact_ground"] == pytest.approx(-1.1372655544, abs=1e-7)

    def test_mitigate_compiles_no_circuit(self, h2_path, tmp_path, monkeypatch):
        assert run(["vqe", "--fcidump", h2_path, "--electrons", "2", "--shots", "500",
                    "--policy", "particle", "--out", str(tmp_path)]) == 0

        def no_circuit(*args, **kwargs):
            raise AssertionError("mitigate compiled the ansatz circuit")

        monkeypatch.setattr(cli, "build_ansatz_circuit", no_circuit)
        assert run(["mitigate", "--report", str(tmp_path / "report.json"),
                    "--histograms", str(tmp_path), "--policy", "spin"]) == 0
        assert "sampled_spin" in load_report(tmp_path / "report.json")["energies_hartree"]

    def test_vqe_then_mitigate_build_no_pauli_word(self, h2_path, tmp_path, monkeypatch):
        # grouping, the sector operators and valuation read the Pauli sum's arrays
        built = []
        check = PauliWord.__post_init__

        def counted(word):
            built.append(word)
            check(word)

        monkeypatch.setattr(PauliWord, "__post_init__", counted)
        assert run(["vqe", "--fcidump", h2_path, "--electrons", "2", "--shots", "500",
                    "--out", str(tmp_path)]) == 0
        assert run(["mitigate", "--report", str(tmp_path / "report.json"),
                    "--histograms", str(tmp_path)]) == 0
        assert built == []


class TestOutputsReplaced:
    """Every output file is replaced by a new file, never rewritten in
    place: a hard link to the old file keeps the old bytes."""

    def test_writer_replaces_the_file(self, tmp_path):
        path, link = tmp_path / "out.txt", tmp_path / "link.txt"
        cli.write_output(path, "old\n")
        link.hardlink_to(path)
        cli.write_output(path, "new, and longer\n")
        assert path.read_text() == "new, and longer\n"
        assert link.read_text() == "old\n"

    @pytest.mark.parametrize("command, second, names", [
        ("synth", ["--electrons", "4", "--variant", "upccd"], ["report.json", "circuit.txt"]),
        ("vqe", ["--electrons", "2", "--shots", "400", "--sample-seed", "1"],
         ["report.json", "histograms.txt"]),
    ])
    def test_rerun_leaves_links_to_the_old_files(self, command, second, names, h2_path,
                                                 tmp_path):
        # the synth re-run reads a wider FCIDUMP, so its circuit differs too
        wide = tmp_path / "wide.fcidump"
        write_fcidump(str(wide), pair_integrals(4, 4))
        out = tmp_path / "out"
        assert run([command, "--fcidump", h2_path, "--electrons", "2", "--out", str(out)]) == 0
        old = {}
        for name in names:
            old[name] = (out / name).read_bytes()
            (tmp_path / name).hardlink_to(out / name)
        fcidump = str(wide) if command == "synth" else h2_path
        assert run([command, "--fcidump", fcidump, "--out", str(out)] + second) == 0
        for name in names:
            assert (out / name).read_bytes() != old[name]
            assert (tmp_path / name).read_bytes() == old[name]

    def test_mitigate_leaves_a_link_to_the_report_it_read(self, h2_path, tmp_path):
        out = tmp_path / "out"
        assert run(["vqe", "--fcidump", h2_path, "--electrons", "2", "--shots", "300",
                    "--policy", "particle", "--out", str(out)]) == 0
        old = (out / "report.json").read_bytes()
        link = tmp_path / "report.json"
        link.hardlink_to(out / "report.json")
        assert run(["mitigate", "--report", str(out / "report.json"),
                    "--histograms", str(out), "--policy", "spin"]) == 0
        assert (out / "report.json").read_bytes() != old
        assert link.read_bytes() == old


class TestValuesEachHistogramOnce:
    @pytest.fixture
    def outcome_calls(self, monkeypatch):
        """Count ``group_outcomes`` calls under every name a module holds it by."""
        original, calls = sim.group_outcomes, []

        def counted(groups, histograms):
            calls.extend(group.index for group in groups)
            return original(groups, histograms)

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

    def test_prepares_the_state_once(self, h2_path, tmp_path, monkeypatch):
        apply, calls = vqe.apply_circuit, []

        def counting(*args, **kwargs):
            calls.append(args)
            return apply(*args, **kwargs)

        monkeypatch.setattr(vqe, "apply_circuit", counting)
        code = run(["sweep", "--fcidump", h2_path, "--electrons", "2",
                    "--shot-list", "100,200,400,800", "--out", str(tmp_path)])
        assert code == 0
        assert len(calls) == 1
        pipe = Pipeline(RunConfig(h2_path, 2, ()))
        params = vqe.optimize(pipe.hamiltonian, pipe.spec, pipe.mapping).params
        for row in load_report(tmp_path / "report.json")["sweep"]:
            ev = vqe.evaluate_sampled(pipe.hamiltonian, pipe.spec, pipe.mapping, params,
                                      row["shots"], 0)
            assert (row["energy"], row["standard_error"]) == (ev.energy, ev.standard_error)

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

    def _edit(self, tmp_path, edit):
        """Apply ``edit(header, sections)`` to the run's histogram file; returns
        the file's path and what ``edit`` returned."""
        path = tmp_path / "histograms.txt"
        header, sections = histogram_sections(path)
        result = edit(header, sections)
        write_sections(path, header, sections)
        return path, result

    def test_duplicate_group_id_rejected(self, h2_path, tmp_path, capsys):
        self._vqe_run(h2_path, tmp_path)

        def edit(header, sections):
            sections[1] = list(sections[0])
            return line_number(header, sections, 1, 0)

        path, line = self._edit(tmp_path, edit)
        assert self._mitigate(tmp_path) == 1
        assert capsys.readouterr().err == (
            f"uccvqe: error: {path}: line {line}: section 1 is GROUP 0, not GROUP 1\n")

    def test_missing_group_id_rejected(self, h2_path, tmp_path, capsys):
        self._vqe_run(h2_path, tmp_path)

        def edit(header, sections):
            sections[2][0] = "GROUP 9"
            return line_number(header, sections, 2, 0)

        path, line = self._edit(tmp_path, edit)
        assert self._mitigate(tmp_path) == 1
        assert capsys.readouterr().err == (
            f"uccvqe: error: {path}: line {line}: section 2 is GROUP 9, not GROUP 2\n")

    @pytest.mark.parametrize("case, message", [
        ("swapped", "section 1 is GROUP 2, not GROUP 1"),
        ("dropped-last", "section 3 is the last, but the run has 5 groups"),
        ("extra", "section 5 is GROUP 4, but the run has 5 groups"),
    ])
    def test_sections_out_of_group_order_rejected(self, h2_path, tmp_path, capsys, case,
                                                  message):
        self._vqe_run(h2_path, tmp_path)

        def edit(header, sections):
            if case == "swapped":
                sections[1], sections[2] = sections[2], sections[1]
                return line_number(header, sections, 1, 0)
            if case == "dropped-last":
                del sections[-1]
                return line_number(header, sections, len(sections) - 1, 0)
            sections.append(list(sections[-1]))
            return line_number(header, sections, len(sections) - 1, 0)

        path, line = self._edit(tmp_path, edit)
        assert self._mitigate(tmp_path) == 1
        assert capsys.readouterr().err == f"uccvqe: error: {path}: line {line}: {message}\n"

    def test_section_in_another_basis_rejected(self, h2_path, tmp_path, capsys):
        # Groups 1 and 2 trade their measured records and BASIS lines but
        # keep their GROUP, SHOTS and SEED lines: per-group files of the
        # same edit carried no basis and were valued in the wrong one.
        self._vqe_run(h2_path, tmp_path)

        def edit(header, sections):
            one, two = sections[1], sections[2]
            sections[1] = one[:1] + two[1:2] + one[2:4] + two[4:]
            sections[2] = two[:1] + one[1:2] + two[2:4] + one[4:]
            return one[1].split()[1], two[1].split()[1], line_number(header, sections, 1, 1)

        path, (basis1, basis2, line) = self._edit(tmp_path, edit)
        assert basis1 != basis2
        assert self._mitigate(tmp_path) == 1
        assert capsys.readouterr().err == (f"uccvqe: error: {path}: line {line}: BASIS {basis2}, "
                                           f"but group 1 is measured in the basis {basis1}\n")

    def test_histograms_of_another_fcidump_rejected_before_rebuilding(self, h2_path, tmp_path,
                                                                      capsys, monkeypatch):
        # Another FCIDUMP with the same header under the same path: a shifted
        # core energy keeps every group, seed and shot count.
        fcidump = tmp_path / "h2.fcidump"
        fcidump.write_text(Path(h2_path).read_text())
        run(["vqe", "--fcidump", str(fcidump), "--electrons", "2", "--shots", "800",
             "--sample-seed", "5", "--out", str(tmp_path)])
        *records, core = fcidump.read_text().splitlines()
        value, *indices = core.split()
        fcidump.write_text("\n".join(records + [" ".join([repr(float(value) + 0.5), *indices])])
                           + "\n")

        def rebuilt(config):
            raise AssertionError("the pipeline was rebuilt before the hash was checked")

        monkeypatch.setattr(cli, "Pipeline", rebuilt)
        assert self._mitigate(tmp_path) == 1
        path = tmp_path / "histograms.txt"
        saved = path.read_text().splitlines()[4].split()[1]
        digest = hashlib.sha256(fcidump.read_bytes()).hexdigest()
        assert saved != digest
        assert capsys.readouterr().err == (f"uccvqe: error: {path}: line 5: FCIDUMP_SHA256 "
                                           f"{saved}, but {fcidump} has the SHA-256 {digest}\n")

    @pytest.mark.parametrize("line, edited, message", [
        (1, "HISTOGRAMS 2", "line 1: histogram format 2, but this version reads format 1"),
        (2, "QUBITS four", "line 2: 'four' is not a register width"),
        (3, "SAMPLE_SEED 6", "line 3: SAMPLE_SEED 6, but the report's is 5"),
        (4, "SHOT_MODE total", "line 4: SHOT_MODE total, but the report's is per-group"),
        (4, "SHOT-MODE per-group",
         "line 4: expected 'SHOT_MODE <value>', got 'SHOT-MODE per-group'"),
    ])
    def test_header_refused_by_line(self, h2_path, tmp_path, capsys, line, edited, message):
        self._vqe_run(h2_path, tmp_path)

        def edit(header, sections):
            header[line - 1] = edited

        path, _ = self._edit(tmp_path, edit)
        assert self._mitigate(tmp_path) == 1
        assert capsys.readouterr().err == f"uccvqe: error: {path}: {message}\n"

    def test_old_per_group_files_refused_without_reading_them(self, h2_path, tmp_path, capsys,
                                                             monkeypatch):
        self._vqe_run(h2_path, tmp_path)
        (tmp_path / "histograms.txt").unlink()
        (tmp_path / "group_000.hist").write_text("GROUP 0\nSHOTS 1\nSEED 0\n0000 1\n")
        read = []
        original = Path.read_text

        def recorded(path, *args, **kwargs):
            read.append(path.name)
            return original(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", recorded)
        assert self._mitigate(tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"uccvqe: error: {tmp_path}: holds group_*.hist files of the old")
        assert "group_000.hist" not in read

    def test_non_binary_bitstring_rejected_with_file_name(self, h2_path, tmp_path, capsys):
        # A scorer that only looks for '1' reads "0201" as "0001"; the file
        # must be refused instead, naming the file and line.
        self._vqe_run(h2_path, tmp_path)

        def edit(header, sections):
            bits, count = sections[0][4].split()
            sections[0][4] = f"{bits[0]}2{bits[2:]} {count}"
            return line_number(header, sections, 0, 4)

        path, line = self._edit(tmp_path, edit)
        assert self._mitigate(tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"uccvqe: error: {path}: line {line}: ")
        assert "characters of 0/1" in err

    @pytest.mark.parametrize("case, message", [
        ("negative", "has a negative count"),
        ("repeat", "repeats an earlier record"),
        ("bare-shots", "line 8: expected 'SHOTS <integer>'"),
    ])
    def test_unreadable_histogram_named(self, h2_path, tmp_path, capsys, case, message):
        self._vqe_run(h2_path, tmp_path)

        def edit(header, sections):
            head, records = sections[0][:4], sections[0][4:]
            (b0, c0), (b1, c1) = (r.split() for r in records[:2])
            sections[0] = {
                # the counts still sum to SHOTS; only the sign check refuses them
                "negative": head + [f"{b0} {int(c0) + int(c1) + 6}", f"{b1} -6"] + records[2:],
                "repeat": head + records + records[:1],
                "bare-shots": head[:2] + ["SHOTS"] + head[3:] + records,
            }[case]

        path, _ = self._edit(tmp_path, edit)
        assert self._mitigate(tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"uccvqe: error: {path}: line ")
        assert message in err

    def test_count_past_int64_rejected_with_file_name(self, h2_path, tmp_path, capsys):
        self._vqe_run(h2_path, tmp_path)

        def edit(header, sections):
            sections[0][2] = f"SHOTS {1 << 64}"
            sections[0][4:] = [f"{sections[0][4].split()[0]} {1 << 64}"]
            return line_number(header, sections, 0, 4)

        path, line = self._edit(tmp_path, edit)
        assert self._mitigate(tmp_path) == 1
        assert capsys.readouterr().err == (
            f"uccvqe: error: {path}: line {line}: count {1 << 64} does not fit in int64\n")

    def test_histogram_of_another_sample_seed_rejected(self, h2_path, tmp_path, capsys):
        self._vqe_run(h2_path, tmp_path / "run")
        run(["vqe", "--fcidump", h2_path, "--electrons", "2", "--shots", "800",
             "--sample-seed", "9", "--out", str(tmp_path / "other")])
        _, other = histogram_sections(tmp_path / "other" / "histograms.txt")

        def edit(header, sections):
            sections[2] = other[2]
            return line_number(header, sections, 2, 3)

        path, line = self._edit(tmp_path / "run", edit)
        assert self._mitigate(tmp_path / "run") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"uccvqe: error: {path}: line {line}: SEED ")
        assert "sample seed 5 gives group 2 the seed" in err

    @pytest.mark.parametrize("shot_mode, shots, group_shots", [
        ("per-group", "800", 800), ("total", "1001", 201)])
    def test_histogram_with_another_shot_count_rejected(self, h2_path, tmp_path, capsys,
                                                       shot_mode, shots, group_shots):
        run(["vqe", "--fcidump", h2_path, "--electrons", "2", "--shots", shots,
             "--shot-mode", shot_mode, "--out", str(tmp_path)])
        assert self._mitigate(tmp_path) == 0  # the budget the run spent is accepted

        def edit(header, sections):
            group, basis, _, seed, first = sections[0][:5]
            sections[0] = [group, basis, "SHOTS 2", seed, f"{first.split()[0]} 2"]
            return line_number(header, sections, 0, 2)

        path, line = self._edit(tmp_path, edit)
        assert self._mitigate(tmp_path) == 1
        assert capsys.readouterr().err.startswith(
            f"uccvqe: error: {path}: line {line}: SHOTS 2, but {shots} shots ({shot_mode}) "
            f"give group 0 {group_shots}")

    def test_bitstrings_wider_than_the_register_rejected_with_file_name(self, h2_path, tmp_path,
                                                                         capsys):
        self._vqe_run(h2_path, tmp_path)

        def edit(header, sections):
            header[1] = "QUBITS 5"
            for s in sections:
                s[4:] = ["0" + rec for rec in s[4:]]

        path, _ = self._edit(tmp_path, edit)
        assert self._mitigate(tmp_path) == 1
        assert capsys.readouterr().err == (f"uccvqe: error: {path}: line 2: bitstrings are 5 bits "
                                           "long, but the register has 4 qubits\n")

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


class TestHistogramFile:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_writer_and_reader_round_trip(self, data, h2_path, tmp_path_factory):
        width = data.draw(st.sampled_from([1, 2, 63, 64]))
        n_groups = data.draw(st.integers(1, 4))
        shot_mode = data.draw(st.sampled_from(["per-group", "total"]))
        shots = data.draw(st.integers(n_groups, 300))
        cfg = RunConfig(h2_path, 2, (), shots=shots, shot_mode=shot_mode,
                        sample_seed=data.draw(st.integers(0, 2**32)))
        top = (1 << width) - 1
        outcome = st.one_of(st.integers(0, top), st.just(top), st.just(1 << (width - 1)))
        histograms, bases = [], []
        for i, budget in enumerate(vqe.shot_budget(shots, n_groups, shot_mode)):
            outcomes = sorted(data.draw(st.sets(outcome, min_size=1, max_size=min(budget, 6))))
            cuts = sorted(data.draw(st.lists(st.integers(0, budget), min_size=len(outcomes) - 1,
                                             max_size=len(outcomes) - 1)))
            tallies = np.diff([0, *cuts, budget])
            histograms.append(sim.Histogram.from_outcomes(
                width, outcomes, tallies, budget, i, vqe.group_seed(cfg.sample_seed, i)))
            bases.append(data.draw(st.text("XYZ-", min_size=width, max_size=width)))
        out = tmp_path_factory.mktemp("histograms")
        cli.write_histograms(out / cli.HISTOGRAM_FILE, cfg, width, histograms, bases)
        saved = cli.read_histograms(str(out))
        assert {key: value for key, (_, value) in saved.header.items()} == {
            "HISTOGRAMS": "1", "QUBITS": str(width), "SAMPLE_SEED": str(cfg.sample_seed),
            "SHOT_MODE": shot_mode,
            "FCIDUMP_SHA256": hashlib.sha256(Path(h2_path).read_bytes()).hexdigest()}
        assert len(saved.sections) == n_groups
        for want, basis, section in zip(histograms, bases, saved.sections):
            got = section.histogram
            assert got.outcomes.dtype == np.uint64 and got.tallies.dtype == np.int64
            assert got.outcomes.tolist() == want.outcomes.tolist()
            assert got.tallies.tolist() == want.tallies.tolist()
            assert (got.n_qubits, got.shots, got.group_id, got.seed, section.basis) == (
                width, want.shots, want.group_id, want.seed, basis)


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

    @pytest.mark.parametrize("key, value, kind", [
        ("orbitals", ["a"], "list of int"),
        ("orbitals", 0, "list of int"),
        ("map_seed", 1.5, "int"),
        ("map_seed", True, "int"),
        ("sample_seed", None, "int"),
        ("variant", 3, "str"),
        ("symmetry", 1, "bool"),
    ])
    def test_config_value_types_checked(self, key, value, kind, h2_path, tmp_path, capsys):
        run(["vqe", "--fcidump", h2_path, "--electrons", "2", "--shots", "200",
             "--out", str(tmp_path)])
        path = tmp_path / "report.json"
        data = json.loads(path.read_text())
        data["config"][key] = value
        path.write_text(json.dumps(data))
        code = run(["mitigate", "--report", str(path), "--histograms", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"uccvqe: error: {path}: report config: {key} is {json.dumps(value)}, "
            f"which does not hold a {kind}\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(energies_hartree=[]),
         "report energies_hartree is [], not an object of numbers"),
        (lambda d: d.update(retained_shots=[]),
         "report retained_shots is [], not an object of numbers"),
        (lambda d: d.update(standard_errors_hartree={"sampled_raw": "0.1"}),
         'report standard_errors_hartree is {"sampled_raw": "0.1"}, not an object of numbers'),
        (lambda d: d.update(retained_shots={"z_basis_total": 200, "spin": True}),
         'report retained_shots is {"z_basis_total": 200, "spin": true}, not an object of numbers'),
        (lambda d: d["standard_errors_hartree"].update(sampled_irrep=0.1),
         "unknown standard error fields: ['sampled_irrep']"),
        (lambda d: d["retained_shots"].update(total=200),
         "unknown retained-shot fields: ['total']"),
        (lambda d: d.pop("energies_hartree"),
         "missing report fields: ['energies_hartree']"),
        (lambda d: d["config"].update(variant="foo"),
         "report config: variant is \"foo\", not one of ['upccd', 'uccdab', 'uccd', 'uccsd']"),
        (lambda d: d["config"].update(shot_mode="foo"),
         "report config: shot_mode is \"foo\", not one of ['per-group', 'total']"),
        (lambda d: d["config"].update(policy="foo"),
         "report config: policy is \"foo\", not one of ['none', 'particle', 'spin', 'all']"),
    ], ids=["energies-list", "retained-list", "error-string", "retained-bool", "error-key",
            "retained-key", "no-energies", "variant", "shot-mode", "policy"])
    def test_report_values_checked(self, edit, message, h2_path, tmp_path, capsys):
        run(["vqe", "--fcidump", h2_path, "--electrons", "2", "--shots", "200",
             "--out", str(tmp_path)])
        path = tmp_path / "report.json"
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        code = run(["mitigate", "--report", str(path), "--histograms", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"uccvqe: error: {path}: {message}\n"

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(CliError, match="schema"):
            validate_report({"schema_version": 99})
