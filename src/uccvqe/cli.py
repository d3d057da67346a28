"""Batch front end: synth, vqe, sweep, and mitigate subcommands.

Every run funnels its randomness through two named seeds (mapping and
sampling) and writes a schema-versioned JSON report, so reports from equal
configurations are identical apart from timings.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

from .ansatz import enumerate_excitations
from .circuit import build_ansatz_circuit, count_2qge
from .hamio import (
    ActiveSelection,
    BlockSizeError,
    build_qubit_hamiltonian,
    exact_ground_energy,
    parse_fcidump,
    qwc_group,
    restrict_to_active,
    rhf_energy,
)
from .mapping import QubitMapping, greedy_map, mapping_cost
from .mitigate import run_policies
from .sim import MAX_QUBITS, Histogram, group_outcomes, prepared_basis_state
from .symmetry import OrbitalSymmetry, SpinSector
from .vqe import evaluate_sampled, group_seed, optimize, shot_budget

SCHEMA_VERSION = 1

_REPORT_KEYS = {
    "schema_version", "command", "config", "qubits", "parameter_count",
    "two_qubit_gate_count", "qwc_group_count", "pauli_term_count",
    "mapping_perm", "mapping_cost", "ansatz", "energies_hartree",
    "standard_errors_hartree", "retained_shots", "sweep", "timings_seconds",
}
_ENERGY_KEYS = {"hf", "variational", "exact_ground", "sampled_raw",
                "sampled_particle", "sampled_spin"}


class CliError(ValueError):
    pass


@dataclass
class RunConfig:
    fcidump: str
    n_electrons: int
    orbitals: tuple[int, ...]
    variant: str = "uccdab"
    symmetry: bool = True
    map_seed: int = 0
    map_restarts: int = 32
    shots: int = 6000
    shot_mode: str = "per-group"
    sample_seed: int = 0
    policy: str = "all"
    out_dir: str = "."

    def to_dict(self) -> dict:
        """The report's ``config``: every field but ``out_dir``."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out_dir"}
        out["orbitals"] = list(self.orbitals)
        return out


def validate_report(data: dict) -> dict:
    """Strict schema check used on every re-read."""
    if not isinstance(data, dict):
        raise CliError("report is not a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise CliError(f"unsupported report schema {data.get('schema_version')!r}")
    unknown = set(data) - _REPORT_KEYS
    if unknown:
        raise CliError(f"unknown report fields: {sorted(unknown)}")
    config = data.get("config")
    keys = set(config) if isinstance(config, dict) else set()
    want = set(RunConfig("", 0, ()).to_dict())
    if keys != want:
        raise CliError(f"report config: missing keys {sorted(want - keys)}, "
                       f"unknown keys {sorted(keys - want)}")
    energies = data.get("energies_hartree", {})
    bad = set(energies) - _ENERGY_KEYS
    if bad:
        raise CliError(f"unknown energy fields: {sorted(bad)}")
    return data


def load_report(path: str) -> dict:
    with open(path) as fh:
        return validate_report(json.load(fh))


def write_report(path: Path, report: dict) -> None:
    validate_report(report)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


@dataclass
class Pipeline:
    """Everything the subcommands share: parse, screen, map, build."""

    config: RunConfig
    ints: object = field(init=False)
    selection: ActiveSelection = field(init=False)
    spec: object = field(init=False)
    mapping: QubitMapping = field(init=False)
    hamiltonian: object = field(init=False)
    circuit: object = field(init=False)
    groups: list = field(init=False)
    sector: SpinSector = field(init=False)

    def __post_init__(self):
        cfg = self.config
        self.ints = parse_fcidump(cfg.fcidump)
        if self.ints.ms2 != 0:
            raise CliError(f"{cfg.fcidump}: header has MS2={self.ints.ms2}; the closed-shell "
                           "pipeline needs a singlet reference (MS2=0)")
        if cfg.n_electrons > self.ints.n_electrons:
            raise CliError(f"{cfg.fcidump}: --electrons {cfg.n_electrons} exceeds the "
                           f"header's NELEC={self.ints.n_electrons}")
        norb = self.ints.n_orbitals
        orbitals = cfg.orbitals or tuple(range(norb))
        for o in orbitals:
            if not 0 <= o < norb:
                raise CliError(f"{cfg.fcidump}: --orbitals names orbital {o}, outside "
                               f"0..{norb - 1} of the header's NORB={norb}")
        self.selection = ActiveSelection(cfg.n_electrons, orbitals)
        space = self.selection.active_space()
        orbsym = (OrbitalSymmetry(tuple(self.ints.orbsym[o] for o in orbitals))
                  if cfg.symmetry else None)
        self.spec = enumerate_excitations(cfg.variant, space, orbsym)
        if self.spec.excitations:
            self.mapping = greedy_map(
                self.spec.excitations, space.n_qubits,
                seed=cfg.map_seed, restarts=cfg.map_restarts,
            )
        else:
            self.mapping = QubitMapping.identity(space.n_orbitals)
        self.hamiltonian = build_qubit_hamiltonian(self.ints, self.selection, self.mapping)
        self.circuit = build_ansatz_circuit(self.spec, self.mapping)
        self.groups = qwc_group(self.hamiltonian)
        self.sector = SpinSector(cfg.n_electrons // 2, cfg.n_electrons // 2)

    def hf_energy_check(self) -> float:
        """Mean-field consistency: the circuit at zero parameters must prepare
        the Hartree-Fock determinant, and its energy must equal the restricted
        mean-field energy of the active problem. On a basis state only the
        words without X part count, each with the parity of its Z mask."""
        core, h_eff, g_act, _ = restrict_to_active(self.ints, self.selection)
        reference = rhf_energy(core, h_eff, g_act, self.selection.active_space().n_occupied)
        prepared = prepared_basis_state(self.circuit)
        hf_bits = self.hamiltonian.hf_bitstring()
        if prepared != hf_bits:
            raise CliError(
                f"internal consistency failure: the circuit at zero parameters prepares "
                f"|{prepared}>, not the Hartree-Fock determinant |{hf_bits}>"
            )
        occupied = int(prepared[::-1], 2)  # bit q is qubit q, as in the word masks
        measured = self.hamiltonian.offset
        for (x, z), c in self.hamiltonian.terms.items():
            if x == 0:
                measured += c.real * (-1) ** (z & occupied).bit_count()
        if not abs(measured - reference) <= 1e-8:
            raise CliError(
                f"internal consistency failure: HF energy {measured:.10f} != "
                f"mean-field reference {reference:.10f}"
            )
        return measured

    def require_statevector(self, command: str) -> None:
        """Refuse registers the dense sampler cannot hold, before optimizing."""
        n = self.mapping.n_qubits
        if n > MAX_QUBITS:
            raise CliError(f"{self.config.fcidump}: `uccvqe {command}` samples a statevector of "
                           f"{n} qubits, above the cap of {MAX_QUBITS}; `uccvqe synth` has no cap")

    def post_select(self, report: dict, valued: Sequence, policy: str) -> None:
        """Write the raw energy, and the post-selected energies and retained
        shots of the policy ('all', 'none' or one kind), into the report from
        each group's ``group_outcomes``. The only writer of ``sampled_raw``."""
        kinds = {"all": ("particle", "spin"), "none": ()}.get(policy, (policy,))
        mit = run_policies(self.groups, valued, self.sector, self.mapping,
                           self.hamiltonian, kinds)
        energies, errors = report["energies_hartree"], report["standard_errors_hartree"]
        energies["sampled_raw"], errors["sampled_raw"] = mit.raw.energy, mit.raw.standard_error
        if kinds:
            report["retained_shots"]["z_basis_total"] = mit.total_z_shots
        for kind, outcome in mit.outcomes.items():
            energies[f"sampled_{kind}"] = outcome.energy
            errors[f"sampled_{kind}"] = outcome.standard_error
            report["retained_shots"][kind] = outcome.retained_shots

    def counts_report(self, command: str) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "config": self.config.to_dict(),
            "qubits": self.mapping.n_qubits,
            "parameter_count": self.spec.parameter_count,
            "two_qubit_gate_count": count_2qge(self.circuit),
            "qwc_group_count": len(self.groups),
            "pauli_term_count": self.hamiltonian.term_count,
            "mapping_perm": list(self.mapping.perm),
            "mapping_cost": mapping_cost(self.spec.excitations, self.mapping)
            if self.spec.excitations else 0,
            "ansatz": self.spec.to_dict(),
            "energies_hartree": {},
            "standard_errors_hartree": {},
            "retained_shots": {},
            "timings_seconds": {},
        }


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_synth(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    pipe = Pipeline(cfg)
    report = pipe.counts_report("synth")
    report["energies_hartree"]["hf"] = pipe.hf_energy_check()
    report["timings_seconds"]["total"] = time.perf_counter() - t0
    out = _out_dir(cfg)
    write_report(out / "report.json", report)
    (out / "circuit.txt").write_text(pipe.circuit.to_text())
    return report


def cmd_vqe(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    pipe = Pipeline(cfg)
    pipe.require_statevector("vqe")
    report = pipe.counts_report("vqe")
    report["energies_hartree"]["hf"] = pipe.hf_energy_check()

    t_opt = time.perf_counter()
    result = optimize(pipe.hamiltonian, pipe.spec, pipe.mapping)
    report["energies_hartree"]["variational"] = result.energy
    report["timings_seconds"]["optimize"] = time.perf_counter() - t_opt

    try:
        report["energies_hartree"]["exact_ground"] = exact_ground_energy(
            pipe.hamiltonian, pipe.sector, pipe.spec.orbsym
        )
    except BlockSizeError:
        pass  # the block is past the dense cap; the report leaves exact_ground out

    t_sample = time.perf_counter()
    sampled = evaluate_sampled(
        pipe.hamiltonian, pipe.spec, pipe.mapping, result.params,
        cfg.shots, cfg.sample_seed, cfg.shot_mode,
        circuit=pipe.circuit, groups=pipe.groups,
    )
    report["timings_seconds"]["sample"] = time.perf_counter() - t_sample
    pipe.post_select(report, sampled.valued, cfg.policy)

    out = _out_dir(cfg)
    for stale in out.glob("group_*.hist"):
        stale.unlink()
    for hist in sampled.histograms:
        (out / f"group_{hist.group_id:03d}.hist").write_text(hist.to_text())
    report["timings_seconds"]["total"] = time.perf_counter() - t0
    write_report(out / "report.json", report)
    return report


def cmd_sweep(cfg: RunConfig, shot_list: Sequence[int]) -> dict:
    if len(shot_list) < 2:
        raise CliError("sweep needs at least two shot counts")
    t0 = time.perf_counter()
    pipe = Pipeline(cfg)
    pipe.require_statevector("sweep")
    result = optimize(pipe.hamiltonian, pipe.spec, pipe.mapping)
    rows = []
    for shots in shot_list:
        sampled = evaluate_sampled(
            pipe.hamiltonian, pipe.spec, pipe.mapping, result.params,
            shots, cfg.sample_seed, cfg.shot_mode,
            circuit=pipe.circuit, groups=pipe.groups,
        )
        rows.append({"shots": shots, "energy": sampled.energy,
                     "standard_error": sampled.standard_error})
    report = pipe.counts_report("sweep")
    report["energies_hartree"]["variational"] = result.energy
    report["sweep"] = rows
    report["timings_seconds"]["total"] = time.perf_counter() - t0
    out = _out_dir(cfg)
    write_report(out / "report.json", report)
    print("shots\tenergy_hartree\tstandard_error_hartree")
    for row in rows:
        print(f"{row['shots']}\t{row['energy']:.8f}\t{row['standard_error']:.8f}")
    return report


def cmd_mitigate(report_path: str, hist_dir: str, policy: str) -> dict:
    """Re-run post-selection on the saved histograms of a previous vqe run."""
    report = load_report(report_path)
    if report["command"] != "vqe":
        raise CliError(f"{report_path}: a '{report['command']}' report; mitigate needs the "
                       "report of a 'vqe' run")
    cfg = RunConfig(**{**report["config"], "orbitals": tuple(report["config"]["orbitals"]),
                       "policy": policy, "out_dir": str(Path(report_path).parent)})
    pipe = Pipeline(cfg)
    if list(pipe.mapping.perm) != report["mapping_perm"]:
        raise CliError("reconstructed mapping differs from the report; config mismatch")
    pipe.post_select(report, _saved_outcomes(pipe, hist_dir), policy)
    write_report(Path(report_path), report)
    return report


def _saved_outcomes(pipe: Pipeline, hist_dir: str) -> list:
    """``group_outcomes`` of each group on its saved histogram, paired by
    group id. A file is refused, by name, unless its SEED and SHOTS are what
    the run's sampling gives its group and its width is the register's."""
    cfg = pipe.config
    by_id: dict[int, tuple[Path, Histogram]] = {}
    for path in sorted(Path(hist_dir).glob("group_*.hist")):
        try:
            hist = Histogram.from_text(path.read_text())
        except (ValueError, OverflowError) as exc:  # OverflowError: a count past int64
            raise CliError(f"{path}: {exc}") from None
        if hist.group_id in by_id:
            raise CliError(f"{path}: second histogram for group {hist.group_id}")
        by_id[hist.group_id] = path, hist
    wanted = [g.index for g in pipe.groups]
    missing = sorted(set(wanted) - set(by_id))
    unknown = sorted(set(by_id) - set(wanted))
    if missing or unknown:
        raise CliError(
            f"{hist_dir}: histograms do not match the {len(wanted)} groups "
            f"(missing ids {missing[:10]}, unknown ids {unknown[:10]})"
        )
    n = pipe.mapping.n_qubits
    valued = []
    for g, shots in zip(pipe.groups, shot_budget(cfg.shots, len(pipe.groups), cfg.shot_mode)):
        path, hist = by_id[g.index]
        seed = group_seed(cfg.sample_seed, g.index)
        if hist.seed != seed:
            raise CliError(f"{path}: SEED {hist.seed}, but sample seed {cfg.sample_seed} "
                           f"gives group {g.index} the seed {seed}")
        if hist.shots != shots:
            raise CliError(f"{path}: SHOTS {hist.shots}, but {cfg.shots} shots "
                           f"({cfg.shot_mode}) give group {g.index} {shots}")
        if hist.n_qubits != n:
            raise CliError(f"{path}: bitstrings are {hist.n_qubits} bits long, "
                           f"but the register has {n} qubits")
        valued.append(group_outcomes(g, hist))
    return valued


def _orbital_list(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise CliError(f"bad orbital list {text!r}; expected e.g. 0,1,2,3") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fcidump", required=True, help="integrals file (FCIDUMP format)")
    p.add_argument("--electrons", type=int, required=True, help="active electron count")
    p.add_argument("--orbitals", default="", help="active spatial orbitals, e.g. 0,1,2,3 (default: all)")
    p.add_argument("--variant", default=RunConfig.variant, choices=["upccd", "uccdab", "uccd", "uccsd"])
    p.add_argument("--no-symmetry", action="store_true", help="disable point-group screening")
    p.add_argument("--map-seed", type=int, default=RunConfig.map_seed)
    p.add_argument("--map-restarts", type=int, default=RunConfig.map_restarts)
    p.add_argument("--out", default=os.environ.get("UCCVQE_OUT_DIR", "."),
                   help="output directory (env UCCVQE_OUT_DIR)")


def _add_sampling(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shots", type=int, default=RunConfig.shots)
    p.add_argument("--shot-mode", default=RunConfig.shot_mode, choices=["per-group", "total"])
    p.add_argument("--sample-seed", type=int, default=RunConfig.sample_seed)


def _config(args: argparse.Namespace) -> RunConfig:
    # sampling options the subcommand lacks keep their RunConfig defaults
    sampling = {k: getattr(args, k) for k in ("shots", "shot_mode", "sample_seed", "policy") if k in args}
    return RunConfig(
        fcidump=args.fcidump,
        n_electrons=args.electrons,
        orbitals=_orbital_list(args.orbitals),
        variant=args.variant,
        symmetry=not args.no_symmetry,
        map_seed=args.map_seed,
        map_restarts=args.map_restarts,
        out_dir=args.out,
        **sampling,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uccvqe",
        description="Synthesize, simulate, and post-select uCC VQE circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="circuit and measurement counts only")
    _add_common(p_synth)

    p_vqe = sub.add_parser("vqe", help="optimize, sample, and post-select")
    _add_common(p_vqe)
    _add_sampling(p_vqe)
    p_vqe.add_argument("--policy", default=RunConfig.policy, choices=["none", "particle", "spin", "all"])

    p_sweep = sub.add_parser("sweep", help="standard error versus shot count")
    _add_common(p_sweep)
    _add_sampling(p_sweep)
    p_sweep.add_argument("--shot-list", required=True,
                         help="comma-separated shot counts, e.g. 600,6000,60000")

    p_mit = sub.add_parser("mitigate", help="re-run post-selection on saved histograms")
    p_mit.add_argument("--report", required=True, help="report.json of a previous vqe run")
    p_mit.add_argument("--histograms", required=True, help="directory holding group_*.hist")
    p_mit.add_argument("--policy", default=RunConfig.policy, choices=["particle", "spin", "all"])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            report = cmd_synth(_config(args))
            print(json.dumps({k: report[k] for k in
                              ("qubits", "parameter_count", "two_qubit_gate_count",
                               "qwc_group_count")}, indent=2))
        elif args.command == "vqe":
            report = cmd_vqe(_config(args))
            print(json.dumps(report["energies_hartree"], indent=2, sort_keys=True))
        elif args.command == "sweep":
            shot_list = [int(tok) for tok in args.shot_list.split(",") if tok]
            if not shot_list:
                parser.error("empty shot list")
            cmd_sweep(_config(args), shot_list)
        elif args.command == "mitigate":
            report = cmd_mitigate(args.report, args.histograms, args.policy)
            print(json.dumps(report["energies_hartree"], indent=2, sort_keys=True))
    except (ValueError, OSError) as exc:
        print(f"uccvqe: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
