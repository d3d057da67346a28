"""Batch front end: synth, vqe, sweep, and mitigate subcommands.

Every run funnels its randomness through two named seeds (mapping and
sampling) and writes a schema-versioned JSON report, so reports from equal
configurations are identical apart from timings.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence, get_args, get_origin, get_type_hints

from .ansatz import DEFAULT_VARIANT, VARIANTS, enumerate_excitations
from .circuit import build_ansatz_circuit, count_2qge
from .hamio import (
    ActiveSelection,
    BlockSizeError,
    build_qubit_hamiltonian,
    parse_fcidump,
    qwc_group,
    restrict_to_active,
    rhf_energy,
)
from .mapping import QubitMapping, greedy_map, mapping_cost
from .mitigate import ALL, NONE, POLICIES, run_policies, selected_kinds
from .sim import (MAX_QUBITS, Histogram, Section, SimulationError, format_sections,
                  group_outcomes, parse_sections, prepared_basis_state)
from .symmetry import OrbitalSymmetry, SpinSector
from .vqe import (PER_GROUP, SHOT_MODES, VqeError, _evaluate_shot_counts, evaluate_sampled,
                  group_seed, optimize, shot_budget)

SCHEMA_VERSION = 1
# one file per vqe run holds the histograms of every measurement group
HISTOGRAM_FILE = "histograms.txt"
HISTOGRAM_FORMAT = 1
# the file header: one '<key> <value>' line each, in this order
_HEADER_KEYS = ("HISTOGRAMS", "QUBITS", "SAMPLE_SEED", "SHOT_MODE", "FCIDUMP_SHA256")

_REPORT_KEYS = {
    "schema_version", "command", "config", "qubits", "parameter_count",
    "two_qubit_gate_count", "qwc_group_count", "pauli_term_count",
    "mapping_perm", "mapping_cost", "ansatz", "energies_hartree",
    "standard_errors_hartree", "retained_shots", "sweep", "timings_seconds",
}
_SAMPLED_KEYS = {"sampled_raw", *(f"sampled_{kind}" for kind in selected_kinds(ALL))}
# each report block of numbers: its name in messages and the keys it may hold
_NUMBER_BLOCKS = {
    "energies_hartree": ("energy", {"hf", "variational", "exact_ground", *_SAMPLED_KEYS}),
    "standard_errors_hartree": ("standard error", _SAMPLED_KEYS),
    "retained_shots": ("retained-shot", {"z_basis_total", *selected_kinds(ALL)}),
}
# config values with the allowed values of the module that acts on them
_CONFIG_CHOICES = {"variant": VARIANTS, "shot_mode": SHOT_MODES, "policy": POLICIES}


class CliError(ValueError):
    pass


@dataclass
class RunConfig:
    fcidump: str
    n_electrons: int
    orbitals: tuple[int, ...]
    variant: str = DEFAULT_VARIANT
    symmetry: bool = True
    map_seed: int = 0
    map_restarts: int = 32
    shots: int = 6000
    shot_mode: str = PER_GROUP
    sample_seed: int = 0
    policy: str = ALL
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
    missing = _REPORT_KEYS - {"sweep"} - set(data)  # only a sweep writes "sweep"
    if missing:
        raise CliError(f"missing report fields: {sorted(missing)}")
    config = data.get("config")
    keys = set(config) if isinstance(config, dict) else set()
    want = set(RunConfig("", 0, ()).to_dict())
    if keys != want:
        raise CliError(f"report config: missing keys {sorted(want - keys)}, "
                       f"unknown keys {sorted(keys - want)}")
    for key, hint in get_type_hints(RunConfig).items():
        if key in config and not _holds(config[key], hint):
            raise CliError(f"report config: {key} is {json.dumps(config[key])}, "
                           f"which does not hold a {_type_name(hint)}")
    for key, allowed in _CONFIG_CHOICES.items():
        if config[key] not in allowed:
            raise CliError(f"report config: {key} is {json.dumps(config[key])}, "
                           f"not one of {list(allowed)}")
    for block, (name, allowed) in _NUMBER_BLOCKS.items():
        values = data[block]
        if not (isinstance(values, dict) and all(type(v) in (int, float) for v in values.values())):
            raise CliError(f"report {block} is {json.dumps(values)}, not an object of numbers")
        bad = set(values) - allowed
        if bad:
            raise CliError(f"unknown {name} fields: {sorted(bad)}")
    return data


def _holds(value, hint) -> bool:
    """Whether a JSON value holds a ``RunConfig`` field of type ``hint``: a
    tuple as a list, and a JSON true or false as a bool only, not an int."""
    if get_origin(hint) is tuple:
        return isinstance(value, list) and all(_holds(v, get_args(hint)[0]) for v in value)
    return type(value) is hint


def _type_name(hint) -> str:
    if get_origin(hint) is tuple:
        return f"list of {get_args(hint)[0].__name__}"
    return hint.__name__


def load_report(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    try:
        return validate_report(data)
    except CliError as exc:
        raise CliError(f"{path}: {exc}") from None


def write_report(path: Path, report: dict) -> None:
    validate_report(report)
    write_output(path, json.dumps(report, indent=2, sort_keys=True) + "\n")


def write_output(path: Path, text: str) -> None:
    """The one writer of every output file: it removes an existing file and
    creates a new one, which on ext4 is much faster than a rewrite in place."""
    path.unlink(missing_ok=True)
    path.write_text(text)


@dataclass
class Pipeline:
    """Everything the subcommands share: parse, screen, map, build."""

    config: RunConfig
    ints: object = field(init=False)
    selection: ActiveSelection = field(init=False)
    spec: object = field(init=False)
    mapping: QubitMapping = field(init=False)
    hamiltonian: object = field(init=False)
    groups: list = field(init=False)
    sector: SpinSector = field(init=False)

    def __post_init__(self):
        cfg = self.config
        for option, seed in (("--map-seed", cfg.map_seed), ("--sample-seed", cfg.sample_seed)):
            if seed < 0:
                raise CliError(f"{option} {seed}: a seed must be non-negative")
        if cfg.map_restarts < 0:
            raise CliError(f"--map-restarts {cfg.map_restarts}: a restart budget must be "
                           "non-negative")
        self.ints = parse_fcidump(cfg.fcidump)
        if self.ints.ms2 != 0:
            raise CliError(f"{cfg.fcidump}: header has MS2={self.ints.ms2}; the closed-shell "
                           "pipeline needs a singlet reference (MS2=0)")
        nelec, norb = self.ints.n_electrons, self.ints.n_orbitals
        if cfg.n_electrons < 0 or cfg.n_electrons % 2:
            raise CliError(f"{cfg.fcidump}: --electrons {cfg.n_electrons}: the closed-shell "
                           "pipeline needs an even, non-negative active electron count")
        if cfg.n_electrons > nelec:
            raise CliError(f"{cfg.fcidump}: --electrons {cfg.n_electrons} exceeds the "
                           f"header's NELEC={nelec}")
        orbitals = cfg.orbitals or tuple(range(norb))
        for k, o in enumerate(orbitals):
            if not 0 <= o < norb:
                raise CliError(f"{cfg.fcidump}: --orbitals names orbital {o}, outside "
                               f"0..{norb - 1} of the header's NORB={norb}")
            if o in orbitals[:k]:
                raise CliError(f"{cfg.fcidump}: --orbitals names orbital {o} twice")
        frozen, inactive = (nelec - cfg.n_electrons) // 2, norb - len(orbitals)
        if frozen > inactive:
            raise CliError(f"{cfg.fcidump}: --electrons {cfg.n_electrons} leaves "
                           f"{nelec - cfg.n_electrons} of the header's NELEC={nelec} electrons "
                           f"to freeze, which takes {frozen} inactive orbitals, but --orbitals "
                           f"leaves {inactive}")
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
        self.groups = qwc_group(self.hamiltonian)
        self.sector = SpinSector(cfg.n_electrons // 2, cfg.n_electrons // 2)

    @cached_property  # compiled on first use; `mitigate` never reads it
    def circuit(self):
        return build_ansatz_circuit(self.spec, self.mapping)

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
        """Refuse registers the dense sampler cannot hold, before compiling or optimizing."""
        n = self.mapping.n_qubits
        if n > MAX_QUBITS:
            raise CliError(f"{self.config.fcidump}: `uccvqe {command}` samples a statevector of "
                           f"{n} qubits, above the cap of {MAX_QUBITS}; `uccvqe synth` has no cap")

    def require_shots(self, shot_list: Sequence[int], option: str) -> None:
        """Refuse, before optimizing, a Hamiltonian with no group to sample,
        and a shot count that is not positive or that ``shot_budget`` cannot
        split over the groups."""
        if not self.groups:
            raise CliError(f"{self.config.fcidump}: the Hamiltonian holds no non-identity "
                           "Pauli word, so there is nothing to sample")
        for shots in shot_list:
            if shots <= 0:
                raise CliError(f"{option} {shots}: a shot count must be positive")
            try:
                shot_budget(shots, len(self.groups), self.config.shot_mode)
            except VqeError as exc:
                raise CliError(f"{option} {shots}: {exc}") from None

    def post_select(self, report: dict, valued: Sequence, policy: str) -> None:
        """Write the raw energy, and the post-selected energies and retained
        shots of the policy (``mitigate.POLICIES``), into the report from
        each group's ``group_outcomes``. The only writer of ``sampled_raw``."""
        mit = run_policies(self.groups, valued, self.sector, self.mapping,
                           self.hamiltonian, selected_kinds(policy))
        energies, errors = report["energies_hartree"], report["standard_errors_hartree"]
        energies["sampled_raw"], errors["sampled_raw"] = mit.raw.energy, mit.raw.standard_error
        if mit.outcomes:
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
    write_output(out / "circuit.txt", pipe.circuit.to_text())
    return report


def cmd_vqe(cfg: RunConfig) -> dict:
    t0 = time.perf_counter()
    pipe = Pipeline(cfg)
    pipe.require_statevector("vqe")
    pipe.require_shots([cfg.shots], "--shots")
    report = pipe.counts_report("vqe")
    report["energies_hartree"]["hf"] = pipe.hf_energy_check()

    t_opt = time.perf_counter()
    result = optimize(pipe.hamiltonian, pipe.spec, pipe.mapping)
    report["energies_hartree"]["variational"] = result.energy
    report["timings_seconds"]["optimize"] = time.perf_counter() - t_opt

    try:
        report["energies_hartree"]["exact_ground"] = result.ansatz.ground_energy()
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
    write_histograms(out / HISTOGRAM_FILE, cfg, pipe.mapping.n_qubits, sampled.histograms,
                     ["".join(g.basis) for g in pipe.groups])
    report["timings_seconds"]["total"] = time.perf_counter() - t0
    write_report(out / "report.json", report)
    return report


def cmd_sweep(cfg: RunConfig, shot_list: Sequence[int]) -> dict:
    if len(shot_list) < 2:
        raise CliError("sweep needs at least two shot counts")
    t0 = time.perf_counter()
    pipe = Pipeline(cfg)
    pipe.require_statevector("sweep")
    pipe.require_shots(shot_list, "--shot-list")
    result = optimize(pipe.hamiltonian, pipe.spec, pipe.mapping)
    rows = []
    for shots, sampled in zip(shot_list, _evaluate_shot_counts(
            pipe.hamiltonian, pipe.spec, pipe.mapping, result.params, shot_list,
            cfg.sample_seed, cfg.shot_mode, pipe.circuit, pipe.groups)):
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
    saved = read_histograms(hist_dir)
    line, digest = saved.header["FCIDUMP_SHA256"]
    actual = _sha256(cfg.fcidump)
    if digest != actual:
        raise CliError(f"{saved.path}: line {line}: FCIDUMP_SHA256 {digest}, but "
                       f"{cfg.fcidump} has the SHA-256 {actual}")
    pipe = Pipeline(cfg)
    if list(pipe.mapping.perm) != report["mapping_perm"]:
        raise CliError("reconstructed mapping differs from the report; config mismatch")
    pipe.post_select(report, _saved_outcomes(pipe, saved), policy)
    write_report(Path(report_path), report)
    return report


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_histograms(path: Path, cfg: RunConfig, n_qubits: int, histograms: Sequence[Histogram],
                     bases: Sequence[str]) -> None:
    """Write one run's histograms as one file: the header, then one
    ``sim.format_sections`` section per group, in group order."""
    header = (HISTOGRAM_FORMAT, n_qubits, cfg.sample_seed, cfg.shot_mode, _sha256(cfg.fcidump))
    lines = [f"{key} {value}" for key, value in zip(_HEADER_KEYS, header)]
    write_output(path, "\n".join(lines) + "\n" + format_sections(histograms, bases))


@dataclass
class SavedHistograms:
    """A histogram file as read: its ``header`` values with their line
    numbers, by key, and its sections in file order."""

    path: Path
    header: dict[str, tuple[int, str]]
    sections: list[Section]


def read_histograms(hist_dir: str) -> SavedHistograms:
    """Read the histogram file in ``hist_dir`` in one pass. The header is
    refused, by file name and line, unless it has every key in order and
    this format version; a section is refused as ``sim.parse_sections``
    refuses it."""
    path = Path(hist_dir) / HISTOGRAM_FILE
    if not path.exists() and any(Path(hist_dir).glob("group_*.hist")):
        raise CliError(f"{hist_dir}: holds group_*.hist files of the old one-file-per-group "
                       f"format and no {HISTOGRAM_FILE}; run `uccvqe vqe` again to write it")
    lines = path.read_text().split("\n", len(_HEADER_KEYS))
    if len(lines) <= len(_HEADER_KEYS):
        raise CliError(f"{path}: the file ends inside its {len(_HEADER_KEYS)}-line header")
    *head, body = lines
    header = {}
    for k, (key, line) in enumerate(zip(_HEADER_KEYS, head), 1):
        tok = line.split()
        if len(tok) != 2 or tok[0] != key:
            raise CliError(f"{path}: line {k}: expected '{key} <value>', got {line!r}")
        header[key] = k, tok[1]
    if header["HISTOGRAMS"][1] != str(HISTOGRAM_FORMAT):
        raise CliError(f"{path}: line 1: histogram format {header['HISTOGRAMS'][1]}, "
                       f"but this version reads format {HISTOGRAM_FORMAT}")
    line, width = header["QUBITS"]
    if not width.isdigit():
        raise CliError(f"{path}: line {line}: {width!r} is not a register width")
    try:
        sections = parse_sections(body, with_basis=True, width=int(width),
                                  first_line=len(_HEADER_KEYS) + 1)
    except SimulationError as exc:
        raise CliError(f"{path}: {exc}") from None
    return SavedHistograms(path, header, sections)


def _saved_outcomes(pipe: Pipeline, saved: SavedHistograms) -> list:
    """``group_outcomes`` of each group on its saved section. The file is
    refused, by name and line, unless its header states the register width,
    sample seed and shot mode of the run, section i is ``GROUP`` i for
    each of the run's groups and no more, and each section's ``BASIS``,
    ``SEED`` and ``SHOTS`` are the basis of the rebuilt group and what the
    run's sampling gives it."""
    cfg, path, groups = pipe.config, saved.path, pipe.groups
    line, width = saved.header["QUBITS"]
    if width != str(pipe.mapping.n_qubits):
        raise CliError(f"{path}: line {line}: bitstrings are {width} bits long, "
                       f"but the register has {pipe.mapping.n_qubits} qubits")
    for key, want in (("SAMPLE_SEED", cfg.sample_seed), ("SHOT_MODE", cfg.shot_mode)):
        line, value = saved.header[key]
        if value != str(want):
            raise CliError(f"{path}: line {line}: {key} {value}, but the report's is {want}")
    budget = shot_budget(cfg.shots, len(groups), cfg.shot_mode)
    for i, (g, shots, section) in enumerate(zip(groups, budget, saved.sections)):
        hist, lines = section.histogram, section.lines
        if hist.group_id != i:
            raise CliError(f"{path}: line {lines['GROUP']}: section {i} is GROUP "
                           f"{hist.group_id}, not GROUP {i}")
        basis = "".join(g.basis)
        if section.basis != basis:
            raise CliError(f"{path}: line {lines['BASIS']}: BASIS {section.basis}, but group "
                           f"{i} is measured in the basis {basis}")
        seed = group_seed(cfg.sample_seed, i)
        if hist.seed != seed:
            raise CliError(f"{path}: line {lines['SEED']}: SEED {hist.seed}, but sample seed "
                           f"{cfg.sample_seed} gives group {i} the seed {seed}")
        if hist.shots != shots:
            raise CliError(f"{path}: line {lines['SHOTS']}: SHOTS {hist.shots}, but {cfg.shots} "
                           f"shots ({cfg.shot_mode}) give group {i} {shots}")
    if len(saved.sections) > len(groups):
        extra = saved.sections[len(groups)]
        raise CliError(f"{path}: line {extra.lines['GROUP']}: section {len(groups)} is GROUP "
                       f"{extra.histogram.group_id}, but the run has {len(groups)} groups")
    if len(saved.sections) < len(groups):
        last = saved.sections[-1]
        raise CliError(f"{path}: line {last.lines['GROUP']}: section {len(saved.sections) - 1} "
                       f"is the last, but the run has {len(groups)} groups")
    return group_outcomes(groups, [section.histogram for section in saved.sections])


def _orbital_list(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise CliError(f"bad orbital list {text!r}; expected e.g. 0,1,2,3") from None


def _shot_count(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise CliError(f"--shot-list {token!r}: a shot count must be an integer") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fcidump", required=True, help="integrals file (FCIDUMP format)")
    p.add_argument("--electrons", type=int, required=True, help="active electron count")
    p.add_argument("--orbitals", default="", help="active spatial orbitals, e.g. 0,1,2,3 (default: all)")
    p.add_argument("--variant", default=RunConfig.variant, choices=VARIANTS)
    p.add_argument("--no-symmetry", action="store_true", help="disable point-group screening")
    p.add_argument("--map-seed", type=int, default=RunConfig.map_seed)
    p.add_argument("--map-restarts", type=int, default=RunConfig.map_restarts)
    p.add_argument("--out", default=os.environ.get("UCCVQE_OUT_DIR", "."),
                   help="output directory (env UCCVQE_OUT_DIR)")


def _add_sampling(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shots", type=int, default=RunConfig.shots)
    p.add_argument("--shot-mode", default=RunConfig.shot_mode, choices=SHOT_MODES)
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
    p_vqe.add_argument("--policy", default=RunConfig.policy, choices=POLICIES)

    p_sweep = sub.add_parser("sweep", help="standard error versus shot count")
    _add_common(p_sweep)
    _add_sampling(p_sweep)
    p_sweep.add_argument("--shot-list", required=True,
                         help="comma-separated shot counts, e.g. 600,6000,60000")

    p_mit = sub.add_parser("mitigate", help="re-run post-selection on saved histograms")
    p_mit.add_argument("--report", required=True, help="report.json of a previous vqe run")
    p_mit.add_argument("--histograms", required=True,
                       help=f"directory holding the {HISTOGRAM_FILE} of the vqe run")
    # 'none' would only repeat the raw estimate the vqe run wrote
    p_mit.add_argument("--policy", default=RunConfig.policy,
                       choices=[p for p in POLICIES if p != NONE])
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
            shot_list = [_shot_count(tok) for tok in args.shot_list.split(",") if tok]
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
