"""Workload definitions, their inputs, and the checks on every CLI output.

A workload is a list of ``uccvqe`` command lines run one after another
(closed loop, one command at a time). Every run also executes the paper
anchors first; they are checked, never timed into ``wall_s``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import integrals

# (orbitals, electrons, ORBSYM labels or None for all totally symmetric)
INSTANCES = {
    "h2": None,
    "benzene44": (4, 4, integrals.BENZENE_PI_ORBSYM),
    "cas44": (4, 4, None),
    # Four irreps over CAS(8,8): 128 of 256 uCCDab doubles survive screening.
    "cas88": (8, 8, (1, 1, 1, 2, 3, 3, 4, 4)),
    "cas66": (6, 6, (1, 2, 3, 1, 2, 3)),
}

WORKLOAD_INSTANCE = {
    "vqe-cas44": "cas44",
    "synth-cas88": "cas88",
    "vqe-mitigate-cas66": "cas66",
}

# Paper counts, not values read off this code: H2 / CAS(2,2) compiles to
# 4 CNOTs, 1 parameter and 5 measurement groups; the 4-irrep benzene pi
# CAS(4,4) to 8 parameters and 72 CNOTs.
ANCHOR_SYNTH = {
    "h2": {"parameter_count": 1, "two_qubit_gate_count": 4, "qwc_group_count": 5},
    "benzene44": {"parameter_count": 8, "two_qubit_gate_count": 72},
}
# A doubles-only ansatz is exact on a closed-shell two-electron problem.
ANCHOR_EXACT_TOL = 1e-6
ENERGY_FLOOR_TOL = 1e-8


def derived_seeds(seed: int) -> tuple[int, int]:
    """--map-seed and --sample-seed for a benchmark seed."""
    map_seed, sample_seed = np.random.SeedSequence(seed).generate_state(2)
    return int(map_seed >> 1), int(sample_seed >> 1)


def write_inputs(workload: str, seed: int, work: Path) -> dict[str, Path]:
    """Generate, write and round-trip every FCIDUMP the workload needs."""
    work.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in ("h2", "benzene44", WORKLOAD_INSTANCE[workload]):
        spec = INSTANCES[name]
        ints = integrals.h2_sto3g() if spec is None else integrals.synthetic(
            spec[0], spec[1], seed, spec[2])
        path = work / f"{name}.fcidump"
        integrals.write_checked(str(path), ints)
        paths[name] = path
    return paths


@dataclass
class Command:
    """One CLI call and what to check on its output."""

    argv: list[str]
    check: str                     # "synth", "vqe" or "mitigate"
    out: Path
    anchor: str | None = None      # key into ANCHOR_SYNTH, or "exact"
    stdout: str = ""
    rc: int = -1
    seconds: float = 0.0


def _common(kind: str, fcidump: Path, electrons: int, out: Path, map_seed: int) -> list[str]:
    return [kind, "--fcidump", str(fcidump), "--electrons", str(electrons),
            "--map-seed", str(map_seed), "--out", str(out)]


def anchor_commands(inputs: dict[str, Path], work: Path, seed: int) -> list[Command]:
    map_seed, sample_seed = derived_seeds(seed)
    h2_out = work / "anchor-h2-vqe"
    return [
        Command(_common("synth", inputs["h2"], 2, work / "anchor-h2", map_seed),
                "synth", work / "anchor-h2", anchor="h2"),
        Command(_common("synth", inputs["benzene44"], 4, work / "anchor-benzene44", map_seed),
                "synth", work / "anchor-benzene44", anchor="benzene44"),
        Command(_common("vqe", inputs["h2"], 2, h2_out, map_seed)
                + ["--sample-seed", str(sample_seed)], "vqe", h2_out, anchor="exact"),
        Command(["mitigate", "--report", str(h2_out / "report.json"),
                 "--histograms", str(h2_out)], "mitigate", h2_out),
    ]


def workload_commands(workload: str, inputs: dict[str, Path], work: Path,
                      seed: int) -> list[Command]:
    map_seed, sample_seed = derived_seeds(seed)
    inst = WORKLOAD_INSTANCE[workload]
    electrons = INSTANCES[inst][1]
    out = work / workload
    if workload == "synth-cas88":
        return [Command(_common("synth", inputs[inst], electrons, out, map_seed), "synth", out)]
    variant = "upccd" if workload == "vqe-mitigate-cas66" else "uccdab"
    cmds = [Command(_common("vqe", inputs[inst], electrons, out, map_seed)
                    + ["--variant", variant, "--sample-seed", str(sample_seed)], "vqe", out)]
    if workload == "vqe-mitigate-cas66":
        cmds.append(Command(["mitigate", "--report", str(out / "report.json"),
                             "--histograms", str(out)], "mitigate", out))
    return cmds


def check(cmds: list[Command]) -> list[str]:
    """One line per command whose output fails a check; a mitigate command
    is checked against the vqe command before it."""
    failures = []
    previous: dict | None = None
    for cmd in cmds:
        tag = f"{cmd.argv[0]} {cmd.out.name}"
        try:
            printed = json.loads(cmd.stdout) if cmd.rc == 0 else None
            problems = (_problems(cmd, printed, previous) if printed is not None
                        else [f"exit code {cmd.rc}"])
        except (ValueError, OSError, KeyError) as exc:
            printed, problems = None, [f"unreadable output ({exc!r})"]
        if problems:
            failures.append(f"{tag}: " + "; ".join(problems))
        previous = printed if cmd.check == "vqe" else None
    return failures


def _problems(cmd: Command, printed: dict, previous: dict | None) -> list[str]:
    from uccvqe.circuit import Circuit
    from uccvqe.cli import load_report

    report = load_report(str(cmd.out / "report.json"))
    problems = []
    if cmd.check == "synth":
        circuit = Circuit.from_text((cmd.out / "circuit.txt").read_text())
        if circuit.cnot_count() != report["two_qubit_gate_count"]:
            problems.append(f"circuit.txt has {circuit.cnot_count()} CNOTs, report "
                            f"{report['two_qubit_gate_count']}")
        for key, want in ANCHOR_SYNTH.get(cmd.anchor, {}).items():
            if printed[key] != want:
                problems.append(f"{key} = {printed[key]}, paper {want}")
    elif cmd.check == "vqe":
        e = printed
        if not e["variational"] <= e["hf"]:
            problems.append(f"variational {e['variational']!r} above hf {e['hf']!r}")
        if not e["variational"] >= e["exact_ground"] - ENERGY_FLOOR_TOL:
            problems.append(f"variational {e['variational']!r} below exact {e['exact_ground']!r}")
        if cmd.anchor == "exact" and e["variational"] - e["exact_ground"] > ANCHOR_EXACT_TOL:
            problems.append("doubles-only ansatz not exact on two electrons")
    else:
        keys = [k for k in (previous or {}) if k.startswith("sampled_")]
        if not keys or any(previous[k] != printed.get(k) for k in keys):
            problems.append("mitigate did not reproduce the vqe sampled energies")
    if cmd.check in ("vqe", "mitigate"):
        shots = report["retained_shots"]
        for policy in ("particle", "spin"):
            if shots.get(policy) != shots.get("z_basis_total"):
                problems.append(f"noiseless {policy} post-selection kept "
                                f"{shots.get(policy)} of {shots.get('z_basis_total')}")
    return problems
