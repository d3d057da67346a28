"""Check that this checkout writes the same files as another revision.

    python scripts/compare_outputs.py REV

Exports REV with ``git archive`` into a temporary directory and runs one
command set on that tree and on this checkout. Each command runs in a fresh
interpreter with the BLAS thread count fixed at 1, because the last digits
of the dense ``exact_ground`` eigensolver depend on it. The command set is
every anchor and workload command of the three perfbench workloads at seeds
3 and 7 (from ``perfbench/workloads.py``), plus, on the CAS(6,6) instance,
``vqe`` then ``mitigate`` under each ``--policy`` and under
``--shot-mode total``, and one ``sweep`` per seed. A ``mitigate`` runs on a
copy of its ``vqe`` directory, so both reports are compared.

Compared byte for byte: every ``report.json`` (timings dropped, the FCIDUMP
path cut to its file name), every ``circuit.txt``, every ``histograms.txt``
that both trees wrote, and each measurement group's histogram in one
canonical text, its one-group ``Histogram.to_text`` form (group, shots,
seed, outcomes and tallies). That text is read from the ``histograms.txt``
of a ``vqe`` directory, or from its ``group_*.hist`` files, one per group,
in revisions that wrote those, so the two layouts compare equal when their
histograms do. Prints the counts of files and group histograms compared and
the outputs that differ, and under each differing ``report.json`` every leaf
that differs, as ``energies_hartree.sampled_raw: <rev value> -> <value
here>``; exits 1 on any difference, and on any command that fails in either
tree.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads as wl  # noqa: E402
from uccvqe.cli import HISTOGRAM_FILE, read_histograms  # noqa: E402
from uccvqe.sim import Histogram  # noqa: E402

SEEDS = (3, 7)
THREADS = {key: "1" for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# vqe --policy, then the mitigate --policy run on its histograms
# (mitigate has no 'none'; the raw energy is rewritten under any kind)
POLICY_PAIRS = (("none", "spin"), ("particle", "particle"), ("spin", "spin"), ("all", "all"))


def commands(inputs: Path, seed: int) -> list[tuple[list[str], str]]:
    """(argv, output directory relative to a tree's output root) for one seed.
    Output paths in argv are written as ``{out}/<dir>``."""
    work = inputs / f"seed{seed}"
    paths = {}
    for workload in wl.WORKLOAD_INSTANCE:
        paths.update(wl.write_inputs(workload, seed, work))
    placeholder = Path("{out}") / f"seed{seed}"
    cmds = wl.anchor_commands(paths, placeholder, seed)
    for workload in wl.WORKLOAD_INSTANCE:
        cmds += wl.workload_commands(workload, paths, placeholder, seed)
    out = [(list(c.argv), str(c.out)) for c in cmds]

    map_seed, sample_seed = wl.derived_seeds(seed)
    base = ["--fcidump", str(paths["cas66"]), "--electrons", "6", "--variant", "upccd",
            "--map-seed", str(map_seed), "--sample-seed", str(sample_seed)]
    runs = [(f"policy-{p}", ["--policy", p], m) for p, m in POLICY_PAIRS]
    runs.append(("shot-mode-total", ["--shot-mode", "total", "--shots", "6000"], "all"))
    for name, flags, mitigate_policy in runs:
        vqe_out = str(placeholder / f"cas66-{name}")
        out.append((["vqe", *base, *flags, "--out", vqe_out], vqe_out))
        out.append((["mitigate", "--report", f"{vqe_out}/report.json", "--histograms", vqe_out,
                     "--policy", mitigate_policy], vqe_out))
    sweep_out = str(placeholder / "cas66-sweep")
    out.append((["sweep", *base, "--shot-list", "600,6000", "--out", sweep_out], sweep_out))
    return out


def run_tree(src: Path, out_root: Path, cmds) -> list[int]:
    """Run every command on the package under ``src``; a mitigate runs on a
    copy of the directory of the vqe before it. Returns the exit codes
    (None for a mitigate whose vqe wrote nothing)."""
    env = {**os.environ, **THREADS, "PYTHONPATH": str(src)}
    codes = []
    for argv, out_dir in cmds:
        argv = [a.replace("{out}", str(out_root)) for a in argv]
        if argv[0] == "mitigate":
            vqe_dir = Path(out_dir.replace("{out}", str(out_root)))
            copy = vqe_dir.with_name(vqe_dir.name + "-mitigate")
            if not vqe_dir.is_dir():  # the vqe failed; its exit code is reported
                codes.append(None)
                continue
            shutil.copytree(vqe_dir, copy)
            argv = [a.replace(str(vqe_dir), str(copy)) for a in argv]
        done = subprocess.run([sys.executable, "-m", "uccvqe.cli", *argv], env=env,
                              cwd=out_root, capture_output=True, text=True)
        if done.returncode != 0:
            print(f"{src.parent.name}: exit {done.returncode}: uccvqe {' '.join(argv)}\n"
                  f"{done.stderr.strip()}", file=sys.stderr)
        codes.append(done.returncode)
    return codes


def normalized(path: Path) -> bytes:
    if path.name != "report.json":
        return path.read_bytes()
    report = json.loads(path.read_text())
    report.pop("timings_seconds", None)
    report["config"]["fcidump"] = Path(report["config"]["fcidump"]).name
    return json.dumps(report, indent=2, sort_keys=True).encode()


def leaves(node, prefix: str = "") -> dict[str, object]:
    """A report's scalar leaves by dotted path; list items are numbered."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return {path: value for key, child in items
                for path, value in leaves(child, f"{prefix}.{key}" if prefix else str(key)).items()}
    return {prefix: node}


def report_changes(rev: bytes, here: bytes) -> list[str]:
    """``path: <rev value> -> <value here>`` for each leaf that differs
    between two normalized reports; '-' stands for an absent leaf."""
    old, new = (leaves(json.loads(text)) for text in (rev, here))
    show = lambda d, k: json.dumps(d[k]) if k in d else "-"
    return [f"{k}: {show(old, k)} -> {show(new, k)}"
            for k in sorted(old.keys() | new.keys()) if show(old, k) != show(new, k)]


def outputs(root: Path) -> tuple[dict[str, bytes], dict[str, bytes]]:
    """A tree's compared files, normalized, and its group histograms in
    their canonical text, under '<directory>/group <id>'; both keyed by
    paths relative to ``root``."""
    files = {str(p.relative_to(root)): normalized(p)
             for pattern in ("report.json", "circuit.txt", HISTOGRAM_FILE)
             for p in root.rglob(pattern)}
    saved = [(p.parent, s.histogram) for p in root.rglob(HISTOGRAM_FILE)
             for s in read_histograms(str(p.parent)).sections]
    saved += [(p.parent, Histogram.from_text(p.read_text())) for p in root.rglob("group_*.hist")]
    groups = {f"{d.relative_to(root)}/group {h.group_id}": h.to_text().encode() for d, h in saved}
    return files, groups


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", "--format=tar", args.rev], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "rev")
        cmds = [c for seed in SEEDS for c in commands(tmp / "inputs", seed)]
        trees = {"rev": tmp / "rev" / "src", "here": ROOT / "src"}
        codes = {}
        for name, src in trees.items():
            (tmp / f"out-{name}").mkdir()
            codes[name] = run_tree(src, tmp / f"out-{name}", cmds)
        failed = [(argv, a, b) for (argv, _), a, b in zip(cmds, codes["rev"], codes["here"])
                  if a != 0 or b != 0]
        (files_rev, groups_rev), (files_here, groups_here) = (outputs(tmp / "out-rev"),
                                                              outputs(tmp / "out-here"))
        # a histograms.txt is compared only where both trees wrote one
        files_rev, files_here = ({rel: text for rel, text in files.items()
                                  if Path(rel).name != HISTOGRAM_FILE or rel in other}
                                 for files, other in ((files_rev, files_here),
                                                      (files_here, files_rev)))
        rev, here = {**files_rev, **groups_rev}, {**files_here, **groups_here}
        differ = sorted(rel for rel in rev.keys() | here.keys() if rev.get(rel) != here.get(rel))
        changes = {rel: report_changes(rev[rel], here[rel]) for rel in differ
                   if Path(rel).name == "report.json" and rel in rev and rel in here}
    print(f"{len(cmds)} commands per tree, {len(files_rev.keys() | files_here.keys())} files "
          f"and {len(groups_rev.keys() | groups_here.keys())} group histograms compared, "
          f"{len(differ)} differ")
    for argv, a, b in failed:
        print(f"exit codes {a} (rev) and {b} (here): uccvqe {' '.join(argv)}")
    for rel in differ:
        print(f"differs: {rel}")
        for line in changes.get(rel, ()):
            print(f"    {line}")
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main())
