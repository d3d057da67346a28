"""Every ``uccvqe`` name that the benchmark harness (``perfbench/``), the
kernel benchmark (``benchmarks/``) and the scripts (``scripts/``) reach
must resolve, so that deleting one fails here and not only in a benchmark
run. The files are read, never edited or run."""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CALLERS = sorted(path.relative_to(ROOT).as_posix()
                 for folder in ("perfbench", "benchmarks", "scripts")
                 for path in (ROOT / folder).glob("*.py"))


def load_tracing():
    """``perfbench/tracing.py`` as a module of its own (it imports only the
    standard library)."""
    spec = importlib.util.spec_from_file_location("benchmark_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = load_tracing()
    missing = []
    for module, attr, span in tracing.SPANS:
        try:
            owner, name = tracing._owner(module, attr)
            if not callable(getattr(owner, name)):
                missing.append(f"{module}.{attr} (span {span}) is not callable")
        except AttributeError as exc:
            missing.append(f"{module}.{attr} (span {span}): {exc}")
    kernels = importlib.import_module("uccvqe.kernels")
    missing += [f"uccvqe.kernels.{name}" for name in tracing.KERNELS
                if not callable(getattr(kernels, name, None))]
    assert missing == []


@pytest.mark.parametrize("caller", CALLERS)
def test_imported_names_resolve(caller):
    tree = ast.parse((ROOT / caller).read_text())
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.split(".")[0] == "uccvqe":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    try:
                        importlib.import_module(f"{node.module}.{alias.name}")
                    except ModuleNotFoundError:
                        missing.append(f"line {node.lineno}: {node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "uccvqe":
                    importlib.import_module(alias.name)
    assert missing == []
