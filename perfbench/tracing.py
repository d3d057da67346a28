"""Outside-in layer tracing for the pipeline benchmark.

The program itself has no timers yet, so the tracer replaces the public
functions of each ``uccvqe`` module with wrappers while a traced command
runs and puts the originals back afterwards. A ``from .sim import
apply_circuit`` in another module holds its own reference, so every loaded
``uccvqe`` module attribute that *is* the original object gets the wrapper.

Each wrapped call becomes a span (name, start, end, parent id). Spans stay
in memory until the run ends. The statevector kernels run once per gate or
Pauli term, hundreds of thousands of times per energy, so they only count
calls and time instead of opening spans.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name). "Class.method" patches the class.
SPANS = (
    ("uccvqe.cli", "Pipeline.__post_init__", "cli.Pipeline"),
    ("uccvqe.cli", "Pipeline.hf_energy_check", "cli.hf_energy_check"),
    ("uccvqe.cli", "write_report", "cli.io"),
    ("uccvqe.cli", "load_report", "cli.io"),
    ("uccvqe.sim", "Histogram.to_text", "cli.io"),
    ("uccvqe.sim", "Histogram.from_text", "cli.io"),
    ("uccvqe.circuit", "Circuit.to_text", "cli.io"),
    ("pathlib", "Path.write_text", "cli.io"),
    ("pathlib", "Path.read_text", "cli.io"),
    ("uccvqe.hamio", "parse_fcidump", "hamio.parse_fcidump"),
    ("uccvqe.hamio", "build_qubit_hamiltonian", "hamio.build_qubit_hamiltonian"),
    ("uccvqe.hamio", "qwc_group", "hamio.qwc_group"),
    ("uccvqe.hamio", "exact_ground_energy", "hamio.exact_ground_energy"),
    ("uccvqe.ansatz", "enumerate_excitations", "ansatz.enumerate_excitations"),
    ("uccvqe.mapping", "greedy_map", "mapping.greedy_map"),
    ("uccvqe.circuit", "build_ansatz_circuit", "circuit.build_ansatz_circuit"),
    ("uccvqe.circuit", "rewrite_cx_h_cx", "circuit.rewrite_cx_h_cx"),
    ("uccvqe.circuit", "cancel_adjacent", "circuit.cancel_adjacent"),
    ("uccvqe.vqe", "optimize", "vqe.optimize"),
    ("uccvqe.vqe", "evaluate_sampled", "vqe.evaluate_sampled"),
    ("uccvqe.sim", "apply_circuit", "sim.apply_circuit"),
    ("uccvqe.sim", "expectation", "sim.expectation"),
    ("uccvqe.sim", "sample_group", "sim.sample_group"),
    ("uccvqe.sim", "energy_from_histograms", "sim.energy_from_histograms"),
    ("uccvqe.mitigate", "run_policies", "mitigate.run_policies"),
)
KERNELS = ("apply_1q", "apply_phase", "apply_cnot", "pauli_expectation", "apply_pauli_sum")
AMPLITUDE_BYTES = 16


class Tracer:
    """Collects spans and counters; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []   # name, start, end, parent
        self.counters: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}
        self._stack: list[int] = [-1]
        self._patches: list[tuple[object, str, object]] = []
        # Gauges that need program calls of their own; computed in uninstall,
        # outside the traced window, from the last traced call's arguments.
        self._deferred: dict[str, tuple] = {}

    # -- patching ---------------------------------------------------------
    def install(self) -> None:
        for module_name, attr, span in SPANS:
            owner, name = _owner(module_name, attr)
            original = getattr(owner, name)
            after = getattr(self, f"_after_{name}", None)
            wrapper = self._span_wrapper(original, span, after)
            if owner is sys.modules[module_name]:
                self._replace_everywhere(original, wrapper)
            else:
                self._set(owner, name, wrapper)
        kernels = importlib.import_module("uccvqe.kernels")
        for name in KERNELS:
            self._set(kernels, name, self._kernel_wrapper(getattr(kernels, name)))
        hamio = importlib.import_module("uccvqe.hamio")
        self._replace_everywhere(hamio.sector_indices, self._sector_wrapper(hamio.sector_indices))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        for compute, args in self._deferred.values():
            compute(*args)
        self._deferred.clear()

    def _set(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "uccvqe" or mod_name.startswith("uccvqe."):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapper)

    # -- wrappers ---------------------------------------------------------
    def _span_wrapper(self, fn, span: str, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            stack.append(len(spans))
            spans.append((span, 0.0, 0.0, parent))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                spans[stack.pop()] = (span, start, end, parent)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def _kernel_wrapper(self, fn):
        counters, clock = self.counters, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args):
            start = clock()
            result = fn(*args)
            counters["kernels.s"] += clock() - start
            counters["kernels.calls"] += 1
            return result

        return wrapper

    def _sector_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.gauges["hamio.sector_dim"] = len(result)
            return result

        return wrapper

    # -- per-layer counts, taken after the span has closed ----------------
    # These run while the caller's span is still open, so they only count;
    # anything that calls back into the program goes through _deferred.
    def _after_apply_circuit(self, result, state, circuit, params=None):
        self.counters["sim.gates_applied"] += len(circuit.gates)
        self.counters["sim.bytes_moved_computed"] += (
            2 * AMPLITUDE_BYTES * len(circuit.gates) * len(state.amplitudes))

    def _after_expectation(self, result, state, hamiltonian):
        self.counters["sim.terms_evaluated"] += hamiltonian.term_count
        self.counters["sim.bytes_moved_computed"] += (
            2 * AMPLITUDE_BYTES * hamiltonian.term_count * len(state.amplitudes))

    def _after_sample_group(self, result, *args, **kwargs):
        self.counters["sim.histogram_entries"] += len(result.counts)

    def _after_optimize(self, result, *args, **kwargs):
        self.counters["vqe.energy_evals"] += result.evaluations
        self.counters["vqe.iterations"] += len(result.trace) - 1
        self.gauges["vqe.converged"] = float(result.converged)

    def _after_build_ansatz_circuit(self, result, *args, **kwargs):
        self.gauges["circuit.gates"] = len(result.gates)

    def _after_greedy_map(self, result, excs, *args, **kwargs):
        self._deferred["mapping"] = (self._mapping_costs, (excs, result))

    def _mapping_costs(self, excs, mapping):
        from uccvqe.mapping import QubitMapping, mapping_cost

        self.gauges["mapping.cost"] = mapping_cost(excs, mapping)
        self.gauges["mapping.cost_identity"] = mapping_cost(
            excs, QubitMapping.identity(mapping.n_qubits // 2))

    def _after_build_qubit_hamiltonian(self, result, *args, **kwargs):
        self.gauges["hamio.pauli_terms"] = result.term_count

    def _after_enumerate_excitations(self, result, variant, space, sym=None):
        self.gauges["ansatz.params"] = result.parameter_count
        self._deferred["ansatz"] = (self._kept_ratio, (result.parameter_count, variant, space))

    def _kept_ratio(self, kept, variant, space):
        from uccvqe.ansatz import enumerate_excitations

        before = enumerate_excitations(variant, space, None)
        self.gauges["ansatz.kept_ratio"] = kept / before.parameter_count

    def _after_run_policies(self, result, *args, **kwargs):
        kept = sum(o.retained_shots for o in result.outcomes.values())
        self.gauges["mitigate.retained_ratio"] = kept / (len(result.outcomes) * result.total_z_shots)

    # -- results ----------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Span time minus child span time, summed per span name."""
        total: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                total[self.spans[parent][0]] -= end - start
        return dict(total)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "counters": self.counters,
            "gauges": self.gauges,
        }))


def _owner(module_name: str, attr: str):
    """The object that holds ``attr`` and the attribute name on it."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name
