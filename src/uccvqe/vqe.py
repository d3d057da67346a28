"""Classical parameter optimization and sampled energy evaluation.

Parameters are optimized against the exact statevector energy; the sampled
estimate is produced afterwards at the optimum, skipping any iterative
quantum-classical loop. The optimizer is a BFGS quasi-Newton iteration with
a backtracking line search, so accepted steps never raise the energy.

The optimizer never runs the gate-level circuit. The ansatz state is the
product of exp(theta_k G_k) over the excitation generators in circuit build
order (paired excitations first) applied to the Hartree-Fock determinant.
Every G_k satisfies G^3 = -G, so exp(theta G) = 1 + sin(theta) G +
(1 - cos(theta)) G^2 (Yordanov, Arvidsson-Shukur and Barnes, PRA 102,
062612). The reference determinant and every G_k conserve the alpha and
beta electron counts and, on a screened ansatz, the Hartree-Fock irrep, so
the state lives on the amplitudes of that symmetry block only
(``symmetry.in_symmetry_block``), and <psi|H|psi> needs only H's block,
which also gives the exact reference energy. Each evaluation returns the
energy and its exact gradient from one reverse (adjoint) sweep (Jones and
Gacon, arXiv:2009.02823). Sampling still runs the compiled circuit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .ansatz import AnsatzSpec
from .circuit import Circuit, build_ansatz_circuit
from .hamio import (
    MeasurementGroup,
    QubitHamiltonian,
    SectorOperator,
    dense_ground,
    qwc_group,
    sector_indices,
    sector_operators,
)
from .mapping import QubitMapping
from .pauli import excitation_generators
from .sim import (Histogram, Statevector, apply_circuit, group_estimate, group_outcomes,
                  sample_group, summed_estimate)
from .symmetry import SpinSector


class VqeError(ValueError):
    pass


ENERGY_TOL = 1e-9
GRAD_TOL = 1e-6
MAX_ITERATIONS = 500

SHOT_MODES = ("per-group", "total")
PER_GROUP, TOTAL = SHOT_MODES


@dataclass
class VqeResult:
    params: np.ndarray
    energy: float
    trace: list[tuple[np.ndarray, float]]
    evaluations: int
    converged: bool
    ansatz: SectorAnsatz  # the block it ran on, with H's operator there


def _exp_step(g: SectorOperator, theta: float, v: np.ndarray, gv: np.ndarray) -> np.ndarray:
    """exp(theta G) v given gv = G v."""
    return v + math.sin(theta) * gv + (1.0 - math.cos(theta)) * g.apply(gv)


class SectorAnsatz:
    """The ansatz and H on the symmetry block of the reference: its spin
    sector and, when ``spec`` was screened, its irrep.

    ``basis`` lists the block's amplitude indices (ascending), ``reference``
    is the Hartree-Fock determinant over them, ``generators`` pairs each
    parameter index with its restricted generator, in circuit build order,
    and ``hamiltonian`` plus ``offset`` is H on the block. Every screened
    generator has a totally symmetric irrep product, so it maps the block
    into itself and the restriction is exact.
    """

    def __init__(self, h: QubitHamiltonian, spec: AnsatzSpec):
        n_occ = h.active_space.n_occupied
        self.basis = sector_indices(h, SpinSector(n_occ, n_occ), spec.orbsym)
        self.reference = np.zeros(len(self.basis))
        self.reference[np.searchsorted(self.basis, int(h.hf_bitstring(), 2))] = 1.0
        paired, unpaired = spec.build_order()
        order = paired + unpaired
        generators = excitation_generators(spec.excitations, h.mapping)
        *restricted, self.hamiltonian = sector_operators([*(generators[k] for k in order),
                                                          h.terms], self.basis)
        self.generators = list(zip(order, restricted))
        self.offset = h.offset

    def state(self, theta: Sequence[float]) -> np.ndarray:
        psi = self.reference
        for k, g in self.generators:
            psi = _exp_step(g, theta[k], psi, g.apply(psi))
        return psi

    def energy_and_gradient(self, theta: Sequence[float]) -> tuple[float, np.ndarray]:
        """<psi|H|psi> + offset and its exact gradient: one forward sweep,
        then one reverse sweep carrying psi and H psi back through every
        exponential."""
        psi = self.state(theta)
        lam = self.hamiltonian.apply(psi)
        energy = self.offset + float(np.vdot(psi, lam).real)
        grad = np.zeros(len(theta))
        for k, g in reversed(self.generators):
            gpsi = g.apply(psi)
            grad[k] = 2.0 * float(np.vdot(lam, gpsi).real)
            psi = _exp_step(g, -theta[k], psi, gpsi)
            lam = _exp_step(g, -theta[k], lam, g.apply(lam))
        return energy, grad

    def ground_energy(self) -> float:
        """The lowest eigenvalue of H on the block, plus the offset, as
        ``hamio.exact_ground_energy`` gives it on the same block."""
        return dense_ground(self.basis, lambda _: self.hamiltonian) + self.offset


def _check_registers(h: QubitHamiltonian, spec: AnsatzSpec, mapping: QubitMapping) -> None:
    """Refuse an ansatz, mapping and Hamiltonian that do not share one
    register and one qubit mapping."""
    if not h.n_qubits == mapping.n_qubits == spec.active_space.n_qubits:
        raise VqeError(
            f"register sizes differ: Hamiltonian {h.n_qubits}, mapping {mapping.n_qubits}, "
            f"ansatz {spec.active_space.n_qubits} qubits"
        )
    if h.mapping != mapping:
        raise VqeError(f"the Hamiltonian was built under the qubit mapping "
                       f"{getattr(h.mapping, 'perm', None)}, not the mapping passed, {mapping.perm}")


def optimize(h: QubitHamiltonian, spec: AnsatzSpec, mapping: QubitMapping) -> VqeResult:
    """Minimize the ansatz energy from a Hartree-Fock start (all zeros)."""
    if not h.terms.is_hermitian():
        raise VqeError("Hamiltonian is not hermitian")
    _check_registers(h, spec, mapping)
    m = spec.parameter_count
    x = np.zeros(m)

    ansatz = SectorAnsatz(h, spec)
    f0, g = ansatz.energy_and_gradient(x)
    evals = 1
    trace = [(x.copy(), f0)]
    if m == 0:
        return VqeResult(x, f0, trace, evals, True, ansatz)

    binv = np.eye(m)
    converged = False
    for _ in range(MAX_ITERATIONS):
        if np.max(np.abs(g)) < GRAD_TOL:
            converged = True
            break
        d = -binv @ g
        slope = float(d @ g)
        if slope >= 0:
            d = -g
            slope = float(d @ g)
        step = 1.0
        f_new = None
        while step > 1e-14:
            fc, gc = ansatz.energy_and_gradient(x + step * d)
            evals += 1
            if fc <= f0 + 1e-4 * step * slope:
                f_new, g_new = fc, gc
                break
            step *= 0.5
        if f_new is None:
            break  # line search failed: numerically at a minimum
        x_new = x + step * d
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12:
            rho = 1.0 / sy
            eye = np.eye(m)
            binv = (eye - rho * np.outer(s, y)) @ binv @ (eye - rho * np.outer(y, s)) + rho * np.outer(s, s)
        delta = f0 - f_new
        x, f0, g = x_new, f_new, g_new
        trace.append((x.copy(), f0))
        if delta < ENERGY_TOL and np.max(np.abs(g)) < GRAD_TOL:
            converged = True
            break
    return VqeResult(x, f0, trace, evals, converged, ansatz)


@dataclass
class SampledEvaluation:
    groups: list
    histograms: list[Histogram]
    valued: list[tuple[np.ndarray, np.ndarray, np.ndarray]]  # group_outcomes per group
    offset: float

    @cached_property
    def estimate(self) -> tuple[float, float]:
        """Energy and standard error over every group, made on first use;
        ``uccvqe vqe`` reads its raw energy from ``mitigate.run_policies``
        and never needs this one."""
        return summed_estimate((group_estimate(values, weights, g.index)
                                for g, (_, values, weights) in zip(self.groups, self.valued)),
                               self.offset)

    @property
    def energy(self) -> float:
        return self.estimate[0]

    @property
    def standard_error(self) -> float:
        return self.estimate[1]


def group_seed(base_seed: int, group_index: int) -> int:
    """Deterministic per-group sampling seed derived from the base seed."""
    return int(np.random.SeedSequence((int(base_seed), int(group_index))).generate_state(1)[0])


def shot_budget(shots: int, n_groups: int, shot_mode: str) -> list[int]:
    """Shots per group: PER_GROUP spends ``shots`` on each group; TOTAL
    splits ``shots`` as evenly as possible, the first groups taking one more."""
    if n_groups <= 0:
        raise VqeError("the Hamiltonian has no measurement group: it holds no "
                       "non-identity Pauli word")
    if shot_mode == PER_GROUP:
        return [shots] * n_groups
    if shot_mode != TOTAL:
        raise VqeError(f"unknown shot mode {shot_mode!r}")
    base, extra = divmod(shots, n_groups)
    if base == 0:
        raise VqeError(f"{shots} total shots cannot cover {n_groups} groups")
    return [base + (1 if i < extra else 0) for i in range(n_groups)]


def evaluate_sampled(
    h: QubitHamiltonian,
    spec: AnsatzSpec,
    mapping: QubitMapping,
    params: Sequence[float],
    shots: int,
    seed: int,
    shot_mode: str = PER_GROUP,
    *,
    circuit: Optional[Circuit] = None,
    groups: Optional[list[MeasurementGroup]] = None,
) -> SampledEvaluation:
    """Sample every QWC group of H at fixed parameters.

    ``shot_mode`` is read by ``shot_budget``. ``circuit`` and ``groups``
    default to ``build_ansatz_circuit(spec, mapping)`` and ``qwc_group(h)``;
    a caller that holds them already passes them in. Each histogram is
    valued once, into ``valued``, which post-selection filters.
    """
    return next(_evaluate_shot_counts(h, spec, mapping, params, [shots], seed, shot_mode,
                                      circuit, groups))


def _evaluate_shot_counts(h: QubitHamiltonian, spec: AnsatzSpec, mapping: QubitMapping,
                          params: Sequence[float], shot_list: Sequence[int], seed: int,
                          shot_mode: str, circuit: Optional[Circuit],
                          groups: Optional[list[MeasurementGroup]]
                          ) -> Iterator[SampledEvaluation]:
    """``evaluate_sampled`` at each shot count of ``shot_list`` in turn, all
    sampled from one prepared state: the circuit runs once, after every
    shot count has been checked."""
    _check_registers(h, spec, mapping)
    if groups is None:
        groups = qwc_group(h)
    budgets = [shot_budget(shots, len(groups), shot_mode) for shots in shot_list]
    if circuit is None:
        circuit = build_ansatz_circuit(spec, mapping)
    binding = dict(zip(spec.parameter_names(), map(float, params)))
    state = apply_circuit(Statevector.zero(mapping.n_qubits), circuit, binding)
    for budget in budgets:
        histograms = [sample_group(state, grp, budget[i], group_seed(seed, i))
                      for i, grp in enumerate(groups)]
        yield SampledEvaluation(groups, histograms, group_outcomes(groups, histograms), h.offset)
