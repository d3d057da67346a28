"""Symmetry-based post-selection on computational-basis histograms.

The 'particle' policy keeps shots whose total 1-count equals the electron
count; 'spin' keeps the (N_alpha, N_beta) sector, ``in_symmetry_block``.
Only Z-basis measurement groups are filtered; rotated-basis groups pass
through untouched.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hamio import QubitHamiltonian
from .mapping import QubitMapping
from .sim import Histogram, group_estimate, group_outcomes, summed_estimate
from .symmetry import SpinSector, in_symmetry_block

# a PostSelectionPolicy's kind; 'none' keeps every shot, the raw estimate
KINDS = ("none", "particle", "spin")
NONE, PARTICLE, SPIN = KINDS
ALL = "all"  # a run's policy that post-selects by every kind but 'none'
POLICIES = (*KINDS, ALL)  # the policies a run may ask for


def selected_kinds(policy: str) -> tuple[str, ...]:
    """The kinds but 'none' that a run's policy asks for, in report order."""
    return tuple(k for k in KINDS[1:] if policy in (k, ALL))


class MitigationError(ValueError):
    pass


@dataclass(frozen=True)
class PostSelectionPolicy:
    kind: str
    sector: SpinSector

    def __post_init__(self):
        if self.kind not in KINDS:
            raise MitigationError(f"unknown policy {self.kind!r}; expected one of {KINDS}")

    def keeps(self, idx: np.ndarray, mapping: QubitMapping) -> np.ndarray:
        """Which uint64 outcome indices (qubit 0 most significant) to keep."""
        if self.kind == PARTICLE:
            return np.bitwise_count(idx) == self.sector.n_electrons
        if self.kind == NONE:
            return np.ones(len(idx), dtype=bool)
        return in_symmetry_block(idx, mapping, self.sector)

    def discarded(self, group_id: int) -> MitigationError:
        return MitigationError(f"post-selection '{self.kind}' discarded every shot of group "
                               f"{group_id}: measured data is entirely outside the "
                               f"({self.sector.n_alpha},{self.sector.n_beta}) sector")


def postselect(hist: Histogram, policy: PostSelectionPolicy, mapping: QubitMapping) -> Histogram:
    """Filter a computational-basis histogram by the policy's symmetry."""
    if policy.kind == SPIN and hist.n_qubits != mapping.n_qubits:
        raise MitigationError(f"group {hist.group_id}: bitstrings are not "
                              f"{mapping.n_qubits} bits long")
    keep = policy.keeps(hist.outcomes, mapping)
    retained = int(hist.tallies[keep].sum())
    if retained == 0:
        raise policy.discarded(hist.group_id)
    return Histogram.from_outcomes(hist.n_qubits, hist.outcomes[keep], hist.tallies[keep],
                                   retained, hist.group_id, hist.seed)


def mitigated_energy(
    groups: Sequence,
    histograms: Sequence[Histogram],
    policy: PostSelectionPolicy,
    mapping: QubitMapping,
    h: QubitHamiltonian,
) -> tuple[float, float]:
    """Energy and standard error after post-selecting the Z-basis groups."""
    report = run_policies(groups, group_outcomes(groups, histograms), policy.sector, mapping, h,
                          (policy.kind,))
    return report.outcomes[policy.kind].energy, report.outcomes[policy.kind].standard_error


@dataclass
class PolicyOutcome:
    energy: float
    standard_error: float
    retained_shots: int


@dataclass
class MitigationReport:
    """Raw versus post-selected energies over the same histograms."""

    total_z_shots: int
    raw: PolicyOutcome
    outcomes: dict[str, PolicyOutcome]


def run_policies(
    groups: Sequence,
    valued: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    sector: SpinSector,
    mapping: QubitMapping,
    h: QubitHamiltonian,
    kinds: Sequence[str],
) -> MitigationReport:
    """The raw estimate and each requested policy, with retained-shot
    accounting, over each group's ``group_outcomes``. A policy is a mask on
    the outcome indices of the Z-basis groups; some group must be Z-basis
    when ``kinds`` is not empty. The other groups are estimated once
    (``sim.group_estimate``); the raw estimate and each policy estimate the
    Z-basis groups and add every group's share in group order."""
    if len(groups) != len(valued):
        raise MitigationError(f"{len(groups)} groups but {len(valued)} valued histograms")
    if kinds and not any(g.is_z_basis() for g in groups):
        raise MitigationError("no computational-basis measurement group found")
    z_basis = [i for i, g in enumerate(groups) if g.is_z_basis()]
    shared = [None if g.is_z_basis() else group_estimate(values, weights, g.index)
              for g, (_, values, weights) in zip(groups, valued)]

    def outcome(policy: PostSelectionPolicy) -> PolicyOutcome:
        estimates, retained = list(shared), 0
        for i in z_basis:
            idx, values, weights = valued[i]
            keep = policy.keeps(idx, mapping)
            values, weights = values[keep], weights[keep]
            retained += int(weights.sum())
            if not weights.any():
                raise policy.discarded(groups[i].index)
            estimates[i] = group_estimate(values, weights, groups[i].index)
        return PolicyOutcome(*summed_estimate(estimates, h.offset), retained)

    raw = outcome(PostSelectionPolicy(NONE, sector))
    return MitigationReport(raw.retained_shots, raw,
                            {kind: outcome(PostSelectionPolicy(kind, sector)) for kind in kinds})
