"""Symmetry-based post-selection on computational-basis histograms.

The 'particle' policy keeps shots whose total 1-count equals the electron
count; 'spin' keeps the (N_alpha, N_beta) sector, ``in_symmetry_block``.
Only Z-basis measurement groups are filtered; rotated-basis groups pass
through untouched.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .hamio import QubitHamiltonian
from .mapping import QubitMapping
from .sim import Histogram, estimate_energy, group_outcomes
from .symmetry import SpinSector, in_symmetry_block

POLICIES = ("none", "particle", "spin")


class MitigationError(ValueError):
    pass


@dataclass(frozen=True)
class PostSelectionPolicy:
    kind: str
    sector: SpinSector

    def __post_init__(self):
        if self.kind not in POLICIES:
            raise MitigationError(f"unknown policy {self.kind!r}; expected one of {POLICIES}")

    def keeps(self, idx: np.ndarray, mapping: Optional[QubitMapping]) -> np.ndarray:
        """Which uint64 outcome indices (qubit 0 most significant) to keep."""
        if self.kind == "particle":
            return np.bitwise_count(idx) == self.sector.n_electrons
        if self.kind == "none":
            return np.ones(len(idx), dtype=bool)
        if mapping is None:
            raise MitigationError("spin post-selection needs the qubit mapping")
        return in_symmetry_block(idx, mapping, self.sector)

    def discarded(self, group_id: int) -> MitigationError:
        return MitigationError(f"post-selection '{self.kind}' discarded every shot of group "
                               f"{group_id}: measured data is entirely outside the "
                               f"({self.sector.n_alpha},{self.sector.n_beta}) sector")


def postselect(hist: Histogram, policy: PostSelectionPolicy,
               mapping: Optional[QubitMapping] = None) -> Histogram:
    """Filter a computational-basis histogram by the policy's symmetry."""
    if policy.kind == "spin" and mapping is not None and hist.n_qubits != mapping.n_qubits:
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
    mapping: Optional[QubitMapping],
    h: QubitHamiltonian,
) -> tuple[float, float]:
    """Energy and standard error after post-selecting the Z-basis groups."""
    if len(groups) != len(histograms):
        raise MitigationError(f"{len(groups)} groups but {len(histograms)} histograms")
    valued = [group_outcomes(g, hist) for g, hist in zip(groups, histograms)]
    report = run_policies(groups, valued, policy.sector, mapping, h, (policy.kind,))
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
    kinds: Sequence[str] = ("particle", "spin"),
) -> MitigationReport:
    """The raw estimate and each requested policy, with retained-shot
    accounting, over each group's ``group_outcomes``. A policy is a mask on
    the outcome indices of the Z-basis groups; some group must be Z-basis
    when ``kinds`` is not empty."""
    if len(groups) != len(valued):
        raise MitigationError(f"{len(groups)} groups but {len(valued)} valued histograms")
    if kinds and not any(g.is_z_basis() for g in groups):
        raise MitigationError("no computational-basis measurement group found")

    def outcome(policy: PostSelectionPolicy) -> PolicyOutcome:
        samples, retained = [], 0
        for g, (idx, values, weights) in zip(groups, valued):
            if g.is_z_basis():
                keep = policy.keeps(idx, mapping)
                values, weights = values[keep], weights[keep]
                retained += int(weights.sum())
                if not weights.any():
                    raise policy.discarded(g.index)
            samples.append((values, weights, g.index))
        return PolicyOutcome(*estimate_energy(samples, h.offset), retained)

    raw = outcome(PostSelectionPolicy("none", sector))
    return MitigationReport(raw.retained_shots, raw,
                            {kind: outcome(PostSelectionPolicy(kind, sector)) for kind in kinds})
