"""Symmetry-based post-selection on computational-basis histograms.

The 'particle' policy keeps shots whose total 1-count equals the electron
count; 'spin' additionally pins the per-spin counts (and therefore implies
the particle constraint). Only Z-basis measurement groups are filtered;
rotated-basis groups pass through untouched.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .hamio import QubitHamiltonian
from .mapping import QubitMapping
from .sim import Histogram, energy_from_histograms
from .symmetry import SpinSector, sector_of_bitstring

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


def postselect(hist: Histogram, policy: PostSelectionPolicy,
               mapping: Optional[QubitMapping] = None) -> Histogram:
    """Filter a computational-basis histogram by the policy's symmetry."""
    if policy.kind == "none":
        return Histogram(dict(hist.counts), hist.shots, hist.group_id, hist.seed)
    if policy.kind == "spin" and mapping is None:
        raise MitigationError("spin post-selection needs the qubit mapping")
    kept: dict[str, int] = {}
    for bits, count in hist.counts.items():
        if policy.kind == "particle":
            ok = bits.count("1") == policy.sector.n_electrons
        else:
            sector = sector_of_bitstring(bits, mapping)
            ok = (sector.n_alpha == policy.sector.n_alpha
                  and sector.n_beta == policy.sector.n_beta)
        if ok:
            kept[bits] = count
    retained = sum(kept.values())
    if retained == 0:
        raise MitigationError(
            f"post-selection '{policy.kind}' discarded every shot of group "
            f"{hist.group_id}: measured data is entirely outside the "
            f"({policy.sector.n_alpha},{policy.sector.n_beta}) sector"
        )
    return Histogram(kept, retained, hist.group_id, hist.seed)


def _postselect_z_groups(groups: Sequence, histograms: Sequence[Histogram],
                         policy: PostSelectionPolicy,
                         mapping: Optional[QubitMapping]) -> list[Histogram]:
    """The histograms with every Z-basis group post-selected once; rotated
    groups pass through as given."""
    if len(groups) != len(histograms):
        raise MitigationError(f"{len(groups)} groups but {len(histograms)} histograms")
    if not any(g.is_z_basis() for g in groups):
        raise MitigationError("no computational-basis measurement group found")
    return [postselect(hist, policy, mapping) if g.is_z_basis() else hist
            for g, hist in zip(groups, histograms)]


def mitigated_energy(
    groups: Sequence,
    histograms: Sequence[Histogram],
    policy: PostSelectionPolicy,
    mapping: Optional[QubitMapping],
    h: QubitHamiltonian,
) -> tuple[float, float]:
    """Energy and standard error after post-selecting the Z-basis groups."""
    filtered = _postselect_z_groups(groups, histograms, policy, mapping)
    return energy_from_histograms(groups, filtered, h.offset)


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
    histograms: Sequence[Histogram],
    sector: SpinSector,
    mapping: QubitMapping,
    h: QubitHamiltonian,
    kinds: Sequence[str] = ("particle", "spin"),
) -> MitigationReport:
    """Apply each requested policy and collect retained-shot accounting."""
    raw_e, raw_se = energy_from_histograms(groups, histograms, h.offset)
    z_idx = [i for i, g in enumerate(groups) if g.is_z_basis()]
    if not z_idx:
        raise MitigationError("no computational-basis measurement group found")
    total_z = sum(histograms[i].shots for i in z_idx)
    outcomes = {}
    for kind in kinds:
        policy = PostSelectionPolicy(kind, sector)
        filtered = _postselect_z_groups(groups, histograms, policy, mapping)
        e, se = energy_from_histograms(groups, filtered, h.offset)
        outcomes[kind] = PolicyOutcome(e, se, sum(filtered[i].shots for i in z_idx))
    return MitigationReport(total_z, PolicyOutcome(raw_e, raw_se, total_z), outcomes)
