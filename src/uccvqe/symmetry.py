"""Abelian point-group bookkeeping and the symmetry-block rule.

Irreps follow the Molpro/FCIDUMP ORBSYM convention: integer labels 1..8
where label 1 is the totally symmetric irrep and the product of two irreps
is the XOR of their 3-bit codes (label - 1). This covers D2h and all its
subgroups; non-Abelian groups are rejected.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


class SymmetryError(ValueError):
    pass


@dataclass(frozen=True)
class Irrep:
    """One irreducible representation, stored by its 1-based ORBSYM label."""

    label: int

    def __post_init__(self):
        if not 1 <= self.label <= 8:
            raise SymmetryError(
                f"irrep label {self.label} outside 1..8; only Abelian groups "
                "(D2h and subgroups) are supported - relabel the orbitals in "
                "a D2h-adapted FCIDUMP"
            )

    @property
    def code(self) -> int:
        return self.label - 1


TOTALLY_SYMMETRIC = Irrep(1)


@dataclass(frozen=True)
class OrbitalSymmetry:
    """Per-spatial-orbital irrep labels, in orbital order."""

    irreps: tuple[Irrep, ...]

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "OrbitalSymmetry":
        return cls(tuple(Irrep(int(l)) for l in labels))

    @classmethod
    def all_symmetric(cls, n_orbitals: int) -> "OrbitalSymmetry":
        return cls((TOTALLY_SYMMETRIC,) * n_orbitals)

    def __len__(self) -> int:
        return len(self.irreps)

    def __getitem__(self, i: int) -> Irrep:
        return self.irreps[i]

    def labels(self) -> tuple[int, ...]:
        return tuple(ir.label for ir in self.irreps)


def excitation_allowed(exc, sym: OrbitalSymmetry) -> bool:
    """Whether an excitation survives point-group screening.

    The product of the irreps of every involved spatial orbital (with
    multiplicity) must be the totally symmetric representation, i.e. the
    XOR of their codes must vanish.
    """
    code = 0
    for i in exc.spatial_orbitals_with_multiplicity():
        if i >= len(sym):
            raise SymmetryError(f"orbital {i} outside symmetry table of length {len(sym)}")
        code ^= sym[i].code
    return code == 0


@dataclass(frozen=True)
class SpinSector:
    """Electron counts per spin manifold."""

    n_alpha: int
    n_beta: int

    def __post_init__(self):
        if self.n_alpha < 0 or self.n_beta < 0:
            raise SymmetryError("negative electron count")

    @property
    def n_electrons(self) -> int:
        return self.n_alpha + self.n_beta


def index_mask(n: int, qubits) -> int:
    """Amplitude-index bits of ``qubits`` on n qubits (qubit 0 is the most significant)."""
    return sum(1 << (n - 1 - q) for q in qubits)


def in_symmetry_block(indices: np.ndarray, mapping, sector: SpinSector,
                      orbsym: Optional[OrbitalSymmetry] = None) -> np.ndarray:
    """Which uint64 amplitude indices lie in the (N_alpha, N_beta) sector
    and, given one irrep per spatial orbital of the mapping, are totally
    symmetric like every closed-shell Hartree-Fock determinant: the XOR of
    the occupied spin orbitals' irrep codes is 0, one parity per code bit."""
    idx = np.asarray(indices, dtype=np.uint64)
    count = lambda qubits: np.bitwise_count(idx & np.uint64(index_mask(mapping.n_qubits, qubits)))
    keep = ((count(mapping.alpha_qubits()) == sector.n_alpha)
            & (count(mapping.beta_qubits()) == sector.n_beta))
    if orbsym is not None:
        if len(orbsym) != mapping.n_spatial:
            raise SymmetryError(f"{len(orbsym)} orbital irreps for {mapping.n_spatial} orbitals")
        for bit in (1, 2, 4):
            odd = [q for k in range(mapping.n_spatial) if orbsym[k].code & bit
                   for q in (mapping.alpha_qubit(k), mapping.beta_qubit(k))]
            keep &= count(odd) % 2 == 0
    return keep

