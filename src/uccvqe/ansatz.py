"""Excitation enumeration for the uCC ansatz family.

Variants build on each other: upCCD keeps only paired doubles, uCCDab all
alpha-beta doubles, uCCD adds the same-spin doubles, uCCSD adds singles.
Enumeration order is fixed (paired doubles, then unpaired doubles, then
singles; lexicographic inside each class) so circuits are reproducible.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .symmetry import OrbitalSymmetry, excitation_allowed

VARIANTS = ("upccd", "uccdab", "uccd", "uccsd")
DEFAULT_VARIANT = VARIANTS[1]  # uccdab


class AnsatzError(ValueError):
    pass


@dataclass(frozen=True)
class ActiveSpace:
    """CAS(n_electrons, n_orbitals) restriction of the correlation problem."""

    n_electrons: int
    n_orbitals: int

    def __post_init__(self):
        if self.n_electrons < 0 or self.n_orbitals <= 0:
            raise AnsatzError("invalid active space")
        if self.n_electrons % 2:
            raise AnsatzError("open-shell references are not supported (odd electron count)")
        if self.n_electrons > 2 * self.n_orbitals:
            raise AnsatzError("more electrons than spin orbitals")

    @property
    def n_occupied(self) -> int:
        return self.n_electrons // 2

    @property
    def n_qubits(self) -> int:
        return 2 * self.n_orbitals


@dataclass(frozen=True)
class Excitation:
    """One parameterized particle-hole cluster term over spatial orbitals.

    ``occ``/``virt`` hold spatial indices. For alpha-beta doubles the first
    entry of each tuple is the alpha orbital and the second the beta orbital;
    a paired double has occ=(i,i), virt=(a,a).
    """

    kind: str                      # "single" | "double"
    spin_pattern: str              # "aa" | "bb" | "ab"
    occ: tuple[int, ...]
    virt: tuple[int, ...]
    param_id: int = -1

    @property
    def paired(self) -> bool:
        return (
            self.kind == "double"
            and self.spin_pattern == "ab"
            and self.occ[0] == self.occ[1]
            and self.virt[0] == self.virt[1]
        )

    def spatial_orbitals(self) -> frozenset[int]:
        return frozenset(self.occ) | frozenset(self.virt)

    def spatial_orbitals_with_multiplicity(self) -> tuple[int, ...]:
        return tuple(self.occ) + tuple(self.virt)

    def spin_orbital_pairs(self, n_spatial: int) -> tuple[tuple[int, int], ...]:
        """(creation, annihilation) spin-orbital pairs, outermost pair first.

        A double (i,j -> a,b) is the ordered product adag_b a_j adag_a a_i,
        so the (b, j) pair comes first. Alpha spin orbital k is k, beta is
        n_spatial + k.
        """
        alpha = lambda k: k
        beta = lambda k: n_spatial + k
        if self.kind == "single":
            spin = alpha if self.spin_pattern == "aa" else beta
            return ((spin(self.virt[0]), spin(self.occ[0])),)
        if self.spin_pattern == "ab":
            i, j = self.occ
            a, b = self.virt
            return ((beta(b), beta(j)), (alpha(a), alpha(i)))
        spin = alpha if self.spin_pattern == "aa" else beta
        i, j = self.occ
        a, b = self.virt
        return ((spin(b), spin(j)), (spin(a), spin(i)))

    def spin_orbitals(self, n_spatial: int) -> frozenset[int]:
        out = set()
        for c, a in self.spin_orbital_pairs(n_spatial):
            out.add(c)
            out.add(a)
        return frozenset(out)

    def sort_key(self) -> tuple:
        return (self.occ, self.virt, self.spin_pattern)

    @property
    def param_name(self) -> str:
        """The circuit's name for this excitation's parameter."""
        return f"t{self.param_id}"

    def with_param(self, param_id: int) -> "Excitation":
        return Excitation(self.kind, self.spin_pattern, self.occ, self.virt, param_id)

    def label(self) -> str:
        occ = ",".join(map(str, self.occ))
        virt = ",".join(map(str, self.virt))
        return f"{self.kind}[{self.spin_pattern}]({occ}->{virt})"


@dataclass(frozen=True)
class AnsatzSpec:
    """A variant plus its screened, ordered excitation list and the orbital
    irreps it was screened with (``None`` when unscreened)."""

    variant: str
    active_space: ActiveSpace
    excitations: tuple[Excitation, ...]
    orbsym: Optional[OrbitalSymmetry]

    @property
    def symmetry_screened(self) -> bool:
        return self.orbsym is not None

    @property
    def parameter_count(self) -> int:
        return len(self.excitations)

    def parameter_names(self) -> tuple[str, ...]:
        return tuple(e.param_name for e in self.excitations)

    def build_order(self) -> tuple[list[int], list[int]]:
        """The excitation indices in the order the circuit and the sector
        state apply them: the paired ones, then the unpaired ones."""
        paired = [k for k, e in enumerate(self.excitations) if e.paired]
        return paired, [k for k, e in enumerate(self.excitations) if not e.paired]

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "n_electrons": self.active_space.n_electrons,
            "n_orbitals": self.active_space.n_orbitals,
            "symmetry_screened": self.symmetry_screened,
            "excitations": [
                {
                    "kind": e.kind,
                    "spin_pattern": e.spin_pattern,
                    "occ": list(e.occ),
                    "virt": list(e.virt),
                    "param_id": e.param_id,
                }
                for e in self.excitations
            ],
        }


def _paired_doubles(occ: range, virt: range):
    for i, a in itertools.product(occ, virt):
        yield Excitation("double", "ab", (i, i), (a, a))


def _unpaired_ab_doubles(occ: range, virt: range):
    for i, j, a, b in itertools.product(occ, occ, virt, virt):
        if i == j and a == b:
            continue
        yield Excitation("double", "ab", (i, j), (a, b))


def _same_spin_doubles(occ: range, virt: range, pattern: str):
    for (i, j), (a, b) in itertools.product(
        itertools.combinations(occ, 2), itertools.combinations(virt, 2)
    ):
        yield Excitation("double", pattern, (i, j), (a, b))


def _singles(occ: range, virt: range, pattern: str):
    for i, a in itertools.product(occ, virt):
        yield Excitation("single", pattern, (i,), (a,))


def enumerate_excitations(
    variant: str,
    active_space: ActiveSpace,
    sym: Optional[OrbitalSymmetry] = None,
) -> AnsatzSpec:
    """Build the ordered, optionally symmetry-screened excitation list.

    Paired doubles come first, then unpaired doubles, then singles. When a
    symmetry table is given, terms whose irrep product is not totally
    symmetric are dropped and the spec keeps the table; parameter ids are
    assigned after screening.
    """
    if variant not in VARIANTS:
        raise AnsatzError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if sym is not None and len(sym) != active_space.n_orbitals:
        raise AnsatzError(
            f"symmetry table length {len(sym)} != orbital count {active_space.n_orbitals}"
        )
    occ = range(active_space.n_occupied)
    virt = range(active_space.n_occupied, active_space.n_orbitals)

    level = VARIANTS.index(variant)
    classes = [list(_paired_doubles(occ, virt))]
    if level >= 1:
        classes.append(list(_unpaired_ab_doubles(occ, virt)))
    if level >= 2:
        classes.append(list(_same_spin_doubles(occ, virt, "aa")))
        classes.append(list(_same_spin_doubles(occ, virt, "bb")))
    if level >= 3:
        classes.append(list(_singles(occ, virt, "aa")))
        classes.append(list(_singles(occ, virt, "bb")))

    selected: list[Excitation] = []
    for cls in classes:
        cls.sort(key=Excitation.sort_key)
        for exc in cls:
            if sym is None or excitation_allowed(exc, sym):
                selected.append(exc.with_param(len(selected)))

    return AnsatzSpec(variant, active_space, tuple(selected), sym)
