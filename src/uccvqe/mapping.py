"""Greedy orbital-to-qubit placement minimizing Jordan-Wigner Z-chains.

The search permutes spatial orbitals and mirrors the result onto the beta
register (alpha register first, beta second), which keeps the paired-block
plus fan-out circuit construction valid. The cost of a candidate is the
summed index-interval slack of every excitation's mapped spin orbitals.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class MappingError(ValueError):
    pass


@dataclass(frozen=True)
class QubitMapping:
    """Bijection spin orbital -> qubit on a 2N register.

    Spin orbital k < N is the alpha component of spatial orbital k, N + k
    the beta component.
    """

    perm: tuple[int, ...]

    def __post_init__(self):
        # plain ints: numpy integers would leak into masks and reports, and
        # operator.index refuses a float rather than truncating it
        try:
            object.__setattr__(self, "perm", tuple(operator.index(q) for q in self.perm))
        except TypeError:
            raise MappingError(f"perm entries must be integers, got {self.perm!r}") from None
        if sorted(self.perm) != list(range(len(self.perm))) or len(self.perm) % 2:
            raise MappingError("perm must be a permutation of an even-size register")

    @classmethod
    def identity(cls, n_spatial: int) -> "QubitMapping":
        return cls(tuple(range(2 * n_spatial)))

    @classmethod
    def from_spatial_order(cls, positions: Sequence[int]) -> "QubitMapping":
        """Block-structured mapping: spatial k sits at positions[k] in the
        alpha register and at N + positions[k] in the beta register."""
        n = len(positions)
        return cls(tuple(positions) + tuple(n + p for p in positions))

    @property
    def n_qubits(self) -> int:
        return len(self.perm)

    @property
    def n_spatial(self) -> int:
        return len(self.perm) // 2

    def qubit_of(self, spin_orbital: int) -> int:
        return self.perm[spin_orbital]

    def alpha_qubits(self) -> tuple[int, ...]:
        return self.perm[: self.n_spatial]

    def beta_qubits(self) -> tuple[int, ...]:
        return self.perm[self.n_spatial :]

    def alpha_qubit(self, spatial: int) -> int:
        return self.perm[spatial]

    def beta_qubit(self, spatial: int) -> int:
        return self.perm[self.n_spatial + spatial]

def _spin_orbital_table(excs: Sequence, n_qubits: int) -> tuple[np.ndarray, int]:
    """Each excitation's spin orbitals as one row of an (excitations x 4)
    array, padded by repeating the row's first entry (which moves neither
    its minimum nor its maximum), and the total count of distinct entries."""
    sets = [sorted({so for pair in exc.spin_orbital_pairs(n_qubits // 2) for so in pair})
            for exc in excs]
    for exc, sos in zip(excs, sets):
        if sos[-1] >= n_qubits:
            raise MappingError(f"excitation {exc} not covered by mapping")
    width = max((len(sos) for sos in sets), default=1)
    table = np.array([sos + sos[:1] * (width - len(sos)) for sos in sets],
                     dtype=np.int64).reshape(len(sets), width)
    return table, sum(len(sos) for sos in sets)


def _costs(table: np.ndarray, size: int, perms: np.ndarray) -> np.ndarray:
    """Total span cost of every row of ``perms`` (candidates x qubits) over
    the excitations of ``_spin_orbital_table``: summed (max - min + 1 -
    distinct count) of each excitation's mapped spin orbitals."""
    mapped = perms[:, table]
    spans = (mapped.max(axis=2) - mapped.min(axis=2)).sum(axis=1)
    return spans + len(table) - size


def mapping_cost(excs: Sequence, mapping: QubitMapping) -> int:
    """Total Z-chain length proxy over all excitations under a mapping."""
    table, size = _spin_orbital_table(excs, mapping.n_qubits)
    return int(_costs(table, size, np.array([mapping.perm]))[0])


def _best_window(free: list[int], k: int, anchor: list[int]) -> list[int]:
    """k free positions, as tight as possible and as near the anchor as
    possible; leftmost on ties."""
    free = sorted(free)
    best = None
    for s in range(len(free) - k + 1):
        win = free[s : s + k]
        tight = win[-1] - win[0]
        near = min(abs(p - a) for p in win for a in anchor) if anchor else win[0]
        key = (tight, near, win[0])
        if best is None or key < best[0]:
            best = (key, win)
    return best[1]


def _greedy_run(orbitals: Sequence[list[int]], group_of: Sequence[int],
                sharers: dict[int, list[int]], n_spatial: int,
                rng: np.random.Generator) -> list[int]:
    """One greedy placement; returns each spatial orbital's position.

    Excitations that touch the same orbitals are placed, shared and picked
    alike, so a run works on their groups: ``orbitals[g]`` lists group g's
    sorted spatial orbitals, ``group_of`` gives the group of each excitation
    in sort-key order (groups are numbered by first appearance there), and
    ``sharers[o]`` the groups touching orbital o. The first excitation in
    sort order with the largest share is then the first member of the first
    group with that share.

    A group whose orbitals are all placed drops out (its share becomes -1):
    picking it would place nothing, and its share, at least 1, keeps it out
    of the random draw, which happens only when every remaining share is 0.
    So every pick places an orbital, and a run picks at most ``n_spatial``
    times."""
    placed: dict[int, int] = {}
    free = list(range(n_spatial))
    share = [0] * len(orbitals)   # placed orbitals per group, -1 once all are
    idx = group_of[int(rng.integers(len(group_of)))]

    while True:
        unplaced = [o for o in orbitals[idx] if o not in placed]
        anchor = [placed[o] for o in orbitals[idx] if o in placed]
        if anchor:
            for o in unplaced:
                _, pos = min((sum([abs(p - a) for a in anchor]), p) for p in free)
                placed[o] = pos
                free.remove(pos)
                anchor.append(pos)
        else:
            win = _best_window(free, len(unplaced), sorted(placed.values()))
            for o, pos in zip(unplaced, win):
                placed[o] = pos
                free.remove(pos)
        for o in unplaced:
            for g in sharers[o]:
                placed_g = share[g] + 1
                share[g] = placed_g if placed_g < len(orbitals[g]) else -1
        most = max(share)
        if most > 0:
            idx = share.index(most)
        elif most == 0:
            # drawn over the remaining excitations, not groups
            todo = [g for g in group_of if share[g] == 0]
            idx = todo[int(rng.integers(len(todo)))]
        else:
            break

    return [placed[o] if o in placed else free.pop(0) for o in range(n_spatial)]


def greedy_map(excs: Sequence, n_qubits: int, seed: int, restarts: int) -> QubitMapping:
    """Lowest-cost mapping over independent greedy runs plus the identity.

    Each run seeds from one shared PRNG stream, so a larger restart budget
    extends (never replaces) a smaller one with the same seed. The identity
    mapping always competes, so the result is never worse than no mapping.
    All candidates are scored in one pass; ties go to the smaller perm.
    """
    if not excs:
        raise MappingError("need at least one excitation")
    if n_qubits % 2:
        raise MappingError("qubit count must be even (2 per spatial orbital)")
    if restarts < 0:
        raise MappingError(f"restart budget must be non-negative, got {restarts}")
    n_spatial = n_qubits // 2
    table, n_spin_orbitals = _spin_orbital_table(excs, n_qubits)
    rng = np.random.default_rng(seed)

    groups: dict[frozenset[int], int] = {}
    group_of = [groups.setdefault(exc.spatial_orbitals(), len(groups))
                for exc in sorted(excs, key=lambda exc: exc.sort_key())]
    orbitals = [sorted(orbs) for orbs in groups]
    sharers: dict[int, list[int]] = {}
    for g, orbs in enumerate(orbitals):
        for o in orbs:
            sharers.setdefault(o, []).append(g)

    # spatial positions; a block mapping's perm is these followed by N + these,
    # so comparing positions compares perms
    candidates = [list(range(n_spatial))]
    for _ in range(restarts):
        candidates.append(_greedy_run(orbitals, group_of, sharers, n_spatial, rng))
    positions = np.array(candidates)
    perms = np.concatenate([positions, positions + n_spatial], axis=1)
    costs = _costs(table, n_spin_orbitals, perms).tolist()
    best = min(range(len(candidates)), key=lambda i: (costs[i], candidates[i]))
    return QubitMapping.from_spatial_order(candidates[best])
