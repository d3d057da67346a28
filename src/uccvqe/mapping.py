"""Greedy orbital-to-qubit placement minimizing Jordan-Wigner Z-chains.

The search permutes spatial orbitals and mirrors the result onto the beta
register (alpha register first, beta second), which keeps the paired-block
plus fan-out circuit construction valid. The cost of a candidate is the
summed index-interval slack of every excitation's mapped spin orbitals.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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

    def spin_orbital_of(self, qubit: int) -> int:
        return self.perm.index(qubit)

    def alpha_qubits(self) -> tuple[int, ...]:
        return self.perm[: self.n_spatial]

    def beta_qubits(self) -> tuple[int, ...]:
        return self.perm[self.n_spatial :]

    def alpha_qubit(self, spatial: int) -> int:
        return self.perm[spatial]

    def beta_qubit(self, spatial: int) -> int:
        return self.perm[self.n_spatial + spatial]

    def is_block_structured(self) -> bool:
        n = self.n_spatial
        return all(self.perm[n + k] == self.perm[k] + n for k in range(n))


def span_cost(support: Iterable[int]) -> int:
    """Interval slack of one mapped index set: span minus support size."""
    qs = sorted(support)
    if not qs:
        return 0
    return qs[-1] - qs[0] + 1 - len(qs)


def _scorer(excs: Sequence, n_qubits: int):
    """perm -> total span cost, from each excitation's spin orbitals taken once."""
    sets = [exc.spin_orbitals(n_qubits // 2) for exc in excs]
    for exc, sos in zip(excs, sets):
        if max(sos) >= n_qubits:
            raise MappingError(f"excitation {exc} not covered by mapping")
    return lambda perm: sum(span_cost(perm[so] for so in sos) for sos in sets)


def mapping_cost(excs: Sequence, mapping: QubitMapping) -> int:
    """Total Z-chain length proxy over all excitations under a mapping."""
    return _scorer(excs, mapping.n_qubits)(mapping.perm)


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


def _greedy_run(orbitals: Sequence[list[int]], sharers: dict[int, list[int]],
                order: list[int], n_spatial: int, rng: np.random.Generator) -> QubitMapping:
    """One greedy placement. ``orbitals[k]`` lists excitation k's sorted
    spatial orbitals, ``sharers[o]`` the excitations touching orbital o, and
    ``order`` the excitation indices in sort-key order."""
    placed: dict[int, int] = {}
    free = list(range(n_spatial))
    todo = list(order)
    share = [0] * len(orbitals)   # placed orbitals per excitation
    current = int(rng.integers(len(todo)))

    while todo:
        idx = todo.pop(current)
        unplaced = [o for o in orbitals[idx] if o not in placed]
        anchor = [placed[o] for o in orbitals[idx] if o in placed]
        if unplaced:
            if anchor:
                for o in unplaced:
                    pos = min(free, key=lambda p: (sum(abs(p - a) for a in anchor), p))
                    placed[o] = pos
                    free.remove(pos)
                    anchor.append(pos)
            else:
                win = _best_window(free, len(unplaced), sorted(placed.values()))
                for o, pos in zip(unplaced, win):
                    placed[o] = pos
                    free.remove(pos)
            for o in unplaced:
                for k in sharers[o]:
                    share[k] += 1
        if not todo:
            break
        # the most-similar excitation; ties fall to sort order (max keeps the first)
        best = max(todo, key=share.__getitem__)
        if share[best] > 0:
            current = todo.index(best)
        else:
            current = int(rng.integers(len(todo)))

    positions = [0] * n_spatial
    for orbital in range(n_spatial):
        if orbital in placed:
            positions[orbital] = placed[orbital]
        else:
            positions[orbital] = free.pop(0)
    return QubitMapping.from_spatial_order(positions)


def greedy_map(excs: Sequence, n_qubits: int, seed: int = 0, restarts: int = 32) -> QubitMapping:
    """Lowest-cost mapping over independent greedy runs plus the identity.

    Each run seeds from one shared PRNG stream, so a larger restart budget
    extends (never replaces) a smaller one with the same seed. The identity
    mapping always competes, so the result is never worse than no mapping.
    """
    if not excs:
        raise MappingError("need at least one excitation")
    if n_qubits % 2:
        raise MappingError("qubit count must be even (2 per spatial orbital)")
    n_spatial = n_qubits // 2
    rng = np.random.default_rng(seed)

    orbitals = [sorted(exc.spatial_orbitals()) for exc in excs]
    sharers: dict[int, list[int]] = {}
    for k, orbs in enumerate(orbitals):
        for o in orbs:
            sharers.setdefault(o, []).append(k)
    order = sorted(range(len(excs)), key=lambda k: excs[k].sort_key())

    candidates = [QubitMapping.identity(n_spatial)]
    for _ in range(restarts):
        candidates.append(_greedy_run(orbitals, sharers, order, n_spatial, rng))
    cost = _scorer(excs, n_qubits)
    return min(candidates, key=lambda m: (cost(m.perm), m.perm))
