"""Gate-level synthesis of the ansatz and the peephole passes.

Every multi-qubit rotation exp(-i a/2 P) compiles to basis changes into the
Z eigenbasis (H for X, Sdg+H for Y), a CNOT fan-in onto the highest active
qubit, Rz, and the mirror. Consecutive rotations of one excitation differ on
exactly two qubits; their shared ladder structure cancels analytically down
to a CNOT-H-CNOT interface, which the emitter writes directly in its
one-CNOT form (the CX-H-CX identity). The assembled circuit then goes
through one pass of the ``cancel_adjacent`` rule. Synthesis reads Pauli
masks, not axis strings, and handles gates as plain tuples until the
surviving chain becomes ``Gate`` objects. ``rewrite_cx_h_cx`` applies the
same identity to any circuit; synthesis does not call it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .ansatz import ActiveSpace, AnsatzSpec, Excitation
from .mapping import QubitMapping
from .pauli import (MASK_QUBIT_LIMIT, PauliSum, antihermitian_generator, axes_rank,
                    excitation_generators)

GATE_KINDS = ("X", "H", "S", "SDG", "RZ", "CNOT")

# fixed emission order for the 8 rotations of a double excitation
DOUBLE_TERM_ORDER = ("XXXY", "XXYX", "YXYY", "YXXX", "YYXY", "YYYX", "XYYY", "XYXX")

Angle = Union[None, float, tuple[float, str]]


class CircuitError(ValueError):
    pass


@dataclass(frozen=True)
class Gate:
    """One gate; ``angle`` is None, a constant in radians, or a
    (coefficient, parameter name) pair meaning coefficient * parameter."""

    kind: str
    qubits: tuple[int, ...]
    angle: Angle = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise CircuitError(f"unknown gate kind {self.kind!r}")
        if self.kind == "CNOT":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise CircuitError("CNOT needs distinct control and target")
        elif len(self.qubits) != 1:
            raise CircuitError(f"{self.kind} is a single-qubit gate")
        if self.kind == "RZ" and self.angle is None:
            raise CircuitError("RZ needs an angle")

    def resolve_angle(self, params: dict[str, float]) -> float:
        if isinstance(self.angle, tuple):
            coeff, name = self.angle
            if name not in params:
                raise CircuitError(f"unbound parameter {name!r}")
            return coeff * params[name]
        if self.angle is None:
            raise CircuitError(f"{self.kind} carries no angle")
        return float(self.angle)

    def to_line(self) -> str:
        if self.kind == "CNOT":
            return f"CNOT {self.qubits[0]} {self.qubits[1]}"
        if self.kind == "RZ":
            if isinstance(self.angle, tuple):
                return f"RZ {self.qubits[0]} {self.angle[0]!r} {self.angle[1]}"
            return f"RZ {self.qubits[0]} {self.angle!r}"
        return f"{self.kind} {self.qubits[0]}"


class Circuit:
    """Ordered gate list over a fixed register, with named parameters."""

    __slots__ = ("n_qubits", "gates")

    def __init__(self, n_qubits: int, gates: Iterable[Gate] = ()):
        self.n_qubits = n_qubits
        self.gates: tuple[Gate, ...] = tuple(gates)
        for g in self.gates:
            if any(q < 0 or q >= n_qubits for q in g.qubits):
                raise CircuitError(f"gate {g} outside {n_qubits}-qubit register")

    @classmethod
    def _trusted(cls, n_qubits: int, gates: Iterable[Gate]) -> "Circuit":
        """A circuit over gates already known to fit the register, not
        validated again."""
        out = cls.__new__(cls)
        out.n_qubits = n_qubits
        out.gates = tuple(gates)
        return out

    @property
    def parameters(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for g in self.gates:
            if isinstance(g.angle, tuple):
                seen.setdefault(g.angle[1])
        return tuple(seen)

    def cnot_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "CNOT")

    def to_text(self) -> str:
        lines = [f"QUBITS {self.n_qubits}"]
        lines.extend(g.to_line() for g in self.gates)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Circuit":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("QUBITS "):
            raise CircuitError("missing QUBITS header")
        n = int(lines[0].split()[1])
        gates = []
        for ln in lines[1:]:
            tok = ln.split()
            kind = tok[0]
            if kind == "CNOT":
                gates.append(Gate("CNOT", (int(tok[1]), int(tok[2]))))
            elif kind == "RZ":
                if len(tok) == 3:
                    gates.append(Gate("RZ", (int(tok[1]),), float(tok[2])))
                elif len(tok) == 4:
                    gates.append(Gate("RZ", (int(tok[1]),), (float(tok[2]), tok[3])))
                else:
                    raise CircuitError(f"bad RZ line: {ln!r}")
            elif kind in GATE_KINDS:
                gates.append(Gate(kind, (int(tok[1]),)))
            else:
                raise CircuitError(f"unknown gate line: {ln!r}")
        return cls(n, gates)


def count_2qge(circuit: Circuit) -> int:
    """Two-qubit entangling gate equivalents: the CNOT count."""
    return circuit.cnot_count()


# ---------------------------------------------------------------------------
# gate emission on Pauli masks
#
# Synthesis emits gates as plain (kind, qubits, angle) tuples, the fields of a
# ``Gate``, and takes rotations as (x_mask, z_mask, angle) terms in the
# ``PauliWord`` convention (x bit only: X, z bit only: Z, both: Y). Gates
# are cancelled as tuples; only the survivors become ``Gate`` objects.

Op = tuple[str, tuple[int, ...], Angle]


def _bits(mask: int) -> list[int]:
    """The set bit positions of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _open_ops(x: int, z: int, active: Sequence[int]) -> list[Op]:
    """Basis changes into the Z eigenbasis: H for X, Sdg then H for Y."""
    out: list[Op] = []
    for q in active:
        if x >> q & 1:
            if z >> q & 1:
                out.append(("SDG", (q,), None))
            out.append(("H", (q,), None))
    return out


def _close_ops(x: int, z: int, active: Sequence[int]) -> list[Op]:
    """The mirror of ``_open_ops``: H for X, H then S for Y."""
    out: list[Op] = []
    for q in active:
        if x >> q & 1:
            out.append(("H", (q,), None))
            if z >> q & 1:
                out.append(("S", (q,), None))
    return out


def _rewrite_template(c: int, t: int) -> list[Op]:
    """One-CNOT form of CNOT(c,t) H(c) CNOT(c,t): the reversed CNOT dressed
    with S and H gates."""
    return [("S", (c,), None), ("H", (t,), None), ("CNOT", (t, c), None),
            ("SDG", (c,), None), ("S", (t,), None), ("H", (c,), None), ("H", (t,), None)]


def _interface(prev: tuple[int, int], new: tuple[int, int], active: Sequence[int],
               ladder: list[Op]) -> list[Op]:
    """Gates between two adjacent rotations of a gadget chain, given their
    (x_mask, z_mask) pairs, the active qubits and the fan-in ``ladder`` onto
    the target, the last active qubit.

    When the words differ on exactly one non-target qubit u and the target,
    both flipping X<->Y, the inner ladders cancel except for the residual
    single-qubit change and CNOT(u,t) H(u) CNOT(u,t): on u that residual is
    S,H,S (X->Y) or Sdg,H,Sdg (Y->X) with the S layer commuting out through
    the CNOT controls, and on the target it is an X-axis rotation that
    commutes through the fan-in entirely. The CNOT-H-CNOT core is written
    in its one-CNOT form. Anything else falls back to a full close/reopen.
    """
    (px, pz), (nx, nz) = prev, new
    target = active[-1]
    changed = (px ^ nx) | (pz ^ nz)
    rest = changed ^ (1 << target)
    if not (changed >> target & 1 and rest.bit_count() == 1
            and changed & ~(px & nx & (pz ^ nz)) == 0):
        return ladder[::-1] + _close_ops(px, pz, active) + _open_ops(nx, nz, active) + ladder

    u = rest.bit_length() - 1
    # target residual: close(prev)+open(new) = HSH or HSdgH, recoded so the
    # H sits between S-layer gates; the whole triple is an Rx and commutes
    # with every CNOT targeting it.
    t_kind = "SDG" if pz >> target & 1 else "S"
    u_kind = "SDG" if pz >> u & 1 else "S"
    return [(t_kind, (target,), None), ("H", (target,), None), (t_kind, (target,), None),
            (u_kind, (u,), None), *_rewrite_template(u, target), (u_kind, (u,), None)]


def _gadget_chain(terms: Sequence[tuple[int, int, Angle]]) -> list[Op]:
    """Merged chain of Pauli rotations sharing one active qubit set.

    ``terms`` holds (x_mask, z_mask, angle) triples; each implements
    exp(-i angle/2 P). All terms must act on the same qubits.
    """
    support = terms[0][0] | terms[0][1]
    if not support:
        raise CircuitError("rotation with empty support")
    if any(x | z != support for x, z, _ in terms):
        raise CircuitError("chain terms act on different qubit sets")
    active = _bits(support)
    target = active[-1]
    ladder: list[Op] = [("CNOT", (q, target), None) for q in active[:-1]]

    ops = _open_ops(terms[0][0], terms[0][1], active) + ladder
    ops.append(("RZ", (target,), terms[0][2]))
    for (px, pz, _), (x, z, angle) in zip(terms, terms[1:]):
        ops += _interface((px, pz), (x, z), active, ladder)
        ops.append(("RZ", (target,), angle))
    ops += ladder[::-1]
    ops += _close_ops(terms[-1][0], terms[-1][1], active)
    return ops


def _gates(ops: Iterable[Op]) -> list[Gate]:
    """``Gate`` objects for emitted tuples. Gates without an angle are shared
    between equal tuples: a ``Gate`` is immutable."""
    made: dict[Op, Gate] = {}
    out = []
    for op in ops:
        if op[2] is None:
            g = made.get(op)
            if g is None:
                g = made[op] = Gate(*op)
        else:
            g = Gate(*op)
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# peephole passes

def rewrite_cx_h_cx(circuit: Circuit) -> Circuit:
    """Replace every CNOT, H(control), CNOT pattern by its single-CNOT
    equivalent (reversed CNOT dressed with S/H gates), repeatedly until no
    pattern remains. Gates on unrelated qubits may sit inside the pattern.
    """
    gates = list(circuit.gates)
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(gates):
            g = gates[i]
            if g.kind != "CNOT":
                i += 1
                continue
            c, t = g.qubits
            h_at = None
            j = i + 1
            while j < len(gates):
                gj = gates[j]
                if not set(gj.qubits) & {c, t}:
                    j += 1
                    continue
                if h_at is None:
                    if gj.kind == "H" and gj.qubits == (c,):
                        h_at = j
                        j += 1
                        continue
                    break
                if gj.kind == "CNOT" and gj.qubits == (c, t):
                    replacement = _gates(_rewrite_template(c, t))
                    gates[j : j + 1] = []
                    gates[h_at : h_at + 1] = []
                    gates[i : i + 1] = replacement
                    changed = True
                break
            if changed:
                break
            i += 1
    return Circuit(circuit.n_qubits, gates)


_INVERSE = {"H": "H", "X": "X", "CNOT": "CNOT", "S": "SDG", "SDG": "S"}


def _survivors(n_qubits: int, ops: Sequence[tuple]) -> list[bool]:
    """Which of ``ops`` (each starting with kind and qubits) survive
    ``cancel_adjacent``'s pass."""
    alive = [True] * len(ops)
    stacks: list[list[int]] = [[] for _ in range(n_qubits)]
    for i, op in enumerate(ops):
        kind, qubits = op[0], op[1]
        inverse = _INVERSE.get(kind)
        if inverse is not None:
            stack = stacks[qubits[0]]
            if stack:
                top = stack[-1]
                prev = ops[top]
                if (prev[0] == inverse and prev[1] == qubits
                        and all(stacks[q][-1] == top for q in qubits[1:])):
                    alive[top] = False
                    for q in qubits:
                        stacks[q].pop()
                    alive[i] = False
                    continue
        for q in qubits:
            stacks[q].append(i)
    return alive


def cancel_adjacent(circuit: Circuit) -> Circuit:
    """Drop gate pairs that multiply to identity, walking through gates on
    disjoint qubits. Rz gates are never touched.

    One forward pass: each qubit keeps a stack of the surviving gates on it,
    so a gate cancels when every one of its qubits has the same gate on top
    and that gate is its inverse on the same qubit tuple. Popping the pair
    exposes the gates behind it, so cascades cancel as they arrive.
    """
    alive = _survivors(circuit.n_qubits, [(g.kind, g.qubits) for g in circuit.gates])
    return Circuit._trusted(circuit.n_qubits, itertools.compress(circuit.gates, alive))


def _cancelled_circuit(n_qubits: int, ops: Sequence[Op]) -> Circuit:
    """The circuit of emitted ``ops`` after ``cancel_adjacent``'s pass. The
    emitters only place gates on mapped qubits, so it is not re-validated."""
    return Circuit._trusted(n_qubits, _gates(itertools.compress(ops, _survivors(n_qubits, ops))))


# ---------------------------------------------------------------------------
# excitation synthesis

# DOUBLE_TERM_ORDER as Y patterns: bit i set when the i-th X/Y qubit is Y
_DOUBLE_PATTERNS = tuple(sum((a == "Y") << i for i, a in enumerate(label))
                         for label in DOUBLE_TERM_ORDER)


def _rotation_terms(generator: PauliSum, param: str) -> list[tuple[int, int, Angle]]:
    """Split exp(theta * G) into Pauli rotations: a word i*beta*P becomes
    exp(-i (-2 beta theta)/2 P), an (x_mask, z_mask, angle) term."""
    terms = []
    for (x, z), c in generator.items():
        if abs(c.real) > 1e-9:
            raise CircuitError("generator coefficients must be purely imaginary")
        terms.append((x, z, (-2.0 * c.imag, param)))
    return terms


def _generator_chain(exc: Excitation, generator: PauliSum, param: str) -> list[Op]:
    """Uncancelled gadget chain of an unpaired excitation with generator
    ``generator``: the two rotations of a single in axes order, or the eight
    of a double in ``DOUBLE_TERM_ORDER``."""
    terms = _rotation_terms(generator, param)
    if exc.kind == "single":
        n = generator.n
        return _gadget_chain(sorted(terms, key=lambda t: axes_rank(t[0], t[1], n)))
    by_pattern = {}
    support = terms[0][0]
    for x, z, angle in terms:
        if x != support:
            raise CircuitError("double-excitation words disagree on X/Y support")
        pattern = sum((z >> q & 1) << i for i, q in enumerate(_bits(x)))
        by_pattern[pattern] = (x, z, angle)
    if len(by_pattern) != 8:
        raise CircuitError(f"expected 8 rotation terms, got {len(by_pattern)}")
    return _gadget_chain([by_pattern[p] for p in _DOUBLE_PATTERNS])


def _excitation_chain(exc: Excitation, mapping: QubitMapping, param: str) -> list[Op]:
    """``_generator_chain`` of one excitation under ``mapping``."""
    return _generator_chain(exc, antihermitian_generator(exc, mapping), param)


def synth_double_excitation(exc: Excitation, mapping: QubitMapping, param: str) -> Circuit:
    """Merged 8-rotation chain for an unpaired double excitation."""
    if exc.kind != "double" or exc.paired:
        raise CircuitError("expected an unpaired double excitation")
    return _cancelled_circuit(mapping.n_qubits, _excitation_chain(exc, mapping, param))


def synth_single_excitation(exc: Excitation, mapping: QubitMapping, param: str) -> Circuit:
    """Two-rotation chain for a single excitation."""
    if exc.kind != "single":
        raise CircuitError("expected a single excitation")
    return _cancelled_circuit(mapping.n_qubits, _excitation_chain(exc, mapping, param))


def _paired_ops(exc: Excitation, mapping: QubitMapping, param: str) -> list[Op]:
    qi = mapping.alpha_qubit(exc.occ[0])
    qa = mapping.alpha_qubit(exc.virt[0])
    angle: Angle = (1.0, param)
    # temporal realization of (I x S) C CX (Rx x Rz) CX Cdag (I x Sdg) with
    # C = Rx(pi/2) x Rx(pi/2); Rx(pi/2) = Sdg H Sdg, Rx(-pi/2) = S H S, and
    # Rx(theta) = H Rz(theta) H
    ops: list[Op] = [("SDG", (qa,), None)]
    for q in (qi, qa):
        ops += [("S", (q,), None), ("H", (q,), None), ("S", (q,), None)]
    ops += [("CNOT", (qi, qa), None),
            ("H", (qi,), None), ("RZ", (qi,), angle), ("H", (qi,), None),
            ("RZ", (qa,), angle),
            ("CNOT", (qi, qa), None)]
    for q in (qi, qa):
        ops += [("SDG", (q,), None), ("H", (q,), None), ("SDG", (q,), None)]
    ops.append(("S", (qa,), None))
    return ops


def synth_paired_excitation(exc: Excitation, mapping: QubitMapping,
                            param: Optional[str] = None) -> Circuit:
    """Two-CNOT rotation between the occupation states |10> and |01> of the
    two spatial-orbital qubits carrying a paired excitation.

    The block acts on the alpha-register qubits before the spatial-to-spin
    fan-out, where qubit k encodes whether spatial orbital k holds an
    electron pair.
    """
    if not exc.paired:
        raise CircuitError("expected a paired double excitation")
    return Circuit(mapping.n_qubits, _gates(_paired_ops(exc, mapping, param or exc.param_name)))


def _fan_out_ops(mapping: QubitMapping, orbitals: Sequence[int]) -> list[Op]:
    return [("CNOT", (mapping.alpha_qubit(k), mapping.beta_qubit(k)), None) for k in orbitals]


def synth_spatial_to_spin(mapping: QubitMapping, active_space: ActiveSpace) -> Circuit:
    """Fan the alpha-register occupations out onto the beta register: one
    CNOT per spatial orbital."""
    return Circuit(mapping.n_qubits,
                   _gates(_fan_out_ops(mapping, range(active_space.n_orbitals))))


def build_ansatz_circuit(spec: AnsatzSpec, mapping: QubitMapping) -> Circuit:
    """Full state-preparation circuit: X gates loading the Hartree-Fock
    pairs on the alpha register, all paired-excitation blocks, the
    spatial-to-spin fan-out, then every unpaired excitation chain, with one
    ``cancel_adjacent`` pass over the whole. The fan-out skips an orbital
    that neither the reference occupies nor a paired excitation reaches: its
    alpha qubit is still |0>, so its CNOT would act as the identity. The
    generators of the unpaired excitations are built in one batch, so the
    register is capped at ``MASK_QUBIT_LIMIT`` qubits."""
    if mapping.n_qubits != spec.active_space.n_qubits:
        raise CircuitError(
            f"mapping register ({mapping.n_qubits}) != ansatz register "
            f"({spec.active_space.n_qubits})"
        )
    if mapping.n_qubits > MASK_QUBIT_LIMIT:
        raise CircuitError(f"{mapping.n_qubits} qubits exceed the {MASK_QUBIT_LIMIT} that the "
                           "uint64 Pauli masks of the excitation generators hold")
    ops: list[Op] = [("X", (mapping.alpha_qubit(k),), None)
                     for k in range(spec.active_space.n_occupied)]
    paired, unpaired = ([spec.excitations[k] for k in part] for part in spec.build_order())
    for exc in paired:
        ops += _paired_ops(exc, mapping, exc.param_name)
    filled = set(range(spec.active_space.n_occupied)).union(exc.virt[0] for exc in paired)
    ops += _fan_out_ops(mapping, sorted(filled))
    for exc, generator in zip(unpaired, excitation_generators(unpaired, mapping)):
        ops += _generator_chain(exc, generator, exc.param_name)
    return _cancelled_circuit(mapping.n_qubits, ops)
