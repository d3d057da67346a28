"""Gate-level synthesis of the ansatz and the peephole passes.

Every multi-qubit rotation exp(-i a/2 P) compiles to basis changes into the
Z eigenbasis (H for X, Sdg+H for Y), a CNOT fan-in onto the highest active
qubit, Rz, and the mirror. Consecutive rotations of one excitation differ on
exactly two qubits; their shared ladder structure cancels analytically down
to a CNOT-H-CNOT interface, which the emitter writes directly in its
one-CNOT form (the CX-H-CX identity). The assembled circuit then goes
through one ``cancel_adjacent`` pass. ``rewrite_cx_h_cx`` applies the same
identity to any circuit; synthesis does not call it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .ansatz import ActiveSpace, AnsatzSpec, Excitation
from .mapping import QubitMapping
from .pauli import PauliSum, antihermitian_generator

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

    @property
    def parameters(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for g in self.gates:
            if isinstance(g.angle, tuple):
                seen.setdefault(g.angle[1])
        return tuple(seen)

    def cnot_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "CNOT")

    def __len__(self) -> int:
        return len(self.gates)

    def __add__(self, other: "Circuit") -> "Circuit":
        if self.n_qubits != other.n_qubits:
            raise CircuitError("register sizes differ")
        return Circuit(self.n_qubits, self.gates + other.gates)

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
# basis-change helpers (temporal gate lists)

def _open_basis(axis: str, q: int) -> list[Gate]:
    if axis == "X":
        return [Gate("H", (q,))]
    if axis == "Y":
        return [Gate("SDG", (q,)), Gate("H", (q,))]
    return []


def _close_basis(axis: str, q: int) -> list[Gate]:
    if axis == "X":
        return [Gate("H", (q,))]
    if axis == "Y":
        return [Gate("H", (q,)), Gate("S", (q,))]
    return []


def _ladder(active: Sequence[int], target: int) -> list[Gate]:
    return [Gate("CNOT", (q, target)) for q in active if q != target]


def _rewrite_template(c: int, t: int) -> list[Gate]:
    """One-CNOT form of CNOT(c,t) H(c) CNOT(c,t): the reversed CNOT dressed
    with S and H gates."""
    return [
        Gate("S", (c,)),
        Gate("H", (t,)),
        Gate("CNOT", (t, c)),
        Gate("SDG", (c,)),
        Gate("S", (t,)),
        Gate("H", (c,)),
        Gate("H", (t,)),
    ]


def _interface(prev: str, new: str, active: Sequence[int], target: int) -> list[Gate]:
    """Gates between two adjacent rotations of a gadget chain, given their
    full axes strings.

    When the axes differ on exactly one non-target qubit u and the target,
    both flipping X<->Y, the inner ladders cancel except for the residual
    single-qubit change and CNOT(u,t) H(u) CNOT(u,t): on u that residual is
    S,H,S (X->Y) or Sdg,H,Sdg (Y->X) with the S layer commuting out through
    the CNOT controls, and on the target it is an X-axis rotation that
    commutes through the fan-in entirely. The CNOT-H-CNOT core is written
    in its one-CNOT form. Anything else falls back to a full close/reopen.
    """
    changed = [q for q in active if prev[q] != new[q]]
    if not (len(changed) == 2 and changed[1] == target
            and all({prev[q], new[q]} == {"X", "Y"} for q in changed)):
        out = _ladder(active, target)[::-1]
        for q in active:
            out.extend(_close_basis(prev[q], q))
        for q in active:
            out.extend(_open_basis(new[q], q))
        out.extend(_ladder(active, target))
        return out

    u = changed[0]
    # target residual: close(prev)+open(new) = HSH or HSdgH, recoded so the
    # H sits between S-layer gates; the whole triple is an Rx and commutes
    # with every CNOT targeting it.
    t_kind = "SDG" if prev[target] == "Y" else "S"
    u_kind = "SDG" if prev[u] == "Y" else "S"
    return [Gate(t_kind, (target,)), Gate("H", (target,)), Gate(t_kind, (target,)),
            Gate(u_kind, (u,)), *_rewrite_template(u, target), Gate(u_kind, (u,))]


def _gadget_chain(terms: Sequence[tuple[str, Angle]]) -> list[Gate]:
    """Merged chain of Pauli rotations sharing one active qubit set.

    ``terms`` holds (full axes string, angle) pairs; each implements
    exp(-i angle/2 P). All terms must act on the same qubits.
    """
    first_axes = terms[0][0]
    active = [q for q, a in enumerate(first_axes) if a != "I"]
    if not active:
        raise CircuitError("rotation with empty support")
    for axes, _ in terms:
        if [q for q, a in enumerate(axes) if a != "I"] != active:
            raise CircuitError("chain terms act on different qubit sets")
    target = active[-1]

    gates: list[Gate] = []
    for q in active:
        gates.extend(_open_basis(first_axes[q], q))
    gates.extend(_ladder(active, target))
    gates.append(Gate("RZ", (target,), terms[0][1]))
    for (prev, _), (axes, angle) in zip(terms, terms[1:]):
        gates.extend(_interface(prev, axes, active, target))
        gates.append(Gate("RZ", (target,), angle))
    gates.extend(_ladder(active, target)[::-1])
    for q in active:
        gates.extend(_close_basis(terms[-1][0][q], q))
    return gates


def synth_pauli_rotation(word_axes: str, angle: Angle, n: Optional[int] = None) -> Circuit:
    """Circuit for exp(-i angle/2 P) with P given as an axes string."""
    n = len(word_axes) if n is None else n
    return Circuit(n, _gadget_chain([(word_axes, angle)]))


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
                    replacement = _rewrite_template(c, t)
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


def cancel_adjacent(circuit: Circuit) -> Circuit:
    """Drop gate pairs that multiply to identity, walking through gates on
    disjoint qubits. Rz gates are never touched.

    One forward pass: each qubit keeps a stack of the surviving gates on it,
    so a gate cancels when every one of its qubits has the same gate on top
    and that gate is its inverse on the same qubit tuple. Popping the pair
    exposes the gates behind it, so cascades cancel as they arrive.
    """
    kept: list[Optional[Gate]] = []
    stacks: list[list[int]] = [[] for _ in range(circuit.n_qubits)]
    for g in circuit.gates:
        tops = {stacks[q][-1] if stacks[q] else -1 for q in g.qubits}
        if len(tops) == 1:
            top = tops.pop()
            prev = kept[top] if top >= 0 else None
            if (prev is not None and _INVERSE.get(prev.kind) == g.kind
                    and prev.qubits == g.qubits):
                kept[top] = None
                for q in g.qubits:
                    stacks[q].pop()
                continue
        for q in g.qubits:
            stacks[q].append(len(kept))
        kept.append(g)
    return Circuit(circuit.n_qubits, [g for g in kept if g is not None])


# ---------------------------------------------------------------------------
# excitation synthesis

def _rotation_terms(generator: PauliSum, param: str) -> list[tuple[str, Angle]]:
    """Split exp(theta * G) into Pauli rotations: a word i*beta*P becomes
    exp(-i (-2 beta theta)/2 P)."""
    terms = []
    for w in generator.words():
        if abs(w.coefficient.real) > 1e-9:
            raise CircuitError("generator coefficients must be purely imaginary")
        terms.append((w.axes, (-2.0 * w.coefficient.imag, param)))
    return terms


def _param_name(exc: Excitation) -> str:
    return f"t{exc.param_id}"


def _excitation_chain(exc: Excitation, mapping: QubitMapping, param: str) -> list[Gate]:
    """Uncancelled gadget chain of an unpaired excitation: the two rotations
    of a single in axes order, or the eight of a double in
    ``DOUBLE_TERM_ORDER``."""
    terms = _rotation_terms(antihermitian_generator(exc, mapping), param)
    if exc.kind == "single":
        return _gadget_chain(sorted(terms, key=lambda t: t[0]))
    by_label = {}
    support = None
    for axes, angle in terms:
        xy = [q for q, a in enumerate(axes) if a in "XY"]
        if support is None:
            support = xy
        elif xy != support:
            raise CircuitError("double-excitation words disagree on X/Y support")
        by_label["".join(axes[q] for q in xy)] = (axes, angle)
    if len(by_label) != 8:
        raise CircuitError(f"expected 8 rotation terms, got {len(by_label)}")
    return _gadget_chain([by_label[label] for label in DOUBLE_TERM_ORDER])


def synth_double_excitation(exc: Excitation, mapping: QubitMapping,
                            param: Optional[str] = None) -> Circuit:
    """Merged 8-rotation chain for an unpaired double excitation."""
    if exc.kind != "double" or exc.paired:
        raise CircuitError("expected an unpaired double excitation")
    chain = _excitation_chain(exc, mapping, param or _param_name(exc))
    return cancel_adjacent(Circuit(mapping.n_qubits, chain))


def synth_single_excitation(exc: Excitation, mapping: QubitMapping,
                            param: Optional[str] = None) -> Circuit:
    """Two-rotation chain for a single excitation."""
    if exc.kind != "single":
        raise CircuitError("expected a single excitation")
    chain = _excitation_chain(exc, mapping, param or _param_name(exc))
    return cancel_adjacent(Circuit(mapping.n_qubits, chain))


def _rx_gates(q: int, angle: Angle) -> list[Gate]:
    # Rx(theta) = H Rz(theta) H
    return [Gate("H", (q,)), Gate("RZ", (q,), angle), Gate("H", (q,))]


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
    param = param or _param_name(exc)
    qi = mapping.alpha_qubit(exc.occ[0])
    qa = mapping.alpha_qubit(exc.virt[0])
    n = mapping.n_qubits
    angle: Angle = (1.0, param)
    gates: list[Gate] = []
    # temporal realization of (I x S) C CX (Rx x Rz) CX Cdag (I x Sdg) with
    # C = Rx(pi/2) x Rx(pi/2); Rx(pi/2) = Sdg H Sdg, Rx(-pi/2) = S H S
    gates.append(Gate("SDG", (qa,)))
    for q in (qi, qa):
        gates += [Gate("S", (q,)), Gate("H", (q,)), Gate("S", (q,))]
    gates.append(Gate("CNOT", (qi, qa)))
    gates += _rx_gates(qi, angle)
    gates.append(Gate("RZ", (qa,), angle))
    gates.append(Gate("CNOT", (qi, qa)))
    for q in (qi, qa):
        gates += [Gate("SDG", (q,)), Gate("H", (q,)), Gate("SDG", (q,))]
    gates.append(Gate("S", (qa,)))
    return Circuit(n, gates)


def synth_spatial_to_spin(mapping: QubitMapping, active_space: ActiveSpace) -> Circuit:
    """Fan the alpha-register occupations out onto the beta register: one
    CNOT per spatial orbital."""
    gates = [
        Gate("CNOT", (mapping.alpha_qubit(k), mapping.beta_qubit(k)))
        for k in range(active_space.n_orbitals)
    ]
    return Circuit(mapping.n_qubits, gates)


def build_ansatz_circuit(spec: AnsatzSpec, mapping: QubitMapping) -> Circuit:
    """Full state-preparation circuit: X gates loading the Hartree-Fock
    pairs on the alpha register, all paired-excitation blocks, the
    spatial-to-spin fan-out, then every unpaired excitation chain."""
    if mapping.n_qubits != spec.active_space.n_qubits:
        raise CircuitError(
            f"mapping register ({mapping.n_qubits}) != ansatz register "
            f"({spec.active_space.n_qubits})"
        )
    gates: list[Gate] = []
    for k in range(spec.active_space.n_occupied):
        gates.append(Gate("X", (mapping.alpha_qubit(k),)))
    for exc in spec.excitations:
        if exc.paired:
            gates.extend(synth_paired_excitation(exc, mapping).gates)
    gates.extend(synth_spatial_to_spin(mapping, spec.active_space).gates)
    for exc in spec.excitations:
        if not exc.paired:
            gates.extend(_excitation_chain(exc, mapping, _param_name(exc)))
    return cancel_adjacent(Circuit(mapping.n_qubits, gates))
