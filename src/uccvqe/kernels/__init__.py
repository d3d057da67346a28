"""Vectorized numpy statevector kernels for gate-level simulation.

Index convention: qubit 0 is the most significant bit of the amplitude
index, so qubit q strides by 2**(n-1-q).
"""
from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "python"


# Halves whose rows are this short or shorter may be split into 1-d views:
# per gate, splitting rows of 2 and 4 wins on 12-16 qubits, rows of 8 lose
# below 14 qubits and at 18.
_SHORT_ROW = 4
# Factors whose products with an amplitude round once per component (or not
# at all) in every numpy loop.
_EXACT_PHASES = (1, -1, 1j, -1j)


def _halves(state: np.ndarray, q: int, split: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    """(a0, a1) view pairs covering the amplitudes with qubit q at 0 and 1.

    Numpy pays per row of a strided 2-d view, so with ``split`` short rows
    become one 1-d view per row offset. Its contiguous and strided loops may
    round a general complex product differently, so only callers whose
    products round the same in either loop may split.
    """
    row = state.size >> (q + 1)
    view = state.reshape(1 << q, 2, row)
    if split and row <= _SHORT_ROW:
        return [(view[:, 0, j], view[:, 1, j]) for j in range(row)]
    return [(view[:, 0, :], view[:, 1, :])]


def apply_1q(state: np.ndarray, n: int, q: int, m00, m01, m10, m11,
             scratch: np.ndarray) -> None:
    """In-place single-qubit gate with matrix [[m00, m01], [m10, m11]].

    The real Hadamard form r*[[1, 1], [1, -1]] runs as a butterfly through
    ``scratch`` (half the state's length, allocated once by the caller), with
    the rounding of the general expression because (-r)*a1 == -(r*a1).
    """
    if m00 == m01 == m10 == -m11 and np.isreal(m00):
        for a0, a1 in _halves(state, q, split=True):
            b = scratch[: a1.size].reshape(a1.shape)
            np.multiply(a1, m01, out=b)
            a0 *= m00
            np.subtract(a0, b, out=a1)
            a0 += b
        return
    view = state.reshape(1 << q, 2, -1)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = m00 * a0 + m01 * a1
    view[:, 1, :] = m10 * a0 + m11 * a1


def apply_phase(state: np.ndarray, n: int, q: int, p0, p1) -> None:
    """In-place diagonal gate diag(p0, p1) on qubit q; a factor of exactly 1
    is skipped, which changes at most the sign of a zero."""
    split = p0 in _EXACT_PHASES and p1 in _EXACT_PHASES
    for a0, a1 in _halves(state, q, split):
        if p0 != 1:
            a0 *= p0
        if p1 != 1:
            a1 *= p1


def apply_cnot(state: np.ndarray, n: int, control: int, target: int,
               scratch: np.ndarray) -> None:
    """In-place CNOT: swaps the control-1 halves of the target through
    ``scratch`` (1-d, at least a quarter of the state's length)."""
    if control < target:
        view = state.reshape(1 << control, 2, 1 << (target - control - 1), 2, -1)
        a, b = view[:, 1, :, 0, :], view[:, 1, :, 1, :]
    else:
        view = state.reshape(1 << target, 2, 1 << (control - target - 1), 2, -1)
        a, b = view[:, 0, :, 1, :], view[:, 1, :, 1, :]
    tmp = scratch[: a.size].reshape(a.shape)
    np.copyto(tmp, a)
    a[...] = b
    b[...] = tmp


def parity_signs(idx: np.ndarray, z_bits: int) -> np.ndarray:
    """(-1)**popcount(idx & z_bits) as floats: the eigenvalue of a Z-type
    word on each basis index (``idx`` is uint64)."""
    return 1.0 - 2.0 * (np.bitwise_count(idx & np.uint64(z_bits)) & np.uint64(1)).astype(np.float64)


def flip_products(state: np.ndarray, idx: np.ndarray, x_bits: int) -> np.ndarray:
    """conj(psi[i ^ x_bits]) * psi[i] for every basis index i (``idx`` is
    arange(state.size) as uint64): the part of <psi|P|psi> shared by all
    words P with these x bits."""
    return np.conj(state[(idx ^ np.uint64(x_bits)).astype(np.int64)]) * state


def pauli_expectation(state: np.ndarray, n: int, x_bits: int, z_bits: int) -> complex:
    """<psi| P |psi> for the phaseless word P = prod X^x Z^z with Y = 'XZ'.

    ``x_bits``/``z_bits`` are in amplitude-index bit convention. The caller
    accounts for the i**(number of Y) factor.
    """
    idx = np.arange(state.size, dtype=np.uint64)
    return complex(np.sum(flip_products(state, idx, x_bits) * parity_signs(idx, z_bits)))


def apply_pauli_sum(vec: np.ndarray, n: int, table: list[tuple[int, int, complex]]) -> np.ndarray:
    """Matrix-vector product with a Pauli sum given as (x_bits, z_bits, coeff)
    rows, coeff already including the i**nY factor."""
    idx = np.arange(vec.size, dtype=np.uint64)
    out = np.zeros_like(vec)
    for x_bits, z_bits, coeff in table:
        src = idx ^ np.uint64(x_bits)
        out += coeff * parity_signs(src, z_bits) * vec[src.astype(np.int64)]
    return out
