"""Vectorized numpy statevector kernels for gate-level simulation.

Index convention: qubit 0 is the most significant bit of the amplitude
index, so qubit q strides by 2**(n-1-q).
"""
from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "python"


def apply_1q(state: np.ndarray, n: int, q: int, m00, m01, m10, m11) -> None:
    """In-place single-qubit gate with matrix [[m00, m01], [m10, m11]]."""
    view = state.reshape(1 << q, 2, -1)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = m00 * a0 + m01 * a1
    view[:, 1, :] = m10 * a0 + m11 * a1


def apply_phase(state: np.ndarray, n: int, q: int, p0, p1) -> None:
    """In-place diagonal gate diag(p0, p1) on qubit q."""
    view = state.reshape(1 << q, 2, -1)
    view[:, 0, :] *= p0
    view[:, 1, :] *= p1


def apply_cnot(state: np.ndarray, n: int, control: int, target: int) -> None:
    """In-place CNOT: swaps the control-1 halves of the target."""
    if control < target:
        view = state.reshape(1 << control, 2, 1 << (target - control - 1), 2, -1)
        a, b = view[:, 1, :, 0, :], view[:, 1, :, 1, :]
    else:
        view = state.reshape(1 << target, 2, 1 << (control - target - 1), 2, -1)
        a, b = view[:, 0, :, 1, :], view[:, 1, :, 1, :]
    tmp = a.copy()
    a[...] = b
    b[...] = tmp


def parity_signs(idx: np.ndarray, z_bits: int) -> np.ndarray:
    """(-1)**popcount(idx & z_bits) as floats: the eigenvalue of a Z-type
    word on each basis index (``idx`` is uint64)."""
    return 1.0 - 2.0 * (np.bitwise_count(idx & np.uint64(z_bits)) & np.uint64(1)).astype(np.float64)


def pauli_expectation(state: np.ndarray, n: int, x_bits: int, z_bits: int) -> complex:
    """<psi| P |psi> for the phaseless word P = prod X^x Z^z with Y = 'XZ'.

    ``x_bits``/``z_bits`` are in amplitude-index bit convention. The caller
    accounts for the i**(number of Y) factor.
    """
    idx = np.arange(state.size, dtype=np.uint64)
    flipped = state[(idx ^ np.uint64(x_bits)).astype(np.int64)]
    return complex(np.sum(np.conj(flipped) * state * parity_signs(idx, z_bits)))


def apply_pauli_sum(vec: np.ndarray, n: int, table: list[tuple[int, int, complex]]) -> np.ndarray:
    """Matrix-vector product with a Pauli sum given as (x_bits, z_bits, coeff)
    rows, coeff already including the i**nY factor."""
    idx = np.arange(vec.size, dtype=np.uint64)
    out = np.zeros_like(vec)
    for x_bits, z_bits, coeff in table:
        src = idx ^ np.uint64(x_bits)
        out += coeff * parity_signs(src, z_bits) * vec[src.astype(np.int64)]
    return out
