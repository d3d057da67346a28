"""Vectorized numpy statevector kernels for gate-level simulation.

Index convention: qubit 0 is the most significant bit of the amplitude
index, so on n qubits qubit q strides by 2**(n-1-q). The kernels take no
register size: the state's length fixes it.
"""
from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "python"


def apply_1q(state: np.ndarray, q: int, m00, m01, m10, m11) -> None:
    """In-place single-qubit gate with matrix [[m00, m01], [m10, m11]].

    A Hadamard-type matrix (m00 = m01 = m10 = -m11 = s) runs as a butterfly:
    scale the whole state by s, then form (a0 + a1, a0 - a1). That equals
    (m00 a0 + m01 a1, m10 a0 + m11 a1) exactly, since (-s) x = -(s x)."""
    if m00 == m01 == m10 == -m11:
        state *= m00
        a0, a1, order = _halves(state, q)
        t = np.subtract(a0, a1, order=order)
        np.add(a0, a1, out=a0, order=order)
        a1[...] = t
        return
    view = state.reshape(1 << q, 2, -1)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = m00 * a0 + m01 * a1
    view[:, 1, :] = m10 * a0 + m11 * a1


def apply_phase(state: np.ndarray, q: int, p0, p1) -> None:
    """In-place diagonal gate diag(p0, p1) on qubit q; with p0 = 1 (S, SDG)
    only the |1> half is multiplied."""
    a0, a1, order = _halves(state, q)
    if p0 != 1.0:
        np.multiply(a0, p0, out=a0, order=order)
    np.multiply(a1, p1, out=a1, order=order)


def _halves(state: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray, str]:
    """The |0> and |1> halves of qubit q as (blocks, block) views, a block
    being 2**(n-1-q) amplitudes, and the ufunc iteration order for them.
    numpy runs its inner loop along a block, once per block; a block of 2
    to 4 amplitudes (at most a 64-byte cache line) is too short to pay for
    that, so those halves come transposed with C order, which runs the
    inner loop down the blocks instead."""
    view = state.reshape(1 << q, 2, -1)
    if 1 < view.shape[2] <= 4:
        return view[:, 0].T, view[:, 1].T, "C"
    return view[:, 0], view[:, 1], "K"


def apply_cnot(state: np.ndarray, control: int, target: int) -> None:
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


# indices (or records) per pass of a loop whose temporaries grow with their
# number, which bounds the memory a large input takes
BLOCK = 4096


def parity_sums(idx: np.ndarray, z_bits: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_w coeffs[w] * parity_signs(idx, z_bits[w]) on each uint64 index,
    the words added in order to a running sum that starts at zero, as a loop
    ``out += coeffs[w] * parity_signs(idx, z_bits[w])`` does, bit for bit.

    One (words x indices) table per ``BLOCK`` indices; ``np.add.accumulate``
    adds its rows strictly in order (``np.add.reduce`` may not: with one
    column it sums pairwise)."""
    out = np.empty(len(idx), dtype=np.result_type(coeffs, np.float64))
    rows = np.zeros((len(z_bits) + 1, min(len(idx), BLOCK)), dtype=out.dtype)
    for a in range(0, len(idx), BLOCK):
        part = idx[a:a + BLOCK]
        table = rows[:, :len(part)]
        np.multiply(coeffs[:, None], parity_signs(part, z_bits[:, None]), out=table[1:])
        out[a:a + BLOCK] = np.add.accumulate(table, axis=0, out=table)[-1]
    return out


def pauli_expectation(state: np.ndarray, x_bits: int, z_bits: int) -> complex:
    """<psi| P |psi> for the phaseless word P = prod X^x Z^z with Y = 'XZ'.

    ``x_bits``/``z_bits`` are in amplitude-index bit convention. The caller
    accounts for the i**(number of Y) factor.
    """
    idx = np.arange(state.size, dtype=np.uint64)
    flipped = state[(idx ^ np.uint64(x_bits)).astype(np.int64)]
    return complex(np.sum(np.conj(flipped) * state * parity_signs(idx, z_bits)))


def apply_pauli_sum(vec: np.ndarray, table: list[tuple[int, int, complex]]) -> np.ndarray:
    """Matrix-vector product with a Pauli sum given as (x_bits, z_bits, coeff)
    rows, coeff already including the i**nY factor."""
    idx = np.arange(vec.size, dtype=np.uint64)
    out = np.zeros_like(vec)
    for x_bits, z_bits, coeff in table:
        src = idx ^ np.uint64(x_bits)
        out += coeff * parity_signs(src, z_bits) * vec[src.astype(np.int64)]
    return out
