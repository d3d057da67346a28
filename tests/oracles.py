"""Independent dense-matrix oracles shared across the test suite.

Everything here is built directly from numpy primitives (kron products,
occupation-number ladder matrices, scipy expm) so it exercises none of the
code paths under test.
"""
import numpy as np
from scipy.linalg import expm

from uccvqe.pauli import FermionTerm, PauliSum, PauliWord
from uccvqe.sim import Statevector, apply_circuit

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
PAULI_1Q = {"I": I2, "X": X, "Y": Y, "Z": Z}


def word_matrix(word: PauliWord) -> np.ndarray:
    m = np.array([[word.coefficient]], dtype=complex)
    for axis in word.axes:
        m = np.kron(m, PAULI_1Q[axis])
    return m


def sum_matrix(terms: PauliSum) -> np.ndarray:
    dim = 1 << terms.n
    out = np.zeros((dim, dim), dtype=complex)
    for w in terms.words():
        out += word_matrix(w)
    return out


def ladder_matrix(p: int, dagger: bool, n: int) -> np.ndarray:
    """Fermionic creation/annihilation in the occupation basis, mode 0 in the
    most significant bit, with the standard ordered-product sign."""
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    for s in range(dim):
        occ = [(s >> (n - 1 - q)) & 1 for q in range(n)]
        if dagger and not occ[p]:
            m[s | (1 << (n - 1 - p)), s] = (-1) ** sum(occ[:p])
        elif not dagger and occ[p]:
            m[s & ~(1 << (n - 1 - p)), s] = (-1) ** sum(occ[:p])
    return m


def fermion_matrix(term: FermionTerm, n: int) -> np.ndarray:
    m = np.eye(1 << n, dtype=complex) * term.coefficient
    for p, dag in term.ops:
        m = m @ ladder_matrix(p, dag, n)
    return m


def circuit_unitary(circuit, params=None) -> np.ndarray:
    dim = 1 << circuit.n_qubits
    u = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[col] = 1.0
        u[:, col] = apply_circuit(Statevector(circuit.n_qubits, amps), circuit, params or {}).amplitudes
    return u


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float) -> tuple[bool, float]:
    anchor = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(a[anchor]) < 1e-13:
        return False, float("inf")
    phase = b[anchor] / a[anchor]
    dev = float(np.max(np.abs(a * phase - b)))
    return dev < tol, dev


def shot_values_by_string(group, histogram) -> tuple[np.ndarray, np.ndarray]:
    """Per-bitstring group totals read character by character: a word is
    (-1)**(number of '1's on its support), summed in ``group.words`` order."""
    values, weights = [], []
    for bits, count in sorted(histogram.counts.items()):
        total = 0.0
        for w in group.words:
            ones = sum(bits[q] == "1" for q in w.support)
            total += w.coefficient.real * (-1 if ones % 2 else 1)
        values.append(total)
        weights.append(count)
    return np.asarray(values), np.asarray(weights, dtype=np.float64)


def exp_generator(generator: PauliSum, theta: float) -> np.ndarray:
    return expm(theta * sum_matrix(generator))


# D2h character table over the operations (E, C2z, C2y, C2x, i, s_xy, s_xz,
# s_yz); rows ordered by the ORBSYM label convention (Ag, B3u, B2u, B1g,
# B1u, B2g, B3g, Au). Multiplying characters pointwise and matching the
# result row gives an irrep product oracle that never touches XOR codes.
D2H_CHARACTERS = {
    1: (1, 1, 1, 1, 1, 1, 1, 1),      # Ag
    2: (1, -1, -1, 1, -1, 1, 1, -1),  # B3u
    3: (1, -1, 1, -1, -1, 1, -1, 1),  # B2u
    4: (1, 1, -1, -1, 1, 1, -1, -1),  # B1g
    5: (1, 1, -1, -1, -1, -1, 1, 1),  # B1u
    6: (1, -1, 1, -1, 1, -1, 1, -1),  # B2g
    7: (1, -1, -1, 1, 1, -1, -1, 1),  # B3g
    8: (1, 1, 1, 1, -1, -1, -1, -1),  # Au
}


def d2h_product_label(a: int, b: int) -> int:
    chars = tuple(x * y for x, y in zip(D2H_CHARACTERS[a], D2H_CHARACTERS[b]))
    for label, row in D2H_CHARACTERS.items():
        if row == chars:
            return label
    raise AssertionError(f"no irrep with characters {chars}")
