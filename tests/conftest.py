import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from uccvqe.ansatz import ActiveSpace, enumerate_excitations
from uccvqe.hamio import ActiveSelection, MolecularIntegrals, build_qubit_hamiltonian, parse_fcidump
from uccvqe.mapping import QubitMapping
from uccvqe.pauli import PauliSum, PauliWord
from uccvqe.sim import Statevector
from uccvqe.symmetry import OrbitalSymmetry

DATA_DIR = Path(__file__).parent / "data"

# 4-orbital pi active space of benzene in D2h labels: the two occupied
# orbitals are B2g/B3g, the two virtuals Au/B1u.
BENZENE_PI_LABELS = (6, 7, 8, 5)


@pytest.fixture(scope="session")
def h2_path() -> str:
    return str(DATA_DIR / "h2_sto3g.fcidump")


@pytest.fixture(scope="session")
def h2_ints(h2_path) -> MolecularIntegrals:
    return parse_fcidump(h2_path)


@pytest.fixture(scope="session")
def h2_hamiltonian(h2_ints):
    return build_qubit_hamiltonian(h2_ints, ActiveSelection.full(h2_ints), QubitMapping.identity(2))


@pytest.fixture(scope="session")
def h2_spec(h2_ints):
    return enumerate_excitations("uccdab", ActiveSpace(2, 2), h2_ints.orbsym)


@pytest.fixture(scope="session")
def benzene_pi_symmetry() -> OrbitalSymmetry:
    return OrbitalSymmetry.from_labels(BENZENE_PI_LABELS)


def make_closed_shell_2o(seed: int) -> MolecularIntegrals:
    """Random two-orbital singlet instance with symmetry-distinct orbitals.

    Only totally-symmetric integrals are drawn, mirroring a homonuclear
    diatomic: the cross one-electron element and odd two-electron blocks
    vanish, so single excitations are symmetry-forbidden and the sector
    ground state stays in the paired (closed-shell) block for the
    magnitudes used here. Callers should still verify closed-shell
    character via `closed_shell_reference` when exactness matters.
    """
    r = np.random.default_rng(seed)
    h = np.diag([-1.5 + 0.2 * r.normal(), -0.4 + 0.2 * r.normal()])
    g = np.zeros((2, 2, 2, 2))

    def set8(p, q, rr, s, v):
        for a, b, c, d in ((p, q, rr, s), (q, p, rr, s), (p, q, s, rr), (q, p, s, rr),
                           (rr, s, p, q), (s, rr, p, q), (rr, s, q, p), (s, rr, q, p)):
            g[a, b, c, d] = v

    set8(0, 0, 0, 0, 0.6 + 0.1 * r.normal())
    set8(1, 1, 1, 1, 0.6 + 0.1 * r.normal())
    set8(0, 0, 1, 1, 0.5 + 0.1 * r.normal())
    set8(0, 1, 0, 1, 0.15 + 0.05 * abs(r.normal()))
    return MolecularIntegrals(2, 2, 0, 0.5 * r.normal(), h, g, OrbitalSymmetry.from_labels([1, 5]))


def random_integrals(n: int, n_electrons: int, rng) -> MolecularIntegrals:
    """Real integrals with the 8-fold symmetry of (pq|rs)."""
    h = rng.normal(scale=0.5, size=(n, n))
    h = (h + h.T) / 2 - np.diag(np.arange(n, 0, -1.0))
    a = rng.normal(scale=0.2, size=(n, n, n, n))
    # one symmetrizing sum per index swap keeps all eight symmetries exact
    # in floating point, as an FCIDUMP write and parse round trip needs
    g = a + a.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    return MolecularIntegrals(n, n_electrons, 0, float(rng.normal()), h, g,
                              OrbitalSymmetry.all_symmetric(n))


def random_block_mapping(n: int, rng) -> QubitMapping:
    return QubitMapping.from_spatial_order(tuple(int(p) for p in rng.permutation(n)))


def coefficient(terms: PauliSum, axes: str) -> complex:
    """The coefficient of the word ``axes`` in ``terms`` (0 when absent)."""
    w = PauliWord.from_axes(axes)
    return dict(terms.items()).get((w.x_mask, w.z_mask), 0j)


def word_sum(axes: str, coefficient: complex = 1.0) -> PauliSum:
    """The one-word sum ``coefficient`` times ``axes``."""
    return PauliSum(len(axes), [PauliWord.from_axes(axes, coefficient)])


def basis_state(bits: str) -> Statevector:
    """The computational basis state |bits> (qubit 0 leftmost)."""
    amps = np.zeros(1 << len(bits), dtype=np.complex128)
    amps[int(bits, 2)] = 1.0
    return Statevector(len(bits), amps)


def closed_shell_reference(ints: MolecularIntegrals) -> float:
    """Ground energy of the paired two-determinant block (2x2 CI)."""
    e1 = ints.core_energy + 2 * ints.h[0, 0] + ints.g[0, 0, 0, 0]
    e2 = ints.core_energy + 2 * ints.h[1, 1] + ints.g[1, 1, 1, 1]
    k = ints.g[0, 1, 0, 1]
    return float(np.linalg.eigvalsh(np.array([[e1, k], [k, e2]]))[0])


def benzene_fcidump_path() -> str | None:
    """Path to a user-supplied benzene FCIDUMP, when present."""
    env = os.environ.get("UCCVQE_BENZENE_FCIDUMP")
    if env and Path(env).exists():
        return env
    default = DATA_DIR / "benzene_cas44.fcidump"
    return str(default) if default.exists() else None
