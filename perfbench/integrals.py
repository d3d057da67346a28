"""Seeded synthetic FCIDUMP instances for the pipeline benchmark.

The integrals are built to look like a real closed-shell molecule in its
canonical Hartree-Fock orbitals:

- the two-electron block is a sum of outer products of symmetric
  "Cholesky" matrices, g_pqrs = sum_k L^k_pq L^k_rs, so it has the 8-fold
  permutational symmetry and is positive semidefinite as a (pq),(rs) matrix;
- every L^k carries one irrep code and is nonzero only on orbital pairs of
  that code, so integrals that the ORBSYM labels forbid are exactly zero;
- the one-electron block is solved from chosen orbital energies so the Fock
  matrix of the aufbau determinant is diagonal (canonical orbitals), which
  keeps doubles-only ansatze meaningful.

Every number is a fixed base draw plus a small seeded perturbation, so a
different seed gives different integrals with the same structure.
"""
from __future__ import annotations

import numpy as np

from uccvqe.hamio import MolecularIntegrals, parse_fcidump, write_fcidump
from uccvqe.symmetry import OrbitalSymmetry

# H2 in STO-3G at 0.7414 Angstrom in canonical RHF orbitals (sigma_g, sigma_u),
# the two-orbital instance of the paper's CAS(2,2) count.
H2_STO3G = {
    "h": ((-1.252477495, 0.0), (0.0, -0.475934275)),
    "g": {(0, 0, 0, 0): 0.674493166, (1, 1, 1, 1): 0.697397950,
          (0, 0, 1, 1): 0.663472101, (0, 1, 0, 1): 0.181287518},
    "core": 0.713753990,
    "orbsym": (1, 5),
}

# Every instance perturbs one fixed draw by JITTER of its spread, so seeds
# give different integrals with the same structure and comparable run times
# and energy gaps.
BASE_SEED = 20230801
JITTER = 0.005

# Benzene pi orbitals in D2h labels: occupied B2g, B3g; virtual Au, B1u.
BENZENE_PI_ORBSYM = (6, 7, 8, 5)


def h2_sto3g() -> MolecularIntegrals:
    h = np.array(H2_STO3G["h"])
    g = np.zeros((2, 2, 2, 2))
    for (p, q, r, s), v in H2_STO3G["g"].items():
        for a, b, c, d in ((p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                           (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p)):
            g[a, b, c, d] = v
    return MolecularIntegrals(2, 2, 0, H2_STO3G["core"], h, g,
                              OrbitalSymmetry.from_labels(H2_STO3G["orbsym"]))


def synthetic(n_orbitals: int, n_electrons: int, seed: int,
              orbsym: tuple[int, ...] | None = None) -> MolecularIntegrals:
    """Closed-shell integrals over ``n_orbitals`` canonical orbitals."""
    if n_electrons % 2 or not 0 < n_electrons < 2 * n_orbitals:
        raise ValueError(f"need an even electron count below {2 * n_orbitals}")
    labels = orbsym or (1,) * n_orbitals
    if len(labels) != n_orbitals:
        raise ValueError(f"{len(labels)} ORBSYM labels for {n_orbitals} orbitals")
    base = np.random.default_rng(BASE_SEED)
    jitter = np.random.default_rng(seed)

    def draw(*shape):
        return base.standard_normal(shape) + JITTER * jitter.standard_normal(shape)

    n = n_orbitals
    n_occ = n_electrons // 2
    code = np.array([lab - 1 for lab in labels])
    pair_code = code[:, None] ^ code[None, :]
    dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))

    vectors = []
    # Totally symmetric density-like vector: on-site Coulomb ~0.45 Eh.
    dens = np.diag(np.sqrt(0.45 + 0.02 * draw(n)))
    dens += np.where(pair_code == 0, 0.06 * draw(n, n) / (1 + dist), 0.0)
    vectors.append(dens)
    # Weaker vectors per irrep code: exchange and pair-scattering integrals.
    for c in sorted(set(pair_code.ravel().tolist())):
        for _ in range(2):
            vectors.append(np.where(pair_code == c, 0.22 * draw(n, n) / (1 + 0.3 * dist), 0.0))
    chol = np.array([(v + v.T) / 2 for v in vectors])
    g = np.einsum("kpq,krs->pqrs", chol, chol)

    occ_eps = -0.75 + 0.3 * np.arange(n_occ) / n_occ
    vir_eps = 0.1 + 0.6 * np.arange(n - n_occ) / (n - n_occ)
    eps = np.concatenate([occ_eps, vir_eps]) + 0.02 * draw(n)
    h = np.diag(eps) - _fock_2e(g, n_occ)
    h = (h + h.T) / 2
    core = 2.0 + 0.1 * draw()
    return MolecularIntegrals(n, n_electrons, 0, float(core), h, g,
                              OrbitalSymmetry.from_labels(labels))


def _fock_2e(g: np.ndarray, n_occ: int) -> np.ndarray:
    """Two-electron part of the Fock matrix of the aufbau determinant."""
    occ = slice(0, n_occ)
    return 2 * np.einsum("pqii->pq", g[:, :, occ, occ]) - np.einsum("piiq->pq", g[:, occ, occ, :])


def write_checked(path: str, ints: MolecularIntegrals) -> MolecularIntegrals:
    """Write with ``write_fcidump``, read back with ``parse_fcidump``, and
    require an exact round trip, canonical orbitals and a positive
    semidefinite two-electron block."""
    write_fcidump(path, ints)
    back = parse_fcidump(path)
    n = back.n_orbitals
    if back.orbsym.labels() != ints.orbsym.labels():
        raise ValueError(f"{path}: ORBSYM did not round-trip")
    if not (np.allclose(back.h, ints.h, rtol=0, atol=1e-14)
            and np.allclose(back.g, ints.g, rtol=0, atol=1e-14)
            and abs(back.core_energy - ints.core_energy) < 1e-14):
        raise ValueError(f"{path}: integrals did not round-trip")
    fock = back.h + _fock_2e(back.g, back.n_electrons // 2)
    if np.max(np.abs(fock - np.diag(np.diag(fock)))) > 1e-12:
        raise ValueError(f"{path}: orbitals are not canonical")
    if np.linalg.eigvalsh(back.g.reshape(n * n, n * n))[0] < -1e-12:
        raise ValueError(f"{path}: two-electron block is not positive semidefinite")
    return back
