"""Agreement of the symmetry-block fast path with the gate-level circuit.

The optimizer evaluates energies and gradients from generator exponentials
on the reference block: the spin sector, cut to the Hartree-Fock irrep when
the ansatz was screened; sampling and the HF check run the compiled
circuit. These tests pin the two to each other for every variant, random
block mappings, random irreps and random parameters.
"""
import dataclasses

import numpy as np
import pytest

from conftest import random_block_mapping, random_integrals
from oracles import dense_matrix
from uccvqe.ansatz import VARIANTS, ActiveSpace, enumerate_excitations
from uccvqe.circuit import build_ansatz_circuit
from uccvqe.hamio import (
    DENSE_BLOCK_LIMIT,
    ActiveSelection,
    BlockSizeError,
    QubitHamiltonian,
    build_qubit_hamiltonian,
    exact_ground_energy,
    sector_indices,
    sector_operator,
    spin_sector_indices,
)
from uccvqe.mapping import QubitMapping
from uccvqe.pauli import PauliSum, PauliWord
from uccvqe.sim import Statevector, apply_circuit, expectation
from uccvqe.symmetry import OrbitalSymmetry, SpinSector
from uccvqe.vqe import SectorAnsatz

SPACES = (ActiveSpace(2, 2), ActiveSpace(4, 4))
FD_STEP = 1e-5


def random_pauli_hamiltonian(space: ActiveSpace, mapping: QubitMapping, rng) -> QubitHamiltonian:
    """Hermitian Pauli sum that need not conserve the sector."""
    n = space.n_qubits
    words = [PauliWord.from_axes("".join(rng.choice(list("IXYZ"), size=n)), float(rng.normal()))
             for _ in range(20)]
    return QubitHamiltonian(n, PauliSum(n, [w for w in words if not w.is_identity()]),
                            0.3, mapping, space)


def cases():
    for space in SPACES:
        for variant in VARIANTS:
            yield pytest.param(space, variant, id=f"cas{space.n_electrons}{space.n_orbitals}-{variant}")


def setup_case(space: ActiveSpace, variant: str, seed: int):
    rng = np.random.default_rng(seed)
    spec = enumerate_excitations(variant, space)
    mapping = random_block_mapping(space.n_orbitals, rng)
    ints = random_integrals(space.n_orbitals, space.n_electrons, rng)
    h = build_qubit_hamiltonian(ints, ActiveSelection.full(ints), mapping)
    theta = rng.normal(scale=0.4, size=spec.parameter_count)
    return rng, spec, mapping, h, theta


def circuit_state(spec, mapping, theta) -> Statevector:
    binding = dict(zip(spec.parameter_names(), map(float, theta)))
    return apply_circuit(Statevector.zero(mapping.n_qubits),
                         build_ansatz_circuit(spec, mapping), binding)


@pytest.mark.parametrize("space,variant", cases())
def test_sector_state_and_energy_match_circuit(space, variant):
    for seed in range(2):
        rng, spec, mapping, h, theta = setup_case(space, variant, seed)
        gate_level = circuit_state(spec, mapping, theta)
        ansatz = SectorAnsatz(h, spec)
        embedded = np.zeros(1 << mapping.n_qubits, dtype=complex)
        embedded[ansatz.basis] = ansatz.state(theta)
        phase = np.vdot(embedded, gate_level.amplitudes)
        assert abs(phase) == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(gate_level.amplitudes - phase * embedded)) < 1e-10
        for ham in (h, random_pauli_hamiltonian(space, mapping, rng)):
            energy, _ = SectorAnsatz(ham, spec).energy_and_gradient(theta)
            assert energy == pytest.approx(expectation(gate_level, ham), abs=1e-10)


def central_differences(objective, theta: np.ndarray) -> np.ndarray:
    fd = np.zeros_like(theta)
    for k in range(len(theta)):
        step = np.zeros_like(theta)
        step[k] = FD_STEP
        fd[k] = (objective(theta + step)[0] - objective(theta - step)[0]) / (2 * FD_STEP)
    return fd


@pytest.mark.parametrize("space,variant", cases())
def test_adjoint_gradient_matches_central_differences(space, variant):
    for seed in range(2):
        rng, spec, mapping, h, theta = setup_case(space, variant, seed)
        for ham in (h, random_pauli_hamiltonian(space, mapping, rng)):
            objective = SectorAnsatz(ham, spec).energy_and_gradient
            _, grad = objective(theta)
            assert np.max(np.abs(grad - central_differences(objective, theta))) < 1e-8


@pytest.mark.parametrize("n_orbitals,n_electrons", [(2, 2), (3, 2), (4, 4), (5, 4)])
def test_sector_ground_energy_matches_dense_block(n_orbitals, n_electrons):
    rng = np.random.default_rng(n_orbitals)
    ints = random_integrals(n_orbitals, n_electrons, rng)
    mapping = random_block_mapping(n_orbitals, rng)
    h = build_qubit_hamiltonian(ints, ActiveSelection.full(ints), mapping)
    dense = dense_matrix(h)
    for n_alpha in range(n_orbitals + 1):
        sector = SpinSector(n_alpha, n_electrons // 2)
        keep = sector_indices(h, sector)
        block = dense[np.ix_(keep, keep)]
        assert exact_ground_energy(h, sector) == pytest.approx(
            np.linalg.eigvalsh(block)[0], abs=1e-10)


def test_sector_operator_matches_dense_block_for_any_pauli_sum():
    rng = np.random.default_rng(5)
    space = ActiveSpace(4, 4)
    mapping = random_block_mapping(4, rng)
    h = random_pauli_hamiltonian(space, mapping, rng)
    keep = sector_indices(h, SpinSector(2, 2))
    dense = dense_matrix(h) - h.offset * np.eye(1 << 8)
    assert np.allclose(sector_operator(h.terms, keep).matrix(), dense[np.ix_(keep, keep)],
                       atol=1e-12)


def symmetry_adapted_integrals(n_orbitals, n_electrons, labels, rng):
    """Random integrals with every irrep-forbidden element zeroed."""
    ints = random_integrals(n_orbitals, n_electrons, rng)
    code = np.array(labels) - 1
    ints.h[code[:, None] != code[None, :]] = 0.0
    xor = code[:, None, None, None] ^ code[None, :, None, None] ^ code[None, None, :, None]
    ints.g[(xor ^ code[None, None, None, :]) != 0] = 0.0
    ints.orbsym = OrbitalSymmetry.from_labels(labels)
    return ints


@pytest.mark.parametrize("n_orbitals,n_electrons", [(2, 2), (3, 2), (4, 4), (5, 4), (6, 6)])
def test_block_ground_matches_dense_block_under_random_irreps(n_orbitals, n_electrons):
    rng = np.random.default_rng(40 + n_orbitals)
    for _ in range(2 if n_orbitals < 6 else 1):
        labels = [int(l) for l in rng.integers(1, 5, size=n_orbitals)]
        ints = symmetry_adapted_integrals(n_orbitals, n_electrons, labels, rng)
        mapping = random_block_mapping(n_orbitals, rng)
        h = build_qubit_hamiltonian(ints, ActiveSelection.full(ints), mapping)
        sector = SpinSector(n_electrons // 2, n_electrons // 2)
        keep = sector_indices(h, sector, ints.orbsym)
        block = dense_matrix(h)[np.ix_(keep, keep)]
        ground = exact_ground_energy(h, sector, ints.orbsym)
        assert ground == pytest.approx(np.linalg.eigvalsh(block)[0], abs=1e-10)
        assert ground >= exact_ground_energy(h, sector) - 1e-12


def test_block_cap_is_a_named_error():
    # CAS(8,8) without screening: the (4,4) sector has C(8,4)^2 = 4900 determinants
    space = ActiveSpace(8, 8)
    h = QubitHamiltonian(16, PauliSum(16, [PauliWord.from_axes("Z" + "I" * 15, 1.0)]), 0.0,
                         QubitMapping.identity(8), space)
    with pytest.raises(BlockSizeError, match="4900 determinants"):
        exact_ground_energy(h, SpinSector(4, 4))
    labels = OrbitalSymmetry.from_labels([1, 1, 1, 2, 3, 3, 4, 4])
    assert len(sector_indices(h, SpinSector(4, 4), labels)) <= DENSE_BLOCK_LIMIT


SCREENED_SPACES = (ActiveSpace(4, 4), ActiveSpace(6, 6))


def screened_cases():
    for space in SCREENED_SPACES:
        for variant in VARIANTS:
            yield pytest.param(space, variant,
                               id=f"cas{space.n_electrons}{space.n_orbitals}-{variant}")


def setup_screened_case(space: ActiveSpace, variant: str, seed: int):
    """An ansatz screened with random irreps, on integrals that respect them."""
    rng = np.random.default_rng(60 + seed)
    labels = [int(l) for l in rng.integers(1, 5, size=space.n_orbitals)]
    ints = symmetry_adapted_integrals(space.n_orbitals, space.n_electrons, labels, rng)
    spec = enumerate_excitations(variant, space, ints.orbsym)
    mapping = random_block_mapping(space.n_orbitals, rng)
    h = build_qubit_hamiltonian(ints, ActiveSelection.full(ints), mapping)
    theta = rng.normal(scale=0.4, size=spec.parameter_count)
    return rng, spec, mapping, h, theta


@pytest.mark.parametrize("space,variant", screened_cases())
def test_screened_ansatz_lives_on_the_irrep_block(space, variant):
    for seed in range(2):
        rng, spec, mapping, h, theta = setup_screened_case(space, variant, seed)
        sector = SpinSector(space.n_occupied, space.n_occupied)
        ansatz = SectorAnsatz(h, spec)
        assert np.array_equal(ansatz.basis, spin_sector_indices(mapping, sector, spec.orbsym))
        assert len(ansatz.basis) < len(spin_sector_indices(mapping, sector))
        gate_level = circuit_state(spec, mapping, theta).amplitudes
        assert np.sum(np.abs(np.delete(gate_level, ansatz.basis)) ** 2) < 1e-20
        embedded = np.zeros(1 << mapping.n_qubits, dtype=complex)
        embedded[ansatz.basis] = ansatz.state(theta)
        phase = np.vdot(embedded, gate_level)
        assert abs(phase) == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(gate_level - phase * embedded)) < 1e-10
        on_sector = dataclasses.replace(spec, orbsym=None)
        for ham in (h, random_pauli_hamiltonian(space, mapping, rng)):
            energy, grad = SectorAnsatz(ham, spec).energy_and_gradient(theta)
            assert energy == pytest.approx(
                expectation(Statevector(mapping.n_qubits, gate_level), ham), abs=1e-10)
            sector_energy, sector_grad = SectorAnsatz(ham, on_sector).energy_and_gradient(theta)
            assert energy == pytest.approx(sector_energy, abs=1e-10)
            assert np.max(np.abs(grad - sector_grad), initial=0.0) < 1e-10


@pytest.mark.parametrize("space,variant", screened_cases())
def test_screened_adjoint_gradient_matches_central_differences(space, variant):
    rng, spec, mapping, h, theta = setup_screened_case(space, variant, 0)
    for ham in (h, random_pauli_hamiltonian(space, mapping, rng)):
        objective = SectorAnsatz(ham, spec).energy_and_gradient
        _, grad = objective(theta)
        assert np.max(np.abs(grad - central_differences(objective, theta)), initial=0.0) < 1e-8


@pytest.mark.parametrize("screened", [False, True], ids=["unscreened", "screened"])
@pytest.mark.parametrize("space", (ActiveSpace(2, 2), ActiveSpace(4, 4), ActiveSpace(6, 6)),
                         ids=lambda s: f"cas{s.n_electrons}{s.n_orbitals}")
def test_block_ground_is_the_exact_reference(space, screened):
    # the optimizer's block operator gives exact_ground in a vqe run, so the
    # two must agree to the last bit
    rng = np.random.default_rng(80 + space.n_orbitals)
    labels = [int(l) for l in rng.integers(1, 5, size=space.n_orbitals)]
    ints = symmetry_adapted_integrals(space.n_orbitals, space.n_electrons, labels, rng)
    mapping = random_block_mapping(space.n_orbitals, rng)
    h = build_qubit_hamiltonian(ints, ActiveSelection.full(ints), mapping)
    sector = SpinSector(space.n_occupied, space.n_occupied)
    for variant in VARIANTS:
        spec = enumerate_excitations(variant, space, ints.orbsym if screened else None)
        assert SectorAnsatz(h, spec).ground_energy() == exact_ground_energy(h, sector, spec.orbsym)
