"""uccvqe: depth-optimized uCC-family VQE circuits with symmetry screening,
dense statevector sampling, and post-selection error mitigation."""

from . import kernels
from .ansatz import ActiveSpace, AnsatzSpec, Excitation, enumerate_excitations
from .circuit import (
    Circuit,
    Gate,
    build_ansatz_circuit,
    count_2qge,
    rewrite_cx_h_cx,
    synth_double_excitation,
    synth_paired_excitation,
    synth_single_excitation,
    synth_spatial_to_spin,
)
from .hamio import (
    ActiveSelection,
    MeasurementGroup,
    MolecularIntegrals,
    QubitHamiltonian,
    build_qubit_hamiltonian,
    exact_ground_energy,
    parse_fcidump,
    qwc_group,
)
from .mapping import QubitMapping, greedy_map, mapping_cost
from .mitigate import MitigationReport, PostSelectionPolicy, mitigated_energy, postselect
from .pauli import FermionTerm, PauliSum, PauliWord, antihermitian_generator
from .sim import Histogram, Statevector, apply_circuit, energy_from_histograms, expectation, sample_group
from .symmetry import Irrep, OrbitalSymmetry, SpinSector, excitation_allowed
from .vqe import VqeResult, evaluate_sampled, optimize

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
