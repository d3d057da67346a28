#!/usr/bin/env python3
"""Benchmark the numpy statevector kernels and one uCCDab energy.

Runs each gate-level kernel over a sweep of register sizes and prints a
timing table. The position rows time H and S at every qubit position of 8,
12 and 16 qubits, through the general 2x2 and diagonal forms every gate
took before the kernels specialized them, and through the kernels. The full-pipeline rows time one uCCDab energy evaluation at
gate level (circuit application + expectation, what sampling runs) and one
energy plus adjoint gradient on the spin sector (what the optimizer runs).
The synthesis rows time what ``uccvqe synth`` adds: the Jordan-Wigner
qubit Hamiltonian, compiling the circuit and the Hartree-Fock check at zero
parameters (Pauli propagation, no statevector, so they go past the dense
cap), and the tracemalloc peak of one more Hamiltonian build, untimed. They
read dense integrals, every (pq|rs) set as in a real FCIDUMP,
and report the Pauli term count. The exact-reference rows give the
dimension of the spin sector and of the Hartree-Fock irrep block under a
4-irrep ORBSYM, and the time of ``exact_ground_energy`` on that block
(dense ``eigvalsh``). The grouping rows time ``qwc_group`` on the
dense-integral Hamiltonians of 16, 20 and 24 qubits. The histogram rows time what sampling and
``uccvqe vqe`` then ``uccvqe mitigate`` do with the histograms: ``sample_group``
on every QWC group of the dense-integral Hamiltonian, on a random state,
``format_sections``, ``parse_sections`` and ``group_outcomes`` over all
groups at once.

Every table skips the sizes past ``--max-qubits`` (default 24, which runs
every row). The kernel sweep stops at 20 qubits in any case.

Usage: python benchmarks/bench_kernels.py [--max-qubits 24]
"""
import argparse
import time
import tracemalloc

import numpy as np

from uccvqe import kernels

# past 20 qubits a state and its copies take hundreds of MB
KERNEL_MAX_QUBITS = 20


def timeit(fn, *args, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def traced_peak(fn, *args):
    """Peak traced allocation of one call, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_state(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return (v / np.linalg.norm(v)).astype(np.complex128)


def bench_gates(impl, n, state):
    h = 1 / np.sqrt(2)

    def run():
        s = state.copy()
        for q in range(n):
            impl.apply_1q(s, q, h, h, h, -h)
        for q in range(n - 1):
            impl.apply_cnot(s, q, q + 1)
        for q in range(n):
            impl.apply_phase(s, q, 1.0, 1.0j)

    return timeit(run)


def general_1q(state, q, m00, m01, m10, m11):
    """Any 2x2 gate as both halves' full matrix-vector expressions: the form
    every single-qubit gate took before the kernels specialized H."""
    view = state.reshape(1 << q, 2, -1)
    a0 = view[:, 0, :].copy()
    a1 = view[:, 1, :]
    view[:, 0, :] = m00 * a0 + m01 * a1
    view[:, 1, :] = m10 * a0 + m11 * a1


def general_phase(state, q, p0, p1):
    """diag(p0, p1) multiplying both halves: the form S and SDG took before
    the kernels specialized them."""
    view = state.reshape(1 << q, 2, -1)
    view[:, 0, :] *= p0
    view[:, 1, :] *= p1


def per_call(fn, *args, calls):
    """Best mean time of one call over ``calls`` back-to-back calls."""
    return timeit(lambda: [fn(*args) for _ in range(calls)]) / calls


def bench_positions(n, state):
    """Per qubit position: H through the general form and through
    ``kernels.apply_1q``, S through the general form and through
    ``kernels.apply_phase``, each on its own copy of ``state``."""
    h = 1 / np.sqrt(2)
    calls = max(1, (1 << 16) >> n)
    rows = []
    for q in range(n):
        rows.append((q, *(per_call(fn, state.copy(), q, *args, calls=calls) for fn, args in (
            (general_1q, (h, h, h, -h)), (kernels.apply_1q, (h, h, h, -h)),
            (general_phase, (1.0, 1.0j)), (kernels.apply_phase, (1.0, 1.0j))))))
    return rows


def bench_expectation(impl, n, state, words):
    def run():
        acc = 0.0j
        for x, z in words:
            acc += impl.pauli_expectation(state, x, z)
        return acc

    return timeit(run)


def synthetic_integrals(n):
    from uccvqe.hamio import MolecularIntegrals
    from uccvqe.symmetry import OrbitalSymmetry

    rng = np.random.default_rng(1)
    h1 = rng.normal(size=(n, n))
    h1 = (h1 + h1.T) / 2
    g = np.zeros((n, n, n, n))
    for p in range(n):
        for q in range(n):
            g[p, p, q, q] = 0.4 / (1 + abs(p - q))
            g[p, q, p, q] = 0.05 / (1 + abs(p - q))
    return MolecularIntegrals(n, n, 0, 0.0, h1, g, OrbitalSymmetry.all_symmetric(n))


def dense_integrals(n):
    """Seeded integrals with every (pq|rs) set and the 8-fold symmetry exact,
    as in a real FCIDUMP (``synthetic_integrals`` sets only O(n^2) of them)."""
    from uccvqe.hamio import MolecularIntegrals
    from uccvqe.symmetry import OrbitalSymmetry

    rng = np.random.default_rng(2)
    h1 = rng.normal(scale=0.5, size=(n, n))
    h1 = (h1 + h1.T) / 2 - np.diag(np.arange(n, 0, -1.0))
    g = rng.normal(scale=0.05, size=(n, n, n, n))
    g = g + g.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    return MolecularIntegrals(n, n, 0, 0.0, h1, g, OrbitalSymmetry.all_symmetric(n))


def bench_pipeline(n_orbitals):
    """One full energy evaluation of a uCCDab circuit on 2*n_orbitals qubits."""
    from uccvqe.ansatz import enumerate_excitations
    from uccvqe.circuit import build_ansatz_circuit
    from uccvqe.hamio import ActiveSelection, build_qubit_hamiltonian
    from uccvqe.mapping import greedy_map
    from uccvqe.sim import Statevector, apply_circuit, expectation
    from uccvqe.vqe import SectorAnsatz

    n = n_orbitals
    ints = synthetic_integrals(n)
    sel = ActiveSelection.full(ints)
    spec = enumerate_excitations("uccdab", sel.active_space())
    mapping = greedy_map(spec.excitations, 2 * n, seed=0, restarts=4)
    ham = build_qubit_hamiltonian(ints, sel, mapping)
    circ = build_ansatz_circuit(spec, mapping)
    binding = {p: 0.1 for p in spec.parameter_names()}
    theta = np.full(spec.parameter_count, 0.1)
    objective = SectorAnsatz(ham, spec).energy_and_gradient

    def run():
        state = apply_circuit(Statevector.zero(2 * n), circ, binding)
        return expectation(state, ham)

    return (timeit(run, repeats=3), timeit(objective, theta),
            len(circ.gates), ham.term_count)


def bench_exact(labels):
    """Sector dimension, HF-irrep block dimension and block solve time of
    the closed-shell reference on integrals that respect ``labels``."""
    from uccvqe.hamio import (ActiveSelection, build_qubit_hamiltonian, exact_ground_energy,
                              sector_indices)
    from uccvqe.mapping import QubitMapping
    from uccvqe.symmetry import OrbitalSymmetry, SpinSector

    n = len(labels)
    ints = synthetic_integrals(n)
    code = np.array(labels) - 1
    ints.h[code[:, None] != code[None, :]] = 0.0
    ints.g[(code[:, None, None, None] ^ code[None, :, None, None]
            ^ code[None, None, :, None] ^ code[None, None, None, :]) != 0] = 0.0
    ints.orbsym = OrbitalSymmetry.from_labels(labels)
    h = build_qubit_hamiltonian(ints, ActiveSelection.full(ints), QubitMapping.identity(n))
    sector = SpinSector(n // 2, n // 2)
    return (len(sector_indices(h, sector)), len(sector_indices(h, sector, ints.orbsym)),
            timeit(exact_ground_energy, h, sector, ints.orbsym, repeats=3))


def bench_synth(n_orbitals):
    """build_qubit_hamiltonian, build_ansatz_circuit and
    Pipeline.hf_energy_check on the same uCCDab instance, read back from an
    FCIDUMP file as ``uccvqe synth`` does; then the tracemalloc peak of one
    build_qubit_hamiltonian call, apart from the timed ones."""
    import tempfile

    from uccvqe.circuit import build_ansatz_circuit
    from uccvqe.cli import Pipeline, RunConfig
    from uccvqe.hamio import build_qubit_hamiltonian, write_fcidump

    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/bench.fcidump"
        write_fcidump(path, dense_integrals(n_orbitals))
        pipe = Pipeline(RunConfig(path, n_orbitals, (), map_restarts=4))
    ham_args = (pipe.ints, pipe.selection, pipe.mapping)
    return (timeit(build_qubit_hamiltonian, *ham_args, repeats=3),
            traced_peak(build_qubit_hamiltonian, *ham_args),
            timeit(build_ansatz_circuit, pipe.spec, pipe.mapping, repeats=3),
            timeit(pipe.hf_energy_check, repeats=3), len(pipe.circuit.gates),
            pipe.hamiltonian.term_count)


def bench_grouping(n_orbitals):
    """qwc_group on the dense-integral Hamiltonian under the identity
    mapping; returns the time, the Pauli term count and the group count."""
    from uccvqe.hamio import ActiveSelection, build_qubit_hamiltonian, qwc_group
    from uccvqe.mapping import QubitMapping

    ints = dense_integrals(n_orbitals)
    ham = build_qubit_hamiltonian(ints, ActiveSelection.full(ints),
                                  QubitMapping.identity(n_orbitals))
    return timeit(qwc_group, ham, repeats=3), ham.term_count, len(qwc_group(ham))


def bench_histograms(n_orbitals, shots=6000):
    """sample_group per group -> format_sections -> parse_sections ->
    group_outcomes, over every QWC group of the dense-integral
    Hamiltonian on 2*n_orbitals qubits, on a seeded random state; returns
    the time, the group count and the mean number of distinct outcomes per
    group."""
    from uccvqe.hamio import ActiveSelection, build_qubit_hamiltonian, qwc_group
    from uccvqe.mapping import QubitMapping
    from uccvqe.sim import (Statevector, format_sections, group_outcomes, parse_sections,
                            sample_group)

    ints = dense_integrals(n_orbitals)
    groups = qwc_group(build_qubit_hamiltonian(ints, ActiveSelection.full(ints),
                                               QubitMapping.identity(n_orbitals)))
    state = Statevector(2 * n_orbitals, random_state(2 * n_orbitals, seed=n_orbitals))
    sizes = []

    def run():
        hists = [sample_group(state, g, shots, g.index) for g in groups]
        text = format_sections(hists, ["".join(g.basis) for g in groups])
        sections = parse_sections(text, with_basis=True, width=state.n_qubits)
        valued = group_outcomes(groups, [s.histogram for s in sections])
        sizes[:] = [len(outcomes) for outcomes, _, _ in valued]

    return timeit(run, repeats=3), len(groups), sum(sizes) / len(sizes)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-qubits", type=int, default=24,
                        help="skip every row on more qubits than this")
    args = parser.parse_args()

    def fits(n_orbitals):
        return 2 * n_orbitals <= args.max_qubits

    rng = np.random.default_rng(7)
    print(f"{'n':>3} {'kernel':<12} {'numpy (ms)':>12}")
    for n in range(8, min(args.max_qubits, KERNEL_MAX_QUBITS) + 1, 4):
        state = random_state(n)
        words = [
            (int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n))) for _ in range(8)
        ]
        rows = [("gate sweep", bench_gates, (n, state))]
        rows.append(("expectation", bench_expectation, (n, state, words)))
        for label, fn, fargs in rows:
            print(f"{n:>3} {label:<12} {fn(kernels, *fargs) * 1e3:>12.3f}")

    print("\nH and S per qubit position: the general 2x2 and diagonal forms against the "
          "kernels (us per call)")
    print(f"{'n':>3} {'q':>3} {'H general':>10} {'H kernel':>10} {'S general':>10} "
          f"{'S kernel':>10}")
    for n in (8, 12, 16):
        if n > args.max_qubits:
            continue
        for q, *times in bench_positions(n, random_state(n)):
            print(f"{n:>3} {q:>3} " + " ".join(f"{t * 1e6:>10.2f}" for t in times))

    print("\nfull uCCDab energy evaluation")
    print(f"{'orbitals':>8} {'qubits':>7} {'gates':>6} {'terms':>6} "
          f"{'gate level (ms)':>16} {'sector E+grad (ms)':>19}")
    for n_orb in filter(fits, (4, 6, 8)):
        t_gates, t_sector, n_gates, n_terms = bench_pipeline(n_orb)
        print(f"{n_orb:>8} {2 * n_orb:>7} {n_gates:>6} {n_terms:>6} "
              f"{t_gates * 1e3:>16.2f} {t_sector * 1e3:>19.2f}")

    print("\nexact reference: spin sector, Hartree-Fock irrep block, block solve")
    print(f"{'orbitals':>8} {'qubits':>7} {'sector dim':>11} {'block dim':>10} {'solve (ms)':>11}")
    for labels in ((1, 2, 3, 4), (1, 2, 3, 1, 2, 3), (1, 1, 1, 2, 3, 3, 4, 4)):
        if not fits(len(labels)):
            continue
        sector_dim, block_dim, t_solve = bench_exact(labels)
        print(f"{len(labels):>8} {2 * len(labels):>7} {sector_dim:>11} {block_dim:>10} "
              f"{t_solve * 1e3:>11.2f}")

    print("\nsynthesis: qubit Hamiltonian, circuit build and Hartree-Fock check")
    print(f"{'orbitals':>8} {'qubits':>7} {'gates':>7} {'pauli terms':>12} "
          f"{'hamiltonian (ms)':>17} {'peak (MB)':>10} {'build (ms)':>11} {'HF check (ms)':>14}")
    for n_orb in filter(fits, (4, 6, 8, 10, 12)):
        t_ham, peak_ham, t_build, t_hf, n_gates, n_terms = bench_synth(n_orb)
        print(f"{n_orb:>8} {2 * n_orb:>7} {n_gates:>7} {n_terms:>12} {t_ham * 1e3:>17.2f} "
              f"{peak_ham / 1e6:>10.2f} {t_build * 1e3:>11.2f} {t_hf * 1e3:>14.2f}")

    print("\nmeasurement grouping: qwc_group on dense integrals")
    print(f"{'orbitals':>8} {'qubits':>7} {'pauli terms':>12} {'groups':>7} {'qwc_group (ms)':>15}")
    for n_orb in filter(fits, (8, 10, 12)):
        t_group, n_terms, n_groups = bench_grouping(n_orb)
        print(f"{n_orb:>8} {2 * n_orb:>7} {n_terms:>12} {n_groups:>7} {t_group * 1e3:>15.2f}")

    print("\nhistograms: sample_group -> format_sections -> parse_sections -> group_outcomes, "
          "6000 shots")
    print(f"{'orbitals':>8} {'qubits':>7} {'groups':>7} {'outcomes/group':>15} "
          f"{'all groups (ms)':>16} {'per group (ms)':>15}")
    for n_orb in filter(fits, (6, 8)):
        t_hist, n_groups, n_outcomes = bench_histograms(n_orb)
        print(f"{n_orb:>8} {2 * n_orb:>7} {n_groups:>7} {n_outcomes:>15.0f} "
              f"{t_hist * 1e3:>16.1f} {t_hist / n_groups * 1e3:>15.3f}")


if __name__ == "__main__":
    main()
