"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
All tolerances are fixed here; the slope window of criterion 4 is fitted over
the asymptotic step counts {4, 8, 16, 32, 64} while monotonicity covers the
full list starting at 1.
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest

from su2link import compiler as cp
from su2link import dynamics as dyn
from su2link import linkmodel as lm
from su2link import matter as mt
from su2link.linalg import expi_hermitian, unitary_distance_up_to_phase
from su2link.pauli import PauliString, PauliSum, dense

EPSILON = {(1, 2, 3): 1, (1, 3, 2): -1, (2, 1, 3): -1, (2, 3, 1): 1, (3, 1, 2): 1, (3, 2, 1): -1}


@contextmanager
def criterion(name: str, budget: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {name}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {name}: PASS ({elapsed:.1f}s)")
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded its {budget}s runtime budget"


@pytest.fixture(scope="module")
def layout():
    return lm.triangle_layout()


@pytest.fixture(scope="module")
def hamiltonian(layout):
    return lm.plaquette_hamiltonian(layout, 1.0)


@pytest.fixture(scope="module")
def monomials(layout):
    return lm.plaquette_monomials(layout, 1.0)


@pytest.fixture(scope="module")
def table(layout):
    return lm.gauge_sectors(layout)


def test_criterion_01_operator_algebra(layout, hamiltonian):
    with criterion("01 operator algebra", budget=10.0):
        n = layout.n_qubits
        for vertex in layout.vertices:
            gens = [dense(lm.gauge_generator(layout, vertex, a), n) for a in (1, 2, 3)]
            for (a, b, c), sign in EPSILON.items():
                comm = gens[a - 1] @ gens[b - 1] - gens[b - 1] @ gens[a - 1]
                assert np.max(np.abs(comm - 1j * sign * gens[c - 1])) < 1e-10
        sigma = {1: np.array([[0, 1], [1, 0]]), 2: np.array([[0, -1j], [1j, 0]]), 3: np.diag([1, -1])}
        for link in layout.links:
            left, right = lm.left_right_generators(layout, link.link_id)
            ld = [dense(g, n) for g in left]
            rd = [dense(g, n) for g in right]
            for (a, b, c), sign in EPSILON.items():
                comm = rd[a - 1] @ rd[b - 1] - rd[b - 1] @ rd[a - 1]
                assert np.max(np.abs(comm - 1j * sign * rd[c - 1])) < 1e-10
            for a in range(3):
                for b in range(3):
                    assert np.max(np.abs(ld[a] @ rd[b] - rd[b] @ ld[a])) < 1e-10
            u = [[dense(op, n) for op in row] for row in lm.link_operator(layout, link.link_id)]
            for a in (1, 2, 3):
                for alpha in range(2):
                    for beta in range(2):
                        lhs = u[alpha][beta] @ rd[a - 1] - rd[a - 1] @ u[alpha][beta]
                        rhs = -sum(u[alpha][g] * sigma[a][g, beta] for g in range(2)) / 2
                        assert np.max(np.abs(lhs - rhs)) < 1e-10
                        lhs = u[alpha][beta] @ ld[a - 1] - ld[a - 1] @ u[alpha][beta]
                        rhs = sum(sigma[a][alpha, g] * u[g][beta] for g in range(2)) / 2
                        assert np.max(np.abs(lhs - rhs)) < 1e-10
        rng = np.random.default_rng(2024)
        links = [link.link_id for link in layout.links]
        for trial in range(50):
            angles = {v: tuple(rng.uniform(-np.pi, np.pi, 3)) for v in layout.vertices}
            assert lm.gauge_covariance_check(layout, links[trial % 3], angles) < 1e-9


def test_criterion_02_hamiltonian_census(layout):
    with criterion("02 hamiltonian census"):
        for coupling in (1.0, 2.5):
            terms = lm.plaquette_hamiltonian(layout, coupling).terms
            assert len(terms) == 16
            census = {}
            for term in terms:
                census[term.weight] = census.get(term.weight, 0) + 1
                assert abs(abs(term.coefficient) - coupling / 2) < 1e-12
                assert abs(term.coefficient.imag) < 1e-12
            assert census == {3: 1, 5: 9, 6: 6}


def test_criterion_03_sector_spectrum(layout, table, hamiltonian, sector_basis):
    with criterion("03 sector spectrum", budget=5.0):
        got = {round(s.eigenvalue, 8): s.degeneracy for s in table.sectors}
        assert got == {0.75: 12, 2.25: 16, 2.75: 36}
        assert sum(s.degeneracy for s in table.sectors) == 64
        hd = dense(hamiltonian, layout.n_qubits)
        bases = [sector_basis(table, s.eigenvalue) for s in table.sectors]
        for i, bi in enumerate(bases):
            for j, bj in enumerate(bases):
                if i != j:
                    assert np.max(np.abs(bi.conj().T @ hd @ bj)) < 1e-9


def test_criterion_04_digitization_convergence(layout, hamiltonian, monomials, table):
    with criterion("04 digitization convergence", budget=60.0):
        steps = [1, 2, 4, 8, 16, 32, 64]
        phis = [0.25, 0.5, 1.0]
        for sector in (0.75, 2.25, 2.75):
            psi0 = lm.canonical_sector_state(table, sector)
            for phi in phis:
                psi_ideal = dyn.exact_evolve(hamiltonian, psi0, phi)
                errors = []
                for n_steps in steps:
                    psi_digital = dyn.trotter_evolve(monomials, psi0, phi, n_steps)
                    errors.append(np.linalg.norm(psi_digital - psi_ideal))
                assert all(b < a for a, b in zip(errors, errors[1:]))
                slope = -np.polyfit(np.log(steps[2:]), np.log(errors[2:]), 1)[0]
                assert 0.8 <= slope <= 1.2
        # gauge-deviation trend; the 9/4 start preserves the invariant exactly
        for sector in (0.75, 2.75):
            psi0 = lm.canonical_sector_state(table, sector)
            for phi in phis:
                psi_ideal = dyn.exact_evolve(hamiltonian, psi0, phi)
                values = {}
                for n_steps in (1, 4):
                    psi_digital = dyn.trotter_evolve(monomials, psi0, phi, n_steps)
                    values[n_steps] = abs(dyn.gauge_deviation(psi_ideal, psi_digital, layout))
                assert values[4] < values[1]
        psi0 = lm.canonical_sector_state(table, 2.25)
        for phi in phis:
            psi_ideal = dyn.exact_evolve(hamiltonian, psi0, phi)
            psi_digital = dyn.trotter_evolve(monomials, psi0, phi, 1)
            assert abs(dyn.gauge_deviation(psi_ideal, psi_digital, layout)) < 1e-12


def test_criterion_05_oscillation(layout, hamiltonian, table):
    with criterion("05 oscillation reproduction", budget=30.0):
        psi0 = lm.canonical_sector_state(table, 2.25)
        eigvals, eigvecs = np.linalg.eigh(dense(hamiltonian, layout.n_qubits))
        coeff = eigvecs.conj().T @ psi0
        returns = []
        previous_above = True
        for phi in np.arange(0.0, 3.3001, 0.01):
            psi = (eigvecs * np.exp(-1j * eigvals * phi)) @ coeff
            above = dyn.overlap(psi, psi0) > 0.999
            if above and not previous_above:
                returns.append(phi)
            previous_above = above
        assert len(returns) >= 2
        # digital fidelity ordering across one full oscillation
        phis = [round(p, 2) for p in np.arange(0.05, 1.6001, 0.05)]
        rows2 = dyn.sweep(layout, [2], phis, 2.25)
        rows3 = dyn.sweep(layout, [3], phis, 2.25)
        assert all(r3.fidelity > r2.fidelity for r2, r3 in zip(rows2, rows3))


def test_criterion_06_compiler_exactness(layout):
    with criterion("06 compiler exactness", budget=60.0):
        monomials = lm.plaquette_monomials(layout, 1.0)
        for phi in (0.1, 0.7):
            for monomial in monomials:
                target = expi_hermitian(dense(monomial, 6), scale=-phi)
                circuit = cp.compile_collective(monomial, phi)
                assert unitary_distance_up_to_phase(target, cp.circuit_unitary(circuit, 6)) < 1e-9
                circuit = cp.compile_cphase(monomial, phi, ancilla=6)
                reduced = cp.reduced_system_unitary(circuit, 6, cp.ancilla_state(monomial.weight))
                assert np.max(np.abs(reduced.conj().T @ reduced - np.eye(64))) < 1e-9
                assert unitary_distance_up_to_phase(target, reduced) < 1e-9
        collective = cp.compile_step(monomials, 0.1, "collective").counts
        assert collective.collective == 32 and collective.single <= 184
        cphase = cp.compile_step(monomials, 0.1, "cphase").counts
        assert cphase.cphase == 168 and cphase.single <= 520
        print(
            f"  achieved singles: collective {collective.single} (bound 184), "
            f"cphase {cphase.single} (bound 520)"
        )


def test_criterion_07_stabilizer_identities():
    with criterion("07 stabilizer identities"):
        gt = 0.53
        for weight in range(2, 7):
            qubits = tuple(range(weight))
            sandwich = cp.Circuit(
                (
                    cp.coll(qubits, -np.pi / 4),
                    cp.rot("z", 0, -2 * gt),
                    cp.coll(qubits, np.pi / 4),
                ),
                weight,
            )
            axis = "Z" if weight % 2 else "Y"
            sign = 1 if weight % 4 in (1, 2) else -1
            string = PauliString(1.0, {0: axis, **{q: "X" for q in range(1, weight)}})
            want = expi_hermitian(dense(string, weight), scale=sign * gt)
            assert np.max(np.abs(cp.circuit_unitary(sandwich) - want)) < 1e-10


def test_criterion_08_noise_model(layout):
    with criterion("08 noise model"):
        counts = cp.GateCounts(collective=64, single=368)
        low, _ = cp.fidelity_cap(counts, "collective")
        closed_form = 1 - (64 * 5e-4 + 368 * 5e-4 / 20)
        assert abs(low - closed_form) < 1e-6
        # affine in the counts
        double = cp.GateCounts(collective=128, single=736)
        low2, _ = cp.fidelity_cap(double, "collective")
        assert abs((1 - low2) - 2 * (1 - low)) < 1e-12
        monomials = lm.plaquette_monomials(layout, 1.0)
        step = cp.compile_step(monomials, 0.1, "collective")
        real_low, _ = cp.fidelity_cap(
            cp.GateCounts(step.counts.collective * 2, 0, step.counts.single * 2), "collective"
        )
        assert real_low >= low  # achieved singles never exceed the bound


def test_criterion_09_bound_consistency(monomials, table):
    with criterion("09 bound consistency"):
        constant = cp.plaquette_bound_constant()
        assert abs(constant - cp.PRINTED_BOUND_CONSTANT) / cp.PRINTED_BOUND_CONSTANT < 0.03
        psi0 = lm.canonical_sector_state(table, 0.75)
        psi_ideal = dyn.exact_evolve(PauliSum(monomials), psi0, 0.25)
        for eps in (0.1, 0.05):
            steps = cp.trotter_bound(16, cp.PLAQUETTE_NORM_READING, 0.25, eps)
            assert np.linalg.norm(dyn.trotter_evolve(monomials, psi0, 0.25, steps) - psi_ideal) <= eps


def test_criterion_10_matter_validation():
    with criterion("10 matter-gauge validation", budget=60.0):
        rows = mt.compare_effective(mt.ChainConfig(), [1e-1, 1e-2, 1e-3])
        deviations = [r.deviation for r in rows]
        for row in rows:
            assert row.deviation < 3 * row.ratio
        assert deviations[0] > deviations[1] > deviations[2]
