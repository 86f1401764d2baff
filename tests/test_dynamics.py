import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from su2link import cli, errors
from su2link import dynamics as dyn
from su2link import linkmodel as lm
from su2link.errors import GuardError
from su2link.linalg import expi_hermitian
from su2link.pauli import PauliString, PauliSum, coset, dense, matvec, pair_count, span


def basis_state(n_qubits, index):
    state = np.zeros(2**n_qubits, dtype=complex)
    state[index] = 1.0
    return state


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
def sector_table(layout):
    return lm.gauge_sectors(layout)


def test_exact_evolve_identity_at_zero_time(hamiltonian, layout):
    psi = basis_state(layout.n_qubits, 5)
    out = dyn.exact_evolve(hamiltonian, psi, 0.0)
    assert np.allclose(out, psi, atol=1e-12)


def test_exact_evolve_eigenstate_phase():
    h = PauliSum([PauliString(1.0, {0: "Z"})])
    psi = basis_state(1, 0)
    out = dyn.exact_evolve(h, psi, 0.7)
    assert np.allclose(out, np.exp(-0.7j) * psi, atol=1e-12)


def test_exact_evolve_guards(memory_boundary):
    non_hermitian = PauliSum([PauliString(1j, {0: "Z"})])
    with pytest.raises(GuardError):
        dyn.exact_evolve(non_hermitian, basis_state(1, 0), 0.1)
    h = PauliSum([PauliString(1.0, {0: "Z"}), PauliString(0.5, {1: "X"})])
    memory_boundary(lambda: dyn.exact_evolve(h, basis_state(2, 0), 0.1))


def test_evolutions_reject_an_operator_outside_the_register():
    # a Z string outside the register flips no bit, so no span or coset sees it
    psi = basis_state(2, 0)
    with pytest.raises(ValueError, match="does not fit in 2 qubits"):
        dyn.exact_evolve(PauliSum([PauliString(1.0, {0: "X"}), PauliString(1.0, {2: "Z"})]), psi, 0.1)
    with pytest.raises(ValueError, match="does not fit in 2 qubits"):
        dyn.trotter_evolve([PauliString(1.0, {3: "X"})], psi, 0.1, 1)


def test_trotter_evolve_and_sweep_guards(layout, monomials, monkeypatch, memory_boundary):
    memory_boundary(lambda: dyn.trotter_evolve(monomials, basis_state(6, 5), 0.3, 2))
    estimate = memory_boundary(lambda: dyn.sweep(layout, 1.0, [1, 2], [0.3, 0.6], 0.75))
    # the sweep refuses before the sector table or any state is built
    monkeypatch.setattr(errors, "MEMORY_BUDGET", estimate - 1)
    monkeypatch.setattr(dyn, "gauge_sectors", None)
    with pytest.raises(GuardError, match="^sweep on 6 qubits needs"):
        dyn.sweep(layout, 1.0, [1, 2], [0.3, 0.6], 0.75)


def test_exact_evolution_conserves_casimir(hamiltonian, layout, sector_table, full_register_expectation):
    casimir = lm.total_gauge_casimir(layout)
    psi0 = lm.canonical_sector_state(sector_table, 0.75)
    before = full_register_expectation(casimir, psi0)
    after = full_register_expectation(casimir, dyn.exact_evolve(hamiltonian, psi0, 1.3))
    assert abs(before - after) < 1e-10


def test_evolution_commutes_with_sector_projection(hamiltonian, layout, sector_table, sector_basis):
    rng = np.random.default_rng(2)
    psi = rng.normal(size=64) + 1j * rng.normal(size=64)
    psi /= np.linalg.norm(psi)
    basis = sector_basis(sector_table, 2.75)
    projector = basis @ basis.conj().T
    project_then_evolve = dyn.exact_evolve(hamiltonian, projector @ psi / np.linalg.norm(projector @ psi), 0.9)
    evolve_then_project = projector @ dyn.exact_evolve(hamiltonian, psi, 0.9)
    evolve_then_project /= np.linalg.norm(evolve_then_project)
    # equal up to the phase fixed by linearity: compare as rays
    assert 1 - dyn.overlap(project_then_evolve, evolve_then_project) < 1e-9


def test_trotter_single_term_is_exact():
    h = PauliSum([PauliString(0.8, {0: "X", 1: "X"})])
    psi = basis_state(2, 1)
    assert np.allclose(
        dyn.trotter_evolve(h.terms, psi, 0.9, 1), dyn.exact_evolve(h, psi, 0.9), atol=1e-12
    )


def test_trotter_zero_phase_identity(monomials, layout):
    psi = basis_state(layout.n_qubits, 7)
    assert np.allclose(dyn.trotter_evolve(monomials, psi, 0.0, 3), psi, atol=1e-12)


def test_trotter_evolve_rejects_step_count_below_one(monomials):
    for steps in (0, -1):
        with pytest.raises(ValueError, match="step count must be at least 1"):
            dyn.trotter_evolve(monomials, basis_state(6, 0), 1.0, steps)


@pytest.mark.parametrize("coefficient", [0.5j, 0.5 + 1e-3j])
def test_trotter_evolve_rejects_non_real_monomial(monomials, coefficient):
    imaginary = PauliString(coefficient, {0: "X", 2: "X", 4: "X"})
    for listed in ([*monomials, imaginary], [imaginary, *monomials, -imaginary]):
        # the last list's sum is the real plaquette Hamiltonian, which is Hermitian
        with pytest.raises(GuardError, match="^Trotter monomials must have real coefficients$"):
            dyn.trotter_evolve(listed, basis_state(6, 0), 1.0, 2)


def test_trotter_error_decreases_and_scales(hamiltonian, monomials, sector_table):
    psi0 = lm.canonical_sector_state(sector_table, 0.75)
    psi_ideal = dyn.exact_evolve(hamiltonian, psi0, 0.5)
    steps = [1, 2, 4, 8, 16, 32, 64]
    errors = []
    for n_steps in steps:
        errors.append(np.linalg.norm(dyn.trotter_evolve(monomials, psi0, 0.5, n_steps) - psi_ideal))
    assert all(b < a for a, b in zip(errors, errors[1:]))
    slope = np.polyfit(np.log(steps[2:]), np.log(errors[2:]), 1)[0]
    assert 0.8 <= -slope <= 1.2


def test_unitarity_preserved(hamiltonian, monomials, layout):
    psi = basis_state(layout.n_qubits, 3)
    out = dyn.trotter_evolve(monomials, psi, 1.7, 5)
    assert abs(np.linalg.norm(out) - 1) < 1e-10
    out = dyn.exact_evolve(hamiltonian, psi, 1.7)
    assert abs(np.linalg.norm(out) - 1) < 1e-10


def test_overlap_basics():
    a = basis_state(2, 0)
    b = basis_state(2, 2)
    assert dyn.overlap(a, a) == pytest.approx(1.0)
    assert dyn.overlap(a, b) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        dyn.overlap(a, basis_state(3, 0))


def test_relative_deviation_guard(memory_boundary):
    op = PauliSum([PauliString(1.0, {0: "Z"})])
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    with pytest.raises(GuardError, match="reference expectation value too small"):
        dyn.relative_deviation(op, plus, plus)
    # two zero states have no support, and a vanishing reference
    zero = np.zeros(8, dtype=complex)
    with pytest.raises(GuardError, match="reference expectation value too small"):
        dyn.relative_deviation(PauliSum([PauliString(1.0, {0: "X", 2: "Z"})]), zero, zero)
    # six complex vectors, the matvec's pairs and three indices per basis state
    op = PauliSum([PauliString(1.0, {0: "X", 1: "Y"}), PauliString(0.5, {1: "X"}), PauliString(0.3, {2: "Z"})])
    states = [basis_state(3, 1), basis_state(3, 3)]
    assert memory_boundary(lambda: dyn.relative_deviation(op, *states)) == 2**3 * (16 * 6 + 24 * 3 + 24)


def test_relative_deviation_matches_full_register_oracle(layouts, strip3, full_register_expectation):
    rng = np.random.default_rng(12)
    for name, layout in (*layouts.items(), ("strip3", strip3)):
        n = layout.n_qubits
        table = lm.gauge_sectors(layout)
        low, high = table.eigenvalues()[0], table.eigenvalues()[-1]
        sector = [lm.canonical_sector_state(table, ev) for ev in (low, high)]
        mixed = sector[0] + sector[1]
        states = [*sector, mixed / np.linalg.norm(mixed)]
        for _ in range(2):
            psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            states.append(psi / np.linalg.norm(psi))
        casimir = lm.total_gauge_casimir(layout)
        probe = PauliSum([PauliString(0.3, {1: "Y", 4: "X"}), PauliString(-1.1, {2: "Z"}), PauliString(0.7, {})])
        for op in (casimir, lm.plaquette_hamiltonian(layout, 1.0) + PauliString(2.0, {}), probe):
            for reference, other in zip(states, states[1:] + states[:1]):
                values = [full_register_expectation(op, psi) for psi in (reference, other)]
                expected = (values[0] - values[1]) / values[0]
                assert abs(dyn.relative_deviation(op, reference, other) - expected) < 1e-12, name


def test_gauge_deviation_of_sector_states_builds_no_register(strip4):
    # on the 18-qubit strip two 24- and 12-entry sector states are compared on their joint coset
    table = lm.gauge_sectors(strip4)
    states = [lm.canonical_sector_state(table, ev) for ev in (0.75, 2.75)]
    tracemalloc.start()
    deviation = dyn.gauge_deviation(*states, strip4)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 16 * 2**20
    assert deviation == pytest.approx(1 - 2.75 / 0.75, abs=1e-12)


def test_gauge_deviation_trivial_cases(hamiltonian, monomials, layout, sector_table):
    psi0 = lm.canonical_sector_state(sector_table, 0.75)
    assert dyn.gauge_deviation(psi0, psi0, layout) == pytest.approx(0.0, abs=1e-12)
    psi_ideal = dyn.exact_evolve(hamiltonian, psi0, 0.8)
    psi_digital = dyn.trotter_evolve(monomials, psi0, 0.8, 2)
    assert abs(dyn.gauge_deviation(psi_ideal, psi_digital, layout)) > 1e-6


def test_gauge_deviation_shrinks_with_steps(hamiltonian, monomials, layout, sector_table):
    psi0 = lm.canonical_sector_state(sector_table, 0.75)
    for phi in (0.25, 0.5, 1.0):
        psi_ideal = dyn.exact_evolve(hamiltonian, psi0, phi)
        values = []
        for n_steps in (1, 4):
            psi_digital = dyn.trotter_evolve(monomials, psi0, phi, n_steps)
            values.append(abs(dyn.gauge_deviation(psi_ideal, psi_digital, layout)))
        assert values[1] < values[0]


def test_deviation_vanishes_at_small_phase(hamiltonian, monomials, layout, sector_table):
    psi0 = lm.canonical_sector_state(sector_table, 0.75)
    for n_steps in (1, 2, 5):
        last = None
        for phi in (0.4, 0.2, 0.1, 0.05):
            psi_ideal = dyn.exact_evolve(hamiltonian, psi0, phi)
            value = abs(dyn.gauge_deviation(psi_ideal, dyn.trotter_evolve(monomials, psi0, phi, n_steps), layout))
            if last is not None:
                assert value < last
            last = value
        assert last < 1e-3


def test_two_state_oscillation(hamiltonian, sector_table):
    # the 9/4 representative pairs with a single partner state, so the return
    # probability is exactly cos^2(2 J t)
    psi0 = lm.canonical_sector_state(sector_table, 2.25)
    for phi in (0.3, np.pi / 4, 1.0, np.pi / 2):
        psi = dyn.exact_evolve(hamiltonian, psi0, phi)
        assert dyn.overlap(psi, psi0) == pytest.approx(np.cos(2 * phi) ** 2, abs=1e-10)


def test_sweep_empty_grid(layout):
    assert dyn.sweep(layout, 1.0, [], [0.5], 0.75) == []
    assert dyn.sweep(layout, 1.0, [2], [], 0.75) == []


@pytest.mark.parametrize("steps_list", [[0], [-1], [2, 0]])
def test_sweep_rejects_step_count_below_one(layout, steps_list):
    with pytest.raises(ValueError, match="step count must be at least 1"):
        dyn.sweep(layout, 1.0, steps_list, [0.5], 0.75)


def test_sweep_deterministic_and_serializable(layout):
    rows_a = dyn.sweep(layout, 1.0, [1, 2], [0.3, 0.6], 0.75)
    rows_b = dyn.sweep(layout, 1.0, [1, 2], [0.3, 0.6], 0.75)
    assert dyn.sweep_csv(rows_a) == dyn.sweep_csv(rows_b)
    header = dyn.sweep_csv(rows_a).splitlines()[0]
    assert header == "N,phi,E,overlap_I0,fidelity_ID"
    assert len(rows_a) == 4
    assert [(r.steps, r.phi) for r in rows_a] == [(1, 0.3), (1, 0.6), (2, 0.3), (2, 0.6)]


def test_sweep_gauge_convergence(layout):
    # digital gauge value approaches the sector eigenvalue as steps grow
    rows = dyn.sweep(layout, 1.0, [64], [0.5, 1.0, 2.0], 0.75)
    assert all(abs(r.gauge_digital - 0.75) < 1e-2 for r in rows)
    rows = dyn.sweep(layout, 1.0, [64], [0.5, 1.0, 2.0], 2.75)
    assert all(abs(r.gauge_digital - 2.75) < 1e-2 for r in rows)


def test_sweep_fidelity_ordering(layout):
    phis = [round(p, 2) for p in np.arange(0.05, 1.6, 0.05)]
    rows2 = dyn.sweep(layout, 1.0, [2], phis, 2.25)
    rows3 = dyn.sweep(layout, 1.0, [3], phis, 2.25)
    assert all(r3.fidelity > r2.fidelity for r2, r3 in zip(rows2, rows3))


def dense_trotter_reference(monomials, state, t, steps):
    """The Trotter loop as it was before the bit-mask kernel: one dense matrix
    per monomial, applied by matrix-vector products."""
    n = int(np.log2(len(state)))
    dt = t / steps
    factors = []
    for term in monomials:
        angle = term.coefficient.real * dt
        factors.append((np.cos(angle), np.sin(angle), dense(term.bare(), n)))
    out = state
    for _ in range(steps):
        for cos_a, sin_a, matrix in factors:
            out = cos_a * out - 1j * sin_a * (matrix @ out)
    return out


def test_trotter_kernel_matches_dense_loop_bitwise(monomials, sector_table):
    rng = np.random.default_rng(3)
    random_psi = rng.normal(size=2**6) + 1j * rng.normal(size=2**6)
    states = [lm.canonical_sector_state(sector_table, 0.75), random_psi / np.linalg.norm(random_psi)]
    for psi in states:
        for steps, phi in [(1, 0.05), (3, 0.7), (8, 2.0)]:
            expected = dense_trotter_reference(monomials, psi, phi, steps)
            assert dyn.trotter_evolve(monomials, psi, phi, steps).tobytes() == expected.tobytes()
    shuffled = [monomials[k] for k in rng.permutation(len(monomials))]
    repeated = [monomials[5], *monomials, monomials[5], monomials[0]]
    # X1 lies outside the span of the plaquette's X masks, and the pair cancels in a sum
    cancelling = [*monomials, PauliString(0.3, {1: "X"}), PauliString(-0.3, {1: "X"})]
    for listed in (shuffled, repeated, cancelling):
        for psi in states:
            # phi = 1.3 at J = 0.7
            expected = dense_trotter_reference(listed, psi, 1.3 / 0.7, 2)
            assert dyn.trotter_evolve(listed, psi, 1.3 / 0.7, 2).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "steps_list, start_sector",
    [((1, 2, 3, 4), 0.75), ((1, 2, 4, 8, 16, 32, 64), 0.75), ((1, 2, 4, 8, 16, 32, 64), 2.75)],
    ids=["fig3", "figS2-0.75", "figS2-2.75"],
)
def test_batched_sweep_matches_per_point_loop_bitwise(layout, steps_list, start_sector, per_point_sweep):
    phis = cli._phi_grid(0.05, 2.0, 0.05)  # the fig3 and figS2 default grid
    assert len(phis) == 40
    rows = dyn.sweep(layout, 1.0, list(steps_list), phis, start_sector)
    assert repr(rows) == repr(per_point_sweep(layout, 1.0, steps_list, phis, start_sector))


@pytest.mark.parametrize(
    "name, starts",
    [("triangle", [0.75]), ("two_plaquette", [0.75]), ("strip3", [0.75]), ("bowtie", [1.5, 3.5])],
    ids=["triangle", "two_plaquette", "strip3", "bowtie"],
)
def test_flip_kernel_matches_the_gather_reference_bitwise(
    layouts, strip3, off_span_layouts, name, starts, gather_trotter, monkeypatch
):
    layout = {**layouts, **off_span_layouts, "strip3": strip3}[name]
    # the 40 default phis: from 32 phis up, strip3's sums read the batch's memory order
    phis = cli._phi_grid(0.05, 2.0, 0.05)
    rows = dyn.sweep(layout, 1.0, [3, 1], phis, starts)
    monkeypatch.setattr(dyn, "_apply_factors", gather_trotter)
    assert repr(rows) == repr(dyn.sweep(layout, 1.0, [3, 1], phis, starts))


def test_trotter_evolve_matches_the_gather_reference_bitwise(monomials, gather_trotter, monkeypatch):
    rng = np.random.default_rng(18)
    psi = rng.normal(size=2**6) + 1j * rng.normal(size=2**6)
    psi /= np.linalg.norm(psi)
    out = dyn.trotter_evolve(monomials, psi, 1.1, 3)
    monkeypatch.setattr(dyn, "_apply_factors", gather_trotter)
    assert out.tobytes() == dyn.trotter_evolve(monomials, psi, 1.1, 3).tobytes()


# each figure's default step counts and start sectors, on its default phi
# grid; figS2 on two phases only
FIGURES = {
    "fig3": ((1, 2, 3, 4), (0.75,), cli._phi_grid(*cli._PHI_DEFAULTS["fig3"])),
    "fig4": ((2, 3), (2.25,), cli._phi_grid(*cli._PHI_DEFAULTS["fig4"])),
    "figS2": ((1, 2, 4, 8, 16, 32, 64), (0.75, 2.75), [0.5, 2.0]),
}
# sectors that the layouts without a 0.75, 2.25 or 2.75 sector do have
OFF_SPAN_STARTS = {"fig3": (1.5,), "fig4": (3.5,), "figS2": (1.5, 3.5)}


@pytest.mark.parametrize("figure", sorted(FIGURES))
@pytest.mark.parametrize("name", ["two_plaquette", "strip3", "bowtie", "dangling_link"])
def test_rows_path_matches_full_register_oracle(layouts, strip3, off_span_layouts, name, figure, per_point_sweep):
    layout = {**layouts, **off_span_layouts, "strip3": strip3}[name]
    steps_list, starts, phis = FIGURES[figure]
    if name in off_span_layouts:
        starts = OFF_SPAN_STARTS[figure]
    rows = dyn.sweep(layout, 1.0, list(steps_list), phis, starts)
    expected = [
        row for start in starts for row in per_point_sweep(layout, 1.0, steps_list, phis, start, full_register=True)
    ]
    assert [(r.steps, r.phi) for r in rows] == [(r.steps, r.phi) for r in expected]
    difference = np.array([astuple(r) for r in rows]) - np.array([astuple(r) for r in expected])
    assert np.max(np.abs(difference)) < 1e-12


def test_each_start_evolves_on_its_own_coset(layout, monkeypatch):
    # the figS2 starts 0.75 and 2.75 reach disjoint 8-state cosets of the triangle
    widths = []
    original = dyn._apply_factors

    def recording(factors, dt, steps, states):
        widths.append(np.shape(states))
        return original(factors, dt, steps, states)

    monkeypatch.setattr(dyn, "_apply_factors", recording)
    dyn.sweep(layout, 1.0, [1, 2, 4], [0.3, 0.6], [0.75, 2.75])
    assert widths == [(6, 8), (6, 8)]


@pytest.mark.parametrize("name", ["bowtie", "dangling_link"])
def test_start_rows_close_under_the_casimir_too(off_span_layouts, name, monkeypatch):
    # the Casimir pairs the spin qubits of links that meet at a vertex, which
    # no plaquette term does here, so a start's rows join several of H's cosets
    layout = off_span_layouts[name]
    hamiltonian = lm.plaquette_hamiltonian(layout, 1.0)
    rank = len(span([hamiltonian, lm.total_gauge_casimir(layout)]))
    assert rank > len(span([hamiltonian]))
    widths = []
    original = dyn._apply_factors

    def recording(factors, dt, steps, states):
        widths.append(np.shape(states)[1])
        return original(factors, dt, steps, states)

    monkeypatch.setattr(dyn, "_apply_factors", recording)
    dyn.sweep(layout, 1.0, [1, 2], [0.3], [1.5, 3.5])
    assert widths == [2**rank] * 2


def test_sweep_norm_guard_checks_every_row(layout, monkeypatch):
    # one corrupted row of the batch must trip the guard
    original = dyn._apply_factors

    def corrupt_last_row(factors, dt, steps, states):
        out = original(factors, dt, steps, states).copy()
        out[-1] *= 1.001
        return out

    monkeypatch.setattr(dyn, "_apply_factors", corrupt_last_row)
    with pytest.raises(GuardError, match="norm"):
        dyn.sweep(layout, 1.0, [2], [0.3, 0.6, 0.9], 0.75)


@pytest.fixture(scope="module")
def dense_spectra(layouts):
    """eigh of the dense plaquette Hamiltonian (real symmetric) per layout."""
    out = {}
    for name in ("triangle", "two_plaquette"):
        matrix = dense(lm.plaquette_hamiltonian(layouts[name], 1.0), layouts[name].n_qubits)
        assert not matrix.imag.any()
        out[name] = np.linalg.eigh(matrix.real)
    return out


@pytest.mark.parametrize("name", ["triangle", "two_plaquette"])
def test_lanczos_exact_evolve_matches_eigh(layouts, dense_spectra, name):
    layout = layouts[name]
    n = layout.n_qubits
    hamiltonian = lm.plaquette_hamiltonian(layout, 1.0)
    eigvals, eigvecs = dense_spectra[name]
    rng = np.random.default_rng(5)
    random_psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    table = lm.gauge_sectors(layout)
    states = [random_psi / np.linalg.norm(random_psi), basis_state(n, 0), basis_state(n, 2**n - 3)]
    states += [lm.canonical_sector_state(table, ev) for ev in table.eigenvalues()]
    for psi in states:
        for t in (0.0, 0.37, 1.3, -2.0, 7.5):
            expected = eigvecs @ (np.exp(-1j * eigvals * t) * (eigvecs.T @ psi))
            assert np.max(np.abs(dyn.exact_evolve(hamiltonian, psi, t) - expected)) < 1e-12


def test_lanczos_exact_evolve_matches_eigh_on_random_pauli_sum():
    rng = np.random.default_rng(11)
    terms = [
        PauliString(rng.normal(), {q: "XYZ"[rng.integers(3)] for q in range(5) if rng.random() < 0.6} or {0: "Z"})
        for _ in range(25)
    ]
    h = PauliSum(terms)
    eigvals, eigvecs = np.linalg.eigh(dense(h, 5))
    psi = rng.normal(size=32) + 1j * rng.normal(size=32)
    psi /= np.linalg.norm(psi)
    expected = (eigvecs * np.exp(-0.9j * eigvals)) @ (eigvecs.conj().T @ psi)
    assert np.max(np.abs(dyn.exact_evolve(h, psi, 0.9) - expected)) < 1e-12


def test_lanczos_holds_at_most_three_blocks():
    # a Krylov space that fills all d rows, the case that the sweep's 48 d^2
    # bytes for the Lanczos stage are sized for, beside H's matvec pairs and
    # the last step's few d-entry vectors
    rng = np.random.default_rng(2)
    n, d = 9, 2**9
    h = PauliSum(
        PauliString(rng.normal(), {int(q): "XYZ"[rng.integers(3)] for q in rng.choice(n, size=3, replace=False)})
        for _ in range(60)
    )
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    tracemalloc.start()
    eigvals, _, _ = dyn._krylov_spectrum(h, psi)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(eigvals) == d
    assert peak < 48 * d**2 + (24 * pair_count(h) + 16 * 4) * d + 2**16


def test_lanczos_checks_each_growth_of_its_block(memory_boundary):
    # a Krylov space that fills all d = 512 rows: each doubling of the block is
    # checked before it is allocated, the last one at the three full blocks
    rng = np.random.default_rng(2)
    n, d = 9, 2**9
    h = PauliSum(
        PauliString(rng.normal(), {int(q): "XYZ"[rng.integers(3)] for q in rng.choice(n, size=3, replace=False)})
        for _ in range(60)
    )
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    assert len(span([h])) == n
    assert memory_boundary(lambda: dyn.exact_evolve(h, psi, 0.4)) == 48 * d * d
    with pytest.raises(GuardError, match=f"^Lanczos block of {d} vectors of {d} entries needs"):
        dyn.exact_evolve(h, psi, 0.4)


def test_lanczos_residual_guard(hamiltonian, sector_table, monkeypatch):
    psi0 = lm.canonical_sector_state(sector_table, 0.75)
    # stopping before the Krylov space closes leaves the last beta in the residual
    with monkeypatch.context() as patch:
        patch.setattr(dyn, "LANCZOS_BREAKDOWN", 0.5)
        with pytest.raises(GuardError, match="Lanczos residual"):
            dyn.exact_evolve(hamiltonian, psi0, 0.5)
    # an operator that is not the same linear map at every call breaks H V = V T
    original = dyn.matvec
    rng = np.random.default_rng(0)

    def noisy_matvec(op, n):
        apply = original(op, n)
        return lambda states: apply(states) + 1e-6 * rng.normal(size=np.shape(states))

    monkeypatch.setattr(dyn, "matvec", noisy_matvec)
    with pytest.raises(GuardError, match="Lanczos residual"):
        dyn.exact_evolve(hamiltonian, psi0, 0.5)


def test_expectations_match_dense(layout, hamiltonian, full_register_expectation):
    rng = np.random.default_rng(8)
    states = []
    for _ in range(2):
        psi = rng.normal(size=64) + 1j * rng.normal(size=64)
        states.append(psi / np.linalg.norm(psi))
    casimir = lm.total_gauge_casimir(layout)
    for op in (casimir, hamiltonian, PauliSum([PauliString(0.3, {1: "Y", 4: "X"}), PauliString(-1.1, {2: "Z"})])):
        matrix = dense(op, 6)
        values = [float((psi.conj() @ matrix @ psi).real) for psi in states]
        assert abs(full_register_expectation(op, states[0]) - values[0]) < 1e-12
        expected = (values[0] - values[1]) / values[0]
        assert abs(dyn.relative_deviation(op, states[0], states[1]) - expected) < 1e-12
    matrix = dense(casimir, 6)
    values = [float((psi.conj() @ matrix @ psi).real) for psi in states]
    assert abs(dyn.gauge_deviation(states[0], states[1], layout) - (values[0] - values[1]) / values[0]) < 1e-12


def test_two_plaquette_sweep_builds_no_dense_matrix(two_plaquette, monkeypatch):
    def refuse_dense(*args, **kwargs):
        raise AssertionError("dense matrix built on the sweep path")

    sizes = []
    original_eigh = np.linalg.eigh

    def recording_eigh(matrix, *args, **kwargs):
        sizes.append(np.shape(matrix)[-1])
        return original_eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(lm, "dense", refuse_dense)
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    rows = dyn.sweep(two_plaquette, 1.0, [1, 2], [0.5, 1.0], 0.75)
    assert len(rows) == 4
    assert sizes and max(sizes) <= 64  # only the Lanczos tridiagonal matrix


def random_coset_sum(rng, n):
    """A random Hermitian Pauli sum on n qubits whose X masks leave at least
    four XOR cosets, so that every sparse start evolves on part of the
    register."""
    while True:
        terms = [
            PauliString(rng.normal(), {q: "XYZ"[rng.integers(3)] for q in range(n) if rng.random() < 0.6} or {0: "Z"})
            for _ in range(int(rng.integers(2, 6)))
        ]
        h = PauliSum(terms)
        if len(span([h])) <= n - 2:
            return h


def sparse_starts(rng, h, n):
    """A basis state, a state on two indices of one coset and a state on one
    index each of two cosets."""
    one = int(rng.integers(2**n))
    rows = coset(span([h]), one)
    other = int(rng.choice(np.setdiff1d(np.arange(2**n), rows)))
    partner = int(rng.choice(rows[rows != one])) if len(rows) > 1 else one
    starts = []
    for indices in ([one], [one, partner], [one, other]):
        psi = np.zeros(2**n, dtype=complex)
        psi[indices] = rng.normal(size=len(indices)) + 1j * rng.normal(size=len(indices))
        starts.append(psi / np.linalg.norm(psi))
    assert len(coset(span([h], [one, other]), one)) == 2 * len(rows)
    return starts


@pytest.mark.parametrize("n", [3, 4, 5])
def test_restricted_evolution_matches_dense_on_random_pauli_sums(n):
    rng = np.random.default_rng(20 + n)
    for _ in range(6):
        h = random_coset_sum(rng, n)
        matrix = dense(h, n)
        for psi in sparse_starts(rng, h, n):
            assert len(span([h], np.flatnonzero(psi))) < n
            for t in (0.4, -1.3):
                expected = expi_hermitian(matrix, scale=-t) @ psi
                assert np.max(np.abs(dyn.exact_evolve(h, psi, t) - expected)) < 1e-12
            shuffled = [h.terms[k] for k in rng.permutation(len(h))]
            expected = dense_trotter_reference(shuffled, psi, 0.9, 3)
            assert np.max(np.abs(dyn.trotter_evolve(shuffled, psi, 0.9, 3) - expected)) < 1e-12


def full_register_trotter(monomials, state, t, steps):
    """The Trotter product on all 2^n amplitudes with the unrestricted kernel."""
    n = int(np.log2(len(state)))
    dt = t / steps
    out = state
    for _ in range(steps):
        for term in monomials:
            angle = term.coefficient.real * dt
            out = np.cos(angle) * out - 1j * np.sin(angle) * matvec(term.bare(), n)(out)
    return out


def taylor_evolve(hamiltonian, state, t, pieces=16, order=30):
    """exp(-i H t) state as `pieces` truncated Taylor series on the full
    register, through the unrestricted matvec."""
    apply_h = matvec(hamiltonian, int(np.log2(len(state))))
    out = state
    for _ in range(pieces):
        term, total = out, out.copy()
        for k in range(1, order):
            term = apply_h(term) * (-1j * t / pieces / k)
            total = total + term
        out = total
    return out


@pytest.mark.parametrize("name", ["triangle", "two_plaquette", "disjoint_triangles", "unused_qubit"])
def test_restricted_evolution_matches_full_register_on_layouts(layouts, name):
    layout = layouts[name]
    n = layout.n_qubits
    hamiltonian = lm.plaquette_hamiltonian(layout, 1.0)
    table = lm.gauge_sectors(layout)
    low, high = table.eigenvalues()[0], table.eigenvalues()[-1]
    mixed = lm.canonical_sector_state(table, low) + lm.canonical_sector_state(table, high)
    states = [lm.canonical_sector_state(table, low), mixed / np.linalg.norm(mixed), basis_state(n, 2**n - 1)]
    monomials = lm.plaquette_monomials(layout, 1.0)
    for psi in states:
        assert len(span([hamiltonian], np.flatnonzero(psi))) < n
        assert np.max(np.abs(dyn.exact_evolve(hamiltonian, psi, 0.7) - taylor_evolve(hamiltonian, psi, 0.7))) < 1e-12
        expected = full_register_trotter(monomials, psi, 0.8, 3)
        assert np.max(np.abs(dyn.trotter_evolve(monomials, psi, 0.8, 3) - expected)) < 1e-12


@pytest.mark.parametrize("name", ["triangle", "two_plaquette", "disjoint_triangles", "unused_qubit"])
def test_ragged_sweep_rows_match_single_calls_bitwise(layouts, name):
    layout = layouts[name]
    starts = lm.gauge_sectors(layout).eigenvalues()[:2]
    phis = [0.3, 0.7]
    rows = dyn.sweep(layout, 1.0, [3, 1, 3], phis, starts)
    assert [(r.steps, r.phi) for r in rows] == [(n, phi) for _ in starts for n in (3, 1, 3) for phi in phis]
    expected = [row for start in starts for n in (3, 1, 3) for row in dyn.sweep(layout, 1.0, [n], phis, start)]
    assert repr(rows) == repr(expected)


def test_sweep_builds_the_casimir_once_per_call(layout, monkeypatch):
    calls = []
    original = lm.total_gauge_casimir

    def counting(layout):
        calls.append(layout)
        return original(layout)

    monkeypatch.setattr(lm, "total_gauge_casimir", counting)
    monkeypatch.setattr(dyn, "total_gauge_casimir", counting)
    dyn.sweep(layout, 1.0, [2, 1], [0.3, 0.6], [0.75, 2.75])
    assert len(calls) == 1
