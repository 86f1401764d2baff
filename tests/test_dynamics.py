import numpy as np
import pytest

from su2link import cli
from su2link import dynamics as dyn
from su2link import linkmodel as lm
from su2link.errors import GuardError
from su2link.linalg import expi_hermitian
from su2link.pauli import PauliString, PauliSum, action, dense, matvec, reachable


@pytest.fixture(scope="module")
def layout():
    return lm.triangle_layout()


@pytest.fixture(scope="module")
def hamiltonian(layout):
    return lm.plaquette_hamiltonian(layout, 1.0)


@pytest.fixture(scope="module")
def sector_table(layout):
    return lm.gauge_sectors(layout)


def test_exact_evolve_identity_at_zero_time(hamiltonian, layout):
    psi = dyn.basis_state(layout.n_qubits, 5)
    out = dyn.exact_evolve(hamiltonian, psi, 0.0)
    assert np.allclose(out, psi, atol=1e-12)


def test_exact_evolve_eigenstate_phase():
    h = PauliSum([PauliString(1.0, {0: "Z"})])
    psi = dyn.basis_state(1, 0)
    out = dyn.exact_evolve(h, psi, 0.7)
    assert np.allclose(out, np.exp(-0.7j) * psi, atol=1e-12)


def test_exact_evolve_guards():
    non_hermitian = PauliSum([PauliString(1j, {0: "Z"})])
    with pytest.raises(GuardError):
        dyn.exact_evolve(non_hermitian, dyn.basis_state(1, 0), 0.1)
    h = PauliSum([PauliString(1.0, {0: "Z"})])
    with pytest.raises(GuardError):
        dyn.exact_evolve(h, dyn.basis_state(13, 0), 0.1)


def test_exact_evolution_conserves_casimir(hamiltonian, layout, sector_table):
    casimir = lm.total_gauge_casimir(layout)
    psi0 = lm.canonical_sector_state(sector_table, 0.75)
    before = dyn.expectation(casimir, psi0)
    after = dyn.expectation(casimir, dyn.exact_evolve(hamiltonian, psi0, 1.3))
    assert abs(before - after) < 1e-10


def test_evolution_commutes_with_sector_projection(hamiltonian, layout, sector_table):
    rng = np.random.default_rng(2)
    psi = rng.normal(size=64) + 1j * rng.normal(size=64)
    psi /= np.linalg.norm(psi)
    sector = sector_table.sector(2.75)
    projector = sector.basis @ sector.basis.conj().T
    project_then_evolve = dyn.exact_evolve(hamiltonian, projector @ psi / np.linalg.norm(projector @ psi), 0.9)
    evolve_then_project = projector @ dyn.exact_evolve(hamiltonian, psi, 0.9)
    evolve_then_project /= np.linalg.norm(evolve_then_project)
    # equal up to the phase fixed by linearity: compare as rays
    assert 1 - dyn.overlap(project_then_evolve, evolve_then_project) < 1e-9


def test_trotter_single_term_is_exact():
    h = PauliSum([PauliString(0.8, {0: "X", 1: "X"})])
    psi = dyn.basis_state(2, 1)
    plan = dyn.trotter_plan(h, 1, 0.9)
    assert np.allclose(
        dyn.trotter_evolve(h, plan, psi), dyn.exact_evolve(h, psi, 0.9), atol=1e-12
    )


def test_trotter_zero_phase_identity(hamiltonian, layout):
    psi = dyn.basis_state(layout.n_qubits, 7)
    _, plan = dyn.plaquette_plan(layout, 1.0, 3, 0.0)
    assert np.allclose(dyn.trotter_evolve(hamiltonian, plan, psi), psi, atol=1e-12)


def test_trotter_plan_validation(hamiltonian):
    with pytest.raises(ValueError):
        dyn.TrotterPlan((0, 1), 0, 1.0)
    with pytest.raises(ValueError):
        dyn.TrotterPlan((0, 0, 1), 2, 1.0)
    with pytest.raises(ValueError):
        dyn.trotter_evolve(hamiltonian, dyn.TrotterPlan((0, 1), 2, 1.0), dyn.basis_state(6, 0))


def test_trotter_error_decreases_and_scales(hamiltonian, layout, sector_table):
    psi0 = lm.canonical_sector_state(sector_table, 0.75)
    psi_ideal = dyn.exact_evolve(hamiltonian, psi0, 0.5)
    steps = [1, 2, 4, 8, 16, 32, 64]
    errors = []
    for n_steps in steps:
        _, plan = dyn.plaquette_plan(layout, 1.0, n_steps, 0.5)
        errors.append(np.linalg.norm(dyn.trotter_evolve(hamiltonian, plan, psi0) - psi_ideal))
    assert all(b < a for a, b in zip(errors, errors[1:]))
    slope = np.polyfit(np.log(steps[2:]), np.log(errors[2:]), 1)[0]
    assert 0.8 <= -slope <= 1.2


def test_unitarity_preserved(hamiltonian, layout):
    psi = dyn.basis_state(layout.n_qubits, 3)
    _, plan = dyn.plaquette_plan(layout, 1.0, 5, 1.7)
    out = dyn.trotter_evolve(hamiltonian, plan, psi)
    assert abs(np.linalg.norm(out) - 1) < 1e-10
    out = dyn.exact_evolve(hamiltonian, psi, 1.7)
    assert abs(np.linalg.norm(out) - 1) < 1e-10


def test_overlap_basics():
    a = dyn.basis_state(2, 0)
    b = dyn.basis_state(2, 2)
    assert dyn.overlap(a, a) == pytest.approx(1.0)
    assert dyn.overlap(a, b) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        dyn.overlap(a, dyn.basis_state(3, 0))


def test_relative_deviation_guard():
    op = PauliSum([PauliString(1.0, {0: "Z"})])
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    with pytest.raises(GuardError):
        dyn.relative_deviation(op, plus, plus)


def test_gauge_deviation_trivial_cases(hamiltonian, layout, sector_table):
    psi0 = lm.canonical_sector_state(sector_table, 0.75)
    assert dyn.gauge_deviation(psi0, psi0, layout) == pytest.approx(0.0, abs=1e-12)
    psi_ideal = dyn.exact_evolve(hamiltonian, psi0, 0.8)
    _, plan = dyn.plaquette_plan(layout, 1.0, 2, 0.8)
    psi_digital = dyn.trotter_evolve(hamiltonian, plan, psi0)
    assert abs(dyn.gauge_deviation(psi_ideal, psi_digital, layout)) > 1e-6


def test_gauge_deviation_shrinks_with_steps(hamiltonian, layout, sector_table):
    psi0 = lm.canonical_sector_state(sector_table, 0.75)
    for phi in (0.25, 0.5, 1.0):
        psi_ideal = dyn.exact_evolve(hamiltonian, psi0, phi)
        values = []
        for n_steps in (1, 4):
            _, plan = dyn.plaquette_plan(layout, 1.0, n_steps, phi)
            psi_digital = dyn.trotter_evolve(hamiltonian, plan, psi0)
            values.append(abs(dyn.gauge_deviation(psi_ideal, psi_digital, layout)))
        assert values[1] < values[0]


def test_deviation_vanishes_at_small_phase(hamiltonian, layout, sector_table):
    psi0 = lm.canonical_sector_state(sector_table, 0.75)
    for n_steps in (1, 2, 5):
        last = None
        for phi in (0.4, 0.2, 0.1, 0.05):
            psi_ideal = dyn.exact_evolve(hamiltonian, psi0, phi)
            _, plan = dyn.plaquette_plan(layout, 1.0, n_steps, phi)
            value = abs(dyn.gauge_deviation(psi_ideal, dyn.trotter_evolve(hamiltonian, plan, psi0), layout))
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


@pytest.mark.parametrize("backend", ["trotter", "exact"])
@pytest.mark.parametrize("steps_list", [[0], [-1], [2, 0]])
def test_sweep_rejects_step_count_below_one(layout, backend, steps_list):
    with pytest.raises(ValueError, match="step count must be at least 1"):
        dyn.sweep(layout, 1.0, steps_list, [0.5], 0.75, backend=backend)


def test_sweep_deterministic_and_serializable(layout):
    rows_a = dyn.sweep(layout, 1.0, [1, 2], [0.3, 0.6], 0.75)
    rows_b = dyn.sweep(layout, 1.0, [1, 2], [0.3, 0.6], 0.75)
    assert dyn.sweep_csv(rows_a) == dyn.sweep_csv(rows_b)
    assert dyn.sweep_json(rows_a) == dyn.sweep_json(rows_b)
    header = dyn.sweep_csv(rows_a).splitlines()[0]
    assert header == "N,phi,E,overlap_I0,fidelity_ID"
    assert len(rows_a) == 4
    assert [(r.steps, r.phi) for r in rows_a] == [(1, 0.3), (1, 0.6), (2, 0.3), (2, 0.6)]


def test_sweep_exact_backend(layout):
    rows = dyn.sweep(layout, 1.0, [1], [0.4], 2.25, backend="exact")
    assert rows[0].deviation == pytest.approx(0.0, abs=1e-12)
    assert rows[0].fidelity == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        dyn.sweep(layout, 1.0, [1], [0.4], 2.25, backend="qed")


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


def dense_trotter_reference(hamiltonian, plan, state, coupling=1.0):
    """The Trotter loop as it was before the bit-mask kernel: one dense matrix
    per monomial, applied by matrix-vector products."""
    n = int(np.log2(len(state)))
    dt = plan.phi / coupling / plan.steps
    factors = []
    for k in plan.order:
        term = hamiltonian.terms[k]
        angle = term.coefficient.real * dt
        factors.append((np.cos(angle), np.sin(angle), dense(term.bare(), n)))
    out = state
    for _ in range(plan.steps):
        for cos_a, sin_a, matrix in factors:
            out = cos_a * out - 1j * sin_a * (matrix @ out)
    return out


def per_point_sweep_reference(layout, coupling, steps_list, phis, start_sector):
    """sweep() as a loop over grid points: one exact_evolve per phi, one
    trotter_evolve and one plan per point, and the gauge values through
    expectation()."""
    psi0 = lm.canonical_sector_state(lm.gauge_sectors(layout), start_sector)
    hamiltonian = lm.plaquette_hamiltonian(layout, coupling)
    casimir = lm.total_gauge_casimir(layout)
    ideal = {phi: dyn.exact_evolve(hamiltonian, psi0, phi / coupling) for phi in phis}
    gauge_ideal = {phi: dyn.expectation(casimir, psi) for phi, psi in ideal.items()}
    rows = []
    for steps in steps_list:
        for phi in phis:
            psi_ideal, gauge_i = ideal[phi], gauge_ideal[phi]
            _, plan = dyn.plaquette_plan(layout, coupling, steps, phi)
            psi_digital = dyn.trotter_evolve(hamiltonian, plan, psi0, coupling)
            gauge_d = dyn.expectation(casimir, psi_digital)
            rows.append(
                dyn.SweepRow(
                    steps, float(phi), (gauge_i - gauge_d) / gauge_i, dyn.overlap(psi_ideal, psi0),
                    dyn.overlap(psi_ideal, psi_digital), gauge_i, gauge_d,
                )
            )
    return rows


def test_trotter_kernel_matches_dense_loop_bitwise(hamiltonian, layout, sector_table):
    rng = np.random.default_rng(3)
    random_psi = rng.normal(size=2**6) + 1j * rng.normal(size=2**6)
    states = [lm.canonical_sector_state(sector_table, 0.75), random_psi / np.linalg.norm(random_psi)]
    for psi in states:
        for steps, phi in [(1, 0.05), (3, 0.7), (8, 2.0)]:
            _, plan = dyn.plaquette_plan(layout, 1.0, steps, phi)
            expected = dense_trotter_reference(hamiltonian, plan, psi)
            assert dyn.trotter_evolve(hamiltonian, plan, psi).tobytes() == expected.tobytes()
    shuffled = dyn.TrotterPlan(tuple(rng.permutation(len(hamiltonian)).tolist()), 2, 1.3)
    expected = dense_trotter_reference(hamiltonian, shuffled, states[1], coupling=0.7)
    assert dyn.trotter_evolve(hamiltonian, shuffled, states[1], coupling=0.7).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "steps_list, start_sector",
    [((1, 2, 3, 4), 0.75), ((1, 2, 4, 8, 16, 32, 64), 0.75), ((1, 2, 4, 8, 16, 32, 64), 2.75)],
    ids=["fig3", "figS2-0.75", "figS2-2.75"],
)
def test_batched_sweep_matches_per_point_loop_bitwise(layout, steps_list, start_sector):
    phis = cli._phi_grid(0.05, 2.0, 0.05)  # the fig3 and figS2 default grid
    assert len(phis) == 40
    rows = dyn.sweep(layout, 1.0, list(steps_list), phis, start_sector)
    assert repr(rows) == repr(per_point_sweep_reference(layout, 1.0, steps_list, phis, start_sector))


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
    states = [random_psi / np.linalg.norm(random_psi), dyn.basis_state(n, 0), dyn.basis_state(n, 2**n - 3)]
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


def test_lanczos_residual_guard(hamiltonian, sector_table, monkeypatch):
    psi0 = lm.canonical_sector_state(sector_table, 0.75)
    # stopping before the Krylov space closes leaves the last beta in the residual
    with monkeypatch.context() as patch:
        patch.setattr(dyn, "LANCZOS_BREAKDOWN", 0.5)
        with pytest.raises(GuardError, match="Lanczos residual"):
            dyn.exact_evolve(hamiltonian, psi0, 0.5)
    # an operator that is not the same linear map at every call breaks H V = V T
    original = dyn._local_matvec
    rng = np.random.default_rng(0)

    def noisy_matvec(op, n):
        apply = original(op, n)
        return lambda states: apply(states) + 1e-6 * rng.normal(size=np.shape(states))

    monkeypatch.setattr(dyn, "_local_matvec", noisy_matvec)
    with pytest.raises(GuardError, match="Lanczos residual"):
        dyn.exact_evolve(hamiltonian, psi0, 0.5)


def test_expectations_match_dense(layout, hamiltonian):
    rng = np.random.default_rng(8)
    states = []
    for _ in range(2):
        psi = rng.normal(size=64) + 1j * rng.normal(size=64)
        states.append(psi / np.linalg.norm(psi))
    casimir = lm.total_gauge_casimir(layout)
    for op in (casimir, hamiltonian, PauliSum([PauliString(0.3, {1: "Y", 4: "X"}), PauliString(-1.1, {2: "Z"})])):
        matrix = dense(op, 6)
        values = [float((psi.conj() @ matrix @ psi).real) for psi in states]
        assert abs(dyn.expectation(op, states[0]) - values[0]) < 1e-12
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
        if len(reachable(h, [0], n)) <= 2 ** (n - 2):
            return h


def sparse_starts(rng, h, n):
    """A basis state, a state on two indices of one coset and a state on one
    index each of two cosets."""
    one = int(rng.integers(2**n))
    coset = reachable(h, [one], n)
    other = int(rng.choice(np.setdiff1d(np.arange(2**n), coset)))
    partner = int(rng.choice(coset[coset != one])) if len(coset) > 1 else one
    starts = []
    for indices in ([one], [one, partner], [one, other]):
        psi = np.zeros(2**n, dtype=complex)
        psi[indices] = rng.normal(size=len(indices)) + 1j * rng.normal(size=len(indices))
        starts.append(psi / np.linalg.norm(psi))
    assert len(reachable(h, [one, other], n)) == 2 * len(coset)
    return starts


@pytest.mark.parametrize("n", [3, 4, 5])
def test_restricted_evolution_matches_dense_on_random_pauli_sums(n):
    rng = np.random.default_rng(20 + n)
    for _ in range(6):
        h = random_coset_sum(rng, n)
        matrix = dense(h, n)
        for psi in sparse_starts(rng, h, n):
            assert len(dyn._reach(h, psi, n).rows) < 2**n
            for t in (0.4, -1.3):
                expected = expi_hermitian(matrix, scale=-t) @ psi
                assert np.max(np.abs(dyn.exact_evolve(h, psi, t) - expected)) < 1e-12
            plan = dyn.TrotterPlan(tuple(rng.permutation(len(h)).tolist()), 3, 0.9)
            expected = dense_trotter_reference(h, plan, psi)
            assert np.max(np.abs(dyn.trotter_evolve(h, plan, psi) - expected)) < 1e-12


def full_register_trotter(hamiltonian, plan, state):
    """The Trotter product on all 2^n amplitudes with the unrestricted kernel."""
    n = int(np.log2(len(state)))
    dt = plan.phi / plan.steps
    out = state
    for _ in range(plan.steps):
        for k in plan.order:
            term = hamiltonian.terms[k]
            perm, phases = action(term.bare(), n)
            angle = term.coefficient.real * dt
            out = np.cos(angle) * out - 1j * np.sin(angle) * (phases * out[perm])
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
    states = [lm.canonical_sector_state(table, low), mixed / np.linalg.norm(mixed), dyn.basis_state(n, 2**n - 1)]
    _, plan = dyn.plaquette_plan(layout, 1.0, 3, 0.8)
    for psi in states:
        assert len(dyn._reach(hamiltonian, psi, n).rows) < 2**n
        assert np.max(np.abs(dyn.exact_evolve(hamiltonian, psi, 0.7) - taylor_evolve(hamiltonian, psi, 0.7))) < 1e-12
        expected = full_register_trotter(hamiltonian, plan, psi)
        assert np.max(np.abs(dyn.trotter_evolve(hamiltonian, plan, psi) - expected)) < 1e-12


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
