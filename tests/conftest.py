"""Shared layouts, dense oracles and the memory-budget probe."""
import re
from pathlib import Path

import numpy as np
import pytest

from su2link import dynamics as dyn
from su2link import errors
from su2link import linkmodel as lm
from su2link.errors import GuardError
from su2link.linkmodel import Link, PlaquetteLayout
from su2link.pauli import columns, coset, dense, matvec, restrict, span

# two triangles sharing link 23: 1 -> 2 -> 3 -> 1 and 2 -> 3 -> 4 -> 2, qubits 0-9
TWO_PLAQUETTE = """\
vertex 1
vertex 2
vertex 3
vertex 4
link 12 1 2 0 1
link 23 2 3 2 3
link 31 3 1 4 5
link 34 3 4 6 7
link 42 4 2 8 9
plaquette 12 23 31
plaquette 23 34 42
"""
# eigenvalues of the dense Casimir within this distance belong to one sector
SECTOR_CLUSTER_TOL = 1e-8
# the triangle with one spin qubit at index 5e9: a register no float can size
HUGE_INDEX = """\
link 12 1 2 0 1
link 23 2 3 2 3
link 31 3 1 4 5000000000
plaquette 12 23 31
"""


def _triangle(first_vertex: int, qubits: tuple[int, ...]) -> tuple[tuple[Link, ...], tuple[str, ...]]:
    """Links v -> v+1 -> v+2 -> v with (position, spin) qubits taken in pairs."""
    a, b, c = first_vertex, first_vertex + 1, first_vertex + 2
    ends = [(a, b), (b, c), (c, a)]
    links = tuple(
        Link(f"{frm}{to}", frm, to, qubits[2 * k], qubits[2 * k + 1]) for k, (frm, to) in enumerate(ends)
    )
    return links, tuple(link.link_id for link in links)


@pytest.fixture(scope="session")
def layouts() -> dict[str, PlaquetteLayout]:
    first, plaq_a = _triangle(1, (0, 1, 2, 3, 4, 5))
    second, plaq_b = _triangle(11, (6, 7, 8, 9, 10, 11))
    gapped, plaq_g = _triangle(1, (0, 1, 3, 4, 5, 6))  # qubit 2 belongs to no link
    return {
        "triangle": lm.triangle_layout(),
        "two_plaquette": lm.parse_layout(TWO_PLAQUETTE),
        "disjoint_triangles": PlaquetteLayout(first + second, (plaq_a, plaq_b)),
        "unused_qubit": PlaquetteLayout(gapped, (plaq_g,)),
    }


@pytest.fixture(scope="session")
def two_plaquette(layouts) -> PlaquetteLayout:
    return layouts["two_plaquette"]


@pytest.fixture(scope="session")
def strip3() -> PlaquetteLayout:
    """Three triangles, each sharing one link with the next: 14 qubits."""
    return lm.parse_layout((Path(__file__).parent / "data" / "strip3.layout").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def strip4() -> PlaquetteLayout:
    """Four triangles, each sharing one link with the next: 18 qubits."""
    return lm.parse_layout((Path(__file__).parent / "data" / "strip4.layout").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def off_span_layouts() -> dict[str, PlaquetteLayout]:
    """Layouts where the Casimir has X masks outside the span of the
    Hamiltonian's: two triangles that share only a vertex (12 qubits), and
    the triangle with a link in no plaquette (8 qubits)."""
    data = Path(__file__).parent / "data"
    return {
        name: lm.parse_layout((data / f"{name}.layout").read_text(encoding="utf-8"))
        for name in ("bowtie", "dangling_link")
    }


@pytest.fixture(scope="session")
def two_plaquette_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("layouts") / "two_plaquette.layout"
    path.write_text(TWO_PLAQUETTE, encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def sector_basis():
    """Dense oracle for a sector of a ``GaugeSectorTable``: an orthonormal
    eigenbasis, shape (2^n, degeneracy), from ``eigh`` of the dense Casimir
    on every call."""

    def basis(table: lm.GaugeSectorTable, eigenvalue: float) -> np.ndarray:
        eigvals, eigvecs = np.linalg.eigh(dense(lm.total_gauge_casimir(table.layout), table.n_qubits))
        return eigvecs[:, np.abs(eigvals - eigenvalue) <= SECTOR_CLUSTER_TOL]

    return basis


@pytest.fixture(scope="session")
def dense_canonical_state():
    """Sector representatives from a dense eigenbasis of the Casimir: the
    normalized projection of the lowest-index basis state with weight in the
    sector.  One ``eigh`` per layout, cached for the session."""
    cache = {}

    def state(layout: PlaquetteLayout, eigenvalue: float) -> np.ndarray:
        if layout not in cache:
            casimir = dense(lm.total_gauge_casimir(layout), layout.n_qubits)
            assert not casimir.imag.any()  # real symmetric, so eigh of the real part suffices
            cache[layout] = np.linalg.eigh(casimir.real)
        eigvals, eigvecs = cache[layout]
        basis = eigvecs[:, np.abs(eigvals - eigenvalue) <= SECTOR_CLUSTER_TOL]
        for index in range(len(basis)):
            component = basis @ basis[index].conj()
            norm = np.linalg.norm(component)
            if norm > 1e-8:
                return component / norm
        raise AssertionError(f"no sector with eigenvalue {eigenvalue}")

    return state


def _full_register_sector_state(table: lm.GaugeSectorTable, eigenvalue: float) -> np.ndarray:
    """``canonical_sector_state`` on all 2^n amplitudes: the seed basis state
    projected with the unrestricted Casimir's ``matvec``."""
    state = np.zeros(2**table.n_qubits, dtype=complex)
    state[lm.sector_seed(table, eigenvalue)] = 1.0
    apply_casimir = matvec(lm.total_gauge_casimir(table.layout), table.n_qubits)
    return lm.sector_projection(table, eigenvalue, state, apply_casimir)


def _full_register_expectation(op, state: np.ndarray) -> float:
    """<psi|op|psi> of a Hermitian op on all 2^n amplitudes, through the
    unrestricted ``matvec``."""
    return float(dyn._expectations(matvec(op, dyn._n_qubits_of(state)), state))


@pytest.fixture(scope="session")
def full_register_sector_state():
    return _full_register_sector_state


@pytest.fixture(scope="session")
def full_register_expectation():
    return _full_register_expectation


def _per_point_sweep(layout, coupling, steps_list, phis, start_sector, full_register=False):
    """sweep() as a loop over grid points: one exact_evolve per phi and one
    trotter_evolve per point, on full 2^n vectors.

    By default the start state and the observables are taken as sweep()
    takes them, on the coset of the Hamiltonian's and the Casimir's X masks
    that holds the sector's seed basis state, with the Casimir restricted
    there, so that each row must match sweep() bitwise.  With
    ``full_register`` the start is ``_full_register_sector_state`` and every
    expectation value and overlap runs on all 2^n amplitudes: an oracle for
    the tapered path, whose start and observables use neither ``coset``
    nor ``restrict``."""
    n = layout.n_qubits
    table = lm.gauge_sectors(layout)
    monomials = lm.plaquette_monomials(layout, coupling)
    hamiltonian = lm.plaquette_hamiltonian(layout, coupling)
    casimir = lm.total_gauge_casimir(layout)
    if full_register:
        rows = np.arange(2**n)
        apply_casimir = matvec(casimir, n)
        start = _full_register_sector_state(table, start_sector)
    else:
        seed = lm.sector_seed(table, start_sector)
        basis = span([hamiltonian, casimir])
        rows = coset(basis, seed)
        apply_casimir = matvec(restrict(casimir, basis, int(rows[0])), len(basis))
        start = lm.sector_projection(table, start_sector, (rows == seed).astype(complex), apply_casimir)
    psi0 = np.zeros(2**n, dtype=complex)
    psi0[rows] = start
    ideal = {phi: dyn.exact_evolve(hamiltonian, psi0, phi / coupling)[rows] for phi in phis}
    gauge_ideal = {phi: float(dyn._expectations(apply_casimir, psi)) for phi, psi in ideal.items()}
    out = []
    for steps in steps_list:
        for phi in phis:
            psi_ideal, gauge_i = ideal[phi], gauge_ideal[phi]
            psi_digital = dyn.trotter_evolve(monomials, psi0, phi / coupling, steps)[rows]
            gauge_d = float(dyn._expectations(apply_casimir, psi_digital))
            out.append(
                dyn.SweepRow(
                    steps, float(phi), (gauge_i - gauge_d) / gauge_i, dyn.overlap(psi_ideal, start),
                    dyn.overlap(psi_ideal, psi_digital), gauge_i, gauge_d,
                )
            )
    return out


def _gather_trotter(monomials, dt, steps, states):
    """``dynamics._apply_factors`` as a gather: each monomial c P becomes one
    index table ``perm`` and its phases on every basis state, P psi =
    phases * psi[..., perm], and each factor gathers the active rows of the
    batch through it, which is held one state per row."""
    n = np.shape(states)[1].bit_length() - 1
    factors = []
    for monomial in monomials:
        ((perm, values),) = columns(monomial.bare(), np.arange(2**n), n)
        factors.append((monomial.coefficient.real, perm, values[perm]))
    dt = np.asarray(dt, dtype=float)[:, None]
    steps = np.asarray(steps)
    trig = [(np.cos(c * dt), 1j * np.sin(c * dt), perm, phases) for c, perm, phases in factors]
    out = np.array(states, dtype=complex)
    for step in range(int(steps.max(initial=0))):
        active = int(np.count_nonzero(steps > step))
        block = out[:active]
        for cos_a, isin_a, perm, phases in trig:
            flipped = block[:, perm]
            flipped *= phases
            flipped *= isin_a[:active]
            block *= cos_a[:active]
            block -= flipped
    return out


@pytest.fixture(scope="session")
def gather_trotter():
    return _gather_trotter


@pytest.fixture(scope="session")
def per_point_sweep():
    return _per_point_sweep


@pytest.fixture(scope="session")
def huge_index_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("layouts") / "huge_index.layout"
    path.write_text(HUGE_INDEX, encoding="utf-8")
    return path


@pytest.fixture
def memory_boundary(monkeypatch):
    """Pins a call's memory guard at its boundary.  The budget starts at 0
    and rises to each estimate a refusal names, until the call runs; that
    last budget is the largest estimate the call checks.  One byte less must
    refuse the call, naming that estimate.  Returns the estimate."""

    def pin(call) -> int:
        budget = 0
        while True:
            monkeypatch.setattr(errors, "MEMORY_BUDGET", budget)
            try:
                call()
                break
            except GuardError as err:
                estimate = int(re.search(r"needs an estimated (\d+) bytes", str(err))[1])
                assert estimate > budget
                budget = estimate
        monkeypatch.setattr(errors, "MEMORY_BUDGET", budget - 1)
        with pytest.raises(GuardError, match=f"needs an estimated {budget} bytes, over the memory budget of {budget - 1} bytes"):
            call()
        return budget

    return pin
