"""Exact and Trotterized time evolution of plaquette states.

Exact evolution reduces the Hamiltonian to the Krylov space of the initial
state by Lanczos iteration (Park & Light, J. Chem. Phys. 85, 5870 (1986)),
run until that space is invariant, so the reduction is exact rather than an
approximation: the plaquette Hamiltonian has few distinct eigenvalues and the
space closes after a handful of vectors.  The small tridiagonal matrix is
diagonalised once and serves every time of a sweep.  Trotterized evolution
applies the closed-form exponential of one monomial at a time
(cos * 1 - i sin * P) in a fixed term order, repeated for the chosen number
of steps.  The simulated phase is phi = J * t, so at unit coupling the phase
and the evolution time coincide.

Every operator acts through the bit-mask kernel ``pauli.action``, with no
matrix: ``pauli.matvec`` for the Lanczos iteration and for expectation
values, and a factor table of (coefficient, perm, phases) for the Trotter
product, where one factor maps psi to ``cos * psi - i sin * (phases * psi[..., perm])``.
``sweep`` builds the table once and evolves all phases of one step count
together as a ``(n_phi, 2^n)`` batch, with the time step as a column; each
row gets the same arithmetic as a ``trotter_evolve`` call, and likewise for
the ideal states and ``exact_evolve``.

States are plain complex numpy arrays of length 2^n.  Every evolution
preserves the norm to 1e-10; sweeps are evaluated in deterministic grid order.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import GuardError
from .linkmodel import (
    PlaquetteLayout,
    canonical_sector_state,
    gauge_sectors,
    plaquette_hamiltonian,
    plaquette_monomials,
    total_gauge_casimir,
)
from .pauli import PauliSum, action, matvec

EVOLVE_QUBIT_LIMIT = 12
NORM_TOL = 1e-10
LANCZOS_BREAKDOWN = 1e-13
DEVIATION_GUARD = 1e-12


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    state = np.zeros(2**n_qubits, dtype=complex)
    state[index] = 1.0
    return state


def _n_qubits_of(state: np.ndarray) -> int:
    n = int(np.log2(len(state)))
    if 2**n != len(state):
        raise ValueError("state length is not a power of two")
    return n


def _check_norm(states: np.ndarray) -> np.ndarray:
    """Guard one state, or every row of a batch of states."""
    if np.any(abs(np.linalg.norm(states, axis=-1) - 1.0) > NORM_TOL):
        raise GuardError("state norm drifted beyond 1e-10")
    return states


def _expectations(apply_op, states: np.ndarray) -> np.ndarray:
    """<psi|op|psi> of one state, or of every row of a batch, for a Hermitian
    op given as a ``pauli.matvec``."""
    return np.sum(states.conj() * apply_op(states), axis=-1).real


def expectation(op: PauliSum, state: np.ndarray) -> float:
    return float(_expectations(matvec(op, _n_qubits_of(state)), state))


def _krylov_spectrum(hamiltonian: PauliSum, state: np.ndarray):
    """Eigenpairs of H on the Krylov space of ``state``, as (eigvals,
    amplitudes, ritz): H ritz[k] = eigvals[k] ritz[k] and
    state = sum_k amplitudes[k] ritz[k].

    Lanczos with two full reorthogonalisations per step runs until the next
    vector vanishes (or the space fills the register), then the tridiagonal
    matrix T is diagonalised.  The residual ||H V - V T|| is guarded relative
    to the coefficient 1-norm of H, which bounds its operator norm.
    """
    n = _n_qubits_of(state)
    if n > EVOLVE_QUBIT_LIMIT:
        raise GuardError(f"exact evolution limited to {EVOLVE_QUBIT_LIMIT} qubits")
    if not hamiltonian.is_hermitian():
        raise GuardError("Hamiltonian must be Hermitian")
    _check_norm(state)
    apply_h = matvec(hamiltonian, n)
    scale = sum(abs(term.coefficient) for term in hamiltonian.terms)
    vectors, images, alphas, betas = [state / np.linalg.norm(state)], [], [], []
    while True:
        images.append(apply_h(vectors[-1]))
        alphas.append(np.vdot(vectors[-1], images[-1]).real)
        rest = images[-1] - alphas[-1] * vectors[-1] - (betas[-1] * vectors[-2] if betas else 0)
        block = np.array(vectors)
        for _ in range(2):
            rest = rest - (block.conj() @ rest) @ block
        beta = np.linalg.norm(rest)
        if beta <= LANCZOS_BREAKDOWN * scale or len(vectors) == len(state):
            break
        betas.append(beta)
        vectors.append(rest / beta)
    tridiagonal = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    block = np.array(vectors)
    residual = np.linalg.norm(np.array(images) - tridiagonal @ block)
    if residual > NORM_TOL * scale:
        raise GuardError(f"Lanczos residual {residual:.3g} exceeds 1e-10 of the Hamiltonian's norm")
    eigvals, eigvecs = np.linalg.eigh(tridiagonal)
    return eigvals, np.linalg.norm(state) * eigvecs[0], eigvecs.T @ block


def _evolve_spectrum(spectrum, times: np.ndarray) -> np.ndarray:
    """exp(-i H t) state for every t in ``times``, one row each, from a
    ``_krylov_spectrum``; each row gets the same arithmetic whatever the
    number of times."""
    eigvals, amplitudes, ritz = spectrum
    weights = np.exp(-1j * eigvals * times[:, None]) * amplitudes
    out = np.zeros((len(times), ritz.shape[1]), dtype=complex)
    for k in range(len(eigvals)):
        out += weights[:, k, None] * ritz[k]
    return _check_norm(out)


def exact_evolve(hamiltonian: PauliSum, state: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) applied by Lanczos reduction to the Krylov space of the state."""
    return _evolve_spectrum(_krylov_spectrum(hamiltonian, state), np.array([t], dtype=float))[0]


def _check_steps(steps: int) -> None:
    if steps < 1:
        raise ValueError("step count must be at least 1")


@dataclass(frozen=True)
class TrotterPlan:
    """Term order (a permutation of the Hamiltonian's canonical term list),
    step count N >= 1 and simulated phase phi = J t."""

    order: tuple[int, ...]
    steps: int
    phi: float

    def __post_init__(self):
        _check_steps(self.steps)
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("order must be a permutation of the term indices")


def trotter_plan(hamiltonian: PauliSum, steps: int, phi: float) -> TrotterPlan:
    """Plan using the Hamiltonian's canonical term order."""
    return TrotterPlan(tuple(range(len(hamiltonian))), steps, phi)


def plaquette_plan(
    layout: PlaquetteLayout, coupling: float, steps: int, phi: float
) -> tuple[PauliSum, TrotterPlan]:
    """Hamiltonian plus the plan that walks its monomials in listing order
    (all-position term, antisymmetric color triples, mixed terms)."""
    hamiltonian = plaquette_hamiltonian(layout, coupling)
    return hamiltonian, TrotterPlan(_listing_order(layout, coupling, hamiltonian), steps, phi)


def _listing_order(layout: PlaquetteLayout, coupling: float, hamiltonian: PauliSum) -> tuple[int, ...]:
    index_of = {term.key(): i for i, term in enumerate(hamiltonian.terms)}
    return tuple(index_of[m.key()] for m in plaquette_monomials(layout, coupling))


def _trotter_factors(
    hamiltonian: PauliSum, order: tuple[int, ...], n_qubits: int
) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Guarded factor table: (real weight c, perm, phases) of each unit string P
    in ``order``."""
    if n_qubits > EVOLVE_QUBIT_LIMIT:
        raise GuardError(f"Trotter evolution limited to {EVOLVE_QUBIT_LIMIT} qubits")
    if not hamiltonian.is_hermitian():
        raise GuardError("Hamiltonian must be Hermitian")
    terms = hamiltonian.terms
    if len(order) != len(terms):
        raise ValueError("plan order does not cover the Hamiltonian's terms")
    return [(terms[k].coefficient.real, *action(terms[k].bare(), n_qubits)) for k in order]


def _apply_factors(factors, dt, steps: int, states: np.ndarray) -> np.ndarray:
    """The factor table applied ``steps`` times to one state (scalar ``dt``) or
    to a batch of states (``dt`` a column, one row per state)."""
    trig = [(np.cos(c * dt), np.sin(c * dt), perm, phases) for c, perm, phases in factors]
    out = states
    for _ in range(steps):
        for cos_a, sin_a, perm, phases in trig:
            out = cos_a * out - 1j * sin_a * (phases * out[..., perm])
    return out


def trotter_evolve(
    hamiltonian: PauliSum, plan: TrotterPlan, state: np.ndarray, coupling: float = 1.0
) -> np.ndarray:
    """Sequential monomial exponentials in plan order, repeated plan.steps times.

    Each factor is computed in closed form: exp(-i c P dt) = cos(c dt) - i sin(c dt) P
    for a unit-coefficient string P with real weight c.
    """
    factors = _trotter_factors(hamiltonian, plan.order, _n_qubits_of(state))
    dt = plan.phi / coupling / plan.steps
    return _check_norm(_apply_factors(factors, dt, plan.steps, state))


def overlap(state: np.ndarray, other: np.ndarray) -> float:
    """Squared modulus of the inner product."""
    if state.shape != other.shape:
        raise ValueError("states must have equal dimension")
    return float(abs(np.vdot(state, other)) ** 2)


def relative_deviation(op: PauliSum, reference: np.ndarray, other: np.ndarray) -> float:
    """(<op>_ref - <op>_other) / <op>_ref, guarded against a vanishing reference."""
    if reference.shape != other.shape:
        raise ValueError("states must have equal dimension")
    apply_op = matvec(op, _n_qubits_of(reference))
    ref_value, other_value = (float(_expectations(apply_op, s)) for s in (reference, other))
    if abs(ref_value) < DEVIATION_GUARD:
        raise GuardError("reference expectation value too small for a relative deviation")
    return (ref_value - other_value) / ref_value


def gauge_deviation(psi_ideal: np.ndarray, psi_digital: np.ndarray, layout: PlaquetteLayout) -> float:
    """Relative deviation of the summed squared gauge generators between the
    ideal and the digitized state."""
    return relative_deviation(total_gauge_casimir(layout), psi_ideal, psi_digital)


@dataclass(frozen=True)
class SweepRow:
    steps: int
    phi: float
    deviation: float
    overlap_initial: float
    fidelity: float
    gauge_ideal: float
    gauge_digital: float


def sweep(
    layout: PlaquetteLayout,
    coupling: float,
    steps_list: list[int],
    phis: list[float],
    start_sector: float,
    backend: str = "trotter",
) -> list[SweepRow]:
    """Deterministic grid evaluation: rows in (steps outer, phi inner) order.

    The initial state is the canonical representative of the requested gauge
    sector; the digital state uses the listing-order Trotter plan, or equals
    the ideal state for the exact backend.  Every step count must be at least
    1, as in a TrotterPlan.  The Hamiltonian, its spectrum, the ideal states
    and the Trotter factor table are built once per call; the digital states
    of one step count are evolved as one batch over phi.
    """
    if backend not in ("trotter", "exact"):
        raise ValueError(f"unknown backend {backend!r}")
    if not steps_list or not phis:
        return []
    for steps in steps_list:
        _check_steps(steps)
    n = layout.n_qubits
    psi0 = canonical_sector_state(gauge_sectors(layout), start_sector)
    hamiltonian = plaquette_hamiltonian(layout, coupling)
    if backend == "trotter":
        factors = _trotter_factors(hamiltonian, _listing_order(layout, coupling, hamiltonian), n)
    casimir = matvec(total_gauge_casimir(layout), n)
    ideal = _evolve_spectrum(_krylov_spectrum(hamiltonian, psi0), np.asarray(phis, dtype=float) / coupling)
    gauge_ideal = [float(g) for g in _expectations(casimir, ideal)]
    if any(abs(g) < DEVIATION_GUARD for g in gauge_ideal):
        raise GuardError("ideal gauge expectation vanished")
    rows = []
    for steps in steps_list:
        if backend == "exact":
            digital = ideal
        else:
            dt = (np.asarray(phis, dtype=float) / coupling / steps)[:, None]
            batch = np.broadcast_to(psi0, (len(phis), len(psi0)))
            digital = _check_norm(_apply_factors(factors, dt, steps, batch))
        gauge_digital = [float(g) for g in _expectations(casimir, digital)]
        points = zip(phis, ideal, gauge_ideal, digital, gauge_digital)
        for phi, psi_ideal, gauge_i, psi_digital, gauge_d in points:
            rows.append(
                SweepRow(
                    steps=steps,
                    phi=float(phi),
                    deviation=(gauge_i - gauge_d) / gauge_i,
                    overlap_initial=overlap(psi_ideal, psi0),
                    fidelity=overlap(psi_ideal, psi_digital),
                    gauge_ideal=gauge_i,
                    gauge_digital=gauge_d,
                )
            )
    return rows


SWEEP_COLUMNS = ("N", "phi", "E", "overlap_I0", "fidelity_ID")


def _fmt(value: float) -> str:
    return repr(float(value))


def sweep_csv(rows: list[SweepRow]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for r in rows:
        lines.append(
            f"{r.steps},{_fmt(r.phi)},{_fmt(r.deviation)},{_fmt(r.overlap_initial)},{_fmt(r.fidelity)}"
        )
    return "\n".join(lines) + "\n"


def sweep_json(rows: list[SweepRow]) -> str:
    payload = {
        "schema": 1,
        "columns": list(SWEEP_COLUMNS),
        "rows": [
            [r.steps, r.phi, r.deviation, r.overlap_initial, r.fidelity] for r in rows
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
