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

Every operator acts through the bit-mask kernel ``pauli.columns``, with no
matrix: ``pauli.matvec`` for the Lanczos iteration and for expectation
values, and a factor table of (coefficient, perm, values) for the Trotter
product, where one factor maps psi to ``cos * psi - i sin * (values * psi)[..., perm]``.

Every plaquette monomial flips all of its plaquette's position qubits, so an
evolution never leaves the XOR cosets of the Hamiltonian's X masks that its
start state touches (``pauli.reachable``; on the triangle 8 of 64 basis
states for each sector representative).  Evolutions run on those rows only,
with the restricted kernel, and go back to full 2^n vectors before any
expectation value or overlap is taken; a state with full support reaches the
whole register on the same path.  ``sweep`` evolves every (start, step count,
phi) row as one ragged batch sorted by step count, where step s acts on the
prefix of rows that take more than s steps.  Each row gets the same
arithmetic as a ``trotter_evolve`` call, and likewise for the ideal states
and ``exact_evolve``.

``empirical_vs_bound`` compares the measured Trotter error with the
step-count bound of ``compiler.trotter_bound``.

States are plain complex numpy arrays of length 2^n.  Every evolution
preserves the norm to 1e-10; sweeps are evaluated in deterministic grid order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .compiler import PLAQUETTE_NORM_READING, trotter_bound
from .errors import GuardError, check_memory
from .linkmodel import (
    PlaquetteLayout,
    canonical_sector_state,
    gauge_sectors,
    plaquette_hamiltonian,
    plaquette_monomials,
    total_gauge_casimir,
)
from .pauli import PauliSum, columns, matvec, pair_count, positions, reachable

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


class _Space(NamedTuple):
    """The sorted basis indices ``rows`` of an ``n_qubits`` register that an
    evolution stays on."""

    n_qubits: int
    rows: np.ndarray


def _check_evolution(hamiltonian: PauliSum, n: int, kind: str) -> None:
    # per basis state: six complex vectors (the input, its rows, the output, and a matvec's
    # result, product and gather), the matvec's pairs and reachable's five index words
    check_memory(lambda: 2.0**n * (16 * 6 + 24 * pair_count(hamiltonian) + 40), f"{kind} evolution on {n} qubits")
    if not hamiltonian.is_hermitian():
        raise GuardError("Hamiltonian must be Hermitian")


def _reach(hamiltonian: PauliSum, states: np.ndarray, n_qubits: int) -> _Space:
    """The XOR cosets of the Hamiltonian's X masks that the support of
    ``states`` (one state or a batch) touches."""
    support = np.flatnonzero(np.any(np.reshape(states, (-1, 2**n_qubits)) != 0, axis=0))
    return _Space(n_qubits, reachable(hamiltonian, support, n_qubits))


def _local_matvec(op: PauliSum, space: _Space):
    """``op`` as a ``pauli.matvec`` on the rows of ``space``."""
    return matvec(op, space.n_qubits, space.rows)


def _scatter(space: _Space, states: np.ndarray) -> np.ndarray:
    """States held on the rows of ``space`` (one, or a batch) as full 2^n
    vectors, zero off those rows."""
    out = np.zeros(np.shape(states)[:-1] + (2**space.n_qubits,), dtype=complex)
    out[..., space.rows] = states
    return out


def _krylov_spectrum(hamiltonian: PauliSum, state: np.ndarray):
    """Eigenpairs of H on the Krylov space of ``state``, as (eigvals,
    amplitudes, ritz, space): H ritz[k] = eigvals[k] ritz[k] and
    state = sum_k amplitudes[k] ritz[k], with the Ritz vectors held on the
    rows of ``space``, the cosets that the state reaches.

    Lanczos with two full reorthogonalisations per step runs until the next
    vector vanishes (or the space fills those rows), then the tridiagonal
    matrix T is diagonalised.  The residual ||H V - V T|| is guarded relative
    to the coefficient 1-norm of H, which bounds its operator norm.
    """
    n = _n_qubits_of(state)
    _check_evolution(hamiltonian, n, "exact")
    _check_norm(state)
    space = _reach(hamiltonian, state, n)
    state = state[space.rows]
    apply_h = _local_matvec(hamiltonian, space)
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
    return eigvals, np.linalg.norm(state) * eigvecs[0], eigvecs.T @ block, space


def _evolve_spectrum(spectrum, times: np.ndarray) -> np.ndarray:
    """exp(-i H t) state for every t in ``times``, one full 2^n row each,
    from a ``_krylov_spectrum``; each row gets the same arithmetic whatever
    the number of times."""
    eigvals, amplitudes, ritz, space = spectrum
    weights = np.exp(-1j * eigvals * times[:, None]) * amplitudes
    out = np.zeros((len(times), ritz.shape[1]), dtype=complex)
    for k in range(len(eigvals)):
        out += weights[:, k, None] * ritz[k]
    return _scatter(space, _check_norm(out))


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
    hamiltonian: PauliSum, order: tuple[int, ...], space: _Space
) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Factor table on the rows of ``space``: (real weight c, perm, values) of
    each unit string P in ``order``, from its one ``pauli.columns`` pair."""
    terms = hamiltonian.terms
    if len(order) != len(terms):
        raise ValueError("plan order does not cover the Hamiltonian's terms")
    factors = []
    for k in order:
        ((targets, values),) = columns(terms[k].bare(), space.rows, space.n_qubits)
        factors.append((terms[k].coefficient.real, positions(space.rows, targets), values))
    return factors


def _apply_factors(factors, dt, steps, states: np.ndarray) -> np.ndarray:
    """The factor table applied to a batch of states, one row each, with one
    time step ``dt`` and one step count ``steps`` per row, the rows sorted by
    step count, descending.  Step s acts on the prefix of rows whose count
    exceeds s, so every row gets the arithmetic it would get alone."""
    dt = np.asarray(dt, dtype=float)[:, None]
    steps = np.asarray(steps)
    trig = [(np.cos(c * dt), 1j * np.sin(c * dt), perm, values) for c, perm, values in factors]
    out = np.array(states, dtype=complex)
    for step in range(int(steps.max(initial=0))):
        active = int(np.count_nonzero(steps > step))
        block = out[:active]
        for cos_a, isin_a, perm, values in trig:
            block[...] = cos_a[:active] * block - isin_a[:active] * (values * block)[:, perm]
    return out


def trotter_evolve(
    hamiltonian: PauliSum, plan: TrotterPlan, state: np.ndarray, coupling: float = 1.0
) -> np.ndarray:
    """Sequential monomial exponentials in plan order, repeated plan.steps times.

    Each factor is computed in closed form: exp(-i c P dt) = cos(c dt) - i sin(c dt) P
    for a unit-coefficient string P with real weight c.
    """
    n = _n_qubits_of(state)
    _check_evolution(hamiltonian, n, "Trotter")
    space = _reach(hamiltonian, state, n)
    factors = _trotter_factors(hamiltonian, plan.order, space)
    dt = plan.phi / coupling / plan.steps
    evolved = _apply_factors(factors, [dt], [plan.steps], state[None, space.rows])
    return _scatter(space, _check_norm(evolved))[0]


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
class BoundCheck:
    eps: float
    steps: int
    measured_error: float
    satisfied: bool


@dataclass(frozen=True)
class BoundReport:
    measured: tuple[tuple[int, float], ...]  # (steps, state error)
    checks: tuple[BoundCheck, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(c.satisfied for c in self.checks)


def empirical_vs_bound(
    hamiltonian: PauliSum,
    psi0: np.ndarray,
    t: float,
    steps_list: list[int],
    eps_list: list[float],
    norm_bound: float = PLAQUETTE_NORM_READING,
    coupling: float = 1.0,
    order: tuple[int, ...] | None = None,
) -> BoundReport:
    """Measured digital state error versus the step-count bound.

    For each requested accuracy the bound's step count is run and the achieved
    error compared against it (the bound is loose, so the margin is large).
    ``order`` overrides the canonical term order of the digitized product.
    """
    psi_ideal = exact_evolve(hamiltonian, psi0, t)
    if order is None:
        order = tuple(range(len(hamiltonian)))

    def error_at(steps: int) -> float:
        plan = TrotterPlan(order, steps, t * coupling)
        return float(np.linalg.norm(trotter_evolve(hamiltonian, plan, psi0, coupling) - psi_ideal))

    measured = tuple((steps, error_at(steps)) for steps in steps_list)
    checks = []
    for eps in eps_list:
        steps = trotter_bound(len(hamiltonian), norm_bound, t, eps)
        err = error_at(steps)
        checks.append(BoundCheck(eps, steps, err, err <= eps))
    return BoundReport(measured, tuple(checks))


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
    start_sector: float | Sequence[float],
) -> list[SweepRow]:
    """Deterministic grid evaluation: rows in (start, steps as given, phi)
    order, for one start sector eigenvalue or a sequence of them.

    The initial state is the canonical representative of the requested gauge
    sector; the digital state uses the listing-order Trotter plan.  Every
    step count must be at least 1, as in a TrotterPlan.  The Hamiltonian,
    the Casimir, the sector table and the Trotter factor table are built
    once per call, and each start's spectrum once.  The digital states of
    every (step count, start, phi) form one ragged batch on the cosets the
    starts reach, sorted by step count, and go back to full vectors one
    (start, step count) block at a time.
    """
    starts = [start_sector] if np.ndim(start_sector) == 0 else list(start_sector)
    if not steps_list or not phis or not starts:
        return []
    for steps in steps_list:
        _check_steps(steps)
    n = layout.n_qubits
    casimir_op = total_gauge_casimir(layout)
    # as in _check_evolution; per phi: each start's ideal and Trotter vectors, two digital blocks, four temporaries
    per_phi = len(starts) * (1 + len(set(steps_list))) + 6
    check_memory(lambda: 2.0**n * (16 * len(phis) * per_phi + 24 * pair_count(casimir_op) + 40), f"sweep on {n} qubits")
    table = gauge_sectors(layout)
    psi0 = [canonical_sector_state(table, start, casimir_op) for start in starts]
    hamiltonian = plaquette_hamiltonian(layout, coupling)
    casimir = matvec(casimir_op, n)
    times = np.asarray(phis, dtype=float) / coupling
    ideal = [_evolve_spectrum(_krylov_spectrum(hamiltonian, psi), times) for psi in psi0]
    gauge_ideal = [[float(g) for g in _expectations(casimir, states)] for states in ideal]
    if any(abs(g) < DEVIATION_GUARD for values in gauge_ideal for g in values):
        raise GuardError("ideal gauge expectation vanished")
    overlap_initial = [[overlap(psi, start) for psi in states] for states, start in zip(ideal, psi0)]

    space = _reach(hamiltonian, np.array(psi0), n)
    factors = _trotter_factors(hamiltonian, _listing_order(layout, coupling, hamiltonian), space)
    blocks = [(steps, s) for steps in sorted(set(steps_list), reverse=True) for s in range(len(starts))]
    evolved = _check_norm(_apply_factors(
        factors,
        np.concatenate([times / steps for steps, _ in blocks]),
        np.repeat([steps for steps, _ in blocks], len(phis)),
        np.concatenate([np.broadcast_to(psi0[s][space.rows], (len(phis), len(space.rows))) for _, s in blocks]),
    ))
    digital = {block: evolved[i * len(phis):(i + 1) * len(phis)] for i, block in enumerate(blocks)}

    made: dict[tuple[int, int], list[SweepRow]] = {}
    rows = []
    for s in range(len(starts)):
        for steps in steps_list:
            if (steps, s) not in made:
                states = _scatter(space, digital[steps, s])
                gauge_digital = [float(g) for g in _expectations(casimir, states)]
                points = zip(phis, ideal[s], gauge_ideal[s], overlap_initial[s], states, gauge_digital)
                made[steps, s] = [
                    SweepRow(
                        steps=steps,
                        phi=float(phi),
                        deviation=(gauge_i - gauge_d) / gauge_i,
                        overlap_initial=overlap_i,
                        fidelity=overlap(psi_ideal, psi_digital),
                        gauge_ideal=gauge_i,
                        gauge_digital=gauge_d,
                    )
                    for phi, psi_ideal, gauge_i, overlap_i, psi_digital, gauge_d in points
                ]
            rows += made[steps, s]
    return rows


def _fmt(value: float) -> str:
    return repr(float(value))


def sweep_csv(rows: list[SweepRow]) -> str:
    lines = ["N,phi,E,overlap_I0,fidelity_ID"]
    for r in rows:
        lines.append(
            f"{r.steps},{_fmt(r.phi)},{_fmt(r.deviation)},{_fmt(r.overlap_initial)},{_fmt(r.fidelity)}"
        )
    return "\n".join(lines) + "\n"

