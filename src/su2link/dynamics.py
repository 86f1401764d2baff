"""Exact and Trotterized time evolution of plaquette states.

Exact evolution reduces the Hamiltonian to the Krylov space of the initial
state by Lanczos iteration (Park & Light, J. Chem. Phys. 85, 5870 (1986)),
run until that space is invariant, so the reduction is exact rather than an
approximation: the plaquette Hamiltonian has few distinct eigenvalues and the
space closes after a handful of vectors.  The small tridiagonal matrix is
diagonalised once and serves every time of a sweep.  A Trotter step is an
ordered list of monomials: Trotterized evolution applies the closed-form
exponential of one monomial at a time (cos * 1 - i sin * P) in the order
given, repeated for the chosen number of steps.  The simulated phase is
phi = J * t, so the evolution time of a phase is t = phi / J.

Every operator acts through the bit-mask kernel ``pauli.columns``, with no
matrix: ``pauli.matvec`` for the Lanczos iteration and for expectation
values, and a phase vector per Trotter monomial c P, with which one factor
maps psi to ``cos(c dt) psi - i sin(c dt) phases * flip(psi)`` (``pauli.axis_flip``).

An operator never moves a state off the XOR coset of the ``pauli.span`` of
its X masks that holds it (on the triangle 8 of 64 basis states for each
sector representative), so every operator acts here on a coset register:
``pauli.restrict``-ed to one virtual qubit per basis mask.
``exact_evolve``, ``trotter_evolve`` and ``relative_deviation`` work on the
rows (``pauli.coset``) of the one coset of ``span(ops, support)`` that holds
the joint support of their states: the evolutions gather the state there,
evolve it and scatter it back, and ``relative_deviation`` takes both
expectations on the gathered rows.  ``sweep`` holds each start on its seed
basis state's coset of the span of the Hamiltonian's and the Casimir's
masks: the Hamiltonian's own span on the triangle, the two-plaquette layout
and every strip, a larger one where the Casimir's masks lie outside it (two
plaquettes that share only a vertex, a link in no plaquette).  Each start's
(step count, phi) rows form one ragged batch sorted by step count, where
step s acts on the prefix of rows that take more than s steps.  Each row
gets the same arithmetic as a ``trotter_evolve`` call, and likewise for the
ideal states and ``exact_evolve``.

``empirical_vs_bound`` compares the measured Trotter error with the
step-count bound of ``compiler.trotter_bound``.

The public functions take and return states as plain complex numpy arrays
of length 2^n.  Every evolution preserves the norm to 1e-10; sweeps are
evaluated in deterministic grid order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .compiler import PLAQUETTE_NORM_READING, trotter_bound
from .errors import GuardError, check_memory
from .linkmodel import (
    GaugeSectorTable,
    PlaquetteLayout,
    gauge_sectors,
    plaquette_monomials,
    sector_projection,
    sector_seed,
    total_gauge_casimir,
)
from .pauli import PauliString, PauliSum, axis_flip, columns, coset, matvec, pair_count, restrict, span

NORM_TOL = 1e-10
LANCZOS_BREAKDOWN = 1e-13
DEVIATION_GUARD = 1e-12


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


def _overlaps(states: np.ndarray, others: np.ndarray) -> np.ndarray:
    """|<psi|phi>|^2 of one pair of states, or row by row of two batches."""
    inner = np.sum(states.conj() * others, axis=-1)
    # products and a sum, not abs(): numpy's scalar and array abs round differently
    return inner.real * inner.real + inner.imag * inner.imag


def _check_hermitian(hamiltonian: PauliSum) -> None:
    if not hamiltonian.is_hermitian():
        raise GuardError("Hamiltonian must be Hermitian")


def _on_support(ops: Sequence[PauliSum | PauliString], states: Sequence[np.ndarray], what: str):
    """(rows, the ops ``pauli.restrict``-ed there, rank): the ``pauli.coset``
    rows of ``pauli.span(ops, support)`` that hold the joint support of the
    2^n states, where each op acts on ``rank`` virtual qubits.  States with no
    support get the coset of basis state 0."""
    n = _n_qubits_of(states[0])
    # per basis state: six complex vectors (the input, its gathered rows, the output, and a matvec's
    # result, product and gather), the matvec's pairs, and the support's, rows' and columns' indices
    check_memory(lambda: 2.0**n * (16 * 6 + 24 * pair_count(*ops) + 24), f"{what} on {n} qubits")
    if any(op.support and max(op.support) >= n for op in ops):
        raise ValueError(f"the operator does not fit in {n} qubits")
    support = np.flatnonzero(np.logical_or.reduce([state != 0 for state in states]))
    basis = span(ops, support)
    rows = coset(basis, support[0] if len(support) else 0)
    return rows, [restrict(op, basis, int(rows[0])) for op in ops], len(basis)


def _krylov_spectrum(hamiltonian: PauliSum, state: np.ndarray):
    """Eigenpairs of H on the Krylov space of ``state``, both on the coset
    register of log2(len(state)) qubits, as (eigvals, amplitudes, ritz):
    H ritz[k] = eigvals[k] ritz[k] and state = sum_k amplitudes[k] ritz[k].

    Lanczos with two full reorthogonalisations per step runs until the next
    vector vanishes (or the space fills the register), then the tridiagonal
    matrix T is diagonalised.  The residual ||H V - V T|| is guarded relative
    to the coefficient 1-norm of H, which bounds its operator norm; its row j
    is H v_j less the three-term recurrence, which is known as soon as v_j+1
    is, so no image H v_j is kept.  The m Lanczos vectors fill one block of
    d = len(state) columns, grown by doubling, and at most three m x d blocks
    are held at once: the block while it grows (1.5 of them), or the block,
    the Ritz vectors and the complex eigenvectors of T as they are formed.
    Before each growth, those three blocks at the new size are checked
    against the memory budget.
    """
    _check_norm(state)
    apply_h = matvec(hamiltonian, _n_qubits_of(state))
    scale = sum(abs(term.coefficient) for term in hamiltonian.terms)
    d = len(state)
    block = np.empty((min(d, 16), d), dtype=complex)
    block[0] = state / np.linalg.norm(state)
    alphas, betas, residual_sq, m = [], [], 0.0, 1
    while True:
        image = apply_h(block[m - 1])
        alphas.append(np.vdot(block[m - 1], image).real)
        recurrence = image - alphas[-1] * block[m - 1] - (betas[-1] * block[m - 2] if betas else 0)
        rest = recurrence
        for _ in range(2):
            # conj(V rest*) = V* rest, without a conjugate copy of V
            rest = rest - (block[:m] @ rest.conj()).conj() @ block[:m]
        beta = np.linalg.norm(rest)
        if beta <= LANCZOS_BREAKDOWN * scale or m == d:
            residual_sq += np.vdot(recurrence, recurrence).real
            break
        residual_sq += np.vdot(recurrence - rest, recurrence - rest).real
        betas.append(beta)
        if m == len(block):
            size = min(2 * m, d)
            # the three blocks of the Lanczos stage at this size, as _sweep_bytes counts them
            check_memory(lambda: 48.0 * size * d, f"Lanczos block of {size} vectors of {d} entries")
            grown = np.empty((size, d), dtype=complex)
            grown[:m] = block
            block = grown
        block[m] = rest / beta
        m += 1
    residual = np.sqrt(residual_sq)
    if residual > NORM_TOL * scale:
        raise GuardError(f"Lanczos residual {residual:.3g} exceeds 1e-10 of the Hamiltonian's norm")
    eigvals, eigvecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
    amplitudes = np.linalg.norm(state) * eigvecs[0]
    coefficients = eigvecs.T.astype(complex)
    del eigvecs  # not held beside the block, its complex copy and the Ritz vectors
    return eigvals, amplitudes, coefficients @ block[:m]


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
    _check_hermitian(hamiltonian)
    rows, (restricted,), _ = _on_support([hamiltonian], [_check_norm(state)], "exact evolution")
    out = np.zeros(len(state), dtype=complex)
    out[rows] = _evolve_spectrum(_krylov_spectrum(restricted, state[rows]), np.array([t], dtype=float))[0]
    return out


def _check_steps(steps: int) -> None:
    if steps < 1:
        raise ValueError("step count must be at least 1")


def _apply_factors(monomials: Sequence[PauliString], dt, steps, states: np.ndarray) -> np.ndarray:
    """The monomials' exponentials exp(-i c P dt) (real c), in the order
    given, on a batch of states, one row each, with one ``dt`` and one step
    count ``steps`` per row, sorted by step count, descending.  Step s acts
    on the prefix of rows whose count exceeds s, so every row gets the
    arithmetic it would get alone.  The batch is held one column per row, in
    the broadcast input's memory order, which the sweep's sums read; each
    monomial's ``pauli.axis_flip`` view and phases are built once per call."""
    dt = np.asarray(dt, dtype=float)
    steps = np.asarray(steps)
    out = np.array(states, dtype=complex, order="F").T
    n = len(out).bit_length() - 1
    factors = []
    for monomial in monomials:
        shape, reverse = axis_flip(n, [q for q, letter in monomial.key() if letter != "Z"])
        ((_, values),) = columns(monomial.bare(), np.arange(len(out)), n)
        angle = monomial.coefficient.real * dt
        batch, phases = out.reshape(*shape, -1, len(dt)), values.reshape(*shape, -1, 1)[reverse]  # values[k ^ xmask]
        factors.append((np.cos(angle), 1j * np.sin(angle), batch, reverse, phases))
    for step in range(int(steps.max(initial=0))):
        active = int(np.count_nonzero(steps > step))
        for cos_a, isin_a, batch, reverse, phases in factors:
            view = batch[..., :active]
            flipped = view[reverse] * phases
            flipped *= isin_a[:active]
            view *= cos_a[:active]
            view -= flipped
    return out.T


def trotter_evolve(monomials: Sequence[PauliString], state: np.ndarray, t: float, steps: int) -> np.ndarray:
    """The monomials' exponentials in the order given, repeated ``steps``
    times with the time step t / steps.

    Each factor is computed in closed form: exp(-i c P dt) = cos(c dt) - i sin(c dt) P
    for a unit-coefficient string P with real weight c.
    """
    _check_steps(steps)
    if any(m.coefficient.imag != 0 for m in monomials):
        raise GuardError("Trotter monomials must have real coefficients")
    rows, restricted, _ = _on_support(monomials, [_check_norm(state)], "Trotter evolution")
    out = np.zeros(len(state), dtype=complex)
    out[rows] = _apply_factors(restricted, [t / steps], [steps], state[rows][None])[0]
    return _check_norm(out)


def overlap(state: np.ndarray, other: np.ndarray) -> float:
    """Squared modulus of the inner product."""
    if state.shape != other.shape:
        raise ValueError("states must have equal dimension")
    return float(_overlaps(state, other))


def relative_deviation(op: PauliSum, reference: np.ndarray, other: np.ndarray) -> float:
    """(<op>_ref - <op>_other) / <op>_ref, guarded against a vanishing
    reference, with both expectations taken on the coset rows that hold the
    states' joint support."""
    if reference.shape != other.shape:
        raise ValueError("states must have equal dimension")
    rows, (restricted,), rank = _on_support([op], [reference, other], "relative deviation")
    apply_op = matvec(restricted, rank)
    ref_value, other_value = (float(_expectations(apply_op, s[rows])) for s in (reference, other))
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
    monomials: Sequence[PauliString], psi0: np.ndarray, t: float, steps_list: list[int], eps_list: list[float]
) -> BoundReport:
    """Measured digital state error of the monomials' product formula versus
    the step-count bound.

    For each requested accuracy the bound's step count is run and the achieved
    error compared against it (the bound is loose, so the margin is large).
    """
    psi_ideal = exact_evolve(PauliSum(monomials), psi0, t)

    def error_at(steps: int) -> float:
        return float(np.linalg.norm(trotter_evolve(monomials, psi0, t, steps) - psi_ideal))

    measured = tuple((steps, error_at(steps)) for steps in steps_list)
    checks = []
    for eps in eps_list:
        steps = trotter_bound(len(monomials), PLAQUETTE_NORM_READING, t, eps)
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
    sector; the digital state applies the ``plaquette_monomials`` in listing
    order, as ``trotter_evolve`` does.  Every step count must be at least 1.
    The monomials, their Hamiltonian, the Casimir and the sector table are
    built once per call, and so is the span of their X masks.  Each start is
    held on the coset of that span that its seed basis state lies in, from
    the projection that makes it to the last overlap (``_start_observables``),
    so no array of a sweep has 2^n entries.
    """
    starts = [start_sector] if np.ndim(start_sector) == 0 else list(start_sector)
    if not steps_list or not phis or not starts:
        return []
    for steps in steps_list:
        _check_steps(steps)
    n = layout.n_qubits
    monomials = plaquette_monomials(layout, coupling)
    hamiltonian = PauliSum(monomials)
    casimir = total_gauge_casimir(layout)
    step_counts = sorted(set(steps_list), reverse=True)
    # span holds an X mask of n bits per term of H and the Casimir; then d = 2^rank rows per start
    check_memory(lambda: (len(hamiltonian) + len(casimir)) * n / 8, f"sweep on {n} qubits")
    _check_hermitian(hamiltonian)
    basis = span([hamiltonian, casimir])
    check_memory(lambda: _sweep_bytes(len(basis), hamiltonian, casimir, len(phis), len(step_counts)), f"sweep on {n} qubits")
    table = gauge_sectors(layout)
    times = np.asarray(phis, dtype=float) / coupling
    rows = []
    for start in starts:
        gauge_ideal, overlap_initial, gauge_digital, fidelity = _start_observables(
            hamiltonian, casimir, basis, monomials, table, start, times, step_counts
        )
        for steps in steps_list:
            k = step_counts.index(steps)
            points = zip(phis, gauge_ideal.tolist(), overlap_initial.tolist(), gauge_digital[k].tolist(), fidelity[k].tolist())
            rows += [
                SweepRow(steps, float(phi), (gauge_i - gauge_d) / gauge_i, overlap_i, fidelity_i, gauge_i, gauge_d)
                for phi, gauge_i, overlap_i, gauge_d, fidelity_i in points
            ]
    return rows


def _sweep_bytes(rank: int, hamiltonian: PauliSum, casimir: PauliSum, n_phis: int, n_steps: int) -> float:
    """The sweep's memory estimate per row of a start's coset, d = 2^rank
    rows: the Lanczos stage at its largest (at most three blocks of d vectors
    of d entries, see ``_krylov_spectrum``), the Casimir's pairs, the Trotter
    phases and the one ``columns`` pair alive while they are built, and per
    phi the ideal state, each step count's Trotter row and six temporaries
    (the kernel's flipped copy, and an expectation's or a fidelity's
    conjugate, matvec result, product, gather and sum)."""
    d = 2.0**rank
    pairs = 24 * pair_count(casimir) + 16 * len(hamiltonian) + 24
    return d * (48 * d + pairs + 16 * n_phis * (n_steps + 7))


def _start_observables(
    hamiltonian: PauliSum,
    casimir: PauliSum,
    basis: list[int],
    monomials: list[PauliString],
    table: GaugeSectorTable,
    start: float,
    times: np.ndarray,
    step_counts: list[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One start's sweep values, (gauge_ideal, overlap_initial) per time and
    (gauge_digital, fidelity) per (step count, time), with H, the Casimir
    and the monomials restricted to the coset of ``basis`` (their X masks'
    ``pauli.span``) that holds the seed basis state, where the seed's
    projection is exact.  The (step count, time) Trotter rows are one ragged
    batch sorted by step count, descending."""
    seed = sector_seed(table, start)
    rows = coset(basis, seed)
    rep = int(rows[0])
    apply_casimir = matvec(restrict(casimir, basis, rep), len(basis))
    psi0 = sector_projection(table, start, (rows == seed).astype(complex), apply_casimir)
    ideal = _evolve_spectrum(_krylov_spectrum(restrict(hamiltonian, basis, rep), psi0), times)
    gauge_ideal = _expectations(apply_casimir, ideal)
    if np.any(abs(gauge_ideal) < DEVIATION_GUARD):
        raise GuardError("ideal gauge expectation vanished")
    digital = _check_norm(_apply_factors(
        [restrict(m, basis, rep) for m in monomials],
        np.concatenate([times / steps for steps in step_counts]),
        np.repeat(step_counts, len(times)),
        np.broadcast_to(psi0, (len(step_counts) * len(times), len(psi0))),
    )).reshape(len(step_counts), len(times), -1)
    gauge_digital = np.array([_expectations(apply_casimir, block) for block in digital])
    fidelity = np.array([_overlaps(ideal, block) for block in digital])
    return gauge_ideal, _overlaps(ideal, psi0), gauge_digital, fidelity


def _fmt(value: float) -> str:
    return repr(float(value))


def sweep_csv(rows: list[SweepRow]) -> str:
    lines = ["N,phi,E,overlap_I0,fidelity_ID"]
    for r in rows:
        lines.append(
            f"{r.steps},{_fmt(r.phi)},{_fmt(r.deviation)},{_fmt(r.overlap_initial)},{_fmt(r.fidelity)}"
        )
    return "\n".join(lines) + "\n"

