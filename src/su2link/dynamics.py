"""Exact and Trotterized time evolution of plaquette states.

Exact evolution has one kernel, ``_exact_rows``, which owns every check of
its arithmetic.  It reduces the Hamiltonian to the Krylov space of the
initial state by Lanczos iteration (Park & Light, J. Chem. Phys. 85, 5870
(1986)), run until that space is invariant, so the reduction is exact rather
than an approximation: the plaquette Hamiltonian has few distinct eigenvalues
and the space closes after a handful of vectors.  The small tridiagonal
matrix is diagonalised once and serves every time of a sweep.  A Trotter step
is an ordered list of monomials: Trotterized evolution applies the
closed-form exponential of one monomial at a time (cos * 1 - i sin * P) in
the order given, repeated for the chosen number of steps.  A long row on a
narrow register runs as one fused step unitary instead (``_trotter``): N
steps of F monomials on d coset rows fuse when d (4F + N) < 4FN, that is when
building the d x d product of one step (F factors of four passes over d
identity columns) and N d x d products cost less than N F factors of four
passes on one state.  That is N >= 10 on the triangle's 8 rows, N > 128 on
the two-plaquette layout's 64 and never on a strip, whose d exceeds 4F.
``_apply_factors`` builds the unitary, so it stays the one function that
evaluates a Trotter factor, and a fused row moves by roundoff only.  A sweep
runs at J = 1, so the evolution time of a phase phi = J t is t = phi.

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
expectations on the gathered rows.  ``sweep`` holds each start on its
``linkmodel.sector_on_coset`` of the span of the Hamiltonian's and the
Casimir's masks: the Hamiltonian's own span on the triangle, the
two-plaquette layout and every strip, a larger one where the Casimir's masks
lie outside it (two plaquettes that share only a vertex, a link in no
plaquette).  Every coset gives the restricted monomials the same strings,
with weights that differ only by their signs, so the (step count, start,
phi) rows of every start form one ragged batch sorted by step count, where
step s acts on the prefix of rows that take more than s steps; each start
brings its own initial state and its own signed angles.  Each row gets the
same arithmetic as a ``trotter_evolve`` call, and likewise for the ideal
states and ``exact_evolve``.

The public functions take and return states as plain complex numpy arrays
of length 2^n.  Every state they take passes ``_register`` (one shape, 2^n
finite amplitudes), every evolution time must be finite, and so must every
Trotter angle c dt.  Every evolution preserves the norm to 1e-10; sweeps are
evaluated in deterministic grid order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GuardError, check_memory
from .linkmodel import PlaquetteLayout, gauge_sectors, plaquette_monomials, sector_on_coset, total_gauge_casimir
from .pauli import PauliString, PauliSum, axis_flip, columns, coset, matvec, pair_count, restrict, span

NORM_TOL = 1e-10
LANCZOS_BREAKDOWN = 1e-13
DEVIATION_GUARD = 1e-12


def _register(states: Sequence[np.ndarray], what: str) -> int:
    """n for states of one shape with 2^n finite amplitudes: every state a public function takes is checked here."""
    if any(np.shape(state) != np.shape(states[0]) for state in states):
        raise ValueError("states must have equal dimension")
    n = len(states[0]).bit_length() - 1
    if 2**n != len(states[0]):
        raise ValueError("state length is not a power of two")
    if not all(np.isfinite(state).all() for state in states):
        raise ValueError(f"{what} needs finite amplitudes")
    return n


def _check_norm(states: np.ndarray) -> np.ndarray:
    """Guard one state, or every row of a batch of states."""
    if not np.all(abs(np.linalg.norm(states, axis=-1) - 1.0) <= NORM_TOL):  # NaN fails too: c dt can overflow
        raise GuardError("state norm drifted beyond 1e-10")
    return states


def _row_sums(products: np.ndarray) -> np.ndarray:
    """Sums along the last axis, taken in C order: numpy sums a row in
    another order when the rows are not contiguous, so without the copy a
    row's sum would depend on the batch's memory order."""
    return np.sum(np.ascontiguousarray(products), axis=-1)


def _expectations(apply_op, states: np.ndarray) -> np.ndarray:
    """<psi|op|psi> of one state, or of every row of a batch, for a Hermitian
    op given as a ``pauli.matvec``."""
    return _row_sums(states.conj() * apply_op(states)).real


def _overlaps(states: np.ndarray, others: np.ndarray) -> np.ndarray:
    """|<psi|phi>|^2 of one pair of states, or row by row of two batches."""
    inner = _row_sums(states.conj() * others)
    # products and a sum, not abs(): numpy's scalar and array abs round differently
    return inner.real * inner.real + inner.imag * inner.imag


def _on_support(ops: Sequence[PauliSum | PauliString], states: Sequence[np.ndarray], what: str):
    """(rows, the ops ``pauli.restrict``-ed there, rank): the ``pauli.coset``
    rows of ``pauli.span(ops, support)`` that hold the joint support of the
    2^n states, where each op acts on ``rank`` virtual qubits.  States with no
    support get the coset of basis state 0."""
    n = _register(states, what)
    # per basis state: six complex vectors (the input, its gathered rows, the output, and a matvec's
    # result, product and gather), the matvec's pairs, and the support's, rows' and columns' indices
    check_memory(lambda: 2.0**n * (16 * 6 + 24 * pair_count(*ops) + 24), f"{what} on {n} qubits")
    if any(op.support and max(op.support) >= n for op in ops):
        raise ValueError(f"the operator does not fit in {n} qubits")
    support = np.flatnonzero(np.logical_or.reduce([state != 0 for state in states]))
    basis = span(ops, support)
    rows = coset(basis, support[0] if len(support) else 0)
    return rows, [restrict(op, basis, int(rows[0])) for op in ops], len(basis)


def _exact_rows(hamiltonian: PauliSum, state: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i H t) state for every t in ``times``, one row each, on the coset
    register of log2(len(state)) qubits; every check of this arithmetic is
    made here.  The coefficient 1-norm s of H bounds every eigenvalue E and
    |H v| for a unit v, so an ``OverflowError`` refuses a 9 d s^2 (the squares
    of d recurrence rows of at most 3 s) or s max|t| that overflows before
    numpy warns.  Lanczos with two full reorthogonalisations per step runs
    until the next vector vanishes (or the space fills the register), then
    the tridiagonal matrix T is diagonalised once: each row is the sum of
    exp(-i E_k t) a_k r_k over the eigenpairs E_k, r_k of H on the Krylov
    space, with state = sum_k a_k r_k.  The residual ||H V - V T|| is guarded
    relative to s; its row j is H v_j less the three-term recurrence, known
    as soon as v_j+1 is, so no image H v_j is kept.  The m Lanczos vectors
    fill one block of d = len(state) columns, grown by doubling, and at most
    three m x d blocks are held at once: the block while it grows (1.5 of
    them), or the block, the Ritz vectors r_k and the complex eigenvectors of
    T as they are formed; the block is freed before the rows are formed.
    Each growth checks those three blocks at the new size against the memory
    budget, and each row's norm is checked last.
    """
    d = len(state)
    scale = sum(abs(term.coefficient) for term in hamiltonian.terms)
    if not np.isfinite(9.0 * d * scale * scale):
        raise OverflowError(f"coefficient 1-norm {scale:.3g} overflows the Lanczos dot products")
    t = float(times[np.argmax(abs(times))])
    if not np.isfinite(scale * abs(t)):
        raise OverflowError(f"coefficient 1-norm {scale:.3g} times t = {t:.3g} overflows")
    apply_h = matvec(hamiltonian, d.bit_length() - 1)
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
    ritz = coefficients @ block[:m]
    del block, coefficients
    weights = np.exp(-1j * eigvals * times[:, None]) * amplitudes
    out = np.zeros((len(times), d), dtype=complex)
    for k in range(len(eigvals)):
        out += weights[:, k, None] * ritz[k]
    return _check_norm(out)


def exact_evolve(hamiltonian: PauliSum, state: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) applied by Lanczos reduction to the Krylov space of the
    state (``_exact_rows``), on the coset rows that hold it."""
    if not hamiltonian.is_hermitian():
        raise GuardError("Hamiltonian must be Hermitian")
    times = _check_times([t])
    rows, (restricted,), _ = _on_support([hamiltonian], [state], "exact evolution")
    out = np.zeros(len(state), dtype=complex)
    out[rows] = _exact_rows(restricted, _check_norm(state)[rows], times)[0]
    return out


def _check_steps(steps: int) -> None:
    if steps < 1:
        raise ValueError("step count must be at least 1")


def _check_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError("evolution time must be finite")
    return times


def _apply_factors(monomials: Sequence[PauliString], angles, steps, states: np.ndarray) -> np.ndarray:
    """The exponentials exp(-i theta P) of the monomials' unit strings P, in
    the order given, on a batch of states, one row each, with one angle theta
    per (monomial, row) in ``angles`` (c dt for the monomial's weight c and
    the row's time step; the monomials' own coefficients are not read) and
    one step count ``steps`` per row, sorted by step count, descending.  Step
    s acts on the prefix of rows whose count exceeds s, so every row gets the
    arithmetic it would get alone.  Rows may start from different states and
    carry different angles: a sweep's starts share one batch, where each
    start's restricted weights differ from another's only by their signs.
    A row may also be a block of states, ``states`` of shape (rows, ..., d),
    all evolved with the row's angles and step count: on a block of identity
    columns one step builds the row's step unitary (``_trotter``).
    The batch is held one column per row; each monomial's ``pauli.axis_flip``
    view and phases are built once per call."""
    angles = np.asarray(angles, dtype=float)
    steps = np.asarray(steps)
    out = np.array(states, dtype=complex, order="F").T
    n = len(out).bit_length() - 1
    factors = []
    for monomial, angle in zip(monomials, angles):
        shape, reverse = axis_flip(n, [q for q, letter in monomial.key() if letter != "Z"])
        ((_, values),) = columns(monomial.bare(), np.arange(len(out)), n)
        batch = out.reshape(*shape, -1, *out.shape[1:])
        phases = values.reshape(*shape, -1, *(1,) * (out.ndim - 1))[reverse]  # values[k ^ xmask]
        factors.append((np.cos(angle), 1j * np.sin(angle), batch, reverse, phases))
    for step in range(int(steps.max(initial=0))):
        active = int(np.count_nonzero(steps > step))
        for cos_a, isin_a, batch, reverse, phases in factors:
            view = batch[..., :active]
            flipped = view[reverse] * phases
            flipped *= isin_a[:active]
            view *= cos_a[:active]
            view -= flipped
            del flipped  # freed before the next factor's copy is made
    return out.T


def _fuses(n_monomials: int, d: int, steps) -> np.ndarray:
    """Whether a row of ``steps`` Trotter steps of ``n_monomials`` factors on
    d coset rows runs as one fused d x d step unitary: building it costs the
    factors' four passes over d identity columns, and then each step one d x d
    product, against four passes per factor and step applied directly."""
    steps = np.asarray(steps)
    return d * (4 * n_monomials + steps) < 4 * n_monomials * steps


def _trotter(monomials: Sequence[PauliString], angles, steps, states: np.ndarray) -> np.ndarray:
    """The evolution ``_apply_factors`` makes of a batch sorted by step count,
    with the rows that ``_fuses`` picks (a prefix of the batch, since it picks
    every count from some N on) run as one d x d step unitary U per row.
    ``_apply_factors`` builds U, one step on a block of identity columns with
    the row's angles; each of the N steps is then one batched product with U.
    The fused rows are built and applied one step count at a time, so one
    count's unitaries are alive at most; the other rows go to
    ``_apply_factors`` as they are.  Every angle c dt must be finite: it can
    overflow from a finite weight and time, and its cosine would warn before
    the norm guard sees the state it makes.  Every row's norm is checked."""
    angles = np.asarray(angles, dtype=float)
    if not np.isfinite(angles).all():
        raise OverflowError("Trotter angle c dt overflowed")
    steps = np.asarray(steps)
    d = np.shape(states)[-1]
    fused = int(np.count_nonzero(_fuses(len(monomials), d, steps)))
    if not fused:
        return _check_norm(_apply_factors(monomials, angles, steps, states))
    parts = []
    for count in dict.fromkeys(steps[:fused].tolist()):  # not np.unique: its first call adds 1.7 MB of resident memory
        rows = np.flatnonzero(steps == count)
        identity = np.broadcast_to(np.eye(d), (len(rows), d, d))
        unitary = _apply_factors(monomials, angles[:, rows], np.ones(len(rows), dtype=int), identity)  # [r, j, i] = U_r[i, j]
        evolved = states[rows]
        for _ in range(count):
            evolved = np.einsum("rji,rj->ri", unitary, evolved)
        parts.append(evolved)
    if fused < len(steps):
        parts.append(_apply_factors(monomials, angles[:, fused:], steps[fused:], states[fused:]))
    return _check_norm(np.concatenate(parts))


def trotter_evolve(monomials: Sequence[PauliString], state: np.ndarray, t: float, steps: int) -> np.ndarray:
    """The monomials' exponentials in the order given, repeated ``steps``
    times with the time step t / steps.

    Each factor is computed in closed form: exp(-i c P dt) = cos(c dt) - i sin(c dt) P
    for a unit-coefficient string P with real weight c.  Many steps on a
    narrow coset register run as one fused step unitary (``_trotter``).
    """
    _check_steps(steps)
    if any(m.coefficient.imag != 0 for m in monomials):
        raise GuardError("Trotter monomials must have real coefficients")
    _check_times([t])
    rows, restricted, _ = _on_support(monomials, [state], "Trotter evolution")
    start = _check_norm(state)[rows][None]
    out = np.zeros(len(state), dtype=complex)
    out[rows] = _trotter(restricted, [[m.coefficient.real * (t / steps)] for m in restricted], [steps], start)[0]
    return out


def overlap(state: np.ndarray, other: np.ndarray) -> float:
    """Squared modulus of the inner product."""
    _register([state, other], "overlap")
    return float(_overlaps(state, other))


def relative_deviation(op: PauliSum, reference: np.ndarray, other: np.ndarray) -> float:
    """(<op>_ref - <op>_other) / <op>_ref, guarded against a vanishing
    reference, with both expectations taken on the coset rows that hold the
    states' joint support."""
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
class SweepRow:
    steps: int
    phi: float
    overlap_initial: float
    fidelity: float
    gauge_ideal: float
    gauge_digital: float


def sweep(
    layout: PlaquetteLayout,
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
    held on its ``linkmodel.sector_on_coset`` of that span, from the
    projection that makes it to the last overlap, so no array of a sweep has
    2^n entries.  Every start's (step count, phi) rows are one Trotter batch,
    ordered by step count (descending), then start, then phi; each start
    brings its own initial state and restricted weights.  The ideal Casimir
    expectation may vanish (a sector of eigenvalue 0): the rows carry it as
    it is, and a caller that divides by it guards it.
    """
    starts = [start_sector] if np.ndim(start_sector) == 0 else list(start_sector)
    if not steps_list or not phis or not starts:
        return []
    for steps in steps_list:
        _check_steps(steps)
    times = _check_times(phis)
    n = layout.n_qubits
    monomials = plaquette_monomials(layout, 1.0)
    hamiltonian = PauliSum(monomials)
    casimir = total_gauge_casimir(layout)
    step_counts = sorted(set(steps_list), reverse=True)
    # span holds an X mask of n bits per term of H and the Casimir; then d = 2^rank rows per start
    check_memory(lambda: (len(hamiltonian) + len(casimir)) * n / 8, f"sweep on {n} qubits")
    basis = span([hamiltonian, casimir])
    check_memory(
        lambda: _sweep_bytes(len(basis), hamiltonian, casimir, len(phis), step_counts, len(starts)), f"sweep on {n} qubits"
    )
    table = gauge_sectors(layout)
    psi0s, readouts, weights = [], [], []
    for start in starts:
        rows, apply_casimir, psi0 = sector_on_coset(table, start, casimir, basis)
        restricted = [restrict(m, basis, int(rows[0])) for m in monomials]
        ideal = _exact_rows(PauliSum(restricted), psi0, times)
        psi0s.append(psi0)
        readouts.append((apply_casimir, ideal, _expectations(apply_casimir, ideal).tolist(), _overlaps(ideal, psi0).tolist()))
        weights.append([m.coefficient.real for m in restricted])
    # every start's restricted monomials have the same strings, so the last start's serve the batch,
    # whose rows run by step count (descending), then start, then phi
    weights = np.array(weights)  # (start, monomial)
    dts = times / np.array(step_counts)[:, None]  # (step count, phi)
    psi0s = np.array(psi0s)
    initial = np.broadcast_to(psi0s[:, None], (len(step_counts), len(starts), len(times), psi0s.shape[1]))
    digital = _trotter(
        restricted,
        (weights.T[:, None, :, None] * dts[:, None]).reshape(len(monomials), -1),
        np.repeat(step_counts, len(starts) * len(times)),
        initial.reshape(-1, psi0s.shape[1]),  # a view for one start; several starts' rows are copied
    ).reshape(initial.shape)
    out = []
    for (apply_casimir, ideal, gauge_ideal, overlap_initial), blocks in zip(readouts, digital.swapaxes(0, 1)):
        gauge_digital = [_expectations(apply_casimir, block) for block in blocks]
        fidelity = [_overlaps(ideal, block) for block in blocks]
        for steps in steps_list:
            k = step_counts.index(steps)
            points = zip(phis, overlap_initial, fidelity[k].tolist(), gauge_ideal, gauge_digital[k].tolist())
            out += [SweepRow(steps, float(phi), *values) for phi, *values in points]
    return out


def _sweep_bytes(
    rank: int, hamiltonian: PauliSum, casimir: PauliSum, n_phis: int, step_counts: Sequence[int], n_starts: int
) -> float:
    """The sweep's memory estimate, with d = 2^rank rows per start's coset:
    what both stages hold, plus the larger stage.  Both hold, per coset row,
    the Casimir's pairs, the Trotter phases and the one ``columns`` pair
    alive while they are built, and per coset row and phi each start's ideal
    state.  The Lanczos stage holds at most three blocks of d vectors of d
    entries (see ``_exact_rows``).  The Trotter stage holds, per coset
    row and phi, five temporaries of an expectation or a fidelity (a
    conjugate, a matvec result, product, gather and sum; the C-ordered copy
    of a product comes after its factors are freed) and, per (step count,
    start) row of its batch, the row, the flipped copy of the active rows
    that one factor makes, and with several starts the batch's input, which
    is then a copy, not a broadcast view; and per monomial and batch row its
    angle, cosine and i sine.  When ``_fuses`` picks a step count (one
    monomial per term of the Hamiltonian), one step count's rows, one per
    start and phi, also hold their d x d step unitaries twice: the unitary
    and the flipped copy of its build."""
    d = 2.0**rank
    pairs = 24 * pair_count(casimir) + 16 * len(hamiltonian) + 24
    batch = n_starts * len(step_counts)  # batch rows per phi
    trotter = 16 * d * n_phis * (5 + (2 + (n_starts > 1)) * batch) + 32 * len(hamiltonian) * batch * n_phis
    if _fuses(len(hamiltonian), d, step_counts).any():
        trotter += 32 * d * d * n_starts * n_phis
    return d * (pairs + 16 * n_phis * n_starts) + max(48 * d * d, trotter)
