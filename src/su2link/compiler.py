"""Lowering of multi-qubit string rotations to two superconducting gate sets.

Backend one (``collective``) realizes exp(-i phi P) for an N-letter string P
by sandwiching a single-qubit Z rotation between two collective XX gates over
the string's support, plus at most 2N basis-change rotations.  Backend two
(``cphase``) replaces each collective gate by N two-qubit pieces against a
shared ancilla (one C-phase plus two local Z rotations each) and needs the
ancilla prepared in a fixed axis eigenstate.

Gate conventions, applied in closed form and in place to a block of state
columns with no matrix exponential.  A unitary's gates run only on the qubits
they touch (and the ancilla), relabelled to 0..k-1; the k-qubit block is then
tensored with the identity on the others.  Each X/Y rotation is a factor
cos t + i sin t P whose P flips one qubit: its copy is the block's
``pauli.axis_flip`` of that qubit, times i sin t (and, for Y, the one-qubit
phase pair that ``pauli.columns`` gives, taken once at import).  A collective
gate on k qubits is one 2^k x 2^k matrix W diag(lambda_u) W / 2^k on its qubit
axes, with W the Walsh-Hadamard sign table and lambda_u = e^(i angle M(u)) for
u qubits at x = -1, M(u) = k(k-1)/2 - 2u(k-u), an integer power of
e^(i angle).  A run of Z rotations and C-phases is one phase vector, built
from a per-call table of each row's qubit bits and multiplied in once:
  rot(axis, q, angle)   = exp(-i angle/2 sigma_axis(q)) = cos(angle/2) - i sin(angle/2) sigma_axis(q)
  coll(qubits, angle)   = exp(+i angle sum_{i<j} X_i X_j) = prod_{i<j} (cos angle + i sin angle X_i X_j)
  cphase((a, b), angle) = diag(1, 1, 1, exp(-2i angle)): rows with bits a and b set gain exp(-2i angle)

The conjugated-center identity behind both backends: with C = the collective
XX half-turn (angle pi/4) over N qubits,

    C . exp(i g Z_first) . C^-1 = exp(s i g A)

where A puts Z (N odd) or Y (N even) on the first qubit and X on the rest and
the sign s is +1 for N = 1, 2 (mod 4) and -1 for N = 0, 3 (mod 4).  The
ancilla-mediated analogue with ZZ half-turns against an ancilla maps the
center X rotation onto X(ancilla) (N even) or Y(ancilla) (N odd) times the
all-Z system string, with sign +1 for N = 0, 3 (mod 4) and -1 otherwise; both
identities are pinned by dense tests.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import check_memory
from .pauli import PauliString, axis_flip, columns, multiply

# per-gate error windows (low, high) of each backend's entangling gate
ERROR_WINDOWS = {"collective": (1e-4, 5e-4), "cphase": (1e-5, 5e-5)}
SINGLE_QUBIT_FACTOR = 1.0 / 20.0


@dataclass(frozen=True)
class Gate:
    kind: str  # "rot" | "coll" | "cphase"
    qubits: tuple[int, ...]
    angle: float
    axis: str | None = None

    def __post_init__(self):
        if not math.isfinite(self.angle):  # finite phi and coefficients can overflow it: --monomial "(1e300) X0 X1" --phi 1e10
            raise ValueError("gate angle must be finite")
        if min(self.qubits, default=0) < 0:
            raise ValueError(f"gate qubit indices must be non-negative, got {self.qubits}")
        if self.kind == "rot":
            if len(self.qubits) != 1 or self.axis not in ("x", "y", "z"):
                raise ValueError("single-qubit rotation needs one qubit and an axis")
        elif self.kind == "coll":
            if len(self.qubits) < 2 or len(set(self.qubits)) != len(self.qubits):
                raise ValueError("collective gate needs at least two distinct qubits")
        elif self.kind == "cphase":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError("C-phase acts on two distinct qubits")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")


def rot(axis: str, qubit: int, angle: float) -> Gate:
    return Gate("rot", (qubit,), angle, axis)


def coll(qubits: tuple[int, ...], angle: float) -> Gate:
    return Gate("coll", tuple(qubits), angle)


def cphase(control: int, target: int, angle: float) -> Gate:
    return Gate("cphase", (control, target), angle)


@dataclass(frozen=True)
class GateCounts:
    collective: int = 0
    cphase: int = 0
    single: int = 0


@dataclass(frozen=True)
class Circuit:
    gates: tuple[Gate, ...]
    n_qubits: int

    def __post_init__(self):
        for gate in self.gates:
            if max(gate.qubits, default=-1) >= self.n_qubits:
                raise ValueError("gate acts outside the register")

    @property
    def counts(self) -> GateCounts:
        return GateCounts(
            collective=sum(1 for g in self.gates if g.kind == "coll"),
            cphase=sum(1 for g in self.gates if g.kind == "cphase"),
            single=sum(1 for g in self.gates if g.kind == "rot"),
        )


# the amplitudes <1-b| sigma |b> of X and Y on one qubit, from sources b = 0, 1
_PHASES = {axis: columns(PauliString(1.0, {0: axis.upper()}), np.arange(2), 1)[0][1] for axis in "xy"}


def _collective_matrix(k: int, angle: float) -> np.ndarray:
    """coll's matrix W diag(lambda_u) W / 2^k on k qubits (module docstring).
    Powers of e^(i angle), not exp of a rounded angle * M(u), hold at any
    finite angle.  Entry (a, b) depends only on the Hamming distance w of a
    and b: the k + 1 values of row 0 at b = 2^w - 1 fill the matrix."""
    top, phase = k * (k - 1) // 2, complex(math.cos(angle), math.sin(angle))
    powers = [1.0 + 0.0j]
    for _ in range(top):
        powers.append(powers[-1] * phase)
    exponents = [top - 2 * u * (k - u) for u in range(k + 1)]  # negative ones: |e^(i angle)| = 1
    eigenvalues = np.array([powers[m] if m >= 0 else powers[-m].conjugate() for m in exponents])
    rows = np.arange(2**k)
    signs = 1.0 - 2 * (np.bitwise_count(rows[:, None] & ((1 << np.arange(k + 1)) - 1)) & 1)
    distances = eigenvalues[np.bitwise_count(rows)] @ signs / 2**k
    return np.take(distances, np.bitwise_count(rows[:, None] ^ rows))


def _apply_gates(gates: tuple[Gate, ...], block: np.ndarray, local: dict[int, int]) -> np.ndarray:
    """The gates, in order, applied in place to the columns of ``block``, whose
    row bit ``local[q]`` is register qubit q; a run of diagonal gates is fused
    into one phase vector, applied once."""
    n = len(block).bit_length() - 1
    bits, pending = np.arange(len(block)) >> np.arange(n)[:, None], None
    bits &= 1  # bits[i] is row bit i of each row
    scratch = np.empty(block.size, dtype=complex)  # each flipped or staged copy in turn, allocated once
    for gate in gates:
        qubits = [local[q] for q in gate.qubits]
        if gate.kind == "cphase":
            diagonal = np.where(bits[qubits[0]] & bits[qubits[1]], np.exp(-2j * gate.angle), 1.0)
        elif gate.axis == "z":
            diagonal = np.where(bits[qubits[0]], np.exp(0.5j * gate.angle), np.exp(-0.5j * gate.angle))
        else:
            if pending is not None:
                block *= pending[:, None]
                pending = None
            if gate.kind == "rot":
                # exp(i theta P) = cos theta + i sin theta P, P a flip of one qubit axis; row b
                # of the flipped axis gathers from source 1 - b
                theta = -gate.angle / 2.0
                shape, reverse = axis_flip(n, qubits)
                view = block.reshape(*shape, -1, copy=False)  # the bits below the qubit join the columns
                factor = (1j * math.sin(theta) * _PHASES[gate.axis][::-1])[:, None]
                gathered = np.multiply(view[reverse], factor, out=scratch.reshape(view.shape))
                view *= math.cos(theta)
                view += gathered
            else:
                # the gate's qubit axes first, in the block's order (any order would do, as
                # the matrix is symmetric in its qubits): scratch stages the block in that
                # order, the product lands in the block's memory in it and, unless the
                # gate's axes already lead, goes back through scratch
                axes = sorted(n - 1 - q for q in qubits)
                moved = block.reshape((2,) * n + (-1,)).transpose(axes + [a for a in range(n + 1) if a not in axes])
                staged = scratch.reshape(moved.shape)
                np.copyto(staged, moved)
                product = block.reshape(2 ** len(qubits), -1)
                np.matmul(_collective_matrix(len(qubits), gate.angle), staged.reshape(len(product), -1), out=product)
                if axes != list(range(len(axes))):
                    np.copyto(staged, product.reshape(moved.shape))
                    np.copyto(moved, staged)
            continue
        pending = diagonal if pending is None else pending * diagonal
    return block if pending is None else np.multiply(block, pending[:, None], out=block)


def _placed(block: np.ndarray, qubits: list[int], n: int) -> np.ndarray:
    """``block``, whose bit i is qubit ``qubits[i]`` (ascending), tensored with
    the identity on the other qubits of an n-qubit register."""
    if len(qubits) == n:
        return block
    rows, mask = np.arange(2**n), sum(1 << q for q in qubits)
    # the rows with only the block's qubits set, in the block's order, and with none of them
    spread, others = rows[(rows & ~mask) == 0], rows[(rows & mask) == 0]
    out = np.zeros((2**n, 2**n), dtype=complex)
    out[(others[:, None] + spread)[:, :, None], (others[:, None] + spread)[:, None, :]] = block
    return out


def _unitary_bytes(gates: tuple[Gate, ...], rows: int, columns: int, placed: int) -> float:
    """Bytes of the larger stage of a unitary run on a 2^rows x 2^columns
    block and placed on ``placed`` qubits, plus numpy's iteration buffers
    (two operands of ``np.getbufsize()`` complex entries).  The kernel holds
    the block and one flipped or staged copy, the largest collective matrix
    with its distance table (17 bytes per entry), and per row the bit table
    and three phase vectors; the placement, the placed unitary, the block's
    result and 48 bytes of row indices per basis state."""
    largest = max((len(g.qubits) for g in gates if g.kind == "coll"), default=0)
    kernel = 32 * 2.0 ** (rows + columns) + 17 * 4.0**largest + (8 * rows + 48) * 2.0**rows
    placement = 0 if placed == columns else 16 * 4.0**placed + 16 * 4.0**columns + 48 * 2.0**placed
    return max(kernel, placement) + 32 * np.getbufsize()


def circuit_unitary(circuit: Circuit, n_qubits: int | None = None) -> np.ndarray:
    """The circuit's unitary on ``n_qubits`` (default the circuit's register):
    the gates run on the qubits they touch, relabelled to 0..k-1, and the
    result is that block tensored with the identity on the others."""
    n = circuit.n_qubits if n_qubits is None else n_qubits
    if n < 0:
        raise ValueError(f"n_qubits must be non-negative, got {n}")
    touched = sorted({q for gate in circuit.gates for q in gate.qubits})
    if touched and touched[-1] >= n:
        raise ValueError(f"gate acts outside the {n}-qubit register")
    k = len(touched)
    check_memory(lambda: _unitary_bytes(circuit.gates, k, k, n), f"circuit unitary on {n} qubits")
    block = _apply_gates(circuit.gates, np.eye(2**k, dtype=complex), {q: i for i, q in enumerate(touched)})
    return _placed(block, touched, n)


def _conjugation(canonical: str, target: str) -> tuple[str, float]:
    """(axis, angle) of the basis change V = rot(axis, angle) with V sigma_canonical
    V^dag = sigma_target: sigma_canonical sigma_target = +-i sigma_axis, and
    the angle is +-pi/2 with the same sign."""
    product = multiply(PauliString(1.0, {0: canonical.upper()}), PauliString(1.0, {0: target.upper()}))
    ((_, axis),) = product.key()
    return axis.lower(), product.coefficient.imag * np.pi / 2


_CONJUGATION = {pair: _conjugation(*pair) for pair in permutations("xyz", 2)}


def _basis_changes(monomial: PauliString, canonical: str) -> tuple[list[Gate], list[Gate]]:
    """(pre, post) rotations moving the i-th canonical letter onto the
    monomial's i-th letter, on that letter's qubit."""
    pre: list[Gate] = []
    post: list[Gate] = []
    for (qubit, letter), start in zip(monomial.key(), canonical):
        if start != letter.lower():
            axis, angle = _CONJUGATION[start, letter.lower()]
            pre.append(rot(axis, qubit, -angle))
            post.append(rot(axis, qubit, angle))
    return pre, post


def _folded_angle(monomial: PauliString, phi: float) -> float:
    if abs(monomial.coefficient.imag) > 1e-12:
        raise ValueError("monomial coefficient must be real")
    return phi * monomial.coefficient.real


def _bare_rotation(monomial: PauliString, phi: float) -> Circuit:
    angle = _folded_angle(monomial, phi)
    if monomial.weight == 0:
        return Circuit((), 1)  # pure global phase
    ((qubit, letter),) = monomial.key()
    return Circuit((rot(letter.lower(), qubit, 2.0 * angle),), qubit + 1)


def compile_collective(monomial: PauliString, phi: float) -> Circuit:
    """Circuit for exp(-i phi * monomial) from two collective XX gates and at
    most 2N + 1 single-qubit rotations.

    The monomial's (real) coefficient is folded into the rotation angle.
    Weight-0 and weight-1 strings fall back to a global phase / bare rotation.
    """
    if monomial.weight < 2:
        return _bare_rotation(monomial, phi)
    angle = _folded_angle(monomial, phi)
    support = monomial.support
    weight = monomial.weight
    canonical_first = "z" if weight % 2 else "y"
    sandwich_sign = 1 if weight % 4 in (1, 2) else -1
    pre, post = _basis_changes(monomial, canonical_first + "x" * (weight - 1))
    center = rot("z", support[0], 2.0 * sandwich_sign * angle)
    gates = pre + [coll(support, -np.pi / 4), center, coll(support, np.pi / 4)] + post
    return Circuit(tuple(gates), max(support) + 1)


def ancilla_state(weight: int) -> np.ndarray:
    """Prescribed ancilla preparation: the +1 eigenstate of X for even string
    weight, of Y for odd weight."""
    if weight % 2 == 0:
        return np.array([1, 1], dtype=complex) / np.sqrt(2)
    return np.array([1, 1j], dtype=complex) / np.sqrt(2)


def _zz_half_turn(ancilla: int, qubit: int, sign: int) -> list[Gate]:
    # exp(-i sign (pi/4) Z_a Z_q) up to a global phase
    angle = sign * np.pi / 2
    return [rot("z", ancilla, angle), rot("z", qubit, angle), cphase(ancilla, qubit, angle)]


def compile_cphase(monomial: PauliString, phi: float, ancilla: int | None = None) -> Circuit:
    """Circuit for exp(-i phi * monomial) on system + ancilla from exactly 2N
    C-phase gates and at most 6N + 1 single-qubit rotations.

    With the ancilla prepared via :func:`ancilla_state`, the action reduced to
    the system register equals the target exponential; the ancilla returns to
    its preparation state.
    """
    if monomial.weight < 2:
        return _bare_rotation(monomial, phi)
    angle = _folded_angle(monomial, phi)
    support = monomial.support
    weight = monomial.weight
    if ancilla is None:
        ancilla = max(support) + 1
    if ancilla in support:
        raise ValueError(f"ancilla {ancilla} collides with the monomial support")
    center_sign = 1 if weight % 4 in (0, 3) else -1
    pre, post = _basis_changes(monomial, "z" * weight)
    forward = [g for qubit in support for g in _zz_half_turn(ancilla, qubit, +1)]
    backward = [g for qubit in support for g in _zz_half_turn(ancilla, qubit, -1)]
    center = rot("x", ancilla, 2.0 * center_sign * angle)
    gates = pre + forward + [center] + backward + post
    return Circuit(tuple(gates), max(ancilla, max(support)) + 1)


def compile_step(monomials: list[PauliString], phi: float, backend: str) -> Circuit:
    """Concatenation of the per-monomial circuits of one digitized step.

    For the cphase backend the shared ancilla is re-prepared between monomials
    by the surrounding protocol (state preparation, not a counted gate), so the
    concatenation is meaningful for resource accounting; the collective
    concatenation is a plain circuit for the whole step.
    """
    if backend == "collective":
        parts = [compile_collective(m, phi) for m in monomials]
    elif backend == "cphase":
        # identity monomials have no support; they compile to a global phase
        ancilla = 1 + max((q for m in monomials for q in m.support), default=-1)
        parts = [compile_cphase(m, phi, ancilla) for m in monomials]
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return Circuit(tuple(g for part in parts for g in part.gates), max(part.n_qubits for part in parts))


def reduced_system_unitary(circuit: Circuit, ancilla: int, prepared: np.ndarray) -> np.ndarray:
    """Action of the circuit on the system register with the ancilla prepared
    in (and projected back onto) the given single-qubit state.  The gates run
    on the qubits they touch and the ancilla, relabelled to 0..k-1; the
    projected block is tensored with the identity on the other system qubits."""
    n_total = circuit.n_qubits
    if not 0 <= ancilla < n_total:
        raise ValueError(f"ancilla {ancilla} is outside the {n_total}-qubit register")
    if np.shape(prepared) != (2,):
        raise ValueError(f"prepared must be a single-qubit state of 2 amplitudes, got shape {np.shape(prepared)}")
    touched = sorted({q for gate in circuit.gates for q in gate.qubits} | {ancilla})
    k, ancilla_bit = len(touched), touched.index(ancilla)
    # the projection holds the block, its result and one product (half a block each):
    # no more than the kernel's block and copy
    check_memory(lambda: _unitary_bytes(circuit.gates, k, k - 1, n_total - 1), f"reduced system unitary on {n_total} qubits")
    # a block index split into (bits above the ancilla, ancilla bit, bits below, column)
    shape = (2 ** (k - 1 - ancilla_bit), 2, 2**ancilla_bit, -1)
    # the system identity is a temporary, freed before the gates run
    block = prepared[:, None, None] * np.eye(2 ** (k - 1), dtype=complex).reshape(shape[0], 1, shape[2], -1)
    block = _apply_gates(circuit.gates, block.reshape(2**k, -1), {q: i for i, q in enumerate(touched)})
    # the projection, elementwise: each entry's arithmetic does not depend on the block's shape
    reduced = block.reshape(shape)[:, 0] * np.conj(prepared[0])
    reduced += block.reshape(shape)[:, 1] * np.conj(prepared[1])
    del block  # not held beside the placed unitary
    return _placed(reduced.reshape(2 ** (k - 1), -1), [q - (q > ancilla) for q in touched if q != ancilla], n_total - 1)


# ---------------------------------------------------------------------------
# additive error accumulation

def fidelity_cap(counts: GateCounts, backend: str) -> tuple[float, float]:
    """Fidelity band (low, high) of ``backend``'s gate counts from summing
    per-gate errors over its ``ERROR_WINDOWS`` entry.

    Each entangling gate carries the backend's error; each single-qubit gate
    carries that error times ``SINGLE_QUBIT_FACTOR``.  Counts that hold the
    other backend's entangling gates are rejected.
    """
    if backend == "collective":
        entangling, other = counts.collective, counts.cphase
    elif backend == "cphase":
        entangling, other = counts.cphase, counts.collective
    else:
        raise ValueError(f"unknown backend {backend!r}")
    if other:
        raise ValueError(f"{backend} counts hold the other backend's entangling gates")

    def cap(eps: float) -> float:
        total = entangling * eps + counts.single * eps * SINGLE_QUBIT_FACTOR
        return max(0.0, 1.0 - total)

    low, high = ERROR_WINDOWS[backend]
    return cap(high), cap(low)


# ---------------------------------------------------------------------------
# the bound of Berry, Ahokas, Cleve & Sanders, CMP 270, 359 (2007), Theorem 1: the number of exponentials
# in Suzuki's order-2k product (for k = 1 the symmetric second-order one; figures runs the first-order one)

PLAQUETTE_TERMS = 16
PLAQUETTE_NORM_READING = 1.0 / 8.0  # per-plaquette norm bound in units of |J|
PRINTED_BOUND_CONSTANT = 2300.0


def _fractal_factor(k: int) -> int:
    """5^(2k), exactly.  For k past ``sys.float_info.max_10_exp`` (308) it
    exceeds 10^k, more than any float, so no bound built on it converts:
    OverflowError then comes before its billions of digits are built."""
    if k > sys.float_info.max_10_exp:
        raise OverflowError(f"5^(2k) does not fit a float for k = {k}")
    return 5 ** (2 * k)


def _bound_value(m: int, norm_bound: float, t: float, eps: float, k: int) -> float:
    """2 m 5^(2k) (m * norm_bound * t)^(1 + 1/2k) / eps^(1/2k)."""
    return 2 * m * _fractal_factor(k) * (m * norm_bound * t) ** (1 + 1 / (2 * k)) / eps ** (1 / (2 * k))


def trotter_bound(m: int, norm_bound: float, t: float, eps: float, k: int = 1) -> int:
    """Ceiling of the step bound for m terms of norm at most ``norm_bound``."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if k < 1:
        raise ValueError("fractal degree k must be at least 1")
    return math.ceil(_bound_value(m, norm_bound, t, eps, k))


def plaquette_bound_constant(k: int = 1) -> float:
    """Coefficient of (Jt)^(1+1/2k) in the one-plaquette step bound under the
    norm reading that makes m * norm = 2|J| per plaquette."""
    return _bound_value(PLAQUETTE_TERMS, PLAQUETTE_NORM_READING, 1.0, 1.0, k)


def printed_steps_bound(n_plaquettes: int, jt: float, eps: float) -> float:
    """The same bound with the rounded literature constant 2300."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return PRINTED_BOUND_CONSTANT * n_plaquettes * (n_plaquettes * jt) ** 1.5 / math.sqrt(eps)

