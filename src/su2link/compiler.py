"""Lowering of multi-qubit string rotations to two superconducting gate sets.

Backend one (``collective``) realizes exp(-i phi P) for an N-letter string P
by sandwiching a single-qubit Z rotation between two collective XX gates over
the string's support, plus at most 2N basis-change rotations.  Backend two
(``cphase``) replaces each collective gate by N two-qubit pieces against a
shared ancilla (one C-phase plus two local Z rotations each) and needs the
ancilla prepared in a fixed axis eigenstate.

Gate conventions, applied in closed form and in place to a block of state
columns with no matrix exponential.  Each X/Y rotation and each XX pair of a
collective gate is a factor cos t + i sin t P whose P flips one or two qubits:
its copy is the block's ``pauli.axis_flip`` of those qubits, times i sin t
(and, for Y, the one-qubit phase pair that ``pauli.columns`` gives, taken
once at import).  A run of Z rotations and C-phases is one phase vector,
built from a per-call table of each row's qubit bits and multiplied in once:
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

import json
import math
import sys
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import check_memory
from .pauli import PauliString, axis_flip, columns

COLLECTIVE_WINDOW = (1e-4, 5e-4)
CPHASE_WINDOW = (1e-5, 5e-5)
SINGLE_QUBIT_FACTOR = 1.0 / 20.0


@dataclass(frozen=True)
class Gate:
    kind: str  # "rot" | "coll" | "cphase"
    qubits: tuple[int, ...]
    angle: float
    axis: str | None = None

    def __post_init__(self):
        if not math.isfinite(self.angle):
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


def _apply_gates(gates: tuple[Gate, ...], block: np.ndarray) -> np.ndarray:
    """The gates, in order, applied in place to the columns of ``block``; a
    run of diagonal gates is fused into one phase vector, applied once."""
    n = len(block).bit_length() - 1
    bits, pending = np.arange(len(block)) >> np.arange(n)[:, None], None
    bits &= 1  # bits[q] is qubit q's bit of each row
    for gate in gates:
        if max(gate.qubits) >= n:
            raise ValueError(f"gate acts outside the {n}-qubit register")
        if gate.kind == "cphase":
            diagonal = np.where(bits[gate.qubits[0]] & bits[gate.qubits[1]], np.exp(-2j * gate.angle), 1.0)
        elif gate.axis == "z":
            diagonal = np.where(bits[gate.qubits[0]], np.exp(0.5j * gate.angle), np.exp(-0.5j * gate.angle))
        else:
            if pending is not None:
                block *= pending[:, None]
                pending = None
            # factors exp(i theta P) = cos theta + i sin theta P, each P a flip of one or two qubit axes
            if gate.kind == "rot":
                flips, theta, phases = [gate.qubits], -gate.angle / 2.0, _PHASES[gate.axis]
            else:  # an XX pair's elements are all 1, as are X's: X's pair serves on the lower axis
                flips, theta, phases = combinations(gate.qubits, 2), gate.angle, _PHASES["x"]
            # row b of a flipped axis gathers from source 1 - b
            factor = (1j * math.sin(theta) * phases[::-1])[:, None]
            for qubits in flips:
                shape, reverse = axis_flip(n, qubits)
                view = block.reshape(*shape, -1, copy=False)  # the bits below the lowest qubit join the columns
                gathered = view[reverse] * factor
                view *= math.cos(theta)
                view += gathered
                del gathered  # before the next factor makes its copy
            continue
        pending = diagonal if pending is None else pending * diagonal
    return block if pending is None else np.multiply(block, pending[:, None], out=block)


def circuit_unitary(circuit: Circuit, n_qubits: int | None = None) -> np.ndarray:
    n = circuit.n_qubits if n_qubits is None else n_qubits
    if n < 0:
        raise ValueError(f"n_qubits must be non-negative, got {n}")
    # the unitary and a factor's flipped copy; per basis state the bit table and three phase vectors
    check_memory(lambda: 32 * 4.0**n + (8 * n + 48) * 2.0**n, f"circuit unitary on {n} qubits")
    return _apply_gates(circuit.gates, np.eye(2**n, dtype=complex))


# basis-change rotations V with V sigma_canonical V^dag = sigma_target
_CONJUGATION = {
    ("x", "y"): ("z", np.pi / 2),
    ("x", "z"): ("y", -np.pi / 2),
    ("z", "x"): ("y", np.pi / 2),
    ("z", "y"): ("x", -np.pi / 2),
    ("y", "x"): ("z", -np.pi / 2),
    ("y", "z"): ("x", np.pi / 2),
}


def _basis_change(canonical: str, target: str, qubit: int) -> tuple[list[Gate], list[Gate]]:
    """(pre, post) rotations moving the canonical letter onto the target one."""
    if canonical == target:
        return [], []
    axis, angle = _CONJUGATION[(canonical, target)]
    return [rot(axis, qubit, -angle)], [rot(axis, qubit, angle)]


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
    first = support[0]
    canonical_first = "z" if weight % 2 else "y"
    sandwich_sign = 1 if weight % 4 in (1, 2) else -1

    pre: list[Gate] = []
    post: list[Gate] = []
    for i, (qubit, letter) in enumerate(monomial.key()):
        canonical = canonical_first if i == 0 else "x"
        p, q = _basis_change(canonical, letter.lower(), qubit)
        pre += p
        post += q
    center = rot("z", first, 2.0 * sandwich_sign * angle)
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

    pre: list[Gate] = []
    post: list[Gate] = []
    for qubit, letter in monomial.key():
        p, q = _basis_change("z", letter.lower(), qubit)
        pre += p
        post += q
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
    in (and projected back onto) the given single-qubit state."""
    n_total = circuit.n_qubits
    # in units of 4^n bytes, the projection: the prepared block and tensordot's transposed copy
    # (8 each) and the result (4); per basis state the bit table and three phase vectors
    check_memory(lambda: 20 * 4.0**n_total + (8 * n_total + 48) * 2.0**n_total, f"reduced system unitary on {n_total} qubits")
    if not 0 <= ancilla < n_total:
        raise ValueError(f"ancilla {ancilla} is outside the {n_total}-qubit register")
    if np.shape(prepared) != (2,):
        raise ValueError(f"prepared must be a single-qubit state of 2 amplitudes, got shape {np.shape(prepared)}")
    # a register index split into (bits above the ancilla, ancilla bit, bits below, column)
    shape = (2 ** (n_total - 1 - ancilla), 2, 2**ancilla, -1)
    # the system identity is a temporary, freed before the gates run
    block = prepared[:, None, None] * np.eye(2 ** (n_total - 1), dtype=complex).reshape(shape[0], 1, shape[2], -1)
    out = _apply_gates(circuit.gates, block.reshape(2**n_total, -1))
    return np.tensordot(out.reshape(shape), np.conj(prepared), axes=(1, 0)).reshape(len(out) // 2, -1)


# ---------------------------------------------------------------------------
# additive error accumulation

@dataclass(frozen=True)
class NoiseModel:
    """Per-gate error windows (low, high) for the two entangling gate classes
    plus the single-qubit error as a fraction of the entangling error."""

    collective_window: tuple[float, float] = COLLECTIVE_WINDOW
    cphase_window: tuple[float, float] = CPHASE_WINDOW
    single_qubit_factor: float = SINGLE_QUBIT_FACTOR

    def __post_init__(self):
        for low, high in (self.collective_window, self.cphase_window):
            if not (0 <= low <= high <= 1):
                raise ValueError("error windows must satisfy 0 <= low <= high <= 1")
        if not (0 <= self.single_qubit_factor <= 1):
            raise ValueError("single-qubit factor must lie in [0, 1]")


def fidelity_cap(
    circuit: Circuit | GateCounts,
    noise: NoiseModel = NoiseModel(),
    backend: str | None = None,
) -> tuple[float, float]:
    """Fidelity band (low, high) from summing per-gate errors.

    Each entangling gate carries its class error; each single-qubit gate
    carries the class error times the single-qubit factor.  The backend is
    inferred from the entangling gates present; a circuit mixing both classes
    is rejected, and a rotation-only circuit needs an explicit backend.
    """
    counts = circuit.counts if isinstance(circuit, Circuit) else circuit
    if counts.collective and counts.cphase:
        raise ValueError("circuit mixes both entangling gate classes")
    if backend is None:
        if counts.collective:
            backend = "collective"
        elif counts.cphase:
            backend = "cphase"
        else:
            raise ValueError("backend is ambiguous for a rotation-only circuit")
    if backend == "collective":
        window, entangling = noise.collective_window, counts.collective
    elif backend == "cphase":
        window, entangling = noise.cphase_window, counts.cphase
    else:
        raise ValueError(f"unknown backend {backend!r}")

    def cap(eps: float) -> float:
        total = entangling * eps + counts.single * eps * noise.single_qubit_factor
        return max(0.0, 1.0 - total)

    return cap(window[1]), cap(window[0])


# ---------------------------------------------------------------------------
# step-count bounds for a first-order fractal decomposition

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


def trotter_bound(m: int, norm_bound: float, t: float, eps: float, k: int = 1) -> int:
    """Ceiling of 2 m 5^(2k) (m * norm_bound * t)^(1 + 1/2k) / eps^(1/2k)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if k < 1:
        raise ValueError("fractal degree k must be at least 1")
    value = 2 * m * _fractal_factor(k) * (m * norm_bound * t) ** (1 + 1 / (2 * k)) / eps ** (1 / (2 * k))
    return math.ceil(value)


def plaquette_bound_constant(k: int = 1) -> float:
    """Coefficient of (Jt)^(1+1/2k) in the one-plaquette step bound under the
    norm reading that makes m * norm = 2|J| per plaquette."""
    m = PLAQUETTE_TERMS
    return 2 * m * _fractal_factor(k) * (m * PLAQUETTE_NORM_READING) ** (1 + 1 / (2 * k))


def plaquette_steps_bound(n_plaquettes: int, jt: float, eps: float, k: int = 1) -> int:
    return trotter_bound(PLAQUETTE_TERMS * n_plaquettes, PLAQUETTE_NORM_READING, jt, eps, k)


def printed_steps_bound(n_plaquettes: int, jt: float, eps: float) -> float:
    """The same bound with the rounded literature constant 2300."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return PRINTED_BOUND_CONSTANT * n_plaquettes * (n_plaquettes * jt) ** 1.5 / math.sqrt(eps)


# ---------------------------------------------------------------------------
# serialization

def format_circuit(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.n_qubits}"]
    for g in circuit.gates:
        qubits = ",".join(str(q) for q in g.qubits)
        if g.kind == "rot":
            lines.append(f"rot {g.axis} {qubits} {g.angle!r}")
        else:
            lines.append(f"{g.kind} {qubits} {g.angle!r}")
    return "\n".join(lines) + "\n"


def resource_report(circuit: Circuit, noise: NoiseModel = NoiseModel(), backend: str | None = None) -> dict:
    counts = circuit.counts
    low, high = fidelity_cap(counts, noise, backend)
    return {
        "schema": 1,
        "collective": counts.collective,
        "cphase": counts.cphase,
        "single": counts.single,
        "fidelity_band": {"low": low, "high": high},
    }


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
