"""Lowering of multi-qubit string rotations to two superconducting gate sets.

Backend one (``collective``) realizes exp(-i phi P) for an N-letter string P
by sandwiching a single-qubit Z rotation between two collective XX gates over
the string's support, plus at most 2N basis-change rotations.  Backend two
(``cphase``) replaces each collective gate by N two-qubit pieces against a
shared ancilla (one C-phase plus two local Z rotations each) and needs the
ancilla prepared in a fixed axis eigenstate.

Gate conventions, applied in closed form to a block of state columns with no
matrix exponential: one ``pauli.action`` gather per X/Y rotation or XX pair,
one multiply by a phase vector per run of Z rotations and C-phases:
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

from .errors import GuardError
from .pauli import DENSE_QUBIT_LIMIT, PauliString, PauliSum, action

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

    def __add__(self, other: "GateCounts") -> "GateCounts":
        return GateCounts(
            self.collective + other.collective,
            self.cphase + other.cphase,
            self.single + other.single,
        )


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

    def __add__(self, other: "Circuit") -> "Circuit":
        return Circuit(self.gates + other.gates, max(self.n_qubits, other.n_qubits))


def _apply_gates(gates: tuple[Gate, ...], block: np.ndarray) -> np.ndarray:
    """The gates, in order, applied in place to the columns of ``block``; a
    run of diagonal gates is fused into one phase vector, applied once."""
    n = len(block).bit_length() - 1
    rows, pending = np.arange(len(block)), None
    for gate in gates:
        if max(gate.qubits) >= n:
            raise ValueError(f"gate acts outside the {n}-qubit register")
        if gate.kind == "cphase":
            diagonal = np.where((rows >> gate.qubits[0]) & (rows >> gate.qubits[1]) & 1, np.exp(-2j * gate.angle), 1.0)
        elif gate.axis == "z":
            diagonal = np.where((rows >> gate.qubits[0]) & 1, np.exp(0.5j * gate.angle), np.exp(-0.5j * gate.angle))
        else:
            if pending is not None:
                block *= pending[:, None]
                pending = None
            if gate.kind == "rot":  # factors (P, theta) of exp(i theta P)
                factors = [(PauliString(1.0, {gate.qubits[0]: gate.axis.upper()}), -gate.angle / 2.0)]
            else:
                factors = [(PauliString(1.0, {a: "X", b: "X"}), gate.angle) for a, b in combinations(gate.qubits, 2)]
            for string, theta in factors:
                perm, phases = action(string, n)
                gathered = block[perm]
                gathered *= (1j * math.sin(theta) * phases)[:, None]
                block *= math.cos(theta)
                block += gathered
            continue
        pending = diagonal if pending is None else pending * diagonal
    return block if pending is None else np.multiply(block, pending[:, None], out=block)


def gate_unitary(gate: Gate, n_qubits: int) -> np.ndarray:
    return circuit_unitary(Circuit((gate,), n_qubits))


def circuit_unitary(circuit: Circuit, n_qubits: int | None = None) -> np.ndarray:
    n = circuit.n_qubits if n_qubits is None else n_qubits
    if n > DENSE_QUBIT_LIMIT:
        raise GuardError(f"dense circuits limited to {DENSE_QUBIT_LIMIT} qubits")
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
    for i, qubit in enumerate(support):
        canonical = canonical_first if i == 0 else "x"
        p, q = _basis_change(canonical, monomial.letters[qubit].lower(), qubit)
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
    for qubit in support:
        p, q = _basis_change("z", monomial.letters[qubit].lower(), qubit)
        pre += p
        post += q
    forward = [g for qubit in support for g in _zz_half_turn(ancilla, qubit, +1)]
    backward = [g for qubit in support for g in _zz_half_turn(ancilla, qubit, -1)]
    center = rot("x", ancilla, 2.0 * center_sign * angle)
    gates = pre + forward + [center] + backward + post
    return Circuit(tuple(gates), max(ancilla, max(support)) + 1)


def compile_step(monomials: list[PauliString], phi: float, backend: str, ancilla: int | None = None) -> Circuit:
    """Concatenation of the per-monomial circuits of one digitized step.

    For the cphase backend the shared ancilla is re-prepared between monomials
    by the surrounding protocol (state preparation, not a counted gate), so the
    concatenation is meaningful for resource accounting; the collective
    concatenation is a plain circuit for the whole step.
    """
    if backend == "collective":
        parts = [compile_collective(m, phi) for m in monomials]
    elif backend == "cphase":
        if ancilla is None:
            ancilla = 1 + max(q for m in monomials for q in m.support)
        parts = [compile_cphase(m, phi, ancilla) for m in monomials]
    else:
        raise ValueError(f"unknown backend {backend!r}")
    out = parts[0]
    for part in parts[1:]:
        out = out + part
    return out


def reduced_system_unitary(circuit: Circuit, ancilla: int, prepared: np.ndarray) -> np.ndarray:
    """Action of the circuit on the system register with the ancilla prepared
    in (and projected back onto) the given single-qubit state."""
    n_total = circuit.n_qubits
    if n_total > DENSE_QUBIT_LIMIT:
        raise GuardError(f"dense circuits limited to {DENSE_QUBIT_LIMIT} qubits")
    if not 0 <= ancilla < n_total:
        raise ValueError(f"ancilla {ancilla} is outside the {n_total}-qubit register")
    # a register index split into (bits above the ancilla, ancilla bit, bits below, column)
    shape = (2 ** (n_total - 1 - ancilla), 2, 2**ancilla, -1)
    system = np.eye(2 ** (n_total - 1), dtype=complex).reshape(shape[0], 1, shape[2], -1)
    out = _apply_gates(circuit.gates, (prepared[:, None, None] * system).reshape(2**n_total, -1))
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
    from .dynamics import TrotterPlan, exact_evolve, trotter_evolve

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


def parse_circuit(text: str) -> Circuit:
    gates: list[Gate] = []
    n_qubits = 0
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "qubits":
            n_qubits = int(fields[1])
        elif fields[0] == "rot":
            gates.append(rot(fields[1], int(fields[2]), float(fields[3])))
        elif fields[0] in ("coll", "cphase"):
            qubits = tuple(int(q) for q in fields[1].split(","))
            angle = float(fields[2])
            gates.append(coll(qubits, angle) if fields[0] == "coll" else cphase(*qubits, angle))
        else:
            raise ValueError(f"unknown circuit directive {fields[0]!r}")
    if n_qubits == 0:
        n_qubits = 1 + max((q for g in gates for q in g.qubits), default=-1)
    return Circuit(tuple(gates), n_qubits)


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
