import json
import math
from itertools import combinations, product

import numpy as np
import pytest

from su2link import cli
from su2link import compiler as cp
from su2link import linkmodel as lm
from su2link.compiler import Circuit, GateCounts, coll, cphase, rot
from su2link.errors import GuardError
from su2link.linalg import expi_hermitian, unitary_distance_up_to_phase
from su2link.pauli import PauliString, PauliSum, columns, dense


@pytest.fixture(scope="module")
def monomials():
    return lm.plaquette_monomials(lm.triangle_layout(), 1.0)


def target_unitary(monomial, phi, n):
    return expi_hermitian(dense(monomial, n), scale=-phi)


def test_gate_validation():
    with pytest.raises(ValueError):
        rot("q", 0, 1.0)
    with pytest.raises(ValueError):
        coll((0,), 1.0)
    with pytest.raises(ValueError):
        cphase(1, 1, 0.5)
    with pytest.raises(ValueError):
        rot("x", 0, math.inf)
    with pytest.raises(ValueError):
        Circuit((rot("x", 3, 0.1),), 2)


@pytest.mark.parametrize(
    "make",
    [lambda: rot("x", -1, 0.3), lambda: rot("y", -1, 0.3), lambda: rot("z", -1, 0.3),
     lambda: coll((0, -1), 0.3), lambda: coll((2, 0, -3), 0.3), lambda: cphase(-1, 0, 0.3), lambda: cphase(0, -2, 0.3)],
)
def test_negative_qubit_index_rejected(make):
    with pytest.raises(ValueError, match="^gate qubit indices must be non-negative"):
        make()


def test_compile_cphase_rejects_negative_ancilla():
    with pytest.raises(ValueError, match="^gate qubit indices must be non-negative"):
        cp.compile_cphase(PauliString(1.0, {0: "X", 1: "Y"}), 0.3, ancilla=-1)


def test_unitary_distance_overlap_is_the_trace_form():
    rng = np.random.default_rng(3)
    for n in (1, 4, 16, 64):
        a, b = (np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0] for _ in range(2))
        for other in (b, a * np.exp(0.4j) + 1e-9 * b):
            overlap = np.trace(a.conj().T @ other)
            want = float(np.max(np.abs(a * (overlap / abs(overlap)) - other)))
            assert abs(unitary_distance_up_to_phase(a, other) - want) <= 1e-15


def test_unitary_distance_rejects_unequal_shapes():
    with pytest.raises(ValueError, match=r"^cannot compare unitaries of shapes \(1, 4\) and \(4, 1\)$"):
        unitary_distance_up_to_phase(np.ones((1, 4)), np.ones((4, 1)))
    with pytest.raises(ValueError, match="shapes"):
        unitary_distance_up_to_phase(np.eye(4), np.eye(2))


def test_hermiticity_check_agrees_with_allclose():
    # just inside and just past 1e-10 + 1e-5 |b| at one off-diagonal pair, b = m^H
    rng = np.random.default_rng(11)
    outcomes = []
    for size in (2, 4, 64):
        base = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        for scale in (0.0, 1.0, 1e6):
            hermitian = (base + base.conj().T) * scale
            threshold = 1e-10 + 1e-5 * abs(hermitian[0, 1])
            for factor in (0.5, 1 - 1e-9, 1 - 1e-15, 1.0, 1 + 1e-15, 1 + 1e-9, 2.0):
                for direction in (1.0, -1.0, 1j, np.exp(0.3j)):
                    matrix = hermitian.copy()
                    matrix[0, 1] += threshold * factor * direction
                    try:
                        expi_hermitian(matrix)
                        accepted = True
                    except GuardError:
                        accepted = False
                    assert accepted == np.allclose(matrix, matrix.conj().T, atol=1e-10)
                    outcomes.append(accepted)
    assert set(outcomes) == {True, False}


@pytest.mark.parametrize("value", [np.nan, complex(np.nan, 0.0), complex(0.0, np.nan), np.inf, -np.inf, complex(0.0, np.inf)])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
def test_hermiticity_check_refuses_a_non_finite_entry(value, entry):
    # an infinite entry is refused here too, where allclose takes equal
    # infinities as close and the exponential came out all NaN
    matrix = np.eye(2, dtype=complex)
    matrix[entry] = value
    matrix[entry[::-1]] = np.conj(value)
    with pytest.raises(GuardError, match="^matrix is not Hermitian within tolerance$"):
        expi_hermitian(matrix)


def test_cphase_gate_matrix():
    gate = cphase(0, 1, 0.4)
    matrix = cp.circuit_unitary(Circuit((gate,), 2))
    assert np.allclose(matrix, np.diag([1, 1, 1, np.exp(-0.8j)]), atol=1e-12)


def test_collective_gate_matches_pair_sum():
    gate = coll((0, 2), 0.3)
    want = expi_hermitian(dense(PauliString(1.0, {0: "X", 2: "X"}), 3), scale=0.3)
    assert np.allclose(cp.circuit_unitary(Circuit((gate,), 3)), want, atol=1e-12)


ORACLE_TOL = 1e-12


def generator_unitary(generator, scale, n):
    """Dense spectral exponential exp(i scale generator), the gates' oracle."""
    return expi_hermitian(dense(generator, n), scale=scale)


@pytest.mark.parametrize("n", range(3, 8))
def test_closed_form_gates_match_spectral_exponential(n):
    # each gate's generator is Hermitian by construction, so the closed forms
    # are checked against the spectral exponential of that generator
    rng = np.random.default_rng(n)
    for _ in range(3):
        angle = rng.uniform(-2 * np.pi, 2 * np.pi)
        qubit = int(rng.integers(n))
        for axis in "xyz":
            want = generator_unitary(PauliString(1.0, {qubit: axis.upper()}), -angle / 2, n)
            assert np.max(np.abs(cp.circuit_unitary(Circuit((rot(axis, qubit, angle),), n)) - want)) < ORACLE_TOL
        for size in range(2, min(n, 6) + 1):
            qubits = tuple(int(q) for q in rng.permutation(n)[:size])  # any order
            pairs = PauliSum([PauliString(1.0, {a: "X", b: "X"}) for a, b in combinations(qubits, 2)])
            want = generator_unitary(pairs, angle, n)
            assert np.max(np.abs(cp.circuit_unitary(Circuit((coll(qubits, angle),), n)) - want)) < ORACLE_TOL
        a, b = (int(q) for q in rng.permutation(n)[:2])
        # projector onto bits a and b both set: (1 - Z_a - Z_b + Z_a Z_b) / 4
        both = PauliSum(
            [PauliString(0.25), PauliString(-0.25, {a: "Z"}), PauliString(-0.25, {b: "Z"}),
             PauliString(0.25, {a: "Z", b: "Z"})]
        )
        want = generator_unitary(both, -2 * angle, n)
        assert np.max(np.abs(cp.circuit_unitary(Circuit((cphase(a, b, angle),), n)) - want)) < ORACLE_TOL


def test_gate_outside_register_rejected():
    for gate in (rot("y", 3, 0.2), rot("z", 3, 0.2), coll((0, 3), 0.2), cphase(3, 1, 0.2)):
        with pytest.raises(ValueError):
            cp.circuit_unitary(Circuit((gate,), 3))
        with pytest.raises(ValueError):
            cp.circuit_unitary(Circuit((gate,), 4), 3)
    # a gate outside the register inside a run of diagonal gates, with the
    # run ending at a non-diagonal gate and at the end of the circuit
    run = (rot("z", 0, 0.1), cphase(0, 1, 0.2), rot("z", 3, 0.3), cphase(1, 2, 0.4))
    for gates in (run + (rot("x", 0, 0.5),), run):
        with pytest.raises(ValueError, match="outside the 3-qubit register"):
            cp.circuit_unitary(Circuit(gates, 4), 3)


def test_unitaries_reject_a_bad_register_or_ancilla_state():
    with pytest.raises(ValueError, match="n_qubits must be non-negative, got -1"):
        cp.circuit_unitary(Circuit((), 0), n_qubits=-1)
    circuit = cp.compile_cphase(PauliString(1.0, {0: "X", 1: "Y"}), 0.3)
    for prepared in (np.ones(1), np.ones(3) / np.sqrt(3), np.ones(4) / 2, np.eye(2)):
        with pytest.raises(ValueError, match=r"prepared must be a single-qubit state of 2 amplitudes, got shape \("):
            cp.reduced_system_unitary(circuit, 2, prepared)


def test_dense_guard_fires_before_allocation(memory_boundary):
    with pytest.raises(GuardError, match="^circuit unitary on 13 qubits needs"):
        cp.circuit_unitary(Circuit((rot("x", 0, 0.1),), 13))
    with pytest.raises(GuardError, match="^reduced system unitary on 14 qubits needs"):
        cp.reduced_system_unitary(Circuit((rot("x", 0, 0.1),), 14), 0, cp.ancilla_state(2))
    assert cp.circuit_unitary(Circuit((), 12)).shape == (4096, 4096)  # 12 qubits fit the budget
    memory_boundary(lambda: cp.circuit_unitary(Circuit((rot("x", 0, 0.1), coll((0, 1, 2), 0.2)), 3)))
    circuit = cp.compile_cphase(PauliString(1.0, {0: "X", 1: "Y"}), 0.3)
    memory_boundary(lambda: cp.reduced_system_unitary(circuit, 2, cp.ancilla_state(2)))


def test_circuit_unitary_holds_one_gather_copy(traced_peak):
    # the unitary and one flipped or staged copy: the estimate's 32N^2, not
    # 48N^2; every qubit is touched, so the block is the unitary
    n = 9
    gates = (rot("x", 0, 0.1), coll((0, 1, 2), 0.2), rot("y", 4, 0.3), coll((3, 8), 0.4), *(rot("x", q, 0.1) for q in (5, 6, 7)))
    _, peak = traced_peak(lambda: cp.circuit_unitary(Circuit(gates, n)))
    assert 2 * 16 * 4**n < peak < 2.5 * 16 * 4**n


def test_reduced_system_unitary_peak_stays_under_its_estimate(traced_peak):
    # every qubit is touched: the kernel holds the block and one flipped or
    # staged copy (8 * 4^n bytes each), the collective matrix and its distance
    # table (17 bytes per entry), the bit table and three phase vectors, and
    # numpy's iteration buffers; the projection (the block, its result and one
    # product: 16 * 4^n) holds no more
    n = 10
    gates = (rot("z", 0, 0.1), cphase(0, 1, 0.2), rot("x", 0, 0.1), coll((0, 1, 2), 0.2), rot("y", 4, 0.3), *(rot("x", q, 0.1) for q in range(5, n)))
    _, peak = traced_peak(lambda: cp.reduced_system_unitary(Circuit(gates, n), 3, cp.ancilla_state(2)))
    estimate = 16 * 4**n + 17 * 4**3 + (8 * n + 48) * 2**n + 32 * np.getbufsize()
    assert 0.95 * estimate < peak <= estimate


@pytest.mark.parametrize("reduced", [False, True])
def test_touched_path_peak_stays_under_its_estimate(reduced, traced_peak):
    # four of ten (system) qubits touched: the placement holds the placed
    # unitary and the block's result (16 bytes per entry each), the row
    # indices (48 bytes per basis state) and numpy's iteration buffers
    n = 10
    gates = (rot("z", 0, 0.1), cphase(0, 1, 0.2), rot("x", 0, 0.1), coll((0, 1, 2), 0.2), rot("y", 4, 0.3))
    circuit = Circuit(gates, n + reduced)  # with the ancilla at qubit 3, system qubit 3 is qubit 4
    unitary, peak = traced_peak(
        lambda: cp.reduced_system_unitary(circuit, 3, cp.ancilla_state(2)) if reduced else cp.circuit_unitary(circuit)
    )
    assert unitary.shape == (2**n, 2**n)
    estimate = 16 * 4**n + 16 * 4**4 + 48 * 2**n + 32 * np.getbufsize()
    assert 0.95 * estimate < peak <= estimate


def sandwiched_system_unitary(full, ancilla, prepared):
    """Reduced action the long way: embed^dag . U . embed with the full U."""
    n = len(full).bit_length() - 1
    embed = np.zeros((2**n, 2 ** (n - 1)), dtype=complex)
    for index in range(2 ** (n - 1)):
        low, high = index & ((1 << ancilla) - 1), index >> ancilla
        for bit in (0, 1):
            embed[low | (bit << ancilla) | (high << (ancilla + 1)), index] = prepared[bit]
    return embed.conj().T @ full @ embed


def gate_oracle(gate, n):
    """The gate's dense matrix from its definition, one gate at a time."""
    if gate.kind == "rot":
        letter = dense(PauliString(1.0, {gate.qubits[0]: gate.axis.upper()}), n)
        return math.cos(gate.angle / 2) * np.eye(2**n) - 1j * math.sin(gate.angle / 2) * letter
    if gate.kind == "coll":
        # the commuting pair factors cos angle + i sin angle X_a X_b: the spectral
        # exponential of the pair sum rounds angle * eigenvalue, 1e-5 off at angle 1e10
        out = np.eye(2**n, dtype=complex)
        for a, b in combinations(gate.qubits, 2):
            pair = dense(PauliString(1.0, {a: "X", b: "X"}), n)
            out = (math.cos(gate.angle) * np.eye(2**n) + 1j * math.sin(gate.angle) * pair) @ out
        return out
    rows, (a, b) = np.arange(2**n), gate.qubits
    return np.diag(np.where((rows >> a) & (rows >> b) & 1, np.exp(-2j * gate.angle), 1.0))


def oracle_unitary(gates, n):
    """The product of the gates' ``gate_oracle`` matrices, first gate rightmost."""
    out = np.eye(2**n, dtype=complex)
    for gate in gates:
        out = gate_oracle(gate, n) @ out
    return out


@pytest.mark.parametrize("k", range(2, 9))
def test_collective_matrix_matches_the_gate_definition(k):
    # on every qubit of the register, in descending order, so the gate is its one matrix
    for angle in (np.pi / 4, -np.pi / 4, 2 * np.pi, -2 * np.pi, 1e10 + 0.1):
        gate = coll(tuple(range(k - 1, -1, -1)), angle)
        assert np.max(np.abs(cp.circuit_unitary(Circuit((gate,), k)) - gate_oracle(gate, k))) < ORACLE_TOL


def test_untouched_qubits_match_the_dense_oracles(monomials):
    partial = [m for m in monomials if m.weight in (3, 5)]
    assert {m.weight for m in partial} == {3, 5}
    circuits = [Circuit(cp.compile_collective(m, 0.7).gates, 6) for m in partial]
    circuits += [Circuit(cp.compile_cphase(m, 0.7, ancilla=6).gates, 7) for m in partial]
    # a circuit on the top qubit only, and an empty one
    circuits += [Circuit((rot("y", 4, 0.3), rot("z", 4, 1.1), rot("x", 4, -0.4)), 5), Circuit((), 4)]
    rng = np.random.default_rng(31)
    for circuit in circuits:
        n = circuit.n_qubits
        assert len({q for g in circuit.gates for q in g.qubits}) < n
        for width in (n, n + 1):
            want = oracle_unitary(circuit.gates, width)
            assert np.max(np.abs(cp.circuit_unitary(circuit, width) - want)) < ORACLE_TOL
        want = oracle_unitary(circuit.gates, n)
        for ancilla in (0, n // 2, n - 1):
            prepared = rng.normal(size=2) + 1j * rng.normal(size=2)
            prepared /= np.linalg.norm(prepared)
            got = cp.reduced_system_unitary(circuit, ancilla, prepared)
            assert np.max(np.abs(got - sandwiched_system_unitary(want, ancilla, prepared))) < ORACLE_TOL


def random_gate(rng, n, diagonal):
    angle = rng.uniform(-2 * np.pi, 2 * np.pi)
    a, b, *_ = (int(q) for q in rng.permutation(n))
    if diagonal:
        return rot("z", a, angle) if rng.random() < 0.5 else cphase(a, b, angle)
    if rng.random() < 0.6:
        return rot(str(rng.choice(["x", "y"])), a, angle)
    size = int(rng.integers(2, n + 1))
    return coll(tuple(int(q) for q in rng.permutation(n)[:size]), angle)


def random_circuit(rng, n, ends_diagonal):
    """Six alternating runs of 1 to 8 diagonal (Z rotation, C-phase) or
    non-diagonal (X/Y rotation, collective) gates; the last run is diagonal
    when ``ends_diagonal``."""
    gates, diagonal = [], not ends_diagonal
    for _ in range(6):
        gates += [random_gate(rng, n, diagonal) for _ in range(int(rng.integers(1, 9)))]
        diagonal = not diagonal
    return Circuit(tuple(gates), n)


@pytest.mark.parametrize("n", range(3, 8))
def test_fused_circuits_match_per_gate_product(n):
    rng = np.random.default_rng(200 + n)
    for ends_diagonal in (False, True):
        circuit = random_circuit(rng, n, ends_diagonal)
        want = oracle_unitary(circuit.gates, n)
        assert np.max(np.abs(cp.circuit_unitary(circuit) - want)) < ORACLE_TOL
        ancilla = int(rng.integers(n))
        prepared = rng.normal(size=2) + 1j * rng.normal(size=2)
        prepared /= np.linalg.norm(prepared)
        got = cp.reduced_system_unitary(circuit, ancilla, prepared)
        assert np.max(np.abs(got - sandwiched_system_unitary(want, ancilla, prepared))) < ORACLE_TOL


def per_pair_gates(gates, block):
    """The kernel before qubit-axis flips, as an oracle: one ``pauli.columns``
    gather per X/Y rotation or XX pair, and each diagonal gate's phases from
    shifted row indices, fused as the kernel fuses them."""
    n = len(block).bit_length() - 1
    rows, pending = np.arange(len(block)), None
    for gate in gates:
        assert max(gate.qubits) < n
        if gate.kind == "cphase":
            diagonal = np.where((rows >> gate.qubits[0]) & (rows >> gate.qubits[1]) & 1, np.exp(-2j * gate.angle), 1.0)
        elif gate.axis == "z":
            diagonal = np.where((rows >> gate.qubits[0]) & 1, np.exp(0.5j * gate.angle), np.exp(-0.5j * gate.angle))
        else:
            if pending is not None:
                block *= pending[:, None]
                pending = None
            if gate.kind == "rot":
                factors = [(PauliString(1.0, {gate.qubits[0]: gate.axis.upper()}), -gate.angle / 2.0)]
            else:
                factors = [(PauliString(1.0, {a: "X", b: "X"}), gate.angle) for a, b in combinations(gate.qubits, 2)]
            for string, theta in factors:
                ((perm, values),) = columns(string, rows, n)
                gathered = block[perm]
                gathered *= (1j * math.sin(theta) * values[perm])[:, None]
                block *= math.cos(theta)
                block += gathered
            continue
        pending = diagonal if pending is None else pending * diagonal
    return block if pending is None else np.multiply(block, pending[:, None], out=block)


# the largest measured difference from the per-pair kernel is 3.2e-15, on the
# triangle's collective step (32 collective gates); 1.5e-15 on one monomial's
# circuit and 5.6e-16 on the random circuits.  Circuits without collective
# gates take the same arithmetic and match exactly.
PER_PAIR_TOL = 1e-14


def per_pair_unitaries(circuit, ancilla=None, prepared=None):
    """circuit_unitary, and with an ancilla reduced_system_unitary, on the
    whole register with the per-pair kernel: no relabelling, no placement."""
    n = circuit.n_qubits
    out = [per_pair_gates(circuit.gates, np.eye(2**n, dtype=complex))]
    if ancilla is not None:
        shape = (2 ** (n - 1 - ancilla), 2, 2**ancilla, -1)
        block = prepared[:, None, None] * np.eye(2 ** (n - 1), dtype=complex).reshape(shape[0], 1, shape[2], -1)
        block = per_pair_gates(circuit.gates, block.reshape(2**n, -1))
        block = block.reshape(shape)
        out.append((block[:, 0] * np.conj(prepared[0]) + block[:, 1] * np.conj(prepared[1])).reshape(2 ** (n - 1), -1))
    return out


def assert_as_per_pair(circuit, tol, ancilla=None, prepared=None):
    """circuit_unitary, and with an ancilla reduced_system_unitary, lie within
    ``tol`` of their per-pair values; exactly equal at ``tol`` 0."""
    got = [cp.circuit_unitary(circuit)]
    if ancilla is not None:
        got.append(cp.reduced_system_unitary(circuit, ancilla, prepared))
    for value, want in zip(got, per_pair_unitaries(circuit, ancilla, prepared), strict=True):
        assert np.array_equal(value, want) if tol == 0 else np.max(np.abs(value - want)) <= tol


@pytest.mark.parametrize("phi", [0.7, -1.3, 2.9])
def test_triangle_unitaries_match_the_per_pair_kernel(monomials, phi):
    for monomial in monomials:
        assert_as_per_pair(Circuit(cp.compile_collective(monomial, phi).gates, 6), PER_PAIR_TOL)
        circuit = Circuit(cp.compile_cphase(monomial, phi, ancilla=6).gates, 7)
        assert_as_per_pair(circuit, 0, 6, cp.ancilla_state(monomial.weight))  # no collective gate
    assert_as_per_pair(cp.compile_step(monomials, phi, "collective"), PER_PAIR_TOL)
    assert_as_per_pair(cp.compile_step(monomials, phi, "cphase"), 0, 6, cp.ancilla_state(6))


@pytest.mark.parametrize("n", range(3, 9))
def test_random_unitaries_match_the_per_pair_kernel(n):
    rng = np.random.default_rng(500 + n)
    for ends_diagonal in (False, True):
        circuit = random_circuit(rng, n, ends_diagonal)
        assert {g.axis or g.kind for g in circuit.gates} == {"x", "y", "z", "coll", "cphase"}
        ancilla = int(rng.integers(n - 1))  # never the last qubit
        prepared = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert_as_per_pair(circuit, PER_PAIR_TOL, ancilla, prepared / np.linalg.norm(prepared))


@pytest.mark.parametrize("n", range(3, 9))
def test_circuits_without_collective_gates_equal_the_per_pair_kernel_bitwise(n):
    # X/Y flips and the diagonal runs' phase products keep their arithmetic
    # on the touched qubits, and placing the block adds only exact zeros
    rng = np.random.default_rng(700 + n)
    runs = [tuple(g for g in random_circuit(rng, n, ends_diagonal).gates if g.kind != "coll") for ends_diagonal in (False, True)]
    assert {g.axis or g.kind for gates in runs for g in gates} == {"x", "y", "z", "cphase"}
    for gates in runs:
        # every qubit touched, and the first half's gates with qubits left untouched
        for circuit in (Circuit(gates, n), Circuit(gates[: len(gates) // 2], n + 1)):
            for ancilla in range(circuit.n_qubits):
                prepared = rng.normal(size=2) + 1j * rng.normal(size=2)
                assert_as_per_pair(circuit, 0, ancilla, prepared / np.linalg.norm(prepared))


@pytest.mark.parametrize("ancilla", [0, 3, 6])
def test_reduced_unitary_matches_sandwich(monomials, ancilla):
    # the system qubits skip the ancilla, so the reduced block is still the
    # target exponential on six qubits
    for monomial in monomials:
        shifted = PauliString(
            monomial.coefficient, {q + (q >= ancilla): letter for q, letter in monomial.key()}
        )
        # widened to 7 qubits, as a monomial may leave the top system qubit idle
        circuit = Circuit(cp.compile_cphase(shifted, 0.7, ancilla=ancilla).gates, 7)
        prepared = cp.ancilla_state(monomial.weight)
        got = cp.reduced_system_unitary(circuit, ancilla, prepared)
        want = sandwiched_system_unitary(cp.circuit_unitary(circuit), ancilla, prepared)
        assert np.max(np.abs(got - want)) < ORACLE_TOL
        assert unitary_distance_up_to_phase(target_unitary(monomial, 0.7, 6), got) < 1e-9
    with pytest.raises(ValueError):
        cp.reduced_system_unitary(circuit, 7, prepared)


def test_collective_monomial_counts(monomials):
    for monomial in monomials:
        circuit = cp.compile_collective(monomial, 0.3)
        counts = circuit.counts
        assert counts.collective == 2
        assert counts.cphase == 0
        assert counts.single <= 2 * monomial.weight + 1


def test_collective_step_counts(monomials):
    step = cp.compile_step(monomials, 0.3, "collective")
    counts = step.counts
    assert counts.collective == 32
    assert counts.single <= 184
    assert counts.single == 132  # achieved with the fixed conjugation table


def test_collective_dense_equivalence(monomials):
    for phi in (0.1, 0.7):
        for monomial in monomials:
            circuit = cp.compile_collective(monomial, phi)
            got = cp.circuit_unitary(circuit, 6)
            assert unitary_distance_up_to_phase(target_unitary(monomial, phi, 6), got) < 1e-9


def test_collective_step_is_one_trotter_pass(monomials):
    phi = 0.4
    step = cp.compile_step(monomials, phi, "collective")
    got = cp.circuit_unitary(step, 6)
    want = np.eye(64, dtype=complex)
    for monomial in monomials:
        want = target_unitary(monomial, phi, 6) @ want
    assert unitary_distance_up_to_phase(want, got) < 1e-9


def test_weight_one_and_zero_fallback():
    bare = cp.compile_collective(PauliString(1.0, {2: "Y"}), 0.5)
    assert bare.counts == GateCounts(single=1)
    got = cp.circuit_unitary(bare, 3)
    assert unitary_distance_up_to_phase(target_unitary(PauliString(1.0, {2: "Y"}), 0.5, 3), got) < 1e-12
    empty = cp.compile_collective(PauliString(2.0), 0.5)
    assert empty.counts == GateCounts()


def test_complex_coefficient_rejected():
    with pytest.raises(ValueError):
        cp.compile_collective(PauliString(1j, {0: "X", 1: "X"}), 0.1)


def test_cphase_monomial_counts(monomials):
    for monomial in monomials:
        circuit = cp.compile_cphase(monomial, 0.3, ancilla=6)
        counts = circuit.counts
        assert counts.cphase == 2 * monomial.weight
        assert counts.single <= 6 * monomial.weight + 1
    three_body = monomials[0]
    counts = cp.compile_cphase(three_body, 0.3, ancilla=6).counts
    assert counts.cphase == 6
    assert counts.single <= 19


def test_cphase_step_counts(monomials):
    step = cp.compile_step(monomials, 0.3, "cphase")
    counts = step.counts
    assert counts.cphase == 168
    assert counts.single <= 520
    assert counts.single == 496  # achieved
    assert counts.collective == 0


def test_cphase_reduced_equivalence(monomials):
    for phi in (0.1, 0.7):
        for monomial in monomials:
            circuit = cp.compile_cphase(monomial, phi, ancilla=6)
            reduced = cp.reduced_system_unitary(circuit, 6, cp.ancilla_state(monomial.weight))
            # the reduced block is unitary, so the ancilla factors out exactly
            assert np.max(np.abs(reduced.conj().T @ reduced - np.eye(64))) < 1e-9
            assert unitary_distance_up_to_phase(target_unitary(monomial, phi, 6), reduced) < 1e-9


@pytest.mark.parametrize("phi", [0.7, -1.3])
def test_every_basis_change_on_both_backends(phi):
    """Every X/Y/Z string of weight 2-4 on qubits 0..w-1, so every entry of
    the conjugation table, on each backend's canonical letters."""
    worst = 0.0
    for weight in (2, 3, 4):
        for letters in product("XYZ", repeat=weight):
            monomial = PauliString(1.0, dict(enumerate(letters)))
            want = target_unitary(monomial, phi, weight)
            collective = cp.circuit_unitary(cp.compile_collective(monomial, phi), weight)
            reduced = cp.reduced_system_unitary(
                cp.compile_cphase(monomial, phi, ancilla=weight), weight, cp.ancilla_state(weight)
            )
            worst = max(worst, *(unitary_distance_up_to_phase(want, got) for got in (collective, reduced)))
    assert worst < 1e-10


def test_cphase_ancilla_collision():
    monomial = PauliString(1.0, {0: "X", 1: "X"})
    with pytest.raises(ValueError):
        cp.compile_cphase(monomial, 0.1, ancilla=1)


def test_sandwich_sign_table():
    # collective half-turn sandwich around a Z-center rotation: the result is
    # the string rotation with axis Z (odd weight) or Y (even weight) on the
    # first qubit and sign +1 for weight 1, 2 (mod 4), -1 for weight 0, 3
    gt = 0.37
    for weight in range(2, 7):
        qubits = tuple(range(weight))
        circuit = Circuit((coll(qubits, -np.pi / 4), rot("z", 0, -2 * gt), coll(qubits, np.pi / 4)), weight)
        got = cp.circuit_unitary(circuit)
        axis = "Z" if weight % 2 else "Y"
        sign = 1 if weight % 4 in (1, 2) else -1
        string = PauliString(1.0, {0: axis, **{q: "X" for q in range(1, weight)}})
        want = expi_hermitian(dense(string, weight), scale=sign * gt)
        assert np.max(np.abs(got - want)) < 1e-10


def test_ancilla_sandwich_sign_table():
    # ZZ half-turn layers around an ancilla X rotation: axis X (even weight)
    # or Y (odd), sign +1 for weight 0, 3 (mod 4), -1 for weight 1, 2
    gt = 0.42
    for weight in range(2, 7):
        ancilla = weight
        forward = [g for q in range(weight) for g in cp._zz_half_turn(ancilla, q, +1)]
        backward = [g for q in range(weight) for g in cp._zz_half_turn(ancilla, q, -1)]
        circuit = Circuit(tuple(forward) + (rot("x", ancilla, 2 * gt),) + tuple(backward), weight + 1)
        got = cp.circuit_unitary(circuit)
        axis = "X" if weight % 2 == 0 else "Y"
        sign = 1 if weight % 4 in (0, 3) else -1
        letters = {ancilla: axis, **{q: "Z" for q in range(weight)}}
        want = expi_hermitian(dense(PauliString(1.0, letters), weight + 1), scale=-sign * gt)
        assert unitary_distance_up_to_phase(want, got) < 1e-10


def test_fidelity_cap_trivial_and_affine():
    assert cp.fidelity_cap(GateCounts(), "collective") == (1.0, 1.0)
    counts = GateCounts(collective=10, single=40)
    low, high = cp.fidelity_cap(counts, "collective")
    assert low == pytest.approx(1 - (10 * 5e-4 + 40 * 5e-4 / 20), abs=1e-15)
    assert high == pytest.approx(1 - (10 * 1e-4 + 40 * 1e-4 / 20), abs=1e-15)
    # affine: doubling the counts doubles the loss
    low2, _ = cp.fidelity_cap(GateCounts(collective=20, single=80), "collective")
    assert (1 - low2) == pytest.approx(2 * (1 - low), abs=1e-15)


def test_fidelity_cap_band_and_clamp():
    counts = GateCounts(collective=64, single=368)
    low, high = cp.fidelity_cap(counts, "collective")
    assert low == pytest.approx(1 - (64 * 5e-4 + 368 * 2.5e-5), abs=1e-12)
    assert high == pytest.approx(1 - (64 * 1e-4 + 368 * 5e-6), abs=1e-12)
    assert low < high
    huge = GateCounts(cphase=10**7)
    assert cp.fidelity_cap(huge, "cphase")[0] == 0.0


def test_fidelity_cap_backend_handling():
    with pytest.raises(ValueError, match="unknown backend"):
        cp.fidelity_cap(GateCounts(single=3), "ion")
    with pytest.raises(ValueError, match="other backend"):
        cp.fidelity_cap(GateCounts(collective=1, cphase=1), "collective")
    with pytest.raises(ValueError, match="other backend"):
        cp.fidelity_cap(GateCounts(collective=1, cphase=1), "cphase")
    with pytest.raises(ValueError, match="other backend"):
        cp.fidelity_cap(GateCounts(cphase=2, single=3), "collective")
    low, high = cp.fidelity_cap(GateCounts(single=3), "cphase")
    assert low == pytest.approx(1 - 3 * 5e-5 / 20, abs=1e-15)


def test_fidelity_cap_order_independent(monomials):
    step = cp.compile_step(monomials, 0.3, "collective")
    reverse = cp.compile_step(list(reversed(monomials)), 0.3, "collective")
    assert cp.fidelity_cap(step.counts, "collective") == cp.fidelity_cap(reverse.counts, "collective")


def test_trotter_bound_basics():
    assert cp.trotter_bound(1, 1.0, 0.0, 0.5) == 0
    assert cp.trotter_bound(16, 1 / 8, 1.0, math.inf) == 0
    assert cp.trotter_bound(16, 1 / 8, 1.0, 1e30) <= 1
    values = [cp.trotter_bound(16, 1 / 8, 1.0, eps) for eps in (0.01, 0.1, 1.0, 10.0)]
    assert values == sorted(values, reverse=True)
    # doubling t scales the k=1 bound by 2^(3/2)
    a = 2 * 16 * 25 * (16 * 0.125 * 1.0) ** 1.5 / math.sqrt(0.1)
    b = 2 * 16 * 25 * (16 * 0.125 * 2.0) ** 1.5 / math.sqrt(0.1)
    assert b / a == pytest.approx(2**1.5, rel=1e-12)
    assert cp.trotter_bound(16, 1 / 8, 2.0, 0.1) in (math.ceil(b), math.ceil(b) + 1)
    with pytest.raises(ValueError):
        cp.trotter_bound(16, 1.0, 1.0, 0.0)


def test_plaquette_bound_constant_near_printed_value():
    constant = cp.plaquette_bound_constant()
    assert constant == pytest.approx(800 * 2**1.5, rel=1e-12)
    assert abs(constant - cp.PRINTED_BOUND_CONSTANT) / cp.PRINTED_BOUND_CONSTANT < 0.03


def test_resource_report(capsys):
    """The JSON resource report of the triangle's step at phi 0.3, as the
    compile command writes it, twice byte for byte."""
    argv = ["compile", "--step", "--backend", "collective", "--phi", "0.3"]
    texts = []
    for _ in range(2):
        assert cli.main(argv) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    report = json.loads(texts[0])
    assert set(report) == {"schema", "backend", "monomials", "collective", "cphase", "single", "single_bound", "fidelity_band"}
    assert report["schema"] == 1
    assert (report["collective"], report["cphase"], report["single"]) == (32, 0, 132)
    assert 0 < report["fidelity_band"]["low"] < report["fidelity_band"]["high"] < 1
