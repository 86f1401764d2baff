import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from su2link.errors import GuardError
from su2link.pauli import (
    _phases,
    PauliString,
    PauliSum,
    axis_flip,
    columns,
    commutator,
    coset,
    dense,
    format_string,
    format_sum,
    matvec,
    multiply,
    parse_string,
    parse_sum,
    restrict,
    span,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def kron_oracle(term: PauliString, n: int) -> np.ndarray:
    """Independent dense realization by explicit kron chain (qubit 0 = LSB)."""
    out = np.array([[term.coefficient]], dtype=complex)
    for q in range(n - 1, -1, -1):
        out = np.kron(out, MATS[term.letters.get(q, "I")])
    return out


def random_string(rng, n, max_weight=4) -> PauliString:
    weight = rng.integers(0, min(max_weight, n) + 1)
    qubits = rng.choice(n, size=weight, replace=False)
    letters = {int(q): "XYZ"[rng.integers(3)] for q in qubits}
    coeff = complex(rng.normal(), rng.normal())
    return PauliString(coeff, letters)


def test_multiply_single_qubit_table():
    x0 = PauliString(1, {0: "X"})
    y0 = PauliString(1, {0: "Y"})
    assert multiply(x0, y0) == PauliString(1j, {0: "Z"})
    assert multiply(x0, x0) == PauliString(1)


def test_multiply_mixed_support():
    a = PauliString(2, {0: "X", 1: "Z"})
    b = PauliString(3, {0: "Y"})
    got = multiply(a, b)
    # oracle: dense 2x2-per-qubit matrix product
    want = kron_oracle(a, 2) @ kron_oracle(b, 2)
    assert np.allclose(kron_oracle(got, 2), want, atol=1e-12)
    assert got == PauliString(6j, {0: "Z", 1: "Z"})


def test_multiply_associative_and_dense_homomorphism():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = random_string(rng, 4), random_string(rng, 4)
        assert np.allclose(dense(multiply(a, b), 4), dense(a, 4) @ dense(b, 4), atol=1e-12)
    for _ in range(50):
        a, b, c = (random_string(rng, 3) for _ in range(3))
        left = multiply(multiply(a, b), c)
        right = multiply(a, multiply(b, c))
        assert left.key() == right.key()
        assert abs(left.coefficient - right.coefficient) < 1e-12
        assert np.allclose(dense(left, 3), dense(a, 3) @ dense(b, 3) @ dense(c, 3), atol=1e-12)


def test_strings_square_to_coefficient_squared_identity():
    rng = np.random.default_rng(5)
    for _ in range(30):
        s = random_string(rng, 4)
        assert multiply(s, s) == PauliString(s.coefficient**2)


def test_commutator_basics():
    x0 = PauliString(1, {0: "X"})
    y0 = PauliString(1, {0: "Y"})
    assert commutator(x0, y0) == PauliSum([PauliString(2j, {0: "Z"})])
    assert len(commutator(x0, PauliString(1, {1: "X"}))) == 0


def test_commutator_dense_oracle():
    a = PauliString(1, {0: "Z", 1: "X"})
    b = PauliString(1, {0: "X", 1: "X"})
    got = commutator(a, b)
    want = dense(a, 2) @ dense(b, 2) - dense(b, 2) @ dense(a, 2)
    assert np.allclose(dense(got, 2), want, atol=1e-12)
    assert got == PauliSum([PauliString(2j, {0: "Y"})])


def test_commutator_antisymmetric():
    rng = np.random.default_rng(3)
    for _ in range(40):
        a, b = random_string(rng, 3), random_string(rng, 3)
        assert commutator(a, b) == -commutator(b, a)


def test_dense_conventions():
    assert np.allclose(dense(PauliString(1, {0: "X"}), 1), X)
    zz = PauliSum([PauliString(1, {0: "Z"}), PauliString(1, {1: "Z"})])
    # qubit 0 is the least significant bit: index 1 flips qubit 0 only
    assert np.allclose(dense(zz, 2), np.diag([2, 0, 0, -2]))


def test_dense_guards(memory_boundary):
    for n in (13, 15):
        with pytest.raises(GuardError, match=f"^dense matrix on {n} qubits needs"):
            dense(PauliString(1, {0: "X"}), n)
    # 12 qubits fit the budget, so the support check answers, before allocating
    with pytest.raises(ValueError, match="does not fit in 12 qubits"):
        dense(PauliString(1, {12: "X"}), 12)
    with pytest.raises(ValueError):
        dense(PauliString(1, {3: "X"}), 2)
    memory_boundary(lambda: dense(PauliSum([PauliString(1, {0: "X"}), PauliString(1, {1: "Z"})]), 3))


def kron_dense_reference(op, n: int) -> np.ndarray:
    """dense() as it was built before the bit-mask kernel: one kron chain of
    letter matrices per term, scaled and accumulated in canonical term order."""
    terms = op.terms if isinstance(op, PauliSum) else [op]
    out = np.zeros((2**n, 2**n), dtype=complex)
    for term in terms:
        block = np.array([[1]], dtype=complex)
        for q in range(n - 1, -1, -1):
            block = np.kron(block, MATS[term.letters.get(q, "I")])
        out += term.coefficient * block
    return out


def full_letters(rng, n) -> dict[int, str]:
    """Every qubit draws one of I, X, Y, Z; identity letters are left out."""
    letters = {q: "IXYZ"[rng.integers(4)] for q in range(n)}
    return {q: letter for q, letter in letters.items() if letter != "I"}


def random_state(rng, n, real=False) -> np.ndarray:
    psi = rng.normal(size=2**n)
    return psi.astype(complex) if real else psi + 1j * rng.normal(size=2**n)


def per_letter_phases(term: PauliString, sources: np.ndarray) -> np.ndarray:
    """The phase rule one letter at a time: each Z or Y letter flips the sign
    when its bit of the source is set."""
    parity = np.zeros_like(sources)
    for q, letter in term.letters.items():
        if letter != "X":
            parity ^= sources >> q
    n_y = list(term.letters.values()).count("Y")
    return (term.coefficient * (1, 1j, -1, -1j)[n_y % 4]) * (1 - 2 * (parity & 1))


@pytest.mark.parametrize("n", [0, 1, 5, 12])
def test_phases_match_the_per_letter_rule_bitwise(n):
    rng = np.random.default_rng(120 + n)
    sources = np.arange(2**n)
    for _ in range(8):
        term = PauliString(complex(rng.normal(), rng.normal()), full_letters(rng, n))
        got, want = _phases(term, sources), per_letter_phases(term, sources)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    some = rng.choice(2**n, size=min(5, 2**n), replace=False)
    assert _phases(term, some).tobytes() == per_letter_phases(term, some).tobytes()


def test_action_single_letters():
    ((targets, values),) = columns(PauliString(1, {0: "X"}), np.arange(2), 1)
    assert targets.tolist() == [1, 0] and values.tolist() == [1, 1]
    ((targets, values),) = columns(PauliString(1, {0: "Y"}), np.arange(2), 1)
    assert targets.tolist() == [1, 0] and values.tolist() == [1j, -1j]
    assert matvec(PauliString(1, {0: "Y"}), 1)(np.array([1.0, 2.0])).tolist() == [-2j, 1j]
    ((targets, values),) = columns(PauliString(-2.0, {1: "Z"}), np.arange(4), 2)
    assert targets.tolist() == [0, 1, 2, 3] and values.tolist() == [-2, -2, 2, 2]
    ((targets, values),) = columns(PauliString(0.5j), np.arange(1), 0)
    assert targets.tolist() == [0] and values.tolist() == [0.5j]


def test_action_guards():
    for build in (matvec, lambda op, n: columns(op, [0], n)):
        with pytest.raises(ValueError):
            build(PauliString(1, {3: "X"}), 2)
        with pytest.raises(ValueError):
            build(PauliString(1), -1)


@pytest.mark.parametrize("n", range(9))
def test_action_matches_dense_bitwise(n):
    # Each case has a coefficient or a state with one vanishing part, so every
    # product rounds once and BLAS, fused or not, must agree bit for bit.
    rng = np.random.default_rng(100 + n)
    for _ in range(12):
        letters = full_letters(rng, n)
        cases = [
            (complex(rng.normal(), rng.normal()), random_state(rng, n, real=True)),
            (rng.normal(), random_state(rng, n)),
            (1j * rng.normal(), random_state(rng, n)),
            (-1j, random_state(rng, n)),
        ]
        for coefficient, psi in cases:
            term = PauliString(coefficient, letters)
            assert matvec(term, n)(psi).tobytes() == (dense(term, n) @ psi).tobytes()


def test_action_complex_coefficient_on_complex_state():
    # c * psi sums two rounded products per part; a fused multiply-add in BLAS
    # may round that sum differently, so agreement is to a few ulps.
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        term = PauliString(complex(rng.normal(), rng.normal()), full_letters(rng, n))
        psi = random_state(rng, n)
        tol = 4 * np.finfo(float).eps * abs(term.coefficient) * np.max(np.abs(psi))
        np.testing.assert_allclose(matvec(term, n)(psi), dense(term, n) @ psi, rtol=0, atol=tol)


def test_dense_scatter_matches_kron_reference_bitwise():
    rng = np.random.default_rng(11)
    for n in range(9):
        for _ in range(4):
            coefficients = [complex(rng.normal(), rng.normal()), rng.normal(), 1j * rng.normal()]
            op = PauliSum([PauliString(c, full_letters(rng, n)) for c in coefficients])
            assert dense(op, n).tobytes() == kron_dense_reference(op, n).tobytes()
            term = PauliString(coefficients[0], full_letters(rng, n))
            assert dense(term, n).tobytes() == kron_dense_reference(term, n).tobytes()


def test_sum_merges_like_terms():
    a = PauliString(1.0, {0: "X"})
    s = PauliSum([a, 2.0 * a, -3.0 * a])
    assert len(s) == 0
    s2 = PauliSum([a, PauliString(1e-13, {1: "Y"})])
    assert len(s2) == 1


def test_sum_algebra_and_hermiticity():
    a = PauliString(0.5, {0: "X"})
    b = PauliString(0.5j, {1: "Y"})
    s = PauliSum([a, b])
    assert not s.is_hermitian()
    assert (s + s.adjoint()).is_hermitian()
    prod = s * s
    assert np.allclose(dense(prod, 2), dense(s, 2) @ dense(s, 2), atol=1e-12)


def test_zero_coefficient_rejected():
    with pytest.raises(ValueError):
        PauliString(0.0, {0: "X"})
    with pytest.raises(ValueError):
        PauliString(1.0, {0: "I"})
    with pytest.raises(ValueError):
        PauliString(1.0, {0: "W"})
    with pytest.raises(ValueError):
        PauliString(1.0, {-1: "X"})
    # derived strings skip the letter checks but not the coefficient check
    with pytest.raises(ValueError):
        PauliString(1, {0: "X"}) * 0
    with pytest.raises(ValueError):
        0 * PauliString(1, {0: "X"})


def assert_same_string(derived, validated):
    assert derived.key() == validated.key()
    assert derived.letters == validated.letters
    assert derived.coefficient == validated.coefficient and type(derived.coefficient) is complex
    assert hash(derived) == hash(validated) and derived == validated


def test_derived_strings_equal_validated_ones():
    rng = np.random.default_rng(8)
    for _ in range(50):
        s = random_string(rng, 6)
        c = s.coefficient
        assert_same_string(s.bare(), PauliString(1.0, s.letters))
        assert_same_string(s.adjoint(), PauliString(c.conjugate(), s.letters))
        assert_same_string(s * 0.5, PauliString(c * 0.5, s.letters))
        assert_same_string(-3 * s, PauliString(-3 * c, s.letters))
        assert_same_string(-s, PauliString(-c, s.letters))
        (term,) = PauliSum([s]).terms
        assert_same_string(term, PauliString(c, s.letters))


def test_derived_letters_are_not_shared():
    # a mutable letters dict could disagree with the key that equality, merging and the kernels read
    source = PauliString(1.0, {3: "Y", 0: "X"})
    for string in (source, source.bare(), source.adjoint(), 2 * source, -source, PauliSum([source]).terms[0]):
        with pytest.raises(TypeError):
            string.letters[7] = "Z"
        with pytest.raises(TypeError):
            del string.letters[0]
        assert string.letters == {0: "X", 3: "Y"} and string.key() == ((0, "X"), (3, "Y"))


def test_text_round_trip():
    s = parse_string("(-0.5) X0 Y3 Z5")
    assert s == PauliString(-0.5, {0: "X", 3: "Y", 5: "Z"})
    assert format_string(s) == "(-0.5) X0 Y3 Z5"
    assert parse_string(format_string(s)) == s

    rng = np.random.default_rng(9)
    for _ in range(50):
        t = random_string(rng, 6)
        assert parse_string(format_string(t)) == t

    total = PauliSum([PauliString(1.0, {0: "X"}), PauliString(2j, {1: "Z", 4: "Y"})])
    assert parse_sum(format_sum(total)) == total


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_string("X0 Y1")
    with pytest.raises(ValueError):
        parse_string("(1.0) Q3")
    with pytest.raises(ValueError):
        parse_string("(1.0) X0 Y0")


def coset_closure(op, indices, n) -> list[int]:
    """Breadth-first search over basis states: every index that a chain of
    the terms' bit flips leads to from ``indices``."""
    masks = {int(targets[0]) for targets, _ in columns(op, [0], n)}
    seen, frontier = set(int(k) for k in indices), list(indices)
    while frontier:
        frontier = [k ^ x for k in frontier for x in masks if k ^ x not in seen]
        seen.update(frontier)
    return sorted(seen)


def reachable(op, indices, n) -> np.ndarray:
    """Sorted basis indices that ``op`` connects to ``indices``, by reducing
    all 2^n indices: elimination keeps one X mask per pivot bit, the mask's
    highest set bit, and clearing the pivot bits of an index, highest first,
    maps it to the same representative as every other index of its coset.
    An index is reachable when its representative is one of those of
    ``indices``."""
    basis: dict[int, int] = {}
    for term in op.terms:
        x = sum(1 << q for q, letter in term.letters.items() if letter != "Z")
        while x and (x.bit_length() - 1) in basis:
            x ^= basis[x.bit_length() - 1]
        if x:
            basis[x.bit_length() - 1] = x
    representatives = np.arange(2**n)
    for pivot in sorted(basis, reverse=True):
        representatives = np.where((representatives >> pivot) & 1, representatives ^ basis[pivot], representatives)
    return np.flatnonzero(np.isin(representatives, representatives[np.asarray(indices, dtype=int)]))


def random_sparse_sum(rng, n, n_terms) -> PauliSum:
    """A Hermitian sum whose X masks leave at least two XOR cosets."""
    while True:
        op = PauliSum([PauliString(rng.normal(), full_letters(rng, n) or {0: "Z"}) for _ in range(n_terms)])
        if len(reachable(op, [0], n)) < 2**n:
            return op


def assert_reduced_echelon(basis):
    pivots = [mask.bit_length() - 1 for mask in basis]
    assert pivots == sorted(set(pivots))
    for mask in basis:
        assert [(mask >> pivot) & 1 for pivot in pivots] == [int(other == mask) for other in basis]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_reachable_is_the_closure_of_the_support(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(10):
        op = random_sparse_sum(rng, n, int(rng.integers(1, 5)))
        for size in (1, 2, 3):
            support = sorted(rng.choice(2**n, size=size, replace=False).tolist())
            rows = reachable(op, support, n)
            assert rows.tolist() == coset_closure(op, support, n)
            # the differences of the support join its cosets into one
            differences = PauliSum(PauliString(1, {q: "X" for q in range(n) if (k ^ support[0]) >> q & 1}) for k in support)
            rows = coset(span([op], support), support[0])
            assert rows.tolist() == coset_closure(op + differences, support[:1], n)
        assert len(coset(span([op]), support[0])) == 2 ** len(span([op]))
        assert coset(span([op], np.arange(2**n)), 0).tolist() == list(range(2**n))


@pytest.mark.parametrize("n", range(1, 9))
def test_coset_matches_the_reduction_oracle(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(8):
        op = random_sparse_sum(rng, n, int(rng.integers(1, 6)))
        basis = span([op])
        assert_reduced_echelon(basis)
        index = int(rng.integers(2**n))
        rows = coset(basis, index)
        assert rows.dtype == np.int64 and np.array_equal(rows, reachable(op, [index], n))
        # a support that touches two cosets lies on one coset of the larger span
        other = int(rng.choice(np.setdiff1d(np.arange(2**n), rows)))
        basis = span([op], [other, index])
        assert_reduced_echelon(basis)
        assert np.array_equal(coset(basis, index), reachable(op, [index, other], n))
        assert np.array_equal(coset(basis, other), coset(basis, index))
        assert span([op], [index, other, index, other]) == basis


def test_reachable_on_the_layouts(layouts, strip3, off_span_layouts):
    from su2link import linkmodel as lm

    rng = np.random.default_rng(9)
    for name, layout in {**layouts, "strip3": strip3, **off_span_layouts}.items():
        n = layout.n_qubits
        hamiltonian, casimir = lm.plaquette_hamiltonian(layout, 1.0), lm.total_gauge_casimir(layout)
        ops = hamiltonian + casimir  # the oracle's one operator
        basis = span([hamiltonian, casimir])
        rows = coset(basis, 0)
        assert np.array_equal(rows, reachable(ops, [0], n)), name
        assert len(rows) == 2 ** len(basis), name
        index = int(rng.choice(np.setdiff1d(np.arange(2**n), rows)))
        assert np.array_equal(coset(span([hamiltonian, casimir], [0, index]), 0), reachable(ops, [0, index], n)), name


def test_coset_of_the_22_qubit_strip_builds_no_register():
    from su2link import linkmodel as lm

    layout = lm.parse_layout((Path(__file__).parent / "data" / "strip5.layout").read_text(encoding="utf-8"))
    seed = lm.sector_seed(lm.gauge_sectors(layout), 0.75)
    hamiltonian, casimir = lm.plaquette_hamiltonian(layout, 1.0), lm.total_gauge_casimir(layout)
    tracemalloc.start()
    rows = coset(span([hamiltonian, casimir]), seed)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(rows) == 32768 and seed in rows
    assert peak < 4e6


@pytest.mark.parametrize("n", [3, 4, 5])
def test_restricted_action_and_matvec_are_the_full_ones_on_the_rows(n):
    rng = np.random.default_rng(60 + n)
    for _ in range(10):
        op = random_sparse_sum(rng, n, 3)
        support = rng.choice(2**n, size=2, replace=False)
        basis = span([op], support)
        rows = coset(basis, support[0])
        rank, rep = len(basis), int(rows[0])
        psi = random_state(rng, n)
        expected = matvec(op, n)(psi)[rows]
        np.testing.assert_allclose(matvec(restrict(op, basis, rep), rank)(psi[rows]), expected, rtol=0, atol=1e-14)
        for term in op.terms:
            ((targets, values),) = columns(restrict(term, basis, rep), np.arange(len(rows)), rank)
            ((full_targets, full_values),) = columns(term, rows, n)
            assert np.array_equal(rows[targets], full_targets)
            assert values.tobytes() == full_values.tobytes()


def test_restricted_action_rejects_rows_that_are_not_closed():
    basis = span([PauliString(1, {0: "X"})])
    assert restrict(PauliString(2, {0: "Y", 1: "Z"}), basis, np.int64(2)) == PauliString(-2, {0: "Y"})
    with pytest.raises(ValueError, match="outside the span"):
        restrict(PauliString(1, {1: "X"}), basis, 0)
    with pytest.raises(ValueError, match="outside the span"):
        restrict(PauliSum([PauliString(1, {0: "X"}), PauliString(1, {0: "Z", 1: "Y"})]), basis, 0)


@pytest.mark.parametrize(
    "name", ["triangle", "two_plaquette", "strip3", "bowtie", "dangling_link", "disjoint_triangles", "unused_qubit"]
)
def test_restrict_reproduces_columns_on_every_sector_coset(layouts, strip3, off_span_layouts, name):
    from su2link import linkmodel as lm

    layout = {**layouts, "strip3": strip3, **off_span_layouts}[name]
    n = layout.n_qubits
    hamiltonian, casimir = lm.plaquette_hamiltonian(layout, 1.0), lm.total_gauge_casimir(layout)
    monomials = lm.plaquette_monomials(layout, 1.0)
    basis = span([hamiltonian, casimir])
    rank = len(basis)
    table = lm.gauge_sectors(layout)
    for eigenvalue in table.eigenvalues():
        rows = coset(basis, lm.sector_seed(table, eigenvalue))
        rep = int(rows[0])
        for op in (hamiltonian, casimir):
            restricted = restrict(op, basis, rep)
            assert restricted.is_hermitian()
            assert all(term.coefficient.imag == 0 for term in restricted.terms)
        for term in hamiltonian.terms + casimir.terms + monomials:
            restricted = restrict(term, basis, rep)
            assert restricted.coefficient.imag == 0
            ((targets, values),) = columns(restricted, np.arange(2**rank), rank)
            ((full_targets, full_values),) = columns(term, rows, n)
            assert np.array_equal(rows[targets], full_targets)
            assert values.tobytes() == full_values.tobytes(), (eigenvalue, format_string(term))


@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_columns_are_the_dense_columns_bitwise(n):
    rng = np.random.default_rng(80 + n)
    for _ in range(6):
        # repeated letter patterns with other coefficients share X masks
        strings = [PauliString(complex(rng.normal(), rng.normal()), full_letters(rng, n)) for _ in range(5)]
        op = PauliSum(strings + [s.bare() * rng.normal() for s in strings[:2]] + [PauliString(1j, {})])
        cols = np.sort(rng.choice(2**n, size=min(3, 2**n), replace=False))
        pairs = columns(op, cols, n)
        assert len({tuple(targets ^ cols) for targets, _ in pairs}) == len(pairs)  # one pair per X mask
        block = np.zeros((2**n, len(cols)), dtype=complex)
        for targets, values in pairs:
            block[targets, np.arange(len(cols))] = values
        assert block.tobytes() == dense(op, n)[:, cols].tobytes()
    with pytest.raises(ValueError):
        columns(PauliString(1, {3: "X"}), np.array([0]), 2)


@pytest.mark.parametrize("n", range(7))
def test_axis_flip_is_the_xor_gather_as_a_view(n):
    rng = np.random.default_rng(90 + n)
    index = np.arange(2**n)
    wide = rng.normal(size=(2**n, 5)) + 1j * rng.normal(size=(2**n, 5))
    # a register, a contiguous block, and a column prefix of a wider block, as the Trotter kernel holds
    blocks = [wide[:, 0].copy(), wide[:, :3].copy(), wide[:, :2]]
    for qubits in (subset for k in range(n + 1) for subset in combinations(range(n), k)):
        mask = sum(1 << q for q in qubits)
        shape, reverse = axis_flip(n, qubits)
        for block in blocks:
            flipped = block.reshape(*shape, -1, *block.shape[1:], copy=False)[reverse]
            assert np.shares_memory(flipped, block)
            assert flipped.reshape(block.shape).tobytes() == block[index ^ mask].tobytes()
