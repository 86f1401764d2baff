import math
import re
import struct
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from su2link.dynamics import trotter_evolve
from su2link.errors import GuardError
from su2link.pauli import (
    _CHUNK_ENTRIES,
    MERGE_TOL,
    _phases,
    _symplectic,
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
    pair_count,
    parse_string,
    parse_sum,
    restrict,
    span,
)


def kron_oracle(term: PauliString, n: int, mats: dict[str, np.ndarray]) -> np.ndarray:
    """Independent dense realization by explicit kron chain (qubit 0 = LSB)."""
    out = np.array([[term.coefficient]], dtype=complex)
    for q in range(n - 1, -1, -1):
        out = np.kron(out, mats[dict(term.key()).get(q, "I")])
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


# the hand-typed single-letter product table, an oracle independent of the
# symplectic rule: (a, b) -> (letter, phase) with sigma_a sigma_b = phase * sigma_letter
PRODUCT_TABLE = {
    ("X", "X"): ("I", 1), ("Y", "Y"): ("I", 1), ("Z", "Z"): ("I", 1),
    ("X", "Y"): ("Z", 1j), ("Y", "X"): ("Z", -1j),
    ("Y", "Z"): ("X", 1j), ("Z", "Y"): ("X", -1j),
    ("Z", "X"): ("Y", 1j), ("X", "Z"): ("Y", -1j),
}
# coefficient parts on which a multiply by a phase, even by 1, shows in the bits: signed zeros, as
# complex(0.5, -0.0) * 1 == 0.5+0j; infinities would too, but no coefficient holds one
SIGNED_PARTS = (0.0, -0.0, 0.5, -1.25)


def table_multiply(a: PauliString, b: PauliString) -> PauliString:
    """The product by ``PRODUCT_TABLE``, its phase multiplied in per shared
    qubit, the phase 1 included."""
    coefficient = a.coefficient * b.coefficient
    letters = dict(a.key())
    for q, letter in b.key():
        if q not in letters:
            letters[q] = letter
            continue
        merged, phase = PRODUCT_TABLE[(letters[q], letter)]
        coefficient *= phase
        if merged == "I":
            del letters[q]
        else:
            letters[q] = merged
    return PauliString(coefficient, letters)


def coefficient_bytes(string: PauliString) -> bytes:
    return struct.pack("<dd", string.coefficient.real, string.coefficient.imag)


def assert_same_product(got: PauliString, want: PauliString):
    """Equal keys, coefficients equal to the bit, signed zeros included, and
    equal reprs."""
    assert got.key() == want.key()
    assert coefficient_bytes(got) == coefficient_bytes(want)
    assert repr(got) == repr(want)


def test_multiply_is_the_product_table_on_every_one_qubit_pair():
    for part in (math.inf, -math.inf):
        for coefficient in (complex(part, 0.5), complex(0.5, part)):
            with pytest.raises(ValueError, match="^Pauli coefficient must be finite"):
                PauliString(coefficient, {0: "X"})
    coefficients = [complex(re, im) for re in SIGNED_PARTS for im in SIGNED_PARTS if re or im]
    for a, b in product("IXYZ", repeat=2):
        for ca, cb in product(coefficients, repeat=2):
            left = PauliString(ca, {0: a} if a != "I" else {})
            right = PauliString(cb, {0: b} if b != "I" else {})
            assert_same_product(multiply(left, right), table_multiply(left, right))


def test_multiply_is_the_product_table_on_random_strings_bitwise():
    rng = np.random.default_rng(250)

    def coefficient():
        while True:
            re, im = (SIGNED_PARTS[i] if i < len(SIGNED_PARTS) else rng.normal() for i in rng.integers(8, size=2))
            if re or im:
                return complex(re, im)

    for _ in range(3000):
        a, b = (PauliString(coefficient(), full_letters(rng, 6)) for _ in range(2))
        assert_same_product(multiply(a, b), table_multiply(a, b))


def test_multiply_mixed_support(letter_matrices):
    a = PauliString(2, {0: "X", 1: "Z"})
    b = PauliString(3, {0: "Y"})
    got = multiply(a, b)
    # oracle: dense 2x2-per-qubit matrix product
    want = kron_oracle(a, 2, letter_matrices) @ kron_oracle(b, 2, letter_matrices)
    assert np.allclose(kron_oracle(got, 2, letter_matrices), want, atol=1e-12)
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


def test_dense_conventions(letter_matrices):
    assert np.allclose(dense(PauliString(1, {0: "X"}), 1), letter_matrices["X"])
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


def kron_dense_reference(op, n: int, mats: dict[str, np.ndarray]) -> np.ndarray:
    """dense() as it was built before the bit-mask kernel: one kron chain of
    letter matrices per term, scaled and accumulated in canonical term order."""
    out = np.zeros((2**n, 2**n), dtype=complex)
    for term in op.terms:
        block = np.array([[1]], dtype=complex)
        for q in range(n - 1, -1, -1):
            block = np.kron(block, mats[dict(term.key()).get(q, "I")])
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
    for q, letter in term.key():
        if letter != "X":
            parity ^= sources >> q
    n_y = [letter for _, letter in term.key()].count("Y")
    return (term.coefficient * (1, 1j, -1, -1j)[n_y % 4]) * (1 - 2 * (parity & 1))


@pytest.mark.parametrize("n", [0, 1, 5, 12])
def test_phases_match_the_per_letter_rule_bitwise(n):
    rng = np.random.default_rng(120 + n)
    sources = np.arange(2**n)
    terms = [PauliString(complex(rng.normal(), rng.normal()), full_letters(rng, n)) for _ in range(8)]
    some = rng.choice(2**n, size=min(5, 2**n), replace=False)
    # a chunk of eight terms and a chunk of one
    for chunk, cols in ((terms, sources), (terms[-1:], sources), (terms, some)):
        xmasks, table = _phases(chunk, cols)
        assert xmasks == [_symplectic(term)[0] for term in chunk] and len(table) == len(chunk)
        for term, row in zip(chunk, table):
            want = per_letter_phases(term, cols)
            assert row.dtype == want.dtype and row.tobytes() == want.tobytes()


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


def test_dense_scatter_matches_kron_reference_bitwise(letter_matrices):
    rng = np.random.default_rng(11)
    for n in range(9):
        for _ in range(4):
            coefficients = [complex(rng.normal(), rng.normal()), rng.normal(), 1j * rng.normal()]
            op = PauliSum([PauliString(c, full_letters(rng, n)) for c in coefficients])
            assert dense(op, n).tobytes() == kron_dense_reference(op, n, letter_matrices).tobytes()
            term = PauliString(coefficients[0], full_letters(rng, n))
            assert dense(term, n).tobytes() == kron_dense_reference(term, n, letter_matrices).tobytes()


def test_sum_merges_like_terms():
    a = PauliString(1.0, {0: "X"})
    s = PauliSum([a, 2.0 * a, -3.0 * a])
    assert len(s) == 0
    s2 = PauliSum([a, PauliString(1e-13, {1: "Y"})])
    assert len(s2) == 1
    # a NaN never reaches the merge: the string that would carry it is refused
    for c in (math.nan, complex(0, math.nan), complex(1, math.nan)):
        with pytest.raises(ValueError, match="^Pauli coefficient must be finite, got "):
            PauliString(c, {0: "X"})


BIG, HUGE = PauliString(1e308, {0: "X"}), PauliString(1e200, {0: "X"})


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: PauliSum([BIG, BIG]), id="merge"),
        pytest.param(lambda: PauliSum([BIG]) + BIG, id="sum"),
        pytest.param(lambda: multiply(HUGE, HUGE), id="multiply"),  # (inf+nanj): the phase 1 multiplies 0 * inf
        pytest.param(lambda: PauliSum([HUGE]) * HUGE, id="sum-product"),
        pytest.param(lambda: HUGE * 1e200, id="scalar-product"),
        pytest.param(lambda: 1e200 * HUGE, id="scalar-product-from-the-left"),
        pytest.param(lambda: 1e200 * PauliSum([HUGE]), id="scaled-sum"),
    ],
)
def test_an_overflowing_coefficient_is_refused_where_it_is_made(make):
    with pytest.raises(ValueError, match=r"^Pauli coefficient must be finite, got \(inf\+(0|nan)j\)$"):
        make()


TINY_AND_ONE = PauliSum([PauliString(1e-10, {0: "X"}), PauliString(1.0, {1: "Z"})])
NOT_FINITE, ZERO = "Pauli coefficient must be finite, got ", "zero-coefficient Pauli strings are not representable"


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: TINY_AND_ONE * math.nan, NOT_FINITE + "(nan+nanj)", id="sum-times-nan"),
        pytest.param(lambda: math.nan * TINY_AND_ONE, NOT_FINITE + "(nan+nanj)", id="nan-times-sum"),
        pytest.param(lambda: TINY_AND_ONE * complex(0, math.nan), NOT_FINITE + "(nan+nanj)", id="sum-times-nanj"),
        # 1e-10 * 1e-320 underflows to zero, 1 * 1e-320 does not (the merge then drops it)
        pytest.param(lambda: TINY_AND_ONE * 1e-320, ZERO, id="scaling-underflows-one-term"),
        pytest.param(lambda: 1e-320 * TINY_AND_ONE, ZERO, id="scaling-from-the-left-underflows-one-term"),
        pytest.param(lambda: PauliSum([HUGE, PauliString(1.0, {1: "Y"})]) * PauliSum([HUGE]), NOT_FINITE + "(inf+nanj)", id="sum-product-overflows"),
        pytest.param(
            lambda: PauliSum([PauliString(1.0, {1: "Y"}), HUGE]) * PauliSum([PauliString(2.0, {2: "Z"}), PauliString(1e200, {1: "Z"})]),
            NOT_FINITE + "(inf+0j)",
            id="sum-product-overflows-on-a-later-pair",
        ),
        # a sum holds no coefficient at or below MERGE_TOL, so only a string factor can underflow a product
        pytest.param(lambda: TINY_AND_ONE * PauliString(1e-320, {2: "Y"}), ZERO, id="sum-times-string-underflows"),
    ],
)
def test_each_made_coefficient_passes_the_gate(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_sum_algebra_and_hermiticity():
    a = PauliString(0.5, {0: "X"})
    b = PauliString(0.5j, {1: "Y"})
    s = PauliSum([a, b])
    assert not s.is_hermitian()
    assert (s + s.adjoint()).is_hermitian()
    prod = s * s
    assert np.allclose(dense(prod, 2), dense(s, 2) @ dense(s, 2), atol=1e-12)


def test_zero_coefficient_rejected():
    with pytest.raises(ValueError, match="^zero-coefficient Pauli strings are not representable$"):
        PauliString(0.0, {0: "X"})
    with pytest.raises(ValueError, match="^identity letters must be omitted$"):
        PauliString(1.0, {0: "I"})
    for letter in ("W", "XZ", "", "x"):  # a letter is an item of pauli._LETTERS, not a substring
        with pytest.raises(ValueError, match=re.escape(f"unknown Pauli letter {letter!r}")):
            PauliString(1.0, {0: letter})
    with pytest.raises(ValueError, match="^qubit indices must be non-negative$"):
        PauliString(1.0, {-1: "X"})
    # a qubit listed twice among pairs, as parse_string refuses it in text
    for pairs in ([(0, "X"), (0, "Z")], [(2, "Y"), (0, "X"), (2, "Y")]):
        with pytest.raises(ValueError, match=r"^qubit (0|2) listed twice$"):
            PauliString(1.0, pairs)
    for index in (1.5, np.float64(2.0), "3", None):
        with pytest.raises(ValueError, match=re.escape(f"qubit indices must be integers, got {index!r}")):
            PauliString(1.0, {index: "X"})
    # numpy integers stay qubit indices, kept as Python ints so masks reach past bit 63
    string = PauliString(1.0, [(np.int64(3), "X"), (np.uint8(1), "Z")])
    assert string == PauliString(1.0, {1: "Z", 3: "X"}) and all(type(q) is int for q in string.support)
    assert span([PauliString(1.0, {np.int64(64): "X"})]) == [1 << 64]
    # derived strings skip the letter checks but not the coefficient check
    with pytest.raises(ValueError):
        PauliString(1, {0: "X"}) * 0
    with pytest.raises(ValueError):
        0 * PauliString(1, {0: "X"})


def term_bits(op):
    return [(t.key(), t.coefficient.real.hex(), t.coefficient.imag.hex()) for t in op.terms]


def test_a_sum_of_strings_and_sums_merges_their_terms_in_order_bitwise():
    rng = np.random.default_rng(160)
    x, y = PauliString(0.75, {0: "X"}), PauliString(-0.5j, {1: "Y", 2: "Z"})
    fixed = [
        # a pair that cancels exactly, across a string and a sum
        [x, PauliSum([-x, y]), PauliString(0.25, {2: "X"})],
        # a term at MERGE_TOL, one just above it, and a pair that leaves 5e-13
        [PauliString(MERGE_TOL, {0: "Z"}), PauliSum([PauliString(2e-12, {1: "X"}), y]), PauliString(1.0, {3: "Y"})],
        [PauliString(1.0, {4: "X"}), PauliSum([PauliString(-(1.0 - 5e-13), {4: "X"})]), -y],
    ]
    random = []
    for _ in range(30):
        strings = [PauliString(complex(*rng.normal(size=2)), full_letters(rng, 3)) for _ in range(8)]
        random.append([strings[0], PauliSum(strings[1:7]), strings[7]])
    for ops in fixed + random:
        merged = PauliSum(ops)
        concatenated = PauliSum([term for op in ops for term in op.terms])
        assert term_bits(merged) == term_bits(concatenated)
        assert term_bits(merged) == term_bits(PauliSum([ops[0]]) + ops[1] + ops[2])
        assert all(abs(t.coefficient) > MERGE_TOL for t in merged.terms)
    assert [t.key() for t in PauliSum(fixed[0]).terms] == [((1, "Y"), (2, "Z")), ((2, "X"),)]
    assert [t.key() for t in PauliSum(fixed[1]).terms] == [((1, "X"),), ((1, "Y"), (2, "Z")), ((3, "Y"),)]
    assert [t.key() for t in PauliSum(fixed[2]).terms] == [((1, "Y"), (2, "Z"))]
    assert PauliSum.__slots__ == ("_terms",)


# The operations on sums built the older way, each term first a string that the merge reads:
# the bitwise oracles of the operations that feed the merge (key, coefficient) pairs.


def scaled_by_strings(op, factor):
    return PauliSum([t * factor for t in op.terms])


def negated_by_strings(op):
    return PauliSum([-t for t in op.terms])


def adjoint_by_strings(op):
    return PauliSum([t.adjoint() for t in op.terms])


def product_by_strings(a, b):
    return PauliSum(multiply(x, y) for x in a.terms for y in b.terms)


def restricted_by_strings(op, basis, rep):
    return PauliSum(restrict(t, basis, rep) for t in op.terms)


# a numpy scalar on either side, as matter scales by sigma_y's entries; 1e-11 drops terms under MERGE_TOL
FACTORS = (0.37, -2, 1j, complex(-0.25, 1.5), complex(0.5, -0.0), np.float64(3.5), np.complex128(-1j), 1e-11)


def assert_operations_match_the_string_oracles(op, other):
    for factor in FACTORS:
        assert term_bits(op * factor) == term_bits(scaled_by_strings(op, factor))
        assert term_bits(factor * op) == term_bits(scaled_by_strings(op, factor))
    assert term_bits(-op) == term_bits(negated_by_strings(op))
    assert term_bits(op.adjoint()) == term_bits(adjoint_by_strings(op))
    assert term_bits(op * other) == term_bits(product_by_strings(op, other))
    for string in other.terms[:3]:
        assert term_bits(op * string) == term_bits(product_by_strings(op, string))


def test_operations_on_random_sums_match_the_string_oracles_bitwise():
    rng = np.random.default_rng(360)

    def coefficient():
        re, im = (SIGNED_PARTS[i] if i < len(SIGNED_PARTS) else rng.normal() for i in rng.integers(8, size=2))
        return complex(re, im) or 1.0

    for n in (1, 3, 5):
        for _ in range(25):
            a, b = (PauliSum([PauliString(coefficient(), full_letters(rng, n)) for _ in range(rng.integers(1, 12))]) for _ in range(2))
            assert_operations_match_the_string_oracles(a, b)
            basis = span([a])
            for index in rng.integers(2**n, size=3):
                rep = int(coset(basis, int(index))[0])
                assert term_bits(restrict(a, basis, rep)) == term_bits(restricted_by_strings(a, basis, rep))


@pytest.mark.parametrize(
    "name", ["triangle", "two_plaquette", "strip3", "bowtie", "dangling_link", "disjoint_triangles", "unused_qubit"]
)
def test_gauge_operators_match_the_string_oracles_bitwise(layouts, strip3, off_span_layouts, name):
    from su2link import linkmodel as lm

    layout = {**layouts, "strip3": strip3, **off_span_layouts}[name]
    generators = [lm.gauge_generator(layout, vertex, a) for vertex in layout.vertices for a in (1, 2, 3)]
    casimir = lm.total_gauge_casimir(layout)
    assert term_bits(casimir) == term_bits(PauliSum(product_by_strings(g, g) for g in generators))
    for g, other in zip(generators, generators[1:] + generators[:1]):
        assert_operations_match_the_string_oracles(g, other)
    assert_operations_match_the_string_oracles(casimir, generators[0])
    # the Casimir on each sector coset, as sweeps restrict it
    basis = span([lm.plaquette_hamiltonian(layout, 1.0), casimir])
    table = lm.gauge_sectors(layout)
    for eigenvalue in table.eigenvalues():
        rep = int(coset(basis, lm.sector_seed(table, eigenvalue))[0])
        assert term_bits(restrict(casimir, basis, rep)) == term_bits(restricted_by_strings(casimir, basis, rep))


@pytest.mark.parametrize("n0", [0, 1, 2])
@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_matter_operators_match_the_string_oracles_bitwise(n_sites, n0):
    from su2link import matter as mt

    cfg = mt.ChainConfig(n_sites=n_sites, n0=n0)
    v, hopping, density = mt.v_operator(cfg), mt._hopping_pattern(cfg), mt._density_pattern(cfg)
    assert_operations_match_the_string_oracles(v, hopping)
    assert_operations_match_the_string_oracles(hopping, density)
    assert_operations_match_the_string_oracles(density, v)
    for op in (v, hopping, density):
        basis = span([op])
        rep = int(coset(basis, int(mt.penalty_free_indices(cfg, mt.faithful_indices(cfg))[0]))[0])
        assert term_bits(restrict(op, basis, rep)) == term_bits(restricted_by_strings(op, basis, rep))


def assert_same_string(derived, validated):
    assert derived.key() == validated.key()
    assert derived.coefficient == validated.coefficient and type(derived.coefficient) is complex
    assert hash(derived) == hash(validated) and derived == validated


def test_derived_strings_equal_validated_ones():
    rng = np.random.default_rng(8)
    for _ in range(50):
        s = random_string(rng, 6)
        c = s.coefficient
        assert_same_string(s.bare(), PauliString(1.0, dict(s.key())))
        assert_same_string(s.adjoint(), PauliString(c.conjugate(), dict(s.key())))
        assert_same_string(s * 0.5, PauliString(c * 0.5, dict(s.key())))
        assert_same_string(-3 * s, PauliString(-3 * c, dict(s.key())))
        assert_same_string(-s, PauliString(-c, dict(s.key())))
        (term,) = PauliSum([s]).terms
        assert_same_string(term, PauliString(c, dict(s.key())))


def test_derived_letters_are_not_shared():
    # a mutable letter pattern could disagree with the key that equality, merging and the kernels read
    source = PauliString(1.0, {3: "Y", 0: "X"})
    for string in (source, source.bare(), source.adjoint(), 2 * source, -source, PauliSum([source]).terms[0]):
        with pytest.raises(TypeError):
            string.key()[1] = (7, "Z")
        with pytest.raises(TypeError):
            del string.key()[0]
        assert dict(string.key()) == {0: "X", 3: "Y"} and string.key() == ((0, "X"), (3, "Y"))


def test_a_string_is_its_one_term_sum():
    # every kernel reads a string and its one-term sum alike
    rng = np.random.default_rng(140)
    for n in (1, 4, 7):
        cols = np.arange(2**n)
        for _ in range(6):
            string = PauliString(complex(rng.normal(), rng.normal()), full_letters(rng, n))
            one_term = PauliSum([string])
            got, want = columns(string, cols, n), columns(one_term, cols, n)
            assert [(t.tobytes(), v.tobytes()) for t, v in got] == [(t.tobytes(), v.tobytes()) for t, v in want]
            assert pair_count(string) == pair_count(one_term) == 1
            basis = span([string])
            assert basis == span([one_term])
            rep = int(coset(basis, int(rng.integers(2**n)))[0])
            assert restrict(string, basis, rep).terms == restrict(one_term, basis, rep).terms
            assert dense(string, n).tobytes() == dense(one_term, n).tobytes()
            psi = random_state(rng, n)
            assert matvec(string, n)(psi).tobytes() == matvec(one_term, n)(psi).tobytes()
    # a sum drops a coefficient at or below MERGE_TOL, a string keeps its one term
    tiny = PauliString(1e-13, {0: "X"})
    assert len(PauliSum([tiny])) == 0
    assert pair_count(tiny) == 1 and span([tiny]) == [1]
    evolved = trotter_evolve([tiny], np.array([1, 0], dtype=complex), 1.0, 1)
    assert abs(np.linalg.norm(evolved) - 1) <= 1e-12
    # a sum adds and subtracts only Pauli operators
    op = PauliSum([PauliString(1.0, {0: "X"})])
    for combine in (lambda: op + 1, lambda: op - 1, lambda: 1 + op):
        with pytest.raises(TypeError):
            combine()


def test_one_qubit_dense_is_the_hand_typed_matrix_bitwise(letter_matrices):
    # linkmodel's link and colour matrices and matter's sigma_y entries are read from the
    # kernel, so they rest on this equality, signed zeros included
    for letter, matrix in letter_matrices.items():
        string = PauliString(1.0, {} if letter == "I" else {0: letter})
        assert dense(string, 1).tobytes() == matrix.tobytes()


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


@pytest.mark.parametrize("body", ["X0 I0", "I0 X0", "I0 I0", "X1 I0 Z0"])
def test_an_identity_token_lists_its_qubit(body):
    # either order of a letter and an identity on one qubit is refused, in a string and in a sum
    with pytest.raises(ValueError, match=r"^qubit 0 listed twice$"):
        parse_string(f"(1) {body}")
    with pytest.raises(ValueError, match=r"^qubit 0 listed twice$"):
        parse_sum(f"(0.5) Z3\n(1) {body}")
    assert parse_string("(1) I0 X1") == parse_string("(1) X1 I0") == PauliString(1.0, {1: "X"})


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
        x = sum(1 << q for q, letter in term.key() if letter != "Z")
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


def test_coset_of_the_22_qubit_strip_builds_no_register(traced_peak):
    from su2link import linkmodel as lm

    layout = lm.parse_layout((Path(__file__).parent / "data" / "strip5.layout").read_text(encoding="utf-8"))
    seed = lm.sector_seed(lm.gauge_sectors(layout), 0.75)
    hamiltonian, casimir = lm.plaquette_hamiltonian(layout, 1.0), lm.total_gauge_casimir(layout)
    rows, peak = traced_peak(lambda: coset(span([hamiltonian, casimir]), seed))
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


@pytest.mark.parametrize("name", ["triangle", "bowtie"])
def test_restrict_gives_every_coset_one_string_and_signed_weights(layouts, off_span_layouts, name):
    # a sweep's starts share one Trotter batch on this: one string per term,
    # with weights that differ only by the signs (-1)^parity(rep & zmask)
    from su2link import linkmodel as lm

    layout = {**layouts, **off_span_layouts}[name]
    hamiltonian, casimir = lm.plaquette_hamiltonian(layout, 1.0), lm.total_gauge_casimir(layout)
    basis = span([hamiltonian, casimir])
    reps = sorted({int(coset(basis, index)[0]) for index in range(2**layout.n_qubits)})
    assert len(reps) == 2 ** (layout.n_qubits - len(basis))
    for term in hamiltonian.terms + casimir.terms:
        zmask = sum(1 << q for q, letter in term.key() if letter != "X")
        first = restrict(term, basis, 0)
        for rep in reps:
            restricted = restrict(term, basis, rep)
            assert restricted.key() == first.key()
            assert restricted.coefficient == first.coefficient * (-1) ** (rep & zmask).bit_count(), format_string(term)


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


def per_term_columns(op, cols: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """``columns`` one term per numpy pass, the reference for its chunks: one
    sign vector and one multiply per term, summed per X mask from zero in
    canonical term order."""
    cols = np.asarray(cols, dtype=int)
    by_mask = {}
    for term in op.terms:
        xmask, zmask, n_y = _symplectic(term)
        signs = 1 - 2 * (np.bitwise_count(cols & zmask) & 1).astype(cols.dtype)
        by_mask[xmask] = by_mask.get(xmask, 0.0) + (term.coefficient * (1, 1j, -1, -1j)[n_y % 4]) * signs
    return [(cols ^ xmask, values) for xmask, values in by_mask.items()]


def shared_mask_sum(rng, n, n_terms) -> PauliSum:
    """A sum whose drawn terms share three X masks, some with -0.0 parts in
    their coefficients; two terms on a fourth mask that differ by a Z on the
    top qubit, so that they cancel to 0.0 in half the columns; and alone on
    X mask 0, 1j Z on the top qubit, whose amplitude has the real part -0.0
    in half the columns, which the sum from 0.0 makes 0.0."""
    xmasks = [int(x) for x in rng.integers(2 ** (n - 1), 2**n, size=3)]
    coefficients = [1.0, -1.0, 0.5j, -0.5j, complex(-0.0, 2.0), complex(2.0, -0.0), complex(rng.normal(), rng.normal())]
    strings = []
    for _ in range(n_terms):
        xmask = xmasks[rng.integers(3)]
        letters = {q: ("IZ", "XY")[(xmask >> q) & 1][rng.integers(2)] for q in range(n)}
        coefficient = coefficients[rng.integers(len(coefficients))]
        strings.append(PauliString(coefficient, {q: letter for q, letter in letters.items() if letter != "I"}))
    pair = {0: "X"} | {q: "X" for q in range(1, n - 1) if rng.integers(2)}
    coefficient = complex(rng.normal(), rng.normal())
    pair_terms = [PauliString(coefficient, pair), PauliString(coefficient, {**pair, n - 1: "Z"})]
    return PauliSum(strings + pair_terms + [PauliString(1j, {n - 1: "Z"})])


@pytest.mark.parametrize("size", [0, 1, 64, 4096, 5000])
def test_columns_match_the_per_term_loop_bitwise(size):
    # 0 and 1 columns take every term in one chunk, 64 columns take several
    # chunks of 64 terms, and from 4096 columns a chunk is one term
    n = 13
    rng = np.random.default_rng(140 + size)
    cols = np.sort(rng.choice(2**n, size=size, replace=False))
    for _ in range(3):
        op = shared_mask_sum(rng, n, 200)
        assert len(op) > 2 * _CHUNK_ENTRIES // 64
        got, want = columns(op, cols, n), per_term_columns(op, cols)
        assert [(t.tobytes(), v.dtype, v.tobytes()) for t, v in got] == [(t.tobytes(), v.dtype, v.tobytes()) for t, v in want]
        if size >= 64:  # some columns set the top bit, where the pair cancels
            assert any(np.count_nonzero(values) < size for _, values in got)


def test_a_chunk_costs_at_most_its_temporaries(traced_peak):
    # from 4096 columns a chunk is one term and peaks no higher than the
    # per-term loop; over 64 columns a chunk's table of _CHUNK_ENTRIES
    # complex values and its mask, popcount and sign temporaries come on top
    n = 12
    op = shared_mask_sum(np.random.default_rng(150), n, 300)
    for size, extra in ((2**n, 0), (64, 40 * _CHUNK_ENTRIES)):
        cols = np.arange(size)
        _, want = traced_peak(lambda: per_term_columns(op, cols))
        _, got = traced_peak(lambda: columns(op, cols, n))
        assert got <= want + extra, size


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
