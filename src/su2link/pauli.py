"""Exact algebra of Pauli strings, their action on states and their dense
realizations.

A PauliString is a complex coefficient times a tensor product of single-qubit
Pauli letters; a PauliSum is a merged linear combination of strings.  All
coefficient arithmetic is double-precision complex, phases are tracked exactly
over {1, i, -1, -i}, and like terms merge with tolerance ``MERGE_TOL``.

``columns`` is the one kernel that evaluates matrix elements.  It uses the
symplectic encoding of Aaronson & Gottesman, PRA 70, 052328 (2004): X and Y
letters set bits of an X mask, Y and Z letters set bits of a Z mask, and each
Y contributes a factor i (Y = i X Z).  A string then maps basis state ``k``
to ``k ^ xmask`` with the amplitude ``c i^#Y (-1)^popcount(k & zmask)``, so
the elements out of chosen basis columns take one XOR per X mask and one
sign vector per term, with no matrix.  ``matvec`` applies an operator to
states from those pairs, one gather per X mask, and ``dense`` scatters them
into a matrix, for the tests and the covariance check's 4x4 link matrices.
A gate's or Trotter factor's rotation cos t - i sin t P flips P's X qubits on
an ``axis_flip`` view; ``matvec``, a sum over X masks, keeps its gathers.

An operator maps each XOR coset of the GF(2) ``span`` of its X masks, listed
by ``coset``, to itself, and the Z strings that fix a coset are the Z2
symmetries that qubit tapering removes (Bravyi, Gambetta, Mezzacapo & Temme,
arXiv:1701.08213): ``restrict`` writes it there on one qubit per basis mask.
The library applies an operator to a state only there, as the ``matvec`` of
the restricted operator on the coset's rows.

Values are immutable after construction and safe to share between threads.
"""
from __future__ import annotations

import re
from types import MappingProxyType
from typing import Collection, Iterable, Mapping

import numpy as np

from .errors import check_memory

MERGE_TOL = 1e-12

_LETTERS = ("I", "X", "Y", "Z")

# single-letter products: (a, b) -> (letter, phase) with sigma_a sigma_b = phase * sigma_letter
_PRODUCT = {
    ("X", "X"): ("I", 1), ("Y", "Y"): ("I", 1), ("Z", "Z"): ("I", 1),
    ("X", "Y"): ("Z", 1j), ("Y", "X"): ("Z", -1j),
    ("Y", "Z"): ("X", 1j), ("Z", "Y"): ("X", -1j),
    ("Z", "X"): ("Y", 1j), ("X", "Z"): ("Y", -1j),
}

_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def letter_matrix(letter: str) -> np.ndarray:
    return _MATRICES[letter].copy()


class PauliString:
    """A signed, weighted tensor product of Pauli letters on indexed qubits.

    The letter pattern is stored once, as the sorted ``key()``; ``letters``
    is a read-only view of it mapping qubit index to one of X, Y, Z.  Identity
    entries are never stored, so the support is exactly ``letters.keys()``.
    The coefficient must be nonzero.
    """

    __slots__ = ("coefficient", "_key")

    def __init__(self, coefficient: complex, letters: Mapping[int, str] | Iterable[tuple[int, str]] = ()):
        coefficient = complex(coefficient)
        if coefficient == 0:
            raise ValueError("zero-coefficient Pauli strings are not representable")
        items = dict(letters)
        for q, letter in items.items():
            if letter == "I":
                raise ValueError("identity letters must be omitted")
            if letter not in _LETTERS:
                raise ValueError(f"unknown Pauli letter {letter!r}")
            if q < 0:
                raise ValueError("qubit indices must be non-negative")
        self.coefficient = coefficient
        self._key = tuple(sorted(items.items()))

    @classmethod
    def _derived(cls, coefficient: complex, key: tuple[tuple[int, str], ...]) -> PauliString:
        """A string on the letter pattern ``key`` of an already validated
        string: only the coefficient is checked."""
        coefficient = complex(coefficient)
        if coefficient == 0:
            raise ValueError("zero-coefficient Pauli strings are not representable")
        out = cls.__new__(cls)
        out.coefficient = coefficient
        out._key = key
        return out

    @property
    def letters(self) -> Mapping[int, str]:
        return MappingProxyType(dict(self._key))

    def key(self) -> tuple[tuple[int, str], ...]:
        """Canonical letter pattern, sorted by qubit index."""
        return self._key

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self._key)

    @property
    def weight(self) -> int:
        return len(self._key)

    def bare(self) -> PauliString:
        """The same letter pattern with unit coefficient."""
        return PauliString._derived(1.0, self._key)

    def adjoint(self) -> PauliString:
        # every letter is Hermitian, so only the coefficient conjugates
        return PauliString._derived(self.coefficient.conjugate(), self._key)

    def __mul__(self, other):
        if isinstance(other, PauliString):
            return multiply(self, other)
        return PauliString._derived(self.coefficient * other, self._key)

    def __rmul__(self, other):
        return PauliString._derived(self.coefficient * other, self._key)

    def __neg__(self):
        return PauliString._derived(-self.coefficient, self._key)

    def __eq__(self, other):
        if not isinstance(other, PauliString):
            return NotImplemented
        return self._key == other._key and self.coefficient == other.coefficient

    def __hash__(self):
        return hash((self.coefficient, self._key))

    def __repr__(self):
        return f"PauliString({format_string(self)!r})"


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Operator product of two Pauli strings, phase tracked exactly."""
    coefficient = a.coefficient * b.coefficient
    letters = dict(a.key())
    for q, letter in b.key():
        if q not in letters:
            letters[q] = letter
            continue
        merged, phase = _PRODUCT[(letters[q], letter)]
        coefficient *= phase
        if merged == "I":
            del letters[q]
        else:
            letters[q] = merged
    return PauliString(coefficient, letters)


class PauliSum:
    """A merged linear combination of Pauli strings.

    Terms with the same letter pattern are combined and coefficients below
    ``MERGE_TOL`` are dropped, so equality is structural.  ``terms`` lists the
    strings in canonical order (lexicographic by support, then letters).
    """

    __slots__ = ("_terms", "_sorted")

    def __init__(self, terms: Iterable[PauliString] = ()):
        merged: dict[tuple, complex] = {}
        for term in terms:
            key = term.key()
            merged[key] = merged.get(key, 0) + term.coefficient
        self._terms = {k: c for k, c in merged.items() if abs(c) > MERGE_TOL}
        self._sorted = tuple(PauliString._derived(c, k) for k, c in sorted(self._terms.items()))

    @property
    def terms(self) -> list[PauliString]:
        return list(self._sorted)

    @property
    def support(self) -> tuple[int, ...]:
        qubits = set()
        for key in self._terms:
            qubits.update(q for q, _ in key)
        return tuple(sorted(qubits))

    def __len__(self):
        return len(self._terms)

    def __add__(self, other):
        return PauliSum(self.terms + _as_sum(other).terms)

    def __sub__(self, other):
        return PauliSum(self.terms + [-t for t in _as_sum(other).terms])

    def __mul__(self, other):
        if isinstance(other, (PauliSum, PauliString)):
            out = []
            for a in self.terms:
                for b in _as_sum(other).terms:
                    out.append(multiply(a, b))
            return PauliSum(out)
        if other == 0:
            return PauliSum()
        return PauliSum([t * other for t in self.terms])

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return PauliSum([-t for t in self.terms])

    def __eq__(self, other):
        if not isinstance(other, (PauliSum, PauliString)):
            return NotImplemented
        other = _as_sum(other)
        keys = set(self._terms) | set(other._terms)
        return all(abs(self._terms.get(k, 0) - other._terms.get(k, 0)) <= MERGE_TOL for k in keys)

    def adjoint(self) -> PauliSum:
        return PauliSum([t.adjoint() for t in self.terms])

    def is_hermitian(self) -> bool:
        """Checked termwise: the sum must equal its own adjoint."""
        return all(abs(c - c.conjugate()) <= MERGE_TOL for c in self._terms.values())

    def __repr__(self):
        return f"PauliSum({format_sum(self)!r})"


def _as_sum(op) -> PauliSum:
    if isinstance(op, PauliSum):
        return op
    if isinstance(op, PauliString):
        return PauliSum([op])
    raise TypeError(f"expected PauliString or PauliSum, got {type(op).__name__}")


def commutator(a: PauliString, b: PauliString) -> PauliSum:
    """ab - ba as a PauliSum with zero or one term."""
    ab = multiply(a, b)
    ba = multiply(b, a)
    return PauliSum([ab, -ba])


_I_POWERS = (1, 1j, -1, -1j)


def _xmask(term: PauliString) -> int:
    """The bits that ``term`` flips: one per X or Y letter."""
    return sum(1 << q for q, letter in term.key() if letter != "Z")


def _phases(term: PauliString, sources: np.ndarray) -> np.ndarray:
    """The amplitude ``c i^#Y (-1)^popcount(source & zmask)`` that ``term``
    carries from each basis state in ``sources`` to ``source ^ xmask``."""
    n_y = sum(1 for _, letter in term.key() if letter == "Y")
    zmask = sum(1 << q for q, letter in term.key() if letter != "X")
    signs = 1 - 2 * (np.bitwise_count(sources & zmask) & 1).astype(sources.dtype)
    return (term.coefficient * _I_POWERS[n_y % 4]) * signs


def columns(op: PauliSum | PauliString, cols: np.ndarray, n_qubits: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Matrix elements of ``op`` in the basis columns ``cols``, without a
    matrix: one ``(targets, values)`` pair per distinct X mask, with
    ``targets = cols ^ xmask`` and ``values[i] = <targets[i]| op |cols[i]>``.
    Terms that flip the same bits are summed from zero in canonical term
    order, as ``dense`` sums them, so every element equals the dense one
    bitwise.  Bit ordering: qubit 0 is the least significant bit of the
    basis index, so basis state ``k`` assigns qubit q the bit ``(k >> q) & 1``."""
    terms = [op] if isinstance(op, PauliString) else _as_sum(op).terms
    if n_qubits < 0:
        raise ValueError("n_qubits must be non-negative")
    if op.support and max(op.support) >= n_qubits:
        raise ValueError(f"support {op.support} does not fit in {n_qubits} qubits")
    cols = np.asarray(cols, dtype=int)
    by_xmask: dict[int, np.ndarray] = {}
    for term in terms:
        xmask = _xmask(term)
        by_xmask[xmask] = by_xmask.get(xmask, 0.0) + _phases(term, cols)
    return [(cols ^ xmask, values) for xmask, values in by_xmask.items()]


def pair_count(*ops: PauliSum | PauliString) -> int:
    """How many pairs ``columns`` gives the terms of all the ``ops``
    together: one per distinct X mask."""
    return len({_xmask(term) for op in ops for term in ([op] if isinstance(op, PauliString) else _as_sum(op).terms)})


def matvec(op: PauliSum | PauliString, n_qubits: int):
    """``op`` as a matrix-free map built from ``columns``: the returned
    function applies it to one state or to every row of a batch of states on
    all 2^n basis indices.  Each X mask is one multiply and one gather,
    ``out += (values * states)[..., targets]``, since flipping the same bits
    maps every target back to its column; each row gets the same arithmetic
    whatever the batch size.  It keeps the gather: a batch holds the register
    on its last axis, not axis 0, and on one vector ``axis_flip``s tied at 3 and 9 qubits."""
    pairs = columns(op, np.arange(2**n_qubits), n_qubits)

    def apply(states: np.ndarray) -> np.ndarray:
        out = np.zeros(np.shape(states), dtype=complex)
        for targets, values in pairs:
            out += (values * states)[..., targets]
        return out

    return apply


def axis_flip(n_qubits: int, qubits: Collection[int]) -> tuple[list[int], tuple[slice, ...]]:
    """``(shape, reverse)`` that flip ``qubits`` of an n-qubit register on axis
    0 of an array: that axis reshaped to ``(*shape, -1)`` has one length-2 axis
    per qubit, highest first, each after an axis for the bits above it, and -1
    for the bits below the lowest; indexed by ``reverse`` it holds k ^ mask at k."""
    shape, top = [], n_qubits
    for qubit in sorted(qubits, reverse=True):
        shape += [2 ** (top - 1 - qubit), 2]
        top = qubit
    return shape, (slice(None), slice(None, None, -1)) * len(qubits)


def span(ops: Iterable[PauliSum | PauliString], indices: np.ndarray = ()) -> list[int]:
    """The reduced echelon basis of the GF(2) span of the terms' X masks and
    of the differences of the basis indices ``indices``: one mask per pivot,
    its highest set bit, ascending by pivot, with each pivot bit cleared from
    every other mask.  The basis of a span is unique, whatever spans it."""
    masks = list({_xmask(term) for op in ops for term in _as_sum(op).terms})
    rest = np.asarray(indices, dtype=np.int64)
    rest = rest[1:] ^ rest[:1]  # kept clear of every pivot bit, so rest[0] is a new mask
    basis: dict[int, int] = {}
    while masks or len(rest := rest[rest != 0]):
        x = masks.pop() if masks else int(rest[0])
        for pivot, mask in basis.items():
            x ^= mask * ((x >> pivot) & 1)
        if x:
            pivot = x.bit_length() - 1
            for p, mask in basis.items():
                basis[p] = mask ^ x * ((mask >> pivot) & 1)
            basis[pivot] = x
            if len(rest):
                rest = np.where((rest >> pivot) & 1, rest ^ x, rest)
    return [basis[pivot] for pivot in sorted(basis)]


def coset(basis: list[int], index: int) -> np.ndarray:
    """The sorted rows of the coset of a ``span`` basis that holds ``index``,
    with no 2^n array: row k is ``rep ^ sum_i c_i basis[i]``, c_i = bit i of
    k and ``rep`` the member with no pivot bit set.  Each pivot is its mask's
    highest bit and no other mask's, so k orders the rows."""
    rep = int(index)
    for mask in basis:
        rep ^= mask * ((rep >> (mask.bit_length() - 1)) & 1)
    rows = np.array([rep])
    for mask in basis:
        rows = np.concatenate([rows, rows ^ mask])
    return rows


def restrict(op: PauliSum | PauliString, basis: list[int], rep: int) -> PauliSum | PauliString:
    """``op`` on the coset of a ``span`` basis whose row 0 (``coset``) is
    ``rep``, as the same operator on ``len(basis)`` qubits whose basis state k
    is row k.  A term's X part there is its X mask's bits at the pivots, its
    Z part ``parity(basis[i] & zmask)`` on qubit i, and its coefficient gains
    the exact ``i^(#Y - #Y') (-1)^parity(rep & zmask)``.  A term that flips
    bits outside the span raises ValueError."""
    def virtual(term: PauliString) -> PauliString:
        xmask = zmask = turns = 0  # turns: #Y - #Y' + 2 parity(rep & zmask), quarter turns of c
        for q, letter in term.key():
            if letter != "Z":
                xmask |= 1 << q
            if letter != "X":
                zmask |= 1 << q
                turns += letter == "Y"
        key, flipped = [], 0
        for i, mask in enumerate(basis):
            x, z = (xmask >> (mask.bit_length() - 1)) & 1, (mask & zmask).bit_count() & 1
            if x or z:
                key.append((i, "IXZY"[x + 2 * z]))
                flipped ^= mask * x
                turns -= x & z
        if flipped != xmask:
            raise ValueError(f"{format_string(term)} flips bits outside the span")
        coefficient = term.coefficient
        for _ in range((turns + 2 * (int(rep) & zmask).bit_count()) % 4):
            coefficient = complex(-coefficient.imag, coefficient.real)  # times i, exactly
        return PauliString._derived(coefficient, tuple(key))

    return virtual(op) if isinstance(op, PauliString) else PauliSum(virtual(term) for term in op.terms)


def dense(op: PauliSum | PauliString, n_qubits: int) -> np.ndarray:
    """Dense matrix of ``op`` on ``n_qubits`` qubits, scattered from
    ``columns`` of every basis state."""
    # the matrix, and per basis state the column index, a term's sign temporaries and the pairs
    check_memory(lambda: 2.0**n_qubits * (16 * 2.0**n_qubits + 64 + 24 * pair_count(op)), f"dense matrix on {n_qubits} qubits")
    cols = np.arange(2**n_qubits)
    pairs = columns(op, cols, n_qubits)  # n and the support are checked before allocating
    out = np.zeros((len(cols), len(cols)), dtype=complex)
    for targets, values in pairs:
        out[targets, cols] = values
    return out


# ---------------------------------------------------------------------------
# textual notation, e.g. "(-0.5) X0 Y3 Z5"

_TOKEN = re.compile(r"([IXYZ])(\d+)?")


def format_string(term: PauliString) -> str:
    c = term.coefficient
    if c.imag == 0:
        coeff = repr(c.real)
    else:
        coeff = repr(c)[1:-1] if repr(c).startswith("(") else repr(c)
    body = " ".join(f"{letter}{q}" for q, letter in term.key()) or "I"
    return f"({coeff}) {body}"


def format_sum(op: PauliSum) -> str:
    return "\n".join(format_string(t) for t in op.terms)


def parse_string(text: str) -> PauliString:
    text = text.strip()
    match = re.fullmatch(r"\(([^()]+)\)\s*(.*)", text)
    if match is None:
        raise ValueError(f"cannot parse Pauli string {text!r}")
    coefficient = complex(match.group(1))
    letters: dict[int, str] = {}
    body = match.group(2).strip()
    if body and body != "I":
        for token in body.split():
            m = _TOKEN.fullmatch(token)
            if m is None or m.group(2) is None:
                raise ValueError(f"bad Pauli token {token!r}")
            letter, qubit = m.group(1), int(m.group(2))
            if qubit in letters:
                raise ValueError(f"qubit {qubit} listed twice")
            if letter != "I":
                letters[qubit] = letter
    return PauliString(coefficient, letters)


def parse_sum(text: str) -> PauliSum:
    lines = [line for line in (ln.strip() for ln in text.splitlines()) if line]
    return PauliSum([parse_string(line) for line in lines])
