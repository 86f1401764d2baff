"""Exact algebra of Pauli strings, their action on states and their dense
realizations.

A PauliString is a complex coefficient times a tensor product of single-qubit
Pauli letters, the one-term operator; a PauliSum is a merged linear combination
of strings, and ``PauliSum(ops)`` merges strings and sums in one pass.  Both
list their ``terms``, and the functions on operators (``columns``,
``pair_count``, ``span``, ``restrict``, ``matvec``, ``dense``) take either
type.  All coefficient arithmetic is double-precision complex, phases are
tracked exactly over {1, i, -1, -i}, and like terms merge with tolerance
``MERGE_TOL``.  Every string's coefficient, built, parsed, scaled, merged,
multiplied or restricted, passes ``_coefficient``, which refuses zero and NaN
or inf, so no operator holds a non-finite coefficient.

``_merged`` is the one merge.  It reads (key, coefficient) pairs: the terms'
own for ``PauliSum(ops)``, and for a sum times a number, ``-sum``,
``adjoint``, the product of two sums (through ``_product``, the core that
``multiply`` also wraps) and ``restrict`` of a sum, pairs made from the terms
with no string between.  Each made coefficient passes ``_coefficient`` as the
merge reads it, and each kept term's string is built once, after the merge,
so a pair-fed sum is bit for bit the merge of the strings it once built.

``columns`` is the one kernel that evaluates matrix elements.  It uses the
symplectic encoding of Aaronson & Gottesman, PRA 70, 052328 (2004): X and Y
letters set bits of an X mask, Y and Z letters set bits of a Z mask, and each
Y contributes a factor i (Y = i X Z); ``_symplectic`` is the one decoder of a
term's letters into these masks.  A letter's index in ``_LETTERS`` is its
code x + 2z, and ``multiply`` follows the symplectic rule on those codes,
letter by letter and not on masks, since qubit indices reach 5e9.  A string
then maps basis state ``k`` to ``k ^ xmask`` with the amplitude
``c i^#Y (-1)^popcount(k & zmask)``, so the elements out of chosen basis
columns take one XOR per X mask and, with no matrix, one numpy pass per chunk
of terms: the chunk's Z masks against the columns give its whole sign table,
of at most ``_CHUNK_ENTRIES`` entries (one term's row from 4096 columns up).
``matvec`` applies an operator to states from those pairs, one gather per X
mask, and ``dense`` scatters them into a matrix, for the tests and the
covariance check's 4x4 link matrices.  No Pauli matrix or product table is
typed by hand: the 2x2 and 4x4 matrices come from ``dense``.  A gate's or
Trotter factor's rotation cos t - i sin t P flips P's X qubits on an
``axis_flip`` view; ``matvec``, a sum over X masks, keeps its gathers.

An operator maps each XOR coset of the GF(2) ``span`` of its X masks, listed
by ``coset``, to itself, and the Z strings that fix a coset are the Z2
symmetries that qubit tapering removes (Bravyi, Gambetta, Mezzacapo & Temme,
arXiv:1701.08213): ``restrict`` writes it there on one qubit per basis mask.
The library applies an operator to a state only there, as the ``matvec`` of
the restricted operator on the coset's rows.

Values are immutable after construction and safe to share between threads.
"""
from __future__ import annotations

import cmath
import re
from numbers import Integral
from typing import Collection, Iterable, Mapping

import numpy as np

from .errors import check_memory

MERGE_TOL = 1e-12

_LETTERS = ("I", "X", "Z", "Y")  # index: the symplectic code x + 2z
_I_POWERS = (1, 1j, -1, -1j)


def _coefficient(value: complex) -> complex:
    """``value`` as a string's coefficient, which must be nonzero and finite."""
    value = complex(value)
    if value and cmath.isfinite(value):
        return value
    if not value:
        raise ValueError("zero-coefficient Pauli strings are not representable")
    raise ValueError(f"Pauli coefficient must be finite, got {value!r}")


class PauliString:
    """A signed, weighted tensor product of Pauli letters on indexed qubits.

    The letters come as a mapping or as (qubit, letter) pairs, each qubit a
    non-negative integer listed once.  The letter pattern is stored once, as
    the sorted ``key()``: a tuple of (qubit index, letter) pairs, each letter
    one of X, Y, Z, so it cannot be changed after construction.  Identity
    entries are never stored, so the support is exactly the key's qubits.  The
    coefficient is nonzero and finite.
    """

    __slots__ = ("coefficient", "_key")

    def __init__(self, coefficient: complex, letters: Mapping[int, str] | Iterable[tuple[int, str]] = ()):
        items: dict[int, str] = {}
        for q, letter in letters.items() if isinstance(letters, Mapping) else letters:
            if letter == "I":
                raise ValueError("identity letters must be omitted")
            if letter not in _LETTERS:
                raise ValueError(f"unknown Pauli letter {letter!r}")
            if not isinstance(q, Integral):
                raise ValueError(f"qubit indices must be integers, got {q!r}")
            if q < 0:
                raise ValueError("qubit indices must be non-negative")
            if q in items:
                raise ValueError(f"qubit {q} listed twice")
            items[int(q)] = letter  # a numpy integer would wrap in the masks from bit 63 up
        self.coefficient = _coefficient(coefficient)
        self._key = tuple(sorted(items.items()))

    @classmethod
    def _derived(cls, coefficient: complex, key: tuple[tuple[int, str], ...]) -> PauliString:
        """A string on the letter pattern ``key`` of an already validated
        string: only the coefficient is checked."""
        out = cls.__new__(cls)
        out.coefficient = _coefficient(coefficient)
        out._key = key
        return out

    def key(self) -> tuple[tuple[int, str], ...]:
        """Canonical letter pattern, sorted by qubit index."""
        return self._key

    @property
    def terms(self) -> list[PauliString]:
        """The string as a one-term operator, as ``PauliSum.terms`` lists its terms."""
        return [self]

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
    key, coefficient = _product(a, b)
    return PauliString._derived(coefficient, key)


def _product(a: PauliString, b: PauliString) -> tuple[tuple[tuple[int, str], ...], complex]:
    """The key and the unchecked coefficient of ``multiply(a, b)``: the one
    core of the product of two strings and of two sums."""
    coefficient = a.coefficient * b.coefficient
    letters = dict(a.key())
    for q, letter in b.key():
        if q not in letters:
            letters[q] = letter
            continue
        ca, cb = _LETTERS.index(letters.pop(q)), _LETTERS.index(letter)
        cc = ca ^ cb
        # sigma_a sigma_b = i^(ya + yb - yc + 2 za xb) sigma_c, with y = xz: 1 for Y (code 3) only
        coefficient *= _I_POWERS[((ca == 3) + (cb == 3) - (cc == 3) + 2 * (ca >> 1) * (cb & 1)) % 4]
        if cc:
            letters[q] = _LETTERS[cc]
    return tuple(sorted(letters.items())), coefficient


def _merged(pairs: Iterable[tuple[tuple[tuple[int, str], ...], complex]]) -> tuple[PauliString, ...]:
    """The one merge: the coefficients of like keys add in the order given,
    each sum from 0, and one string is built per key, in canonical order, for
    each sum above ``MERGE_TOL``."""
    merged: dict[tuple, complex] = {}
    for key, c in pairs:
        merged[key] = merged.get(key, 0) + c
    return tuple(PauliString._derived(c, k) for k, c in sorted(merged.items()) if abs(c) > MERGE_TOL)


class PauliSum:
    """A merged linear combination of Pauli strings.

    ``PauliSum(ops)`` merges strings and sums in one pass: like terms add in
    the order given and coefficients at or below ``MERGE_TOL`` are dropped, so
    equality is structural.  ``terms`` lists the strings in canonical order
    (lexicographic by support, then letters).
    """

    __slots__ = ("_terms",)

    def __init__(self, ops: Iterable[PauliSum | PauliString] = ()):
        self._terms = _merged((term._key, term.coefficient) for op in ops for term in op.terms)

    @classmethod
    def _of(cls, pairs: Iterable[tuple[tuple[tuple[int, str], ...], complex]]) -> PauliSum:
        """The merged sum of (key, coefficient) pairs made from terms: each
        key is a term's or ``_product``'s, and each coefficient passes
        ``_coefficient`` as the merge reads it, as a string built from it would."""
        out = cls.__new__(cls)
        out._terms = _merged((key, _coefficient(c)) for key, c in pairs)
        return out

    @property
    def terms(self) -> list[PauliString]:
        return list(self._terms)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted({q for term in self._terms for q, _ in term.key()}))

    def __len__(self):
        return len(self._terms)

    def __add__(self, other):
        if not isinstance(other, (PauliSum, PauliString)):
            return NotImplemented
        return PauliSum([self, other])

    def __sub__(self, other):
        if not isinstance(other, (PauliSum, PauliString)):
            return NotImplemented
        return PauliSum([self, -other])

    def __mul__(self, other):
        if isinstance(other, (PauliSum, PauliString)):
            return PauliSum._of(_product(a, b) for a in self._terms for b in other.terms)
        if other == 0:
            return PauliSum()
        return PauliSum._of((t._key, t.coefficient * other) for t in self._terms)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return PauliSum._of((t._key, -t.coefficient) for t in self._terms)

    def __eq__(self, other):
        if not isinstance(other, (PauliSum, PauliString)):
            return NotImplemented
        mine, theirs = ({t.key(): t.coefficient for t in op.terms} for op in (self, other))
        return all(abs(mine.get(k, 0) - theirs.get(k, 0)) <= MERGE_TOL for k in mine.keys() | theirs)

    def adjoint(self) -> PauliSum:
        return PauliSum._of((t._key, t.coefficient.conjugate()) for t in self._terms)

    def is_hermitian(self) -> bool:
        """Checked termwise: the sum must equal its own adjoint."""
        return all(abs(t.coefficient - t.coefficient.conjugate()) <= MERGE_TOL for t in self._terms)

    def __repr__(self):
        return f"PauliSum({format_sum(self)!r})"


def commutator(a: PauliString, b: PauliString) -> PauliSum:
    """ab - ba as a PauliSum with zero or one term."""
    ab = multiply(a, b)
    ba = multiply(b, a)
    return PauliSum([ab, -ba])


def _symplectic(term: PauliString) -> tuple[int, int, int]:
    """``(xmask, zmask, n_y)``: the bits ``term`` flips (X and Y letters), the
    bits whose parity signs it (Y and Z letters) and its number of Y letters."""
    xmask = zmask = n_y = 0
    for q, letter in term.key():
        if letter != "Z":
            xmask |= 1 << q
        if letter != "X":
            zmask |= 1 << q
            n_y += letter == "Y"
    return xmask, zmask, n_y


# entries of one chunk's sign table: 4096 complex values are 64 KiB, and with
# its mask, popcount and ufunc buffer temporaries (about 40 B an entry) a
# chunk assumes an L2 cache of 256 KiB or more per core; from 4096 columns up
# a chunk is one term
_CHUNK_ENTRIES = 4096
# (-1)^popcount by popcount, which is at most 64; complex, as the multiply
# by a coefficient would cast it
_SIGNS = (1 - 2 * (np.arange(65) & 1)).astype(complex)


def _phases(terms: list[PauliString], sources: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The X masks of ``terms`` and their table of amplitudes: row k holds the
    ``c i^#Y (-1)^popcount(source & zmask)`` that term k carries from each
    basis state in ``sources`` to ``source ^ xmask``, one pass for all rows."""
    xmasks, zmasks, factors = [], [], []
    for term in terms:
        xmask, zmask, n_y = _symplectic(term)
        xmasks.append(xmask)
        zmasks.append([zmask])
        factors.append([term.coefficient * _I_POWERS[n_y % 4]])
    table = _SIGNS.take(np.bitwise_count(sources & np.array(zmasks, dtype=sources.dtype)))
    table *= np.array(factors)  # each product is by +-1 or 0, exact: the bits of c i^#Y times the signs
    return xmasks, table


def columns(op: PauliSum | PauliString, cols: np.ndarray, n_qubits: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Matrix elements of ``op`` in the basis columns ``cols``, without a
    matrix: one ``(targets, values)`` pair per distinct X mask, with
    ``targets = cols ^ xmask`` and ``values[i] = <targets[i]| op |cols[i]>``.
    The terms' amplitudes come from ``_phases`` a chunk at a time, one sign
    table of at most ``_CHUNK_ENTRIES`` entries per chunk (or one term), and
    terms that flip the same bits are summed from zero in canonical term
    order, as ``dense`` sums them, so every element equals the dense one
    bitwise.  Bit ordering: qubit 0 is the least significant bit of the
    basis index, so basis state ``k`` assigns qubit q the bit ``(k >> q) & 1``."""
    if n_qubits < 0:
        raise ValueError("n_qubits must be non-negative")
    if (support := op.support) and support[-1] >= n_qubits:
        raise ValueError(f"support {support} does not fit in {n_qubits} qubits")
    cols = np.asarray(cols, dtype=int)
    terms, step = op.terms, max(1, _CHUNK_ENTRIES // max(len(cols), 1))
    by_mask: dict[int, np.ndarray] = {}
    for start in range(0, len(terms), step):
        for xmask, row in zip(*_phases(terms[start : start + step], cols)):
            by_mask[xmask] = by_mask.get(xmask, 0.0) + row
        del row  # the chunk's table goes before the next one is built
    return [(cols ^ xmask, values) for xmask, values in by_mask.items()]


def pair_count(*ops: PauliSum | PauliString) -> int:
    """How many pairs ``columns`` gives the terms of all the ``ops``
    together: one per distinct X mask."""
    return len({_symplectic(term)[0] for op in ops for term in op.terms})


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
    masks = list({_symplectic(term)[0] for op in ops for term in op.terms})
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
    def virtual(term: PauliString) -> tuple[tuple[tuple[int, str], ...], complex]:
        xmask, zmask, turns = _symplectic(term)  # turns: #Y - #Y' + 2 parity(rep & zmask), quarter turns of c
        key, flipped = [], 0
        for i, mask in enumerate(basis):
            x, z = (xmask >> (mask.bit_length() - 1)) & 1, (mask & zmask).bit_count() & 1
            if x or z:
                key.append((i, _LETTERS[x + 2 * z]))
                flipped ^= mask * x
                turns -= x & z
        if flipped != xmask:
            raise ValueError(f"{format_string(term)} flips bits outside the span")
        coefficient = term.coefficient
        for _ in range((turns + 2 * (int(rep) & zmask).bit_count()) % 4):
            coefficient = complex(-coefficient.imag, coefficient.real)  # times i, exactly
        return tuple(key), coefficient

    if isinstance(op, PauliString):
        key, coefficient = virtual(op)
        return PauliString._derived(coefficient, key)
    return PauliSum._of(virtual(term) for term in op.terms)


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
            if qubit in letters:  # an identity token lists its qubit too
                raise ValueError(f"qubit {qubit} listed twice")
            letters[qubit] = letter
    return PauliString(coefficient, {q: letter for q, letter in letters.items() if letter != "I"})


def parse_sum(text: str) -> PauliSum:
    lines = [line for line in (ln.strip() for ln in text.splitlines()) if line]
    return PauliSum([parse_string(line) for line in lines])
