"""SU(2) quantum link operators in the two-qubit-per-link encoding.

Each link carries a position qubit and a spin qubit.  The position qubit says
on which end of the link the single excitation sits (Z = +1 means the head /
right end), the spin qubit carries its color.  From these we build the link
operators, left/right generators, the per-vertex gauge generators, the
triangular-plaquette Hamiltonian, the decomposition of the register into
gauge sectors (eigenspaces of the summed squared generators), which are
counted from the spins at each vertex rather than diagonalised, and a gauge
covariance check that runs link by link on 4x4 matrices.

All construction functions are pure and return immutable values.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from . import pauli
from .errors import LayoutError, check_memory
from .linalg import expi_hermitian
from .pauli import PauliString, PauliSum, dense

_AXES = {1: "X", 2: "Y", 3: "Z"}
# sigma_0..sigma_3, the identity first, as one-qubit strings and as 2x2 matrices
_PAULIS = [PauliString(1.0, {0: _AXES[a]} if a else {}) for a in range(4)]
_SIGMA = [dense(sigma, 1) for sigma in _PAULIS]
# (a, b, c, epsilon_abc) in lexicographic order, from sigma_a sigma_b = i epsilon_abc sigma_c
_LEVI_CIVITA = [(a, b, c, pauli.multiply(_PAULIS[a], _PAULIS[b]).coefficient.imag) for a, b, c in permutations((1, 2, 3))]


@dataclass(frozen=True)
class Link:
    link_id: str
    frm: int
    to: int
    pos_qubit: int
    spin_qubit: int


@dataclass(frozen=True)
class PlaquetteLayout:
    """Oriented links with qubit assignments plus the plaquettes they close.

    The tail (``frm``) end of a link is its left end, the head (``to``) its
    right end.  Plaquettes list link ids in circulation order: each link's head
    must be the next link's tail.
    """

    links: tuple[Link, ...]
    plaquettes: tuple[tuple[str, str, str], ...]
    vertices: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        qubits = [q for l in self.links for q in (l.pos_qubit, l.spin_qubit)]
        if len(set(qubits)) != len(qubits):
            raise LayoutError("qubit indices must be pairwise distinct")
        if any(q < 0 for q in qubits):
            raise LayoutError("qubit indices must be non-negative")
        ids = [l.link_id for l in self.links]
        if len(set(ids)) != len(ids):
            raise LayoutError("link ids must be unique")
        by_id = {l.link_id: l for l in self.links}
        for index, plaq in enumerate(self.plaquettes):
            if len(plaq) != 3:
                raise LayoutError("plaquettes must contain exactly three links")
            if len(set(plaq)) != 3:
                raise LayoutError(f"plaquette {plaq} lists a link more than once")
            try:
                loop = [by_id[i] for i in plaq]
            except KeyError as err:
                raise LayoutError(f"plaquette references unknown link {err.args[0]!r}") from None
            for a, b in zip(loop, loop[1:] + loop[:1]):
                if a.to != b.frm:
                    raise LayoutError(f"plaquette {plaq} is not a closed oriented loop")
            if set(plaq) in map(set, self.plaquettes[:index]):
                raise LayoutError(f"plaquette {plaq} repeats the links of an earlier plaquette")
        vertices = sorted({v for l in self.links for v in (l.frm, l.to)})
        object.__setattr__(self, "vertices", tuple(vertices))

    def link(self, link_id: str) -> Link:
        for l in self.links:
            if l.link_id == link_id:
                return l
        raise LayoutError(f"unknown link {link_id!r}")

    @property
    def n_qubits(self) -> int:
        return 1 + max(q for l in self.links for q in (l.pos_qubit, l.spin_qubit))


def triangle_layout() -> PlaquetteLayout:
    """The single triangle 1 -> 2 -> 3 -> 1 with qubits (pos, spin) = (0,1), (2,3), (4,5)."""
    return PlaquetteLayout(
        links=(
            Link("12", 1, 2, 0, 1),
            Link("23", 2, 3, 2, 3),
            Link("31", 3, 1, 4, 5),
        ),
        plaquettes=(("12", "23", "31"),),
    )


def gamma(layout: PlaquetteLayout, link_id: str, index: int) -> PauliString:
    """Two-qubit link letters: index 0 is X on the position qubit, index a in
    {1,2,3} is Y(position) tensor sigma^a(spin)."""
    link = layout.link(link_id)
    if index == 0:
        return PauliString(1.0, {link.pos_qubit: "X"})
    if index in _AXES:
        return PauliString(1.0, {link.pos_qubit: "Y", link.spin_qubit: _AXES[index]})
    raise ValueError(f"gamma index must be 0..3, got {index}")


def left_right_generators(layout: PlaquetteLayout, link_id: str) -> tuple[tuple[PauliSum, ...], tuple[PauliSum, ...]]:
    """(L, R) color generators of a link, each a triple indexed by a-1.

    R^a projects on the head-occupied position state times sigma^a/2 on spin,
    L^a uses the tail projector: R^a = (1+Z_pos)/2 * sigma^a_spin/2 and
    L^a = (1-Z_pos)/2 * sigma^a_spin/2.
    """
    link = layout.link(link_id)
    left, right = [], []
    for a in (1, 2, 3):
        spin = PauliString(0.25, {link.spin_qubit: _AXES[a]})
        spin_pos = PauliString(0.25, {link.pos_qubit: "Z", link.spin_qubit: _AXES[a]})
        right.append(PauliSum([spin, spin_pos]))
        left.append(PauliSum([spin, -spin_pos]))
    return tuple(left), tuple(right)


def link_operator(layout: PlaquetteLayout, link_id: str) -> list[list[PauliSum]]:
    """The 2x2 color matrix of qubit operators transporting color along a link:
    U = (Gamma0 tau0 + i sum_a Gamma_a tau_a) / 2 with tau acting on the color
    indices."""
    g = [gamma(layout, link_id, k) for k in range(4)]
    out = []
    for alpha in range(2):
        row = []
        for beta in range(2):
            coeffs = [0.5 * _SIGMA[0][alpha, beta]] + [0.5j * _SIGMA[a][alpha, beta] for a in (1, 2, 3)]
            row.append(PauliSum([c * g[k] for k, c in enumerate(coeffs) if c != 0]))
        out.append(row)
    return out


def gauge_generator(layout: PlaquetteLayout, vertex: int, a: int) -> PauliSum:
    """Sum of R^a over links terminating at the vertex and L^a over links
    emanating from it."""
    if vertex not in layout.vertices:
        raise LayoutError(f"unknown vertex {vertex!r}")
    if a not in _AXES:
        raise ValueError(f"color index must be 1..3, got {a}")
    return _gauge_generators(layout)[vertex, a]


def _gauge_generators(layout: PlaquetteLayout) -> dict[tuple[int, int], PauliSum]:
    """Every gauge generator of a layout by (vertex, color), from one pass
    over the links that adds each link's generators in layout order."""
    parts = {(vertex, a): [] for vertex in layout.vertices for a in (1, 2, 3)}
    for link in layout.links:
        left, right = left_right_generators(layout, link.link_id)
        for a in (1, 2, 3):
            parts[link.to, a].append(right[a - 1])
            parts[link.frm, a].append(left[a - 1])
    return {key: PauliSum(ops) for key, ops in parts.items()}


def total_gauge_casimir(layout: PlaquetteLayout) -> PauliSum:
    """Sum over vertices and colors of the squared gauge generators."""
    return PauliSum(g * g for g in _gauge_generators(layout).values())


def plaquette_monomials(layout: PlaquetteLayout, coupling: float) -> list[PauliString]:
    """The interaction monomials in listing order, one plaquette after another.

    Per plaquette: the all-position X term first, the six antisymmetric
    triple-color terms in lexicographic (a, b, c) order, then the nine mixed
    terms grouped by color.  Coefficients are -J/2 times the implied signs.
    """
    if not layout.plaquettes:
        raise LayoutError("layout contains no plaquettes")
    out: list[PauliString] = []
    for plaq in layout.plaquettes:
        g = [[gamma(layout, link_id, k) for k in range(4)] for link_id in plaq]
        half = -coupling / 2.0
        out.append(half * (g[0][0] * g[1][0] * g[2][0]))
        for a, b, c, epsilon in _LEVI_CIVITA:
            out.append((half * epsilon) * (g[0][a] * g[1][b] * g[2][c]))
        for a in (1, 2, 3):
            out.append((-half) * (g[0][0] * g[1][a] * g[2][a]))
            out.append((-half) * (g[0][a] * g[1][0] * g[2][a]))
            out.append((-half) * (g[0][a] * g[1][a] * g[2][0]))
    return out


def plaquette_hamiltonian(layout: PlaquetteLayout, coupling: float) -> PauliSum:
    """Magnetic Hamiltonian summed over the layout's plaquettes: 16 monomials
    per plaquette with coefficients of magnitude J/2."""
    return PauliSum(plaquette_monomials(layout, coupling))


@dataclass(frozen=True)
class GaugeSector:
    eigenvalue: float
    degeneracy: int


@dataclass(frozen=True)
class GaugeSectorTable:
    layout: PlaquetteLayout
    sectors: tuple[GaugeSector, ...]

    @property
    def n_qubits(self) -> int:
        return self.layout.n_qubits

    def eigenvalues(self) -> list[float]:
        return [s.eigenvalue for s in self.sectors]

    def sector(self, eigenvalue: float) -> GaugeSector:
        for s in self.sectors:
            if abs(s.eigenvalue - eigenvalue) <= 1e-6:
                return s
        available = ", ".join(repr(round(s.eigenvalue, 10)) for s in self.sectors)
        raise LayoutError(f"no sector with eigenvalue {eigenvalue!r}; available: {available}")


def _combine(options_per_vertex) -> Counter:
    """Choose one (4 j(j+1), weight) option per vertex: the summed weight of
    each total 4 * sum_v j_v(j_v + 1)."""
    totals = Counter({0: 1})
    for options in options_per_vertex:
        combined = Counter()
        for q, weight in totals.items():
            for dq, dweight in options:
                combined[q + dq] += weight * dweight
        totals = combined
    return totals


def _multiplets(k: int) -> list[tuple[int, int]]:
    """(4 j(j+1), number of states) for each total spin j of k coupled
    spin-1/2s: spin j occurs C(k, k/2-j) - C(k, k/2-j-1) times, with 2j+1
    states each."""
    out = []
    for j2 in range(k % 2, k + 1, 2):  # j2 = 2j
        low = (k - j2) // 2
        count = math.comb(k, low) - (math.comb(k, low - 1) if low else 0)
        out.append((j2 * (j2 + 2), count * (j2 + 1)))
    return out


def gauge_sectors(layout: PlaquetteLayout) -> GaugeSectorTable:
    """Eigenvalues and degeneracies of the summed squared gauge generators, by
    counting.

    The Casimir commutes with every position Z.  In one position
    configuration the generators at vertex v are the total spin of the k_v
    spins whose excitation sits at v, so the Casimir is sum_v j_v(j_v + 1)
    over the couplings of those spins, and its spectrum there depends only on
    the multiset of the k_v.  One pass over the 2^links configurations counts
    them per sorted k-vector; each distinct vector's couplings are combined
    once and added times its count, in integers.  Each qubit index that no
    link uses doubles every degeneracy.  The memory check counts one 2^n
    state; that bounds 2^links too.
    """
    n = layout.n_qubits
    check_memory(lambda: 16 * 2.0**n, f"sector table on {n} qubits")
    slot = {v: i for i, v in enumerate(layout.vertices)}
    ends = [(1 << i, slot[link.frm], slot[link.to]) for i, link in enumerate(layout.links)]
    shapes = Counter()
    for config in range(2 ** len(layout.links)):
        k = [0] * len(slot)
        for bit, tail, head in ends:
            k[tail if config & bit else head] += 1
        shapes[tuple(sorted(k))] += 1
    counts = Counter()
    for shape, configs in shapes.items():
        for q, weight in _combine(_multiplets(k) for k in shape).items():
            counts[q] += weight * configs
    unused = 2 ** (n - 2 * len(layout.links))
    return GaugeSectorTable(layout, tuple(GaugeSector(q / 4, count * unused) for q, count in sorted(counts.items())))


def sector_seed(table: GaugeSectorTable, eigenvalue: float) -> int:
    """The lowest-index computational basis state with nonzero weight in a
    sector.

    A basis state with k_v spins at vertex v that sum to m_v has weight in
    every total spin |m_v| <= j_v <= k_v / 2 there, so it has weight in the
    sector if some such choice gives the eigenvalue.  That test depends only
    on the multiset of the pairs (k_v, 2 |m_v|).  The ascending scan reads
    the spin qubits at each vertex once per position configuration, as one
    bit mask, combines each multiset the first time it meets it, and stops
    at the first hit.
    """
    target = round(4 * table.sector(eigenvalue).eigenvalue)
    links = table.layout.links
    positions = sum(1 << link.pos_qubit for link in links)
    occupied: dict[int, list[tuple[int, int]]] = {}  # position bits -> (k_v, spin-qubit mask) per occupied vertex
    hits: dict[tuple[tuple[int, int], ...], bool] = {}
    for index in range(2**table.n_qubits):
        vertices = occupied.get(index & positions)
        if vertices is None:
            masks: dict[int, int] = {}
            for link in links:
                vertex = link.frm if (index >> link.pos_qubit) & 1 else link.to
                masks[vertex] = masks.get(vertex, 0) | 1 << link.spin_qubit
            vertices = occupied[index & positions] = [(mask.bit_count(), mask) for mask in masks.values()]
        # (k_v, 2 |m_v|): each spin up (bit 0) adds 1 to 2 m_v, each spin down -1
        pattern = tuple(sorted((k, abs(k - 2 * (index & mask).bit_count())) for k, mask in vertices))
        hit = hits.get(pattern)
        if hit is None:
            options = ([(j2 * (j2 + 2), 1) for j2 in range(m2, k + 1, 2)] for k, m2 in pattern)
            hit = hits[pattern] = _combine(options)[target] > 0
        if hit:
            return index
    raise RuntimeError("no basis state has weight in the sector")  # unreachable for a counted table


def sector_on_coset(table: GaugeSectorTable, eigenvalue: float, casimir: PauliSum, basis: list[int]):
    """A sector's representative on a coset register, as (rows,
    apply_casimir, state): ``rows`` is the ``pauli.coset`` of ``basis`` (a
    ``pauli.span`` that holds the Casimir's X masks) that holds the basis
    state ``sector_seed``, ``apply_casimir`` the ``pauli.matvec`` of the
    Casimir ``pauli.restrict``-ed there, relative to row 0, and ``state`` the
    seed's normalized projection on the sector: the Lagrange polynomial
    prod_{mu != lambda} (C - mu) / (lambda - mu) of the Casimir C over the
    table's eigenvalues."""
    sector = table.sector(eigenvalue)
    seed = sector_seed(table, eigenvalue)
    rows = pauli.coset(basis, seed)
    apply_casimir = pauli.matvec(pauli.restrict(casimir, basis, int(rows[0])), len(basis))
    state = (rows == seed).astype(complex)
    for mu in table.eigenvalues():
        if mu != sector.eigenvalue:
            state = (apply_casimir(state) - mu * state) / (sector.eigenvalue - mu)
    # adding 0.0 turns the -0.0 that a negative lambda - mu leaves into +0.0
    return rows, apply_casimir, state / np.linalg.norm(state) + 0.0


def canonical_sector_state(table: GaugeSectorTable, eigenvalue: float) -> np.ndarray:
    """Deterministic representative of a sector on the full 2^n register: its
    ``sector_on_coset`` on the ``pauli.span`` of the Casimir's X masks,
    scattered into the returned state.  Those masks lie on spin qubits only,
    so the coset has at most 2^links rows, and the returned state is the only
    2^n array, the one that ``gauge_sectors`` counts.
    """
    casimir = total_gauge_casimir(table.layout)
    rows, _, on_rows = sector_on_coset(table, eigenvalue, casimir, pauli.span([casimir]))
    state = np.zeros(2**table.n_qubits, dtype=complex)
    state[rows] = on_rows
    return state


def gauge_covariance_check(
    layout: PlaquetteLayout,
    link_id: str,
    angles: dict[int, tuple[float, float, float]],
) -> float:
    """Max deviation between conjugating a link operator by the lattice gauge
    transformation and rotating its color indices locally at the two ends.

    ``angles`` assigns three rotation angles to every vertex.  Generators on
    different links act on different qubits, and on one link R^a and L^b sit
    on complementary position projectors, so the transformation factorises
    into one factor per link, V = prod_l V_l, and V U_l V^dag = V_l U_l V_l^dag.
    The check therefore runs on the link's own two qubits.
    """
    layout.link(link_id)  # an unknown id raises LayoutError
    return gauge_covariance_deviations(layout, [angles])[0][link_id]


def gauge_covariance_deviations(
    layout: PlaquetteLayout, angle_sets: list[dict[int, tuple[float, float, float]]]
) -> list[dict[str, float]]:
    """``gauge_covariance_check`` of every link, in layout order, for each
    angle set: each link's 4x4 matrices are built once for all sets."""
    matrices = [(link, _link_matrices(layout, link)) for link in layout.links]
    out = []
    for angles in angle_sets:
        missing = set(layout.vertices) - set(angles)
        if missing:
            raise ValueError(f"angles missing for vertices {sorted(missing)}")
        out.append({link.link_id: _link_covariance(link, mats, angles) for link, mats in matrices})
    return out


def _link_matrices(layout: PlaquetteLayout, link: Link) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L^a, R^a, U) of a link as 4x4 matrices on its (position, spin) qubits,
    relabelled to qubits (0, 1): shapes (3, 4, 4), (3, 4, 4) and (2, 2, 4, 4)."""
    local = {link.pos_qubit: 0, link.spin_qubit: 1}

    def on_link(op: PauliSum) -> np.ndarray:
        return dense(PauliSum([PauliString(t.coefficient, {local[q]: l for q, l in t.key()}) for t in op.terms]), 2)

    left, right = left_right_generators(layout, link.link_id)
    u = [[on_link(op) for op in row] for row in link_operator(layout, link.link_id)]
    return np.array([on_link(g) for g in left]), np.array([on_link(g) for g in right]), np.array(u)


def _link_covariance(link: Link, matrices, angles) -> float:
    """``gauge_covariance_check`` of one link from its ``_link_matrices``."""
    left, right, u = matrices
    generator = sum(angles[link.frm][a] * left[a] + angles[link.to][a] * right[a] for a in range(3))
    transform = expi_hermitian(generator, scale=-1.0)
    rot_from = expi_hermitian(sum(angles[link.frm][a] * _SIGMA[a + 1] for a in range(3)) / 2.0)
    rot_to = expi_hermitian(sum(angles[link.to][a] * _SIGMA[a + 1] for a in range(3)) / 2.0, scale=-1.0)
    lhs = transform @ u @ transform.conj().T
    rhs = np.einsum("ag,db,gdij->abij", rot_from, rot_to, u)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# plain-text layout files

def parse_layout(text: str) -> PlaquetteLayout:
    links: list[Link] = []
    plaquettes: list[tuple[str, str, str]] = []
    declared: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "vertex":
                if len(fields) != 2:
                    raise ValueError("expected: vertex <id>")
                declared.add(int(fields[1]))
            elif kind == "link":
                if len(fields) != 6:
                    raise ValueError("expected: link <id> <from> <to> <pos-qubit> <spin-qubit>")
                if "," in fields[1]:
                    raise ValueError(f"link id {fields[1]!r} must not contain a comma")
                links.append(Link(fields[1], int(fields[2]), int(fields[3]), int(fields[4]), int(fields[5])))
            elif kind == "plaquette":
                if len(fields) != 4:
                    raise ValueError("expected: plaquette <link> <link> <link>")
                plaquettes.append((fields[1], fields[2], fields[3]))
            else:
                raise ValueError(f"unknown directive {kind!r}")
        except ValueError as err:
            raise LayoutError(f"line {lineno}: {err}") from None
    if not links:
        raise LayoutError("layout declares no links")
    layout = PlaquetteLayout(tuple(links), tuple(plaquettes))
    undeclared = set(layout.vertices) - declared if declared else set()
    if undeclared:
        raise LayoutError(f"links reference undeclared vertices {sorted(undeclared)}")
    return layout
