"""Matter fields coupled to links on an open chain of hard-core modes.

A chain of ``n_sites`` matter sites carries two color modes per site and four
per link (two colors at each link end).  A strong diagonal penalty enforces a
fixed total occupation per link; a color-symmetric hopping couples matter and
link ends.  The second-order effective interaction inside the penalty-free
subspace is computed brute force from the projector formula and compared to
the closed-form hopping-plus-density expression it is expected to reduce to.

Hard-core modes commute across different modes (no exchange signs); each mode
is realized as one qubit so the full operator algebra reuses the Pauli layer.
The two modes of one color cell (a matter site, or one end of a link) realize
a color doublet; the qubit representation of the color algebra is faithful
only while a cell holds at most one excitation, so the model space keeps that
restriction and the effective-operator resolvent never leaves it.  The
validation works inside a fixed total-excitation sector; effective blocks are
compared modulo an additive constant, in units of the hopping strength.

No 2^modes matrix is built: the state sets come from bit tests on index
arrays, H0 from occupation counts, and the blocks of V and of the closed
forms from ``pauli.columns``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import pauli
from .errors import GuardError, check_memory
from .pauli import PauliString, PauliSum

DEGENERACY_GUARD = 1e-9
REACH_TOL = 1e-12

# sigma_y's one nonzero entry per column: <1 - mu| sigma_y |mu> at mu
_SIGMA_Y = pauli.columns(PauliString(1.0, {0: "Y"}), np.arange(2), 1)[0][1]

UP, DOWN = 0, 1
LEFT, RIGHT = 0, 1


@dataclass(frozen=True)
class ChainConfig:
    """Open chain: ``n_sites`` matter sites joined by ``n_sites - 1`` links.

    ``penalty`` (the link-occupation enforcement scale) should dominate
    ``hopping`` for the perturbative reduction to be meaningful; ``ratio``
    records hopping / penalty.  ``matter_number`` fixes the total-excitation
    sector used for validation: total = matter_number + n0 * n_links.
    """

    n_sites: int = 2
    omega: float = 1.0
    penalty: float = 1000.0
    hopping: float = 1.0
    n0: int = 1
    matter_number: int = 1

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError("a chain needs at least two sites")
        if not self.penalty > 0:  # NaN fails too; an infinite penalty is kept
            raise ValueError("penalty scale must be positive")
        if not (np.isfinite(self.hopping) and np.isfinite(self.omega)):  # omega enters numpy energies, never a Pauli coefficient
            raise ValueError("hopping and omega must be finite")
        if not 0 <= self.matter_number <= 2 * self.n_sites:
            raise ValueError("matter_number out of range")
        if not 0 <= self.n0 <= 2:
            raise ValueError("n0 out of range: a link has two color cells of at most one excitation each")
        # per basis state: faithful_indices' index, mask and three bit-test temporaries
        check_memory(lambda: 33 * 2.0**self.n_modes, f"matter chain of {self.n_modes} modes")

    @property
    def n_links(self) -> int:
        return self.n_sites - 1

    @property
    def n_modes(self) -> int:
        return 2 * self.n_sites + 4 * self.n_links

    @property
    def ratio(self) -> float:
        return self.hopping / self.penalty

    @property
    def total_excitations(self) -> int:
        return self.matter_number + self.n0 * self.n_links

    # mode indexing: per spatial cell of six modes, matter first
    def b_mode(self, site: int, spin: int) -> int:
        return 6 * site + spin

    def c_mode(self, link: int, side: int, spin: int) -> int:
        return 6 * link + 2 + 2 * side + spin


def lowering(mode: int) -> PauliSum:
    return PauliSum([PauliString(0.5, {mode: "X"}), PauliString(0.5j, {mode: "Y"})])


def raising(mode: int) -> PauliSum:
    return PauliSum([PauliString(0.5, {mode: "X"}), PauliString(-0.5j, {mode: "Y"})])


def number(mode: int) -> PauliSum:
    return PauliSum([PauliString(0.5), PauliString(-0.5, {mode: "Z"})])


def unperturbed_energies(cfg: ChainConfig, indices: np.ndarray) -> np.ndarray:
    """H0 (diagonal) on the basis states ``indices``, from occupation counts:
    omega times the total occupation plus the penalty times each link's
    squared excess over n0."""
    return _weighted(cfg, _occupations(cfg, indices))


def _occupations(cfg: ChainConfig, indices: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The counts H0 weights on ``indices``, which no omega or penalty
    changes: the total occupation and each link's squared excess over n0."""
    excesses = [(_occupation(indices, _link_modes(cfg, link)) - cfg.n0) ** 2 for link in range(cfg.n_links)]
    return _occupation(indices, range(cfg.n_modes)), excesses


def _weighted(cfg: ChainConfig, occupations: tuple[np.ndarray, list[np.ndarray]]) -> np.ndarray:
    """H0 from ``_occupations``, adding the links' penalties in link order."""
    total, excesses = occupations
    energies = cfg.omega * total
    for excess in excesses:
        energies = energies + cfg.penalty * excess
    return energies


def _scaled(pattern: PauliSum, factor: float, name: str) -> PauliSum:
    """``factor * pattern`` of a Hermitian pattern, so this guard sees the
    used operator's terms: a nonzero factor that pushes terms under the merge
    tolerance would silently drop them, so that raises."""
    scaled = factor * pattern
    if factor != 0 and len(scaled) < len(pattern):
        raise GuardError(f"{name} is too small: terms fall under the Pauli merge tolerance {pauli.MERGE_TOL:g}")
    return scaled


def v_operator(cfg: ChainConfig) -> PauliSum:
    """Color-symmetric matter-link hopping: a half plus its adjoint, scaled."""
    parts = []
    for site in range(cfg.n_sites):
        for alpha in (UP, DOWN):
            b_dag = raising(cfg.b_mode(site, alpha))
            b_low = lowering(cfg.b_mode(site, alpha))
            if site < cfg.n_links:  # link leaving this site
                link = site
                parts.append(b_dag * lowering(cfg.c_mode(link, LEFT, alpha)))
                # the colour conjugate: sigma_y pairs alpha with 1 - alpha only
                parts.append(_SIGMA_Y[1 - alpha] * (b_dag * raising(cfg.c_mode(link, LEFT, 1 - alpha))))
            if site > 0:  # link arriving at this site
                link = site - 1
                parts.append(raising(cfg.c_mode(link, RIGHT, alpha)) * b_low)
                parts.append(_SIGMA_Y[alpha] * (lowering(cfg.c_mode(link, RIGHT, 1 - alpha)) * b_low))
    half = PauliSum(parts)
    return _scaled(half + half.adjoint(), cfg.hopping, f"hopping {cfg.hopping:.3g}")


def color_cells(cfg: ChainConfig) -> list[tuple[int, int]]:
    """Mode pairs forming one color doublet each: every matter site and every
    link end."""
    cells = [(cfg.b_mode(site, UP), cfg.b_mode(site, DOWN)) for site in range(cfg.n_sites)]
    for link in range(cfg.n_links):
        for side in (LEFT, RIGHT):
            cells.append((cfg.c_mode(link, side, UP), cfg.c_mode(link, side, DOWN)))
    return cells


def _occupation(indices: np.ndarray, modes) -> np.ndarray:
    """Number of excitations each basis state in ``indices`` holds in ``modes``."""
    return sum(((indices >> mode) & 1 for mode in modes), np.zeros_like(indices))


def _link_modes(cfg: ChainConfig, link: int) -> list[int]:
    return [cfg.c_mode(link, side, spin) for side in (LEFT, RIGHT) for spin in (UP, DOWN)]


def faithful_indices(cfg: ChainConfig) -> np.ndarray:
    """Model space: occupation states with at most one excitation per color
    cell (where the qubit realization of the color algebra is faithful)."""
    indices = np.arange(2**cfg.n_modes)
    keep = np.ones(len(indices), dtype=bool)
    for a, b in color_cells(cfg):
        keep &= ((indices >> a) & (indices >> b) & 1) == 0
    return indices[keep]


def penalty_free_indices(cfg: ChainConfig, faithful: np.ndarray) -> np.ndarray:
    """The states of ``faithful`` (the model space) in the fixed
    total-excitation sector with exactly n0 excitations on every link."""
    keep = _occupation(faithful, range(cfg.n_modes)) == cfg.total_excitations
    for link in range(cfg.n_links):
        keep &= _occupation(faithful, _link_modes(cfg, link)) == cfg.n0
    return faithful[keep]


def _block(pairs: list[tuple[np.ndarray, np.ndarray]], rows: np.ndarray, n_cols: int) -> np.ndarray:
    """``<rows| op |cols>`` from the pairs of ``pauli.columns(op, cols, n)``,
    ``rows`` sorted; elements that lead outside ``rows`` are dropped.  One
    sorted search per X mask finds each target's row, and the row there must
    equal it; past the last row it meets the -1 ending the rows, which no index equals."""
    out = np.zeros((len(rows), n_cols), dtype=complex)
    ended = np.append(rows, -1)
    for targets, values in pairs:
        at = np.searchsorted(rows, targets)
        hit = np.flatnonzero(ended[at] == targets)
        out[at[hit], hit] = values[hit]
    return out


def _couplings(cfg: ChainConfig, p_idx: np.ndarray, faithful: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, <Q| V |P>): Q holds the model-space states (``faithful``) outside
    P that the hopping reaches from P, in ascending order; no other
    model-space state outside P couples to P."""
    if len(p_idx) == 0:
        raise GuardError("penalty-free subspace is empty in this sector")
    pairs = pauli.columns(v_operator(cfg), p_idx, cfg.n_modes)
    # p_idx[:0] keeps the concatenation defined when V has no terms (zero hopping)
    reached = np.concatenate([p_idx[:0]] + [targets for targets, _ in pairs])
    q_idx = np.setdiff1d(np.intersect1d(reached, faithful), p_idx)
    # the block, its conjugate and weighted copy, and six P x P blocks of a ratio
    p, q = len(p_idx), len(q_idx)
    check_memory(lambda: 16.0 * p * (3 * q + 6 * p), f"matter coupling block of {q} x {p}")
    return q_idx, _block(pairs, q_idx, len(p_idx))


@dataclass(frozen=True)
class _Coupled:
    """What the second-order block reads that no omega or penalty changes:
    P (``p_idx``), Q, the couplings ``<Q| V |P>``, the Q rows they reach and
    the occupations of P's first state and of Q."""

    p_idx: np.ndarray
    q_idx: np.ndarray
    couplings: np.ndarray
    reachable: np.ndarray
    p_occupations: tuple[np.ndarray, list[np.ndarray]]
    q_occupations: tuple[np.ndarray, list[np.ndarray]]


def _coupled(cfg: ChainConfig, p_idx: np.ndarray, faithful: np.ndarray) -> _Coupled:
    q_idx, couplings = _couplings(cfg, p_idx, faithful)
    reachable = np.max(np.abs(couplings), axis=1) > REACH_TOL
    # H0 depends only on the total and the link occupations, which P fixes
    return _Coupled(p_idx, q_idx, couplings, reachable, _occupations(cfg, p_idx[:1]), _occupations(cfg, q_idx))


@dataclass(frozen=True)
class EffectiveBlock:
    """Dense effective operator on the penalty-free subspace.

    ``basis_indices`` are the Fock indices spanning the block, in ascending
    order.
    """

    matrix: np.ndarray
    basis_indices: np.ndarray


def effective_hamiltonian(cfg: ChainConfig) -> EffectiveBlock:
    """Second-order effective operator from the projector formula.

    With P the penalty-free subspace of the chosen sector at unperturbed
    energy E0 and Q the model-space states outside P that the hopping
    reaches from it, the block is P V Q (E0 - H0)^(-1) Q V P, symmetrized to
    kill roundoff.  Raises if the hopping couples P to a complement state
    within 1e-9 * penalty of E0.
    """
    faithful = faithful_indices(cfg)
    return _second_order(cfg, _coupled(cfg, penalty_free_indices(cfg, faithful), faithful))


def _second_order(cfg: ChainConfig, coupled: _Coupled) -> EffectiveBlock:
    """The part of ``effective_hamiltonian`` that omega and the penalty
    change: the occupations weighted into gaps, their guard and the weighted
    product of the couplings."""
    e0 = float(_weighted(cfg, coupled.p_occupations)[0])
    gaps = e0 - _weighted(cfg, coupled.q_occupations)
    near = np.abs(gaps) < DEGENERACY_GUARD * cfg.penalty
    if np.any(near & coupled.reachable):
        raise GuardError("hopping couples the penalty-free subspace to a nearly degenerate state")

    inverse = np.where(near, 0.0, 1.0 / np.where(near, 1.0, gaps))
    block = coupled.couplings.conj().T @ (inverse[:, None] * coupled.couplings)
    block = (block + block.conj().T) / 2.0
    return EffectiveBlock(block, coupled.p_idx)


def _closed_form_term(cfg: ChainConfig, pattern: PauliSum) -> PauliSum:
    """A closed-form pattern times its second-order scale -2 hopping^2 / penalty."""
    return _scaled(pattern, -2.0 * cfg.hopping**2 / cfg.penalty, f"ratio {cfg.ratio:.3g}")


def _hopping_pattern(cfg: ChainConfig) -> PauliSum:
    """Half the penalty-free closed-form hopping, Hermitian with its adjoint:
    matter moves across a link while the link excitation swaps ends, in both
    color channels."""
    parts = []
    for link in range(cfg.n_links):
        site, nxt = link, link + 1
        for alpha in (UP, DOWN):
            for beta in (UP, DOWN):
                b_pair = raising(cfg.b_mode(site, alpha)) * lowering(cfg.b_mode(nxt, beta))
                direct = lowering(cfg.c_mode(link, LEFT, alpha)) * raising(cfg.c_mode(link, RIGHT, beta))
                parts.append(b_pair * direct)
                # the colour conjugate: sigma_y pairs alpha and beta with 1 - alpha and 1 - beta only
                conj = raising(cfg.c_mode(link, LEFT, 1 - alpha)) * lowering(cfg.c_mode(link, RIGHT, 1 - beta))
                parts.append((_SIGMA_Y[1 - alpha] * _SIGMA_Y[beta]) * (b_pair * conj))
    return PauliSum(parts)


def _density_pattern(cfg: ChainConfig) -> PauliSum:
    """The penalty-free part of the closed-form density term: matter density
    times the density of the adjacent link ends."""
    parts = []
    for site in range(cfg.n_sites):
        ends = [cfg.c_mode(site - 1, RIGHT, spin) for spin in (UP, DOWN)] if site > 0 else []
        ends += [cfg.c_mode(site, LEFT, spin) for spin in (UP, DOWN)] if site < cfg.n_links else []
        matter = PauliSum(number(cfg.b_mode(site, spin)) for spin in (UP, DOWN))
        parts.append(matter * PauliSum(number(mode) for mode in ends))
    return PauliSum(parts)


def block_deviation(brute: EffectiveBlock, closed: EffectiveBlock, hopping: float) -> float:
    """Operator-norm difference modulo an additive constant, in units of the
    hopping strength (effective blocks are defined up to constant shifts)."""
    if brute.basis_indices.shape != closed.basis_indices.shape or np.any(
        brute.basis_indices != closed.basis_indices
    ):
        raise ValueError("blocks live on different subspaces")
    delta = brute.matrix - closed.matrix
    eigvals = np.linalg.eigvalsh((delta + delta.conj().T) / 2.0)
    centered = (eigvals[-1] + eigvals[0]) / 2.0
    return float(max(abs(eigvals[-1] - centered), abs(eigvals[0] - centered))) / abs(hopping)


@dataclass(frozen=True)
class ComparisonRow:
    ratio: float
    deviation: float
    density_norm: float


def compare_effective(cfg: ChainConfig, ratios: list[float]) -> list[ComparisonRow]:
    """Deviation sweep: the penalty scale runs over hopping / ratio while the
    mode frequency and hopping stay fixed.  What does not depend on the
    penalty is built once: the index sets, the couplings of P to Q, the Q
    rows they reach, the occupation counts of P's first state and of Q, and
    the closed forms' two Hermitian patterns.  Each ratio weights the counts
    by omega and its penalty into gaps through ``_second_order``, as
    ``effective_hamiltonian`` does, scales the two patterns and builds its
    blocks.  The closed block is the hopping block plus the density block,
    bit for bit the block of their summed operator: every hopping term flips
    bits and no density term does, so each element adds +0.0 to its value."""
    faithful = faithful_indices(cfg)
    p_idx = penalty_free_indices(cfg, faithful)
    coupled = _coupled(cfg, p_idx, faithful)
    half = _hopping_pattern(cfg)
    hopping_pattern, density_pattern = half + half.adjoint(), _density_pattern(cfg)
    del half  # no ratio reads it; kept through the loop, it raised the sweep's traced peak from 93 to 104 KB
    rows = []
    for ratio in ratios:
        scaled = replace(cfg, penalty=cfg.hopping / ratio)
        brute = _second_order(scaled, coupled)
        # both operators before either block: a block built between them raised peak RSS 0.6 MB (heap layout)
        density_op, hopping_op = _closed_form_term(scaled, density_pattern), _closed_form_term(scaled, hopping_pattern)
        density = _block(pauli.columns(density_op, p_idx, cfg.n_modes), p_idx, len(p_idx))
        closed = EffectiveBlock(_block(pauli.columns(hopping_op, p_idx, cfg.n_modes), p_idx, len(p_idx)) + density, p_idx)
        rows.append(
            ComparisonRow(
                ratio=float(ratio),
                deviation=block_deviation(brute, closed, scaled.hopping),
                density_norm=float(np.max(np.abs(np.diagonal(density)))),  # the block is diagonal
            )
        )
    return rows

