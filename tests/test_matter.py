from dataclasses import replace

import numpy as np
import pytest

from su2link import cli
from su2link import matter as mt
from su2link.errors import GuardError
from su2link.pauli import PauliString, PauliSum, dense

RATIOS = [1e-1, 1e-2, 1e-3]


# ---------------------------------------------------------------------------
# dense oracles: H0 and the color generators as Pauli sums on every mode


def link_charge(cfg, link):
    total = PauliSum()
    for mode in mt._link_modes(cfg, link):
        total = total + mt.number(mode)
    return total


def total_number(cfg):
    total = PauliSum()
    for mode in range(cfg.n_modes):
        total = total + mt.number(mode)
    return total


def h0_operator(cfg):
    """Mode frequencies plus the quadratic link-occupation penalty (diagonal)."""
    identity = PauliSum([PauliString(1.0)])
    total = cfg.omega * total_number(cfg)
    for link in range(cfg.n_links):
        excess = link_charge(cfg, link) - cfg.n0 * identity
        total = total + cfg.penalty * (excess * excess)
    return total


def su2_generator(cfg, site, sigma):
    """Color generator at a site for the color matrix ``sigma``: link
    right-end part (incoming link), the matter spin, and link left-end part
    (outgoing link)."""
    total = PauliSum()
    pieces = []
    if site > 0:
        pieces.append([cfg.c_mode(site - 1, mt.RIGHT, s) for s in (mt.UP, mt.DOWN)])
    pieces.append([cfg.b_mode(site, s) for s in (mt.UP, mt.DOWN)])
    if site < cfg.n_links:
        pieces.append([cfg.c_mode(site, mt.LEFT, s) for s in (mt.UP, mt.DOWN)])
    for modes in pieces:
        for alpha in (mt.UP, mt.DOWN):
            for beta in (mt.UP, mt.DOWN):
                coeff = sigma[alpha, beta] / 2.0
                if coeff != 0:
                    total = total + coeff * (mt.raising(modes[alpha]) * mt.lowering(modes[beta]))
    return total


def scaled_then_hermitian(half, factor):
    """The older construction of a Hermitian operator, kept as a bitwise
    oracle: scale the half first, then add its adjoint."""
    scaled = factor * half
    return scaled + scaled.adjoint()


def v_half(cfg):
    """A copy of ``v_operator``'s half: the hopping terms before their adjoint."""
    half = PauliSum()
    for site in range(cfg.n_sites):
        for alpha in (mt.UP, mt.DOWN):
            b_dag, b_low = mt.raising(cfg.b_mode(site, alpha)), mt.lowering(cfg.b_mode(site, alpha))
            if site < cfg.n_links:
                half = half + b_dag * mt.lowering(cfg.c_mode(site, mt.LEFT, alpha))
                half = half + mt._SIGMA_Y[1 - alpha] * (b_dag * mt.raising(cfg.c_mode(site, mt.LEFT, 1 - alpha)))
            if site > 0:
                half = half + mt.raising(cfg.c_mode(site - 1, mt.RIGHT, alpha)) * b_low
                half = half + mt._SIGMA_Y[alpha] * (mt.lowering(cfg.c_mode(site - 1, mt.RIGHT, 1 - alpha)) * b_low)
    return half


def hopping_pattern_by_addition(cfg):
    """``_hopping_pattern`` built the older way, adding each part to the
    running sum: a bitwise oracle of its one merge."""
    total = PauliSum()
    for link in range(cfg.n_links):
        for alpha in (mt.UP, mt.DOWN):
            for beta in (mt.UP, mt.DOWN):
                b_pair = mt.raising(cfg.b_mode(link, alpha)) * mt.lowering(cfg.b_mode(link + 1, beta))
                total = total + b_pair * (mt.lowering(cfg.c_mode(link, mt.LEFT, alpha)) * mt.raising(cfg.c_mode(link, mt.RIGHT, beta)))
                conj = mt.raising(cfg.c_mode(link, mt.LEFT, 1 - alpha)) * mt.lowering(cfg.c_mode(link, mt.RIGHT, 1 - beta))
                total = total + (mt._SIGMA_Y[1 - alpha] * mt._SIGMA_Y[beta]) * (b_pair * conj)
    return total


def density_pattern_by_addition(cfg):
    """``_density_pattern`` built the older way, adding each part to the
    running sum: a bitwise oracle of its one merge."""
    total = PauliSum()
    for site in range(cfg.n_sites):
        matter = PauliSum()
        for spin in (mt.UP, mt.DOWN):
            matter = matter + mt.number(cfg.b_mode(site, spin))
        ends = PauliSum()
        if site > 0:
            for spin in (mt.UP, mt.DOWN):
                ends = ends + mt.number(cfg.c_mode(site - 1, mt.RIGHT, spin))
        if site < cfg.n_links:
            for spin in (mt.UP, mt.DOWN):
                ends = ends + mt.number(cfg.c_mode(site, mt.LEFT, spin))
        total = total + matter * ends
    return total


def closed_form_hopping(cfg):
    """The expected effective hopping, built the older way (scaled half plus
    its adjoint); with ``closed_form_density`` it makes the summed closed-form
    operator, the oracle of ``compare_effective``'s separate hopping and
    density blocks."""
    return scaled_then_hermitian(mt._hopping_pattern(cfg), -2.0 * cfg.hopping**2 / cfg.penalty)


def closed_form_density(cfg):
    """The density-density companion term, scaled as ``compare_effective``
    scales it."""
    return mt._closed_form_term(cfg, mt._density_pattern(cfg))


@pytest.fixture(scope="module")
def cfg():
    return mt.ChainConfig()


def test_config_validation():
    with pytest.raises(ValueError):
        mt.ChainConfig(n_sites=1)
    for penalty in (0.0, float("nan")):
        with pytest.raises(ValueError, match="^penalty scale must be positive$"):
            mt.ChainConfig(penalty=penalty)
    for field in ("hopping", "omega"):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="^hopping and omega must be finite$"):
                mt.ChainConfig(**{field: value})
    # the penalty hopping / ratio overflows to inf at a subnormal ratio; the CLI reports that overflow
    assert mt.ChainConfig(penalty=float("inf")).ratio == 0.0
    for n0 in (-1, 3):
        with pytest.raises(ValueError, match="^n0 out of range"):
            mt.ChainConfig(n0=n0)
    with pytest.raises(ValueError, match="^n0 out of range"):
        mt.ChainConfig(n_sites=5, n0=3)  # ranges are checked before the memory budget
    with pytest.raises(GuardError, match="^matter chain of 26 modes needs"):
        mt.ChainConfig(n_sites=5)  # 26 modes, over the budget
    cfg = mt.ChainConfig()
    assert cfg.n_modes == 8
    assert cfg.total_excitations == 2
    assert cfg.ratio == pytest.approx(1e-3)


def test_mode_operators():
    low = dense(mt.lowering(0), 1)
    assert np.allclose(low, [[0, 1], [0, 0]])
    assert np.allclose(dense(mt.raising(0), 1), low.conj().T)
    assert np.allclose(dense(mt.number(0), 1), np.diag([0, 1]))


def test_h0_is_diagonal_with_expected_values(cfg):
    h0 = dense(h0_operator(cfg), cfg.n_modes)
    assert np.max(np.abs(h0 - np.diag(np.diag(h0)))) == 0
    diag = np.real(np.diag(h0))
    # empty chain: penalty n0^2 per link, no frequency part
    assert diag[0] == pytest.approx(cfg.penalty * cfg.n0**2 * cfg.n_links)
    # states with exactly one excitation on the link carry no penalty
    one_link = 1 << cfg.c_mode(0, mt.LEFT, mt.UP)
    assert diag[one_link] == pytest.approx(cfg.omega)
    assert np.min(diag) >= 0.0


def test_v_hermitian_and_moves_one_link_quantum(cfg):
    v = dense(mt.v_operator(cfg), cfg.n_modes)
    assert np.max(np.abs(v - v.conj().T)) < 1e-12
    charge = np.real(np.diag(dense(link_charge(cfg, 0), cfg.n_modes)))
    rows, cols = np.nonzero(np.abs(v) > 1e-12)
    assert len(rows) > 0
    assert all(abs(charge[r] - charge[c]) == 1 for r, c in zip(rows, cols))


def test_h0_plus_v_color_invariance_on_model_space(cfg, letter_matrices):
    total = dense(h0_operator(cfg) + mt.v_operator(cfg), cfg.n_modes)
    keep = mt.faithful_indices(cfg)
    for site in range(cfg.n_sites):
        for a in (1, 2, 3):
            gen = dense(su2_generator(cfg, site, letter_matrices["XYZ"[a - 1]]), cfg.n_modes)
            comm = total @ gen - gen @ total
            assert np.max(np.abs(comm[np.ix_(keep, keep)])) < 1e-10


def test_su2_generator_algebra(cfg, letter_matrices):
    epsilon = {(1, 2, 3): 1, (1, 3, 2): -1, (2, 1, 3): -1, (2, 3, 1): 1, (3, 1, 2): 1, (3, 2, 1): -1}
    for site in range(cfg.n_sites):
        gens = [dense(su2_generator(cfg, site, letter_matrices[letter]), cfg.n_modes) for letter in "XYZ"]
        for (a, b, c), sign in epsilon.items():
            comm = gens[a - 1] @ gens[b - 1] - gens[b - 1] @ gens[a - 1]
            assert np.allclose(comm, 1j * sign * gens[c - 1], atol=1e-12)


def test_penalty_free_subspace(cfg):
    p_idx = mt.penalty_free_indices(cfg, mt.faithful_indices(cfg))
    # one matter particle on 4 slots times one link excitation on 4 slots
    assert len(p_idx) == 16
    diag = np.real(np.diag(dense(h0_operator(cfg), cfg.n_modes)))
    assert np.allclose(diag[p_idx], cfg.omega * cfg.total_excitations)


def test_effective_hamiltonian_properties(cfg):
    block = mt.effective_hamiltonian(cfg)
    matrix = block.matrix
    assert np.max(np.abs(matrix - matrix.conj().T)) < 1e-12
    base_norm = np.linalg.norm(matrix, 2)
    assert base_norm > 0
    doubled = mt.effective_hamiltonian(replace(cfg, hopping=2.0))
    assert np.linalg.norm(doubled.matrix, 2) == pytest.approx(4 * base_norm, rel=1e-9)
    stiffer = mt.effective_hamiltonian(replace(cfg, penalty=2 * cfg.penalty))
    assert np.linalg.norm(stiffer.matrix, 2) == pytest.approx(base_norm / 2, rel=1e-4)


def test_effective_hamiltonian_zero_hopping(cfg):
    block = mt.effective_hamiltonian(replace(cfg, hopping=0.0))
    assert np.max(np.abs(block.matrix)) == 0.0


def test_effective_block_invariances(cfg, letter_matrices):
    block = mt.effective_hamiltonian(cfg)
    p = block.basis_indices
    for site in range(cfg.n_sites):
        for a in (1, 2, 3):
            gen = dense(su2_generator(cfg, site, letter_matrices["XYZ"[a - 1]]), cfg.n_modes)[np.ix_(p, p)]
            assert np.max(np.abs(block.matrix @ gen - gen @ block.matrix)) < 1e-9
    charge = dense(link_charge(cfg, 0), cfg.n_modes)[np.ix_(p, p)]
    assert np.max(np.abs(block.matrix @ charge - charge @ block.matrix)) < 1e-9


def test_density_term_block_diagonal_in_matter_occupation(cfg):
    density = dense(closed_form_density(cfg), cfg.n_modes)
    assert np.max(np.abs(density - np.diag(np.diag(density)))) == 0
    matter_modes = [cfg.b_mode(s, a) for s in range(cfg.n_sites) for a in (mt.UP, mt.DOWN)]
    for mode in matter_modes:
        n_op = dense(mt.number(mode), cfg.n_modes)
        assert np.max(np.abs(density @ n_op - n_op @ density)) < 1e-12


def test_closed_form_matches_brute_force_at_small_ratio(cfg):
    rows = mt.compare_effective(cfg, RATIOS)
    deviations = [r.deviation for r in rows]
    assert all(b < a for a, b in zip(deviations, deviations[1:]))
    for r in rows:
        assert r.deviation < 3 * r.ratio
    # leading behavior is linear in the ratio
    assert deviations[2] / deviations[1] == pytest.approx(0.1, rel=0.15)


def test_comparison_serialization(capsys):
    """The matter command's CSV of the default chain, twice byte for byte."""
    texts = []
    for _ in range(2):
        assert cli.main(["matter", "--ratios", "1e-2"]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].splitlines()[0] == "ratio,deviation,density_norm"


def test_memory_guards(cfg, memory_boundary):
    faithful = mt.faithful_indices(cfg)
    p_idx = mt.penalty_free_indices(cfg, faithful)
    q_idx, _ = mt._couplings(cfg, p_idx, faithful)
    # the coupling block is checked before _couplings builds it
    block = 16 * len(p_idx) * (3 * len(q_idx) + 6 * len(p_idx))
    assert memory_boundary(lambda: mt._couplings(cfg, p_idx, faithful)) == block
    assert memory_boundary(lambda: mt.ChainConfig()) == 33 * 2**8  # the index arrays over 8 modes


def test_degenerate_denominator_guard(cfg):
    # with penalty comparable to the mode splitting, pair processes land within
    # the guard band around E0
    with pytest.raises(GuardError):
        mt.effective_hamiltonian(replace(cfg, omega=500.0, penalty=1000.0))


# ---------------------------------------------------------------------------
# the index-array construction against dense 2^8 matrices at two sites


def predicate_sets(cfg):
    """(faithful, penalty-free) from a Python predicate over every basis state."""

    def occupied(index, modes):
        return sum((index >> mode) & 1 for mode in modes)

    faithful = [i for i in range(2**cfg.n_modes) if all(occupied(i, cell) <= 1 for cell in mt.color_cells(cfg))]
    charges = [[cfg.c_mode(link, side, spin) for side in (mt.LEFT, mt.RIGHT) for spin in (mt.UP, mt.DOWN)] for link in range(cfg.n_links)]
    penalty_free = [
        i for i in faithful
        if bin(i).count("1") == cfg.total_excitations and all(occupied(i, modes) == cfg.n0 for modes in charges)
    ]
    return faithful, penalty_free


CONFIGS = {
    "default": mt.ChainConfig(),
    "two-matter": mt.ChainConfig(matter_number=2, omega=0.37, penalty=23.9, hopping=0.61),
    "n0=2": mt.ChainConfig(n0=2, matter_number=0, penalty=41.3),
}


@pytest.mark.parametrize("name", CONFIGS)
def test_index_sets_match_predicates(name):
    cfg = CONFIGS[name]
    faithful, penalty_free = predicate_sets(cfg)
    assert mt.faithful_indices(cfg).tolist() == faithful
    assert mt.penalty_free_indices(cfg, mt.faithful_indices(cfg)).tolist() == penalty_free
    assert len(penalty_free) > 0


@pytest.mark.parametrize("name", CONFIGS)
def test_unperturbed_energies_match_dense_diagonal(name):
    cfg = CONFIGS[name]
    everything = np.arange(2**cfg.n_modes)
    diagonal = np.diag(dense(h0_operator(cfg), cfg.n_modes))
    energies = mt.unperturbed_energies(cfg, everything)
    assert np.max(np.abs(energies - diagonal)) <= 1e-12 * cfg.penalty
    if name == "default":  # integer coefficients: exact
        assert np.array_equal(energies, diagonal)


@pytest.mark.parametrize("name", CONFIGS)
def test_couplings_match_dense_hopping(name):
    cfg = CONFIGS[name]
    p_idx = mt.penalty_free_indices(cfg, mt.faithful_indices(cfg))
    q_idx, couplings = mt._couplings(cfg, p_idx, mt.faithful_indices(cfg))
    v = dense(mt.v_operator(cfg), cfg.n_modes)
    assert np.array_equal(couplings, v[np.ix_(q_idx, p_idx)])
    # Q is disjoint from P and holds every coupled model-space state
    rest = np.setdiff1d(mt.faithful_indices(cfg), np.union1d(p_idx, q_idx))
    assert not np.intersect1d(q_idx, p_idx).size and np.isin(q_idx, mt.faithful_indices(cfg)).all()
    assert not np.any(v[np.ix_(rest, p_idx)])
    assert not hasattr(mt, "dense")


def dense_effective_block(cfg):
    """The projector formula on dense matrices, with Q every model-space
    state outside P."""
    h0 = np.real(np.diag(dense(h0_operator(cfg), cfg.n_modes)))
    v = dense(mt.v_operator(cfg), cfg.n_modes)
    faithful, p_idx = predicate_sets(cfg)
    q_idx = np.setdiff1d(faithful, p_idx)
    couplings = v[np.ix_(q_idx, p_idx)]
    block = couplings.conj().T @ (couplings / (h0[p_idx[0]] - h0[q_idx])[:, None])
    return (block + block.conj().T) / 2.0


@pytest.mark.parametrize("name", CONFIGS)
def test_blocks_match_dense_path(name):
    cfg = CONFIGS[name]
    p_idx = mt.penalty_free_indices(cfg, mt.faithful_indices(cfg))
    assert np.max(np.abs(mt.effective_hamiltonian(cfg).matrix - dense_effective_block(cfg))) <= 1e-12
    closed = dense(closed_form_hopping(cfg) + closed_form_density(cfg), cfg.n_modes)[np.ix_(p_idx, p_idx)]
    pairs = mt.pauli.columns(closed_form_hopping(cfg) + closed_form_density(cfg), p_idx, cfg.n_modes)
    block = mt._block(pairs, p_idx, len(p_idx))
    assert np.max(np.abs(block - closed)) <= 1e-12


def test_block_is_the_dense_submatrix_bitwise():
    # rows 20-39 leave targets below the first row and above the last, drawn
    # rows leave targets between rows, and no rows leave every target out
    rng = np.random.default_rng(31)
    n = 6
    op = PauliSum(
        PauliString(complex(rng.normal(), rng.normal()), {int(q): "XYZ"[rng.integers(3)] for q in rng.choice(n, size=2, replace=False)})
        for _ in range(12)
    )
    full = dense(op, n)
    cols = np.sort(rng.choice(2**n, size=10, replace=False))
    pairs = mt.pauli.columns(op, cols, n)
    targets = np.concatenate([targets for targets, _ in pairs])
    assert targets.min() < 20 and targets.max() > 39
    for rows in (np.arange(20, 40), np.sort(rng.choice(2**n, size=9, replace=False)), np.arange(0), np.arange(2**n)):
        block = mt._block(pairs, rows, len(cols))
        assert block.shape == (len(rows), len(cols))
        assert block.tobytes() == full[np.ix_(rows, cols)].tobytes()


def test_three_sites_deviation_shrinks_with_ratio():
    rows = mt.compare_effective(mt.ChainConfig(n_sites=3), RATIOS)
    deviations = [r.deviation for r in rows]
    assert all(b < a for a, b in zip(deviations, deviations[1:]))
    assert deviations[2] / deviations[1] == pytest.approx(0.1, rel=0.15)
    assert [r.density_norm for r in rows] == pytest.approx([4 * r for r in RATIOS])


@pytest.mark.parametrize("n_sites", [2, 3])
def test_sweep_builds_index_sets_once_and_density_norm_is_the_spectral_norm(n_sites, monkeypatch):
    cfg = mt.ChainConfig(n_sites=n_sites)
    ratios = [1e-1, 5e-2, 2e-2, 1e-2, 5e-3, 2e-3, 1e-3]
    builds = {name: [] for name in ("faithful_indices", "v_operator", "_hopping_pattern", "_density_pattern")}
    for name, calls in builds.items():
        original = getattr(mt, name)
        monkeypatch.setattr(mt, name, lambda c, original=original, calls=calls: calls.append(c) or original(c))
    rows = mt.compare_effective(cfg, ratios)
    assert builds == {name: [cfg] for name in builds}
    monkeypatch.undo()
    # each ratio's row equals, bitwise, the one built afresh for that penalty
    p_idx = mt.penalty_free_indices(cfg, mt.faithful_indices(cfg))
    for ratio, row in zip(ratios, rows):
        scaled = replace(cfg, penalty=cfg.hopping / ratio)
        density = mt._block(mt.pauli.columns(closed_form_density(scaled), p_idx, cfg.n_modes), p_idx, len(p_idx))
        assert row.density_norm == float(np.linalg.norm(density, 2))
        brute = mt.effective_hamiltonian(scaled)
        closed_op = closed_form_hopping(scaled) + closed_form_density(scaled)
        closed = mt.EffectiveBlock(mt._block(mt.pauli.columns(closed_op, p_idx, cfg.n_modes), p_idx, len(p_idx)), p_idx)
        assert row.deviation == mt.block_deviation(brute, closed, cfg.hopping)


@pytest.mark.parametrize("n_sites", [2, 3, 4])
@pytest.mark.parametrize("n0", [0, 1, 2])
def test_hopping_terms_flip_bits_and_density_terms_do_not(n_sites, n0):
    # compare_effective adds the two patterns' blocks, exact when no element takes values from both
    cfg = mt.ChainConfig(n_sites=n_sites, n0=n0)
    origin = np.zeros(1, dtype=int)  # columns' targets from basis state 0 are the X masks
    hopping_masks = [int(targets[0]) for targets, _ in mt.pauli.columns(mt._hopping_pattern(cfg), origin, cfg.n_modes)]
    density_masks = [int(targets[0]) for targets, _ in mt.pauli.columns(mt._density_pattern(cfg), origin, cfg.n_modes)]
    assert hopping_masks and 0 not in hopping_masks
    assert density_masks == [0]


def test_sweep_runs_just_above_the_merge_tolerance(capsys):
    # the smallest terms in use are ratio / 4 in the closed-form hopping and hopping / 2 in V,
    # so at hopping 1 a ratio up to 4e-12 exits 3, and so does a hopping up to 2e-12
    for ratio in (1e-11, 4.1e-12):
        (row,) = mt.compare_effective(mt.ChainConfig(), [ratio])
        assert row.deviation == pytest.approx(ratio, rel=1e-6)
        assert row.density_norm == pytest.approx(2 * ratio, rel=1e-6)
    for name, argv in (("ratio 4e-12", ["--ratios", "4e-12"]), ("hopping 2e-12", ["--hopping", "2e-12"])):
        assert cli.main(["matter", *argv]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"numerical guard: {name} is too small: terms fall under the Pauli merge tolerance 1e-12\n"
    assert cli.main(["matter", "--hopping", "3e-12", "--ratios", "2"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines()[0] == "ratio,deviation,density_norm" and len(out.splitlines()) == 2


def term_bits(op):
    return [(t.key(), t.coefficient.real.hex(), t.coefficient.imag.hex()) for t in op.terms]


@pytest.mark.parametrize("hopping", [1.0, 2.5])
@pytest.mark.parametrize("n0", [0, 1, 2])
@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_hermitian_patterns_scale_to_the_older_operators_bitwise(n_sites, n0, hopping):
    # adding the adjoint before scaling doubles exactly where the older sum doubled a scaled term
    cfg = mt.ChainConfig(n_sites=n_sites, n0=n0, hopping=hopping)
    assert term_bits(mt.v_operator(cfg)) == term_bits(scaled_then_hermitian(v_half(cfg), hopping))
    half = mt._hopping_pattern(cfg)
    for ratio in (1e-1, 1e-2, 1e-3, 1e-11):
        scaled = replace(cfg, penalty=hopping / ratio)
        assert term_bits(mt._closed_form_term(scaled, half + half.adjoint())) == term_bits(closed_form_hopping(scaled))


@pytest.mark.parametrize("n0", [0, 1, 2])
@pytest.mark.parametrize("n_sites", [2, 3, 4])
def test_builders_merge_once_to_the_running_sums_bitwise(n_sites, n0):
    # every part's coefficients are dyadic, so each partial sum of the older running sum is exact
    cfg = mt.ChainConfig(n_sites=n_sites, n0=n0)
    half = v_half(cfg)
    assert term_bits(mt.v_operator(cfg)) == term_bits(cfg.hopping * (half + half.adjoint()))
    assert term_bits(mt._hopping_pattern(cfg)) == term_bits(hopping_pattern_by_addition(cfg))
    assert term_bits(mt._density_pattern(cfg)) == term_bits(density_pattern_by_addition(cfg))
