import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from su2link import linkmodel as lm
from su2link.errors import GuardError, LayoutError
from su2link.linkmodel import Link, PlaquetteLayout
from su2link.linalg import expi_hermitian
from su2link.pauli import PauliString, PauliSum, coset, dense, span

TRIANGLE_PATH = Path(__file__).parent / "data" / "triangle.layout"
EPSILON = {(1, 2, 3): 1, (1, 3, 2): -1, (2, 1, 3): -1, (2, 3, 1): 1, (3, 1, 2): 1, (3, 2, 1): -1}


@pytest.fixture(scope="module")
def layout():
    return lm.triangle_layout()


@pytest.fixture(scope="module")
def hamiltonian_dense(layout):
    return dense(lm.plaquette_hamiltonian(layout, 1.0), layout.n_qubits)


def test_gamma_letters(layout):
    assert lm.gamma(layout, "12", 0) == PauliString(1, {0: "X"})
    assert lm.gamma(layout, "12", 3) == PauliString(1, {0: "Y", 1: "Z"})
    assert lm.gamma(layout, "23", 1) == PauliString(1, {2: "Y", 3: "X"})
    with pytest.raises(LayoutError):
        lm.gamma(layout, "99", 0)
    with pytest.raises(ValueError):
        lm.gamma(layout, "12", 4)


def test_gamma_anticommutation(layout):
    g0 = dense(lm.gamma(layout, "12", 0), 2)
    gz = dense(lm.gamma(layout, "12", 3), 2)
    assert np.max(np.abs(g0 @ gz + gz @ g0)) < 1e-12


def test_left_right_matrix_elements(layout):
    left, right = lm.left_right_generators(layout, "12")
    # position qubit |0> is the head-occupied (right) state, spin |0> is up
    state = np.zeros(4)
    state[0] = 1.0
    rz = dense(right[2], 2)
    lz = dense(left[2], 2)
    assert abs(state @ rz @ state - 0.5) < 1e-12
    assert abs(state @ lz @ state) < 1e-12


def test_left_right_algebra(layout):
    n = layout.n_qubits
    for link_id in ("12", "23", "31"):
        left, right = lm.left_right_generators(layout, link_id)
        rd = [dense(g, n) for g in right]
        ld = [dense(g, n) for g in left]
        for (a, b, c), sign in EPSILON.items():
            comm = rd[a - 1] @ rd[b - 1] - rd[b - 1] @ rd[a - 1]
            assert np.allclose(comm, 1j * sign * rd[c - 1], atol=1e-12)
            comm = ld[a - 1] @ ld[b - 1] - ld[b - 1] @ ld[a - 1]
            assert np.allclose(comm, 1j * sign * ld[c - 1], atol=1e-12)
        for a in range(3):
            for b in range(3):
                comm = ld[a] @ rd[b] - rd[b] @ ld[a]
                assert np.max(np.abs(comm)) < 1e-12


def test_left_plus_right_is_spin_half(layout):
    axes = {1: "X", 2: "Y", 3: "Z"}
    for a in (1, 2, 3):
        left, right = lm.left_right_generators(layout, "23")
        total = left[a - 1] + right[a - 1]
        assert total == PauliSum([PauliString(0.5, {3: axes[a]})])


def test_link_operator_components(layout):
    u = lm.link_operator(layout, "12")
    want = PauliSum([PauliString(0.5, {0: "X"}), PauliString(0.5j, {0: "Y", 1: "Z"})])
    assert u[0][0] == want


def test_link_operator_color_commutators(layout, letter_matrices):
    n = layout.n_qubits
    sigma = [letter_matrices[l] for l in ("X", "Y", "Z")]
    for link_id in ("12", "23", "31"):
        u = [[dense(op, n) for op in row] for row in lm.link_operator(layout, link_id)]
        left, right = lm.left_right_generators(layout, link_id)
        for a in range(3):
            rd, ld = dense(right[a], n), dense(left[a], n)
            for alpha in range(2):
                for beta in range(2):
                    lhs = u[alpha][beta] @ rd - rd @ u[alpha][beta]
                    rhs = -sum(u[alpha][g] * sigma[a][g, beta] for g in range(2)) / 2
                    assert np.max(np.abs(lhs - rhs)) < 1e-12
                    lhs = u[alpha][beta] @ ld - ld @ u[alpha][beta]
                    rhs = sum(sigma[a][alpha, g] * u[g][beta] for g in range(2)) / 2
                    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_gauge_generator_incidence(layout):
    left23, _ = lm.left_right_generators(layout, "23")
    _, right12 = lm.left_right_generators(layout, "12")
    for a in (1, 2, 3):
        assert lm.gauge_generator(layout, 2, a) == right12[a - 1] + left23[a - 1]
    with pytest.raises(LayoutError):
        lm.gauge_generator(layout, 9, 1)


def test_gauge_generator_algebra(layout):
    n = layout.n_qubits
    for vertex in layout.vertices:
        gd = [dense(lm.gauge_generator(layout, vertex, a), n) for a in (1, 2, 3)]
        for (a, b, c), sign in EPSILON.items():
            comm = gd[a - 1] @ gd[b - 1] - gd[b - 1] @ gd[a - 1]
            assert np.allclose(comm, 1j * sign * gd[c - 1], atol=1e-12)


def test_hamiltonian_commutes_with_generators(layout, hamiltonian_dense):
    n = layout.n_qubits
    for vertex in layout.vertices:
        for a in (1, 2, 3):
            gd = dense(lm.gauge_generator(layout, vertex, a), n)
            assert np.max(np.abs(gd @ hamiltonian_dense - hamiltonian_dense @ gd)) < 1e-10


def test_hamiltonian_census(layout):
    ham = lm.plaquette_hamiltonian(layout, 2.0)
    terms = ham.terms
    assert len(terms) == 16
    assert Counter(t.weight for t in terms) == {3: 1, 5: 9, 6: 6}
    assert all(abs(abs(t.coefficient) - 1.0) < 1e-12 for t in terms)
    assert all(abs(t.coefficient.imag) < 1e-12 for t in terms)
    assert PauliString(-1.0, {0: "X", 2: "X", 4: "X"}) in terms


def test_hamiltonian_matches_color_trace_product(layout):
    # independent route: color trace of the product of the three link matrices
    coupling = 1.3
    u12, u23, u31 = (lm.link_operator(layout, lid) for lid in ("12", "23", "31"))
    trace = PauliSum()
    for a in range(2):
        for b in range(2):
            for c in range(2):
                trace = trace + u12[a][b] * u23[b][c] * u31[c][a]
    assert (-2 * coupling) * trace == lm.plaquette_hamiltonian(layout, coupling)


def test_hamiltonian_hermitian_traceless(layout, hamiltonian_dense):
    assert np.allclose(hamiltonian_dense, hamiltonian_dense.conj().T, atol=1e-12)
    assert abs(np.trace(hamiltonian_dense)) < 1e-12


def test_plaquette_monomials_order(layout):
    monomials = lm.plaquette_monomials(layout, 1.0)
    assert len(monomials) == 16
    assert PauliSum(monomials) == lm.plaquette_hamiltonian(layout, 1.0)
    assert monomials[0].weight == 3
    assert all(m.weight == 6 for m in monomials[1:7])
    assert all(m.weight == 5 for m in monomials[7:])


def test_open_plaquette_rejected():
    with pytest.raises(LayoutError):
        PlaquetteLayout(
            links=(Link("a", 1, 2, 0, 1), Link("b", 2, 3, 2, 3), Link("c", 1, 3, 4, 5)),
            plaquettes=(("a", "b", "c"),),
        )


def test_duplicate_qubits_rejected():
    with pytest.raises(LayoutError):
        PlaquetteLayout(links=(Link("a", 1, 2, 0, 1), Link("b", 2, 1, 1, 2)), plaquettes=())


@pytest.mark.parametrize("repeat", [("12", "23", "31"), ("23", "31", "12"), ("31", "12", "23")])
def test_repeated_plaquette_rejected(layout, repeat):
    with pytest.raises(LayoutError, match=re.escape(f"plaquette {repeat!r} repeats the links of an earlier plaquette")):
        PlaquetteLayout(layout.links, (("12", "23", "31"), repeat))


def sector_oracle():
    """Count states per total-Casimir value by enumerating which end of each
    link is occupied and coupling the spins that meet at a vertex.

    Every vertex holding one spin adds 3/4; a vertex holding two spins adds 0
    (singlet, 1 state) or 2 (triplet, 3 states); lone spins contribute their
    multiplicity.
    """
    counts = Counter()
    for occ in range(8):  # bit k: link k occupied at head (0) or tail (1)
        ends = []
        for k, (tail, head) in enumerate([(1, 2), (2, 3), (3, 1)]):
            ends.append(tail if (occ >> k) & 1 else head)
        per_vertex = Counter(ends)
        spins_at = sorted(per_vertex.values(), reverse=True)
        if spins_at == [1, 1, 1]:
            counts[3 * (3 / 4)] += 8
        else:  # one vertex holds two spins, one holds one, one holds none
            counts[0 + 3 / 4] += 2  # singlet pair x lone spin
            counts[2 + 3 / 4] += 6  # triplet pair x lone spin
    return counts


def test_gauge_sectors_guard(layout, memory_boundary):
    assert memory_boundary(lambda: lm.gauge_sectors(layout)) == 16 * 2**6  # one complex state
    # five disjoint triangles: 15 links, 30 qubits, refused before counting 2^15 configurations
    links = tuple(
        Link(f"{t}{k}", 10 * t + a, 10 * t + b, 6 * t + 2 * k, 6 * t + 2 * k + 1)
        for t in range(5) for k, (a, b) in enumerate([(1, 2), (2, 3), (3, 1)])
    )
    with pytest.raises(GuardError, match="^sector table on 30 qubits needs an estimated 17179869184 bytes"):
        lm.gauge_sectors(PlaquetteLayout(links, ()))


def test_gauge_sectors(layout, sector_basis):
    table = lm.gauge_sectors(layout)
    got = {round(s.eigenvalue, 9): s.degeneracy for s in table.sectors}
    assert got == {0.75: 12, 2.25: 16, 2.75: 36}
    assert sum(s.degeneracy for s in table.sectors) == 64
    oracle = {round(k, 9): v for k, v in sector_oracle().items()}
    assert got == oracle

    casimir = dense(lm.total_gauge_casimir(layout), layout.n_qubits)
    for sector in table.sectors:
        basis = sector_basis(table, sector.eigenvalue)
        gram = basis.conj().T @ basis
        assert np.allclose(gram, np.eye(sector.degeneracy), atol=1e-10)
        resid = casimir @ basis - sector.eigenvalue * basis
        assert np.max(np.abs(resid)) < 1e-9


def test_sectors_block_diagonalize_hamiltonian(layout, hamiltonian_dense, sector_basis):
    table = lm.gauge_sectors(layout)
    bases = [sector_basis(table, s.eigenvalue) for s in table.sectors]
    for i, bi in enumerate(bases):
        for j, bj in enumerate(bases):
            if i != j:
                block = bi.conj().T @ hamiltonian_dense @ bj
                assert np.max(np.abs(block)) < 1e-9


def test_canonical_sector_states(layout):
    table = lm.gauge_sectors(layout)
    casimir = dense(lm.total_gauge_casimir(layout), layout.n_qubits)
    for ev in (0.75, 2.25, 2.75):
        psi = lm.canonical_sector_state(table, ev)
        assert abs(np.linalg.norm(psi) - 1) < 1e-12
        assert np.linalg.norm(casimir @ psi - ev * psi) < 1e-9
    # the 9/4 representative is the lowest computational basis state outright
    psi = lm.canonical_sector_state(table, 2.25)
    assert abs(abs(psi[0]) - 1) < 1e-12


def position_block_table(layout):
    """Dense oracle for the sector table: eigh of the Casimir in each position
    configuration.  Every Casimir term acts on a position qubit with Z or not
    at all, so fixing the position bits leaves a dense matrix on the other
    qubits; its eigenvalues are rounded to 8 digits and counted."""
    positions = [link.pos_qubit for link in layout.links]
    others = [q for q in range(layout.n_qubits) if q not in positions]
    terms = lm.total_gauge_casimir(layout).terms
    counts = Counter()
    for config in range(2 ** len(positions)):
        bits = {q: (config >> i) & 1 for i, q in enumerate(positions)}
        reduced = []
        for term in terms:
            assert all(dict(term.key())[q] == "Z" for q in term.support if q in bits)
            sign = np.prod([1 - 2 * bits[q] for q in term.support if q in bits])
            letters = {others.index(q): letter for q, letter in term.key() if q not in bits}
            reduced.append(PauliString(sign * term.coefficient, letters))
        block = dense(PauliSum(reduced), len(others))
        counts.update(np.round(np.linalg.eigvalsh(block), 8).tolist())
    return dict(sorted(counts.items()))


@pytest.mark.parametrize("name", ["triangle", "two_plaquette", "disjoint_triangles", "unused_qubit"])
def test_counted_table_matches_dense_eigh(layouts, name):
    layout = layouts[name]
    table = lm.gauge_sectors(layout)
    counted = {round(s.eigenvalue, 8): s.degeneracy for s in table.sectors}
    assert counted == position_block_table(layout)
    assert sum(counted.values()) == 2**layout.n_qubits
    assert table.eigenvalues() == sorted(table.eigenvalues())
    if name == "two_plaquette":
        assert counted == {0.75: 36, 2.25: 176, 2.75: 192, 3.75: 8, 4.25: 240, 4.75: 252, 5.25: 96, 5.75: 24}
    if name == "unused_qubit":
        assert counted == {0.75: 24, 2.25: 32, 2.75: 72}


@pytest.mark.parametrize("name", ["triangle", "two_plaquette"])
def test_canonical_sector_state_matches_dense_basis(layouts, dense_canonical_state, name):
    layout = layouts[name]
    table = lm.gauge_sectors(layout)
    for eigenvalue in table.eigenvalues():
        expected = dense_canonical_state(layout, eigenvalue)
        assert np.max(np.abs(lm.canonical_sector_state(table, eigenvalue) - expected)) < 1e-12


@pytest.mark.parametrize("name", ["triangle", "two_plaquette", "strip3", "bowtie", "dangling_link"])
def test_canonical_sector_state_matches_full_register_oracle(
    layouts, strip3, off_span_layouts, full_register_sector_state, name
):
    layout = {**layouts, **off_span_layouts, "strip3": strip3}[name]
    table = lm.gauge_sectors(layout)
    for eigenvalue in table.eigenvalues():
        expected = full_register_sector_state(table, eigenvalue)
        assert np.max(np.abs(lm.canonical_sector_state(table, eigenvalue) - expected)) < 1e-12


def test_canonical_sector_state_holds_only_its_output(strip4, traced_peak):
    # the 18-qubit output is 4 MiB; the projection runs on a coset of at most 2^9 rows
    table = lm.gauge_sectors(strip4)
    psi, peak = traced_peak(lambda: lm.canonical_sector_state(table, 0.75))
    assert peak < 8 * 2**20
    assert np.count_nonzero(psi) == 24 and abs(np.linalg.norm(psi) - 1) < 1e-12


@pytest.mark.parametrize(
    "name", ["triangle", "two_plaquette", "disjoint_triangles", "unused_qubit", "bowtie", "dangling_link"]
)
def test_sector_projection_stays_on_the_seeds_cosets(layouts, off_span_layouts, name):
    # on the first four layouts the Casimir's X masks lie in the span of H's,
    # so projecting on the seed's coset of that span is exact; on the last two
    # they do not, and the span of both, which sweep() uses, holds them
    layout = {**layouts, **off_span_layouts}[name]
    table = lm.gauge_sectors(layout)
    casimir = lm.total_gauge_casimir(layout)
    hamiltonian = lm.plaquette_hamiltonian(layout, 1.0)
    basis = span([hamiltonian, casimir] if name in off_span_layouts else [hamiltonian])
    for eigenvalue in table.eigenvalues():
        full = lm.canonical_sector_state(table, eigenvalue)
        seed = lm.sector_seed(table, eigenvalue)
        assert np.flatnonzero(abs(full) > 1e-12)[0] == seed  # no weight on a lower basis state
        rows, apply_casimir, on_rows = lm.sector_on_coset(table, eigenvalue, casimir, basis)
        assert np.array_equal(rows, coset(basis, seed))
        assert np.max(np.abs(apply_casimir(on_rows) - eigenvalue * on_rows)) < 1e-12
        assert np.max(np.abs(on_rows - full[rows])) < 1e-15
        assert not np.delete(full, rows).any()


def test_covariance_identity_angles(layout):
    angles = {v: (0.0, 0.0, 0.0) for v in layout.vertices}
    assert lm.gauge_covariance_check(layout, "12", angles) < 1e-12


def test_covariance_random_angles(layout):
    rng = np.random.default_rng(42)
    for _ in range(10):
        angles = {v: tuple(rng.uniform(-np.pi, np.pi, 3)) for v in layout.vertices}
        for link_id in ("12", "23", "31"):
            assert lm.gauge_covariance_check(layout, link_id, angles) < 1e-9


@pytest.mark.parametrize("name", ["triangle", "unused_qubit"])
def test_covariance_deviations_match_per_link_checks(layouts, name):
    layout = layouts[name]
    rng = np.random.default_rng(12)
    angle_sets = [{v: tuple(rng.uniform(-np.pi, np.pi, 3)) for v in layout.vertices} for _ in range(2)]
    results = lm.gauge_covariance_deviations(layout, angle_sets)
    assert len(results) == 2
    for angles, deviations in zip(angle_sets, results):
        assert list(deviations) == [link.link_id for link in layout.links]
        assert deviations == {link.link_id: lm.gauge_covariance_check(layout, link.link_id, angles) for link in layout.links}
        assert max(deviations.values()) < 1e-9


def full_register_covariance(layout, angles, link_ids, letter_matrices):
    """Oracle for the per-link check: the dense exponential of every gauge
    generator on the whole register, and each link operator as a dense 2^n
    matrix conjugated by it."""
    n = layout.n_qubits
    generator = PauliSum()
    for vertex in layout.vertices:
        for a in (1, 2, 3):
            generator = generator + angles[vertex][a - 1] * lm.gauge_generator(layout, vertex, a)
    transform = expi_hermitian(dense(generator, n), scale=-1.0)
    sigma = [letter_matrices[letter] for letter in "XYZ"]
    out = {}
    for link_id in link_ids:
        link = layout.link(link_id)
        rot_from = expi_hermitian(sum(angles[link.frm][a] * sigma[a] for a in range(3)) / 2.0)
        rot_to = expi_hermitian(sum(angles[link.to][a] * sigma[a] for a in range(3)) / 2.0, scale=-1.0)
        u = [[dense(op, n) for op in row] for row in lm.link_operator(layout, link_id)]
        worst = 0.0
        for alpha in range(2):
            for beta in range(2):
                lhs = transform @ u[alpha][beta] @ transform.conj().T
                rhs = sum(rot_from[alpha, g] * rot_to[d, beta] * u[g][d] for g in range(2) for d in range(2))
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        out[link_id] = worst
    return out


# two_plaquette's 1024-dim oracle costs about a second per link, so it checks
# only link 23, the one both plaquettes share
ORACLE_LINKS = {"triangle": ("12", "23", "31"), "unused_qubit": ("12", "23", "31"), "two_plaquette": ("23",)}


@pytest.mark.parametrize("swap", [False, True], ids=["generators", "swapped-generators"])
@pytest.mark.parametrize("name", sorted(ORACLE_LINKS))
def test_covariance_matches_full_register_oracle(layouts, letter_matrices, monkeypatch, name, swap):
    """The per-link check against the full register, with the true generators
    (roundoff on both sides) and with L and R swapped, where both must report
    the same nonzero deviation."""
    layout = layouts[name]
    if swap:
        original = lm.left_right_generators
        monkeypatch.setattr(lm, "left_right_generators", lambda lay, link_id: original(lay, link_id)[::-1])
    rng = np.random.default_rng(99 + swap)
    for _ in range(1 if name == "two_plaquette" else 3):
        angles = {v: tuple(rng.uniform(-np.pi, np.pi, 3)) for v in layout.vertices}
        oracle = full_register_covariance(layout, angles, ORACLE_LINKS[name], letter_matrices)
        local = lm.gauge_covariance_deviations(layout, [angles])[0]
        for link_id, expected in oracle.items():
            assert abs(local[link_id] - expected) <= 1e-12
            assert (local[link_id] > 0.1) if swap else (local[link_id] < 1e-12)


def test_covariance_untouched_link(layout):
    angles = {1: (0.0, 0.0, 0.0), 2: (0.0, 0.0, 0.0), 3: (0.7, -0.2, 1.1)}
    # vertex 3 does not touch link 12
    assert lm.gauge_covariance_check(layout, "12", angles) < 1e-12
    angles_missing = {1: (0.0, 0.0, 0.0)}
    with pytest.raises(ValueError):
        lm.gauge_covariance_check(layout, "12", angles_missing)


def test_layout_round_trip(layout):
    # the layout file that README prints
    assert lm.parse_layout(TRIANGLE_PATH.read_text(encoding="utf-8")) == layout
    with pytest.raises(LayoutError):
        lm.parse_layout("link only 1 2\n")
    with pytest.raises(LayoutError):
        lm.parse_layout("")
    with pytest.raises(LayoutError):
        lm.parse_layout("vertex 1\nlink 12 1 2 0 1\n")  # vertex 2 undeclared


def gauge_generators_by_addition(layout):
    """``_gauge_generators`` built the older way, adding each link's
    generators to running sums: a bitwise oracle of its one merge per generator."""
    total = {(vertex, a): PauliSum() for vertex in layout.vertices for a in (1, 2, 3)}
    for link in layout.links:
        left, right = lm.left_right_generators(layout, link.link_id)
        for a in (1, 2, 3):
            total[link.to, a] = total[link.to, a] + right[a - 1]
            total[link.frm, a] = total[link.frm, a] + left[a - 1]
    return total


def term_bits(op):
    return [(t.key(), t.coefficient.real.hex(), t.coefficient.imag.hex()) for t in op.terms]


@pytest.mark.parametrize("name", ["triangle", "bowtie", "dangling_link", "strip3", "strip4"])
def test_gauge_operators_merge_once_to_the_running_sums_bitwise(name):
    layout = lm.parse_layout((Path(__file__).parent / "data" / f"{name}.layout").read_text(encoding="utf-8"))
    expected = gauge_generators_by_addition(layout)
    for (vertex, a), generator in expected.items():
        assert term_bits(lm.gauge_generator(layout, vertex, a)) == term_bits(generator)
    squares = [t for g in expected.values() for t in (g * g).terms]
    assert term_bits(lm.total_gauge_casimir(layout)) == term_bits(PauliSum(squares))
