"""``sweep`` and ``gauge_sectors`` on drawn layouts against fully dense oracles.

The layouts have at most 10 qubits: one triangle, two triangles that share a
link, or two that share two links (the second closed by a link parallel to
the first's third), with dangling links that lie in no plaquette on the free
qubits, and drawn vertex labels, orientations, listing orders and qubit
numbers.  The oracles use ``pauli.dense`` and ``eigh`` only: no ``span``,
``coset``, ``restrict`` or Lanczos.  Two triangles that share only a vertex
need 12 qubits, where one dense ``eigh`` takes seconds; ``bowtie.layout``
covers them in ``test_dynamics``.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from su2link import dynamics as dyn
from su2link import linkmodel as lm
from su2link.linkmodel import Link, PlaquetteLayout
from su2link.pauli import dense

MAX_LINKS = 5  # 10 qubits
# per shape: the links' (tail, head) vertex slots, and each plaquette's links in circulation order
SHAPES = {
    "triangle": ([(0, 1), (1, 2), (2, 0)], [(0, 1, 2)]),
    "shared_link": ([(0, 1), (1, 2), (2, 0), (2, 3), (3, 1)], [(0, 1, 2), (1, 3, 4)]),
    "shared_two_links": ([(0, 1), (1, 2), (2, 0), (2, 0)], [(0, 1, 2), (0, 1, 3)]),
}
# (shape, number of dangling links): hypothesis starts from the first and shrinks towards
# it, a triangle with a dangling link, whose Casimir has X masks off the Hamiltonian's span
SHAPE_DRAWS = [
    ("triangle", 1), ("triangle", 2), ("shared_two_links", 1), ("shared_link", 0), ("shared_two_links", 0), ("triangle", 0)
]
STEPS = [3, 1]


def build_layout(ends, plaquettes, labels=range(1, 6), qubits=None, order=None) -> PlaquetteLayout:
    """Links k = 0, 1, ... with id ``L<k>`` between the vertex slots
    ``ends[k]``, named by ``labels``, on the qubit pair (qubits[2k],
    qubits[2k + 1]), listed in ``order``."""
    qubits = list(range(2 * len(ends))) if qubits is None else qubits
    links = [Link(f"L{k}", labels[a], labels[b], qubits[2 * k], qubits[2 * k + 1]) for k, (a, b) in enumerate(ends)]
    order = range(len(links)) if order is None else order
    return PlaquetteLayout(tuple(links[k] for k in order), tuple(tuple(f"L{k}" for k in plaq) for plaq in plaquettes))


@st.composite
def layouts(draw) -> PlaquetteLayout:
    name, extra = draw(st.sampled_from(SHAPE_DRAWS))
    ends, plaquettes = SHAPES[name]
    if draw(st.booleans()):  # every plaquette circulates the other way
        ends = [(b, a) for a, b in ends]
        plaquettes = [plaq[::-1] for plaq in plaquettes]
    turns = draw(st.lists(st.integers(0, 2), min_size=2, max_size=2))  # where each plaquette's listing starts
    plaquettes = [plaq[r:] + plaq[:r] for plaq, r in zip(plaquettes, turns)]
    slots = st.integers(0, 4)
    for _ in range(extra):
        ends = [*ends, draw(st.tuples(slots, slots).filter(lambda pair: pair[0] != pair[1]))]
    return build_layout(
        ends,
        plaquettes,
        draw(st.permutations(range(1, 6))),
        draw(st.permutations(range(2 * len(ends)))),
        draw(st.permutations(range(len(ends)))),
    )


# the triangle with a link that leaves it at one vertex, and with two links
# that share only a vertex off the triangle: the Casimir has X masks outside
# the span of the Hamiltonian's in both
DANGLING_LINK = build_layout([(0, 1), (1, 2), (2, 0), (2, 3)], [(0, 1, 2)], qubits=[4, 1, 7, 0, 2, 6, 3, 5])
DANGLING_PAIR = build_layout([(0, 1), (1, 2), (2, 0), (2, 3), (4, 3)], [(1, 2, 0)], labels=[5, 3, 1, 4, 2])
PHIS = st.floats(-2.5, 2.5, allow_nan=False)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(layout=layouts(), pick=st.integers(0, 2**16), phis=st.tuples(PHIS, PHIS))
@example(layout=DANGLING_LINK, pick=1, phis=(0.3, 1.1))
@example(layout=DANGLING_PAIR, pick=2, phis=(-0.7, 2.0))
def test_sweep_and_sectors_match_dense_oracles(layout, pick, phis):
    n = layout.n_qubits
    casimir = dense(lm.total_gauge_casimir(layout), n)
    hamiltonian = dense(lm.plaquette_hamiltonian(layout, 1.0), n)
    assert not casimir.imag.any() and not hamiltonian.imag.any()  # real symmetric: eigh of the real parts
    casimir, hamiltonian = casimir.real, hamiltonian.real
    values, vectors = np.linalg.eigh(casimir)
    quarters = np.round(4 * values)
    assert np.max(np.abs(4 * values - quarters)) < 1e-8
    levels, counts = np.unique(quarters, return_counts=True)
    table = lm.gauge_sectors(layout)
    assert [(s.eigenvalue, s.degeneracy) for s in table.sectors] == list(zip(levels / 4, counts.tolist()))

    # the start: the sector's projection of the lowest basis state with weight in it
    start = table.eigenvalues()[pick % len(levels)]
    sector = vectors[:, quarters == 4 * start]
    seed = np.flatnonzero(np.linalg.norm(sector, axis=1) > 1e-8)[0]
    psi0 = sector @ sector[seed]
    psi0 = psi0 / np.linalg.norm(psi0)
    energies, modes = np.linalg.eigh(hamiltonian)
    ideal = [modes @ (np.exp(-1j * energies * phi) * (modes.T @ psi0)) for phi in phis]

    # the digital states: each monomial's factor cos(c dt) - i sin(c dt) P in listing order, steps times
    digital = {(steps, phi): psi0.astype(complex) for steps in STEPS for phi in phis}
    monomials = lm.plaquette_monomials(layout, 1.0)
    for step in range(max(STEPS)):
        for monomial in monomials:
            string = dense(monomial.bare(), n)
            for (steps, phi), psi in digital.items():
                if step < steps:
                    angle = monomial.coefficient.real * phi / steps
                    digital[steps, phi] = np.cos(angle) * psi - 1j * np.sin(angle) * (string @ psi)

    def expectation(psi):
        return (psi.conj() @ casimir @ psi).real

    expected = []
    for steps in STEPS:
        for phi, out in zip(phis, ideal):
            psi = digital[steps, phi]
            expected.append([abs(psi0 @ out) ** 2, abs(out.conj() @ psi) ** 2, expectation(out), expectation(psi)])
    rows = dyn.sweep(layout, STEPS, list(phis), start)
    assert [(r.steps, r.phi) for r in rows] == [(steps, phi) for steps in STEPS for phi in phis]
    measured = [[r.overlap_initial, r.fidelity, r.gauge_ideal, r.gauge_digital] for r in rows]
    assert np.max(np.abs(np.array(measured) - expected)) < 1e-12
