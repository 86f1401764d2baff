"""Shared layouts and dense oracles for the sector and dynamics tests."""
import numpy as np
import pytest

from su2link import linkmodel as lm
from su2link.linkmodel import Link, PlaquetteLayout
from su2link.pauli import dense

# two triangles sharing link 23: 1 -> 2 -> 3 -> 1 and 2 -> 3 -> 4 -> 2, qubits 0-9
TWO_PLAQUETTE = """\
vertex 1
vertex 2
vertex 3
vertex 4
link 12 1 2 0 1
link 23 2 3 2 3
link 31 3 1 4 5
link 34 3 4 6 7
link 42 4 2 8 9
plaquette 12 23 31
plaquette 23 34 42
"""


def _triangle(first_vertex: int, qubits: tuple[int, ...]) -> tuple[tuple[Link, ...], tuple[str, ...]]:
    """Links v -> v+1 -> v+2 -> v with (position, spin) qubits taken in pairs."""
    a, b, c = first_vertex, first_vertex + 1, first_vertex + 2
    ends = [(a, b), (b, c), (c, a)]
    links = tuple(
        Link(f"{frm}{to}", frm, to, qubits[2 * k], qubits[2 * k + 1]) for k, (frm, to) in enumerate(ends)
    )
    return links, tuple(link.link_id for link in links)


@pytest.fixture(scope="session")
def layouts() -> dict[str, PlaquetteLayout]:
    first, plaq_a = _triangle(1, (0, 1, 2, 3, 4, 5))
    second, plaq_b = _triangle(11, (6, 7, 8, 9, 10, 11))
    gapped, plaq_g = _triangle(1, (0, 1, 3, 4, 5, 6))  # qubit 2 belongs to no link
    return {
        "triangle": lm.triangle_layout(),
        "two_plaquette": lm.parse_layout(TWO_PLAQUETTE),
        "disjoint_triangles": PlaquetteLayout(first + second, (plaq_a, plaq_b)),
        "unused_qubit": PlaquetteLayout(gapped, (plaq_g,)),
    }


@pytest.fixture(scope="session")
def two_plaquette(layouts) -> PlaquetteLayout:
    return layouts["two_plaquette"]


@pytest.fixture(scope="session")
def two_plaquette_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("layouts") / "two_plaquette.layout"
    path.write_text(TWO_PLAQUETTE, encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def dense_canonical_state():
    """Sector representatives from a dense eigenbasis of the Casimir: the
    normalized projection of the lowest-index basis state with weight in the
    sector.  One ``eigh`` per layout, cached for the session."""
    cache = {}

    def state(layout: PlaquetteLayout, eigenvalue: float) -> np.ndarray:
        if layout not in cache:
            casimir = dense(lm.total_gauge_casimir(layout), layout.n_qubits)
            assert not casimir.imag.any()  # real symmetric, so eigh of the real part suffices
            cache[layout] = np.linalg.eigh(casimir.real)
        eigvals, eigvecs = cache[layout]
        basis = eigvecs[:, np.abs(eigvals - eigenvalue) <= 1e-8]
        for index in range(len(basis)):
            component = basis @ basis[index].conj()
            norm = np.linalg.norm(component)
            if norm > 1e-8:
                return component / norm
        raise AssertionError(f"no sector with eigenvalue {eigenvalue}")

    return state
