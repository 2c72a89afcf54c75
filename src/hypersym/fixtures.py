"""Named reference objects used across tests, demos, and the CLI."""
from __future__ import annotations

from .hypergraph import Hypergraph, gen_prop4_graph, gen_prop5_graph
from .tensor import CubicalTensor

__all__ = ["FIXTURE_NAMES", "fixture"]


def h2() -> CubicalTensor:
    """2x2 symmetric matrix [[1, 1], [1, -1]]: smallest symmetric spectrum."""
    return CubicalTensor.from_matrix([[1, 1], [1, -1]])


def a1() -> CubicalTensor:
    """Non-bipartite 4x4 matrix with spectrum {1, 1, -1, -1}."""
    return CubicalTensor.from_matrix([
        [0, 1, 1, 1],
        [1, 0, 1, 1],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ])


def a2() -> CubicalTensor:
    """Bipartite 4x4 matrix cospectral with a1 (two disjoint 2-cycles)."""
    return CubicalTensor.from_matrix([
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ])


def order6() -> CubicalTensor:
    """Non-symmetric 3-index tensor on 6 vertices with a circulant support.

    Entries a_{k, k+1, k+2} = 1 (indices mod 6).  Spectral radius 1 with the
    all-ones eigenvector; the sixth roots of unity give an eigenvector to -1
    even though r is odd.
    """
    entries = []
    for k in range(6):
        entries.append(((k % 6 + 1, (k + 1) % 6 + 1, (k + 2) % 6 + 1), 1))
    return CubicalTensor(3, 6, entries)


def prop4_k1() -> Hypergraph:
    """Two-part 4-uniform family at k=1, minimum sizes (4, 4): 36 edges."""
    g, _phi = gen_prop4_graph(1, 4, 4)
    return g


def prop5_k1() -> Hypergraph:
    """Three-part 4-uniform family at k=1, minimum sizes (6, 6, 4): 420 edges."""
    g, _phi = gen_prop5_graph(1, 6, 6, 4)
    return g


def edge_r(r: int) -> Hypergraph:
    """Single r-edge on n = r vertices: spectral radius (r-1)!."""
    if not isinstance(r, int) or r < 2:
        raise ValueError(f"edge-r needs an integer r >= 2, got {r}")
    return Hypergraph(r, r, [tuple(range(1, r + 1))])


# name -> (builder, whether it takes the uniformity parameter r)
_BUILDERS = {
    "h2": (h2, False),
    "a1": (a1, False),
    "a2": (a2, False),
    "order6": (order6, False),
    "prop4-k1": (prop4_k1, False),
    "prop5-k1": (prop5_k1, False),
    "edge-r": (edge_r, True),
}
FIXTURE_NAMES = tuple(_BUILDERS)


def fixture(name: str, r: int | None = None) -> CubicalTensor | Hypergraph:
    """Build a fixture by name; ``edge-r`` takes the uniformity parameter, and no other does."""
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture name {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    build, takes_r = _BUILDERS[name]
    if not takes_r:
        if r is not None:
            raise ValueError(f"fixture {name!r} takes no r parameter")
        return build()
    if r is None:
        raise ValueError(f"fixture {name!r} needs the r parameter")
    return build(r)
