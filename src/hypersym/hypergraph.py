"""Uniform hypergraphs, adjacency tensors, and two parity-separating families.

An r-graph has edges that are r-element vertex subsets.  Its adjacency
tensor places 1 at every permutation of every edge, so graph-level parity
questions coincide with the tensor-level ones.  A Hypergraph is that
tensor, stored by orbit: its edges are the sorted rows of one int64 array,
each with the value 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, repeat
from typing import Iterable, Sequence

import numpy as np

from .parity import OddColoring
from .tensor import (CubicalTensor, ExactComplex, _check_shape, _index_array, _unique_rows,
                     is_weakly_irreducible)

__all__ = [
    "Hypergraph", "adjacency_tensor", "is_connected",
    "gen_prop4_graph", "gen_prop5_graph",
    "WeakColoring", "SearchBudgetExceeded", "chromatic_number",
]


_ONE = ExactComplex(1)  # immutable, so every graph shares it


class Hypergraph(CubicalTensor):
    """r-uniform hypergraph on vertices 1..n: its adjacency tensor, value 1 per edge orbit.

    Every tensor function reads a graph directly, and a graph compares and
    hashes equal to its adjacency tensor.  A graph adds only its
    constructor, its ``"edges"`` JSON schema, ``edges`` and ``degree``.
    """

    __slots__ = ()

    def __init__(self, r: int, n: int, edges: Iterable[Sequence[int]] = ()):
        _check_shape(r, n)
        edges = list(edges)
        rows = _index_array(r, n, edges, _edge_fault)
        if not (rows[:, 1:] > rows[:, :-1]).all():  # hypersym writes each edge sorted
            rows = np.sort(rows, axis=1)
            if (rows[:, 1:] == rows[:, :-1]).any():  # a repeated vertex
                _edge_fault(edges, r, n)
        rows = _unique_rows(rows, n, return_inverse=False)[0]
        ones = [_ONE] if len(rows) else []
        self._set(r, n, (rows, np.zeros(len(rows), dtype=np.intp), ones), True)

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        return self._patterns()

    def __repr__(self) -> str:
        return f"Hypergraph(r={self.r}, n={self.n}, edges={len(self._arrays[0])})"

    def degree(self, v: int) -> int:
        # type(v) is int, not isinstance: a bool is not a vertex
        if type(v) is not int or not 1 <= v <= self.n:
            raise ValueError(f"vertex {v!r} out of range 1..{self.n}")
        return int(np.count_nonzero(self._arrays[0] == v))

    def to_json_dict(self) -> dict:
        return {"r": self.r, "n": self.n, "edges": self._arrays[0].tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Hypergraph":
        try:
            r, n, edges = data["r"], data["n"], data["edges"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"hypergraph JSON must have keys r, n, edges: {exc}") from exc
        if not isinstance(edges, list) or not all(map(isinstance, edges, repeat(list))):
            raise ValueError("hypergraph JSON 'edges' must be a list of vertex lists")
        return cls(r, n, edges)


def _edge_fault(edges: list, r: int, n: int) -> None:
    """Raise on the first edge with a vertex not in 1..n, or without r distinct vertices."""
    for edge in edges:
        for v in edge:  # before the set, which needs hashable vertices
            # type(v) is int, not isinstance: a bool is not a vertex
            if type(v) is not int or not 1 <= v <= n:
                raise ValueError(f"vertex {v!r} out of range 1..{n} in edge {tuple(edge)}")
        if len(tuple(edge)) != r or len(set(edge)) != r:
            raise ValueError(f"edge {tuple(edge)} must have {r} distinct vertices")


def adjacency_tensor(g: Hypergraph) -> CubicalTensor:
    """Symmetric 0/1 tensor with value 1 at every permutation of every edge."""
    # a plain CubicalTensor on the graph's arrays, so its JSON has "entries"
    return CubicalTensor._stored(g.r, g.n, g._arrays, True)


def is_connected(g: Hypergraph) -> bool:
    """Connectivity of the co-edge (2-section) graph on [n]."""
    return is_weakly_irreducible(g)


# ---------------------------------------------------------------------------
# parity-separating families
# ---------------------------------------------------------------------------

def gen_prop4_graph(k: int, size_a: int, size_b: int) -> tuple[Hypergraph, OddColoring]:
    """Two-part 4k-uniform family: odd-colorable but with no odd transversal.

    Vertices split into A (size_a) and B (size_b); the edges are exactly the
    4k-sets with 2k vertices in each side.  Every edge meets the returned
    coloring (0 on A, 1 on B) with residue sum 2k == r/2 (mod r), while
    |edge intersect X| = |X cap A| + |X cap B| pairs up evenly for any X, so
    no odd transversal exists.  Requires size_a, size_b >= 4k.
    """
    if type(k) is not int or k < 1:  # a bool is not a k
        raise ValueError(f"k must be a positive integer, got {k}")
    r = 4 * k
    if size_a < r or size_b < r:
        raise ValueError(
            f"need size_a >= {r} and size_b >= {r} (order n >= {2 * r}), "
            f"got ({size_a}, {size_b})")
    side_a = range(1, size_a + 1)
    side_b = range(size_a + 1, size_a + size_b + 1)
    edges = [ea + eb
             for ea in combinations(side_a, 2 * k)
             for eb in combinations(side_b, 2 * k)]
    g = Hypergraph(r, size_a + size_b, edges)
    phi = OddColoring(r=r, phi=tuple(0 if v <= size_a else 1
                                     for v in range(1, g.n + 1)))
    return g, phi


def gen_prop5_graph(k: int, size_a: int, size_b: int,
                    size_c: int) -> tuple[Hypergraph, OddColoring]:
    """Three-part 4k-uniform family: odd-colorable, 3-chromatic, no odd transversal.

    Vertices split into A, B, C; edges are the 4k-sets of shape
    (2k in A, 2k in C), (2k in B, 2k in C), (k in A, 3k in B) or
    (3k in A, k in B).  The returned coloring is 1 on A, 4k-1 on B, 0 on C.
    Requires size_a, size_b >= 6k and size_c >= 4k.
    """
    if type(k) is not int or k < 1:  # a bool is not a k
        raise ValueError(f"k must be a positive integer, got {k}")
    r = 4 * k
    if size_a < 6 * k or size_b < 6 * k or size_c < 4 * k:
        raise ValueError(
            f"need size_a, size_b >= {6 * k} and size_c >= {4 * k}, "
            f"got ({size_a}, {size_b}, {size_c})")
    side_a = range(1, size_a + 1)
    side_b = range(size_a + 1, size_a + size_b + 1)
    side_c = range(size_a + size_b + 1, size_a + size_b + size_c + 1)
    edges = []
    edges += [ea + ec for ea in combinations(side_a, 2 * k)
              for ec in combinations(side_c, 2 * k)]
    edges += [eb + ec for eb in combinations(side_b, 2 * k)
              for ec in combinations(side_c, 2 * k)]
    edges += [ea + eb for ea in combinations(side_a, k)
              for eb in combinations(side_b, 3 * k)]
    edges += [ea + eb for ea in combinations(side_a, 3 * k)
              for eb in combinations(side_b, k)]
    g = Hypergraph(r, size_a + size_b + size_c, edges)

    def residue(v: int) -> int:
        if v <= size_a:
            return 1
        if v <= size_a + size_b:
            return r - 1
        return 0

    phi = OddColoring(r=r, phi=tuple(residue(v) for v in range(1, g.n + 1)))
    return g, phi


# ---------------------------------------------------------------------------
# weak chromatic number
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeakColoring:
    """Partition witness: assignment[v-1] is the class (1..k) of vertex v."""
    k: int
    assignment: tuple[int, ...]


class SearchBudgetExceeded(RuntimeError):
    """The backtracking search used up its node budget before deciding."""


def chromatic_number(g: Hypergraph, max_k: int,
                     node_budget: int = 10_000_000) -> WeakColoring | None:
    """Smallest k <= max_k admitting a weak coloring, or None beyond max_k.

    A weak coloring forbids monochromatic edges.  The search assigns vertices
    in degree-descending order, breaks class symmetry (a vertex may open at
    most one new class), and is exhaustive, so k-infeasible answers are
    refutations.  Raises SearchBudgetExceeded if the node budget runs out.
    """
    # type(...) is int, not isinstance: a bool is not a count
    if type(max_k) is not int or max_k < 1:
        raise ValueError(f"max_k must be an integer >= 1, got {max_k!r}")
    if type(node_budget) is not int:
        raise ValueError(f"node_budget must be an integer, got {node_budget!r}")
    # an edge's vertices are distinct, so a vertex's count in the rows is its degree
    degrees = np.bincount(g._arrays[0].ravel(), minlength=g.n + 1).tolist()
    order = sorted(range(1, g.n + 1), key=lambda v: (-degrees[v], v))
    edge_lists = [list(e) for e in g.edges]
    incident: dict[int, list[int]] = {v: [] for v in range(1, g.n + 1)}
    for ei, e in enumerate(edge_lists):
        for v in e:
            incident[v].append(ei)
    budget = [node_budget]

    for k in range(1, max_k + 1):
        assignment = _search_weak_coloring(g, k, order, edge_lists, incident, budget)
        if assignment is not None:
            return WeakColoring(k=k, assignment=assignment)
    return None


def _search_weak_coloring(g, k, order, edge_lists, incident, budget):
    color = [0] * (g.n + 1)  # 0 = unassigned
    n_colored = [0] * len(edge_lists)
    first_color = [0] * len(edge_lists)
    mixed = [False] * len(edge_lists)

    def place(v: int, c: int) -> tuple[bool, list[int]]:
        became_mixed = []
        ok = True
        for ei in incident[v]:
            n_colored[ei] += 1
            if n_colored[ei] == 1:
                first_color[ei] = c
            elif not mixed[ei]:
                if c != first_color[ei]:
                    mixed[ei] = True
                    became_mixed.append(ei)
                elif n_colored[ei] == len(edge_lists[ei]):
                    ok = False  # fully colored and monochromatic
        return ok, became_mixed

    def unplace(v: int, became_mixed: list[int]) -> None:
        for ei in incident[v]:
            n_colored[ei] -= 1
        for ei in became_mixed:
            mixed[ei] = False

    # an explicit stack, one frame per placed vertex of ``order``: the
    # max_used before it, its color and the edges it made mixed.  Colors are
    # tried in the order, and nodes charged to the budget, of a depth-first
    # recursion, which would overflow the call stack on a long ``order``.
    stack: list[tuple[int, int, list[int]]] = []
    max_used, c = 0, 0  # c: the last color tried at position len(stack), 0 on entry
    while True:
        if c == 0:
            if len(stack) == len(order):
                return tuple(color[1:])
            if budget[0] <= 0:
                raise SearchBudgetExceeded(
                    f"weak-coloring search exhausted its node budget at k={k}")
            budget[0] -= 1
        v = order[len(stack)]
        while c < min(k, max_used + 1):
            c += 1
            ok, became_mixed = place(v, c)
            if ok:
                color[v] = c
                stack.append((max_used, c, became_mixed))
                max_used, c = max(max_used, c), 0
                break
            unplace(v, became_mixed)
        else:  # every color failed here: undo the vertex before
            if not stack:
                return None
            max_used, c, became_mixed = stack.pop()
            v = order[len(stack)]
            color[v] = 0
            unplace(v, became_mixed)
