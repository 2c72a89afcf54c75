"""Orbit-stored symmetric tensors against their full-tuple twins.

``CubicalTensor.from_orbits`` keeps one value per index multiset and
evaluates F(x) through a kernel with one row per column of each orbit.
These properties check that it is the same tensor as the one built
from every index tuple: same entries, same JSON, equal and equally hashed,
the same F(x), residuals and forms (both matching an exact sum over
``entries``), and the same components and irreducibility.
"""

from __future__ import annotations

import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hypersym import (
    CubicalTensor,
    ExactComplex,
    Hypergraph,
    adjacency_tensor,
    apply,
    charpoly_tensor,
    components,
    digraph,
    eigen_residual,
    is_connected,
    is_symmetric,
    is_weakly_irreducible,
    odd_coloring,
    odd_transversal,
    polynomial_form,
)
from hypersym.tensor import _ARC_CHUNK, _orderings, parse_value

PROPERTY = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

small = st.integers(-4, 4)
halves = st.integers(-6, 6).map(lambda k: Fraction(k, 2))


@st.composite
def orbit_data(draw, real: bool | None = None):
    """(r, n, orbits) with keys in arbitrary order and some zero values."""
    r = draw(st.integers(2, 5))
    n = draw(st.integers(1, 4))
    keys = list(combinations_with_replacement(range(1, n + 1), r))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=8))
    if real is None:
        real = draw(st.booleans())
    orbits = {}
    for key in chosen:
        shuffled = tuple(draw(st.permutations(key)))
        orbits[shuffled] = ExactComplex(draw(small), 0 if real else draw(small))
    return r, n, orbits


def twins(r, n, orbits) -> tuple[CubicalTensor, CubicalTensor]:
    """The orbit-stored tensor and the same tensor built from every tuple."""
    by_orbit = CubicalTensor.from_orbits(r, n, orbits)
    full = CubicalTensor(
        r, n, [(p, v) for key, v in orbits.items() for p in set(permutations(key))]
    )
    return by_orbit, full


def vectors(n: int, real: bool):
    component = halves
    if real:
        return st.lists(component, min_size=n, max_size=n)
    pair = st.tuples(component, component).map(lambda t: ExactComplex(*t))
    return st.lists(pair, min_size=n, max_size=n)


def exact_f(a: CubicalTensor, x) -> list[ExactComplex]:
    """F(x) summed exactly over ``entries``."""
    out = [ExactComplex(0)] * a.n
    for idx, v in a.entries.items():
        term = v
        for j in idx[1:]:
            term = term * x[j - 1]
        out[idx[0] - 1] = out[idx[0] - 1] + term
    return out


def close(u, v) -> bool:
    return u == pytest.approx(v, rel=1e-12, abs=1e-9)


@PROPERTY
@given(orbit_data())
def test_same_tensor_in_both_forms(data):
    r, n, orbits = data
    by_orbit, full = twins(r, n, orbits)
    assert by_orbit == full and full == by_orbit
    assert hash(by_orbit) == hash(full)
    assert is_symmetric(by_orbit) and is_symmetric(full)
    assert len(by_orbit.entries) == len(full.entries)
    assert list(by_orbit.entries.items()) == list(full.entries.items())
    assert by_orbit.to_json_dict() == full.to_json_dict()
    for idx in full.entries:
        assert idx in by_orbit.entries
        assert by_orbit.entries[idx] == full.entries[idx] == by_orbit.entry(idx)
    assert (0,) * r not in by_orbit.entries
    assert -by_orbit == -full
    assert by_orbit.is_real() == full.is_real()
    assert by_orbit.is_nonnegative() == full.is_nonnegative()


@PROPERTY
@given(st.data())
def test_numerics_agree_and_match_exact_sum(data):
    r, n, orbits = data.draw(orbit_data())
    by_orbit, full = twins(r, n, orbits)
    real = by_orbit.is_real() and data.draw(st.booleans())
    x = data.draw(vectors(n, real))
    xc = [complex(parse_value(v)) for v in x]
    exact = [complex(v) for v in exact_f(full, [parse_value(v) for v in x])]
    assert close(apply(by_orbit, xc), exact)
    assert close(apply(full, xc), exact)

    if any(xc):
        lam = complex(data.draw(halves), data.draw(halves))
        p = r - 1
        defect = max(abs(lam * v**p - f) for v, f in zip(xc, exact))
        xinf = max(abs(v) for v in xc) ** p
        expected = defect / max(1.0, abs(lam) * xinf, xinf)
        assert close(eigen_residual(by_orbit, lam, xc), expected)
        assert close(eigen_residual(full, lam, xc), expected)

    if real:
        form = sum(
            (v.re * _prod(x, idx) for idx, v in full.entries.items()), Fraction(0)
        )
        xf = [float(v) for v in x]
        assert close(polynomial_form(by_orbit, xf), float(form))
        assert close(polynomial_form(full, xf), float(form))


def _prod(x, idx) -> Fraction:
    out = Fraction(1)
    for j in idx:
        out *= x[j - 1]
    return out


@PROPERTY
@given(orbit_data())
# an r = 2 orbit with a diagonal entry, an r = 4 orbit with a repeated index
@example((2, 3, {(1, 1): 3, (2, 1): Fraction(-1, 2), (3, 2): 2}))
@example((4, 3, {(2, 1, 2, 3): 2, (1, 1, 1, 1): Fraction(1, 3), (3, 3, 1, 3): -1}))
def test_structure_agrees(data):
    r, n, orbits = data
    by_orbit, full = twins(r, n, orbits)
    assert full._tuples() is full
    assert digraph(by_orbit) == digraph(full)
    assert is_weakly_irreducible(by_orbit) == is_weakly_irreducible(full)
    dec_o, dec_f = components(by_orbit), components(full)
    assert dec_o.isolated == dec_f.isolated
    assert [v for v, _ in dec_o.parts] == [v for v, _ in dec_f.parts]
    for (_, sub_o), (_, sub_f) in zip(dec_o.parts, dec_f.parts):
        assert sub_o == sub_f
        assert list(sub_o.entries.items()) == list(sub_f.entries.items())
    assert by_orbit.principal_submatrix(range(1, n + 1)) is by_orbit
    if by_orbit.is_real() and (r == 2 or n <= 3):  # within the exact contract
        assert charpoly_tensor(by_orbit) == charpoly_tensor(full)


@st.composite
def hypergraphs(draw):
    r = draw(st.integers(2, 5))
    n = draw(st.integers(r, 7))
    edges = draw(
        st.lists(st.sampled_from(list(combinations(range(1, n + 1), r))), max_size=12)
    )
    return Hypergraph(r, n, edges)


@PROPERTY
@given(hypergraphs())
def test_adjacency_tensor_matches_permutation_expansion(g):
    expanded = CubicalTensor(
        g.r, g.n, [(perm, 1) for edge in g.edges for perm in permutations(edge)]
    )
    a = adjacency_tensor(g)
    assert type(a) is CubicalTensor and a._arrays is g._arrays and a._by_orbit
    assert a.to_json_dict() == expanded.to_json_dict()
    assert a == expanded and hash(a) == hash(expanded)
    assert g == a and hash(g) == hash(a)
    assert len(a.entries) == factorial(g.r) * len(g.edges)
    assert is_weakly_irreducible(a) == is_weakly_irreducible(expanded)
    # the graph is its adjacency tensor: every tensor function reads it as one
    assert is_weakly_irreducible(g) == is_weakly_irreducible(expanded)
    assert odd_transversal(g) == odd_transversal(expanded)
    if g.r % 2 == 0:
        assert odd_coloring(g) == odd_coloring(expanded)
    assert ([v for v, _ in components(g).parts]
            == [v for v, _ in components(expanded).parts])
    # the inherited constructors build plain tensors, whatever their values
    orbits = {edge: 2 for edge in g.edges}
    assert type(Hypergraph.from_orbits(g.r, g.n, orbits)) is CubicalTensor
    matrix = [[1] * g.n for _ in range(g.n)]
    assert type(Hypergraph.from_matrix(matrix)) is CubicalTensor


@PROPERTY
@given(hypergraphs())
def test_connectivity_matches_two_section(g):
    nx = pytest.importorskip("networkx")
    section = nx.Graph()
    section.add_nodes_from(range(1, g.n + 1))
    for edge in g.edges:
        section.add_edges_from(combinations(edge, 2))
    assert is_connected(g) == nx.is_connected(section)


@st.composite
def orbits_in_parts(draw):
    """(r, n, orbits): multisets drawn inside the parts of a random vertex partition.

    Keys repeat indices and include loops (k, ..., k); a part may hold no
    key, so its vertices are isolated, or a path through all its vertices,
    so it is connected; several parts that hold keys make the tensor
    disconnected.
    """
    r = draw(st.integers(2, 5))
    n = draw(st.integers(1, 6))
    parts = draw(st.integers(1, 3))
    part = draw(st.lists(st.integers(0, parts - 1), min_size=n, max_size=n))
    orbits = {}
    for p in sorted(set(part)):
        vertices = [v for v in range(1, n + 1) if part[v - 1] == p]
        keys = list(combinations_with_replacement(vertices, r))
        for key in draw(st.lists(st.sampled_from(keys), max_size=4)):
            orbits[tuple(draw(st.permutations(key)))] = draw(st.integers(1, 3))
        if draw(st.booleans()):  # a path through the part: the part is connected
            for u, v in zip(vertices, vertices[1:]):
                orbits[(u,) * (r - 1) + (v,)] = 1
        if draw(st.booleans()):
            loop = draw(st.sampled_from(vertices))
            orbits[(loop,) * r] = 1
    return r, n, orbits


@PROPERTY
@example((2, 1, {}))
@example((3, 3, {(1, 1, 2): 1}))
@example((2, 2, {(1, 1): 1, (2, 2): 1}))
@given(orbits_in_parts())
def test_weak_irreducibility_agrees_across_storage_and_networkx(data):
    # orbit storage decides with one breadth-first search, tuple storage
    # with two; networkx reads the successor map
    nx = pytest.importorskip("networkx")
    r, n, orbits = data
    a = CubicalTensor.from_orbits(r, n, orbits)
    tuples = CubicalTensor(r, n, a.entries.items())
    assert a._by_orbit and not tuples._by_orbit
    g = nx.DiGraph()
    g.add_nodes_from(range(1, n + 1))
    g.add_edges_from((k, j) for k, succ in digraph(a).items() for j in succ)
    assert digraph(tuples) == digraph(a)
    assert is_weakly_irreducible(a) == is_weakly_irreducible(tuples) == nx.is_strongly_connected(g)


def _distinct_orderings(key) -> int:
    """r!/prod(m_i!) for an index multiset."""
    return factorial(len(key)) // prod(map(factorial, Counter(key).values()))


def _orbit_map(a) -> dict:
    """The orbit storage of a symmetric tensor as a ``multiset -> value`` dict."""
    keys, where, distinct = a._orbit_storage()
    return {tuple(key): distinct[w] for key, w in zip(keys.tolist(), where.tolist())}


@st.composite
def orbit_storage_inputs(draw):
    """(r, n, edges, items, expected): a Hypergraph or from_orbits input and its dict oracle.

    ``from_orbits`` gets multisets in any vertex order, repeated ones, and
    pairs that cancel to zero: either multisets with repeated indices, or
    complex values on sets of r distinct indices, whose kernel weights
    need no ordering class, as a ``Hypergraph``'s do.  ``Hypergraph``
    gets repeated edges in any vertex order, up to r = 8.  Exactly one of
    ``edges`` and ``items`` is not None.  ``expected`` maps each sorted
    multiset to its value.
    """
    kind = draw(st.sampled_from(["hypergraph", "multisets", "distinct"]))
    r = draw(st.integers(2, 5 if kind == "multisets" else 8))
    # the twin below expands every edge into r! tuples: few edges past r = 5
    most = 3 if r > 5 else 8 if kind == "multisets" else 12
    if kind == "hypergraph":
        n = draw(st.integers(r, max(7, r + 3)))
        edges = draw(st.lists(st.sampled_from(list(combinations(range(1, n + 1), r))),
                              max_size=most))
        edges += draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
        edges = [tuple(draw(st.permutations(e))) for e in draw(st.permutations(edges))]
        expected = dict.fromkeys(sorted({tuple(sorted(e)) for e in edges}), ExactComplex(1))
        return r, n, edges, None, expected
    if kind == "multisets":
        n = draw(st.integers(1, 4))
        keys = list(combinations_with_replacement(range(1, n + 1), r))
        imag = st.sampled_from([0, 0, 1, -2])
    else:
        n = draw(st.integers(r, max(7, r + 3)))
        keys = list(combinations(range(1, n + 1), r))
        imag = st.sampled_from([1, -2, 3])
    items = []
    for key in draw(st.lists(st.sampled_from(keys), max_size=most)):
        value = ExactComplex(draw(small), draw(imag))
        items.append((key, value))
        if draw(st.booleans()):  # a cancelling or a repeated value on the same multiset
            items.append((key, -value if draw(st.booleans()) else value))
    items = [(tuple(draw(st.permutations(key))), v) for key, v in draw(st.permutations(items))]
    acc: dict = {}
    for key, v in items:
        k = tuple(sorted(key))
        acc[k] = acc.get(k, ExactComplex(0)) + v
    expected = {k: acc[k] for k in sorted(acc) if acc[k]}
    return r, n, None, items, expected


@PROPERTY
@example((2, 3, [], None, {}))
@example((3, 2, None, [((2, 1, 1), 1), ((1, 1, 2), -1)], {}))
@example((8, 10, [(8, 1, 2, 3, 4, 5, 6, 7), (10, 9, 3, 4, 5, 6, 7, 8)], None,
          dict.fromkeys([(1, 2, 3, 4, 5, 6, 7, 8), (3, 4, 5, 6, 7, 8, 9, 10)], ExactComplex(1))))
@example((8, 9, None, [((9, 1, 2, 3, 4, 5, 6, 7), ExactComplex(2, -1)),
                       ((1, 2, 3, 4, 6, 7, 8, 9), ExactComplex(-3, 1))],
          {(1, 2, 3, 4, 5, 6, 7, 9): ExactComplex(2, -1),
           (1, 2, 3, 4, 6, 7, 8, 9): ExactComplex(-3, 1)}))
@given(orbit_storage_inputs())
def test_orbit_arrays_match_dict_oracle(case):
    r, n, edges, items, expected = case
    a = Hypergraph(r, n, edges) if items is None else CubicalTensor.from_orbits(r, n, items)
    keys = list(expected)
    assert a._by_orbit and is_symmetric(a)
    assert a._patterns() == tuple(keys)
    incidence = np.zeros((len(keys), n), dtype=int)
    for i, key in enumerate(keys):
        for j in key:
            incidence[i, j - 1] += 1
    assert np.array_equal(a._incidence(), incidence)

    # one row per column c of each orbit, in orbit order: head key[c], the rest its tail
    rows = [(i, key[c], key[:c] + key[c + 1:]) for i, key in enumerate(keys) for c in range(r)]
    heads, tails, k_weights = a._kernel()
    assert heads.tolist() == [k - 1 for _, k, _ in rows]
    assert tails.reshape(r - 1, -1).T.tolist() == [[j - 1 for j in tail] for *_, tail in rows]
    real = all(v.is_real for v in expected.values())
    values = [expected[keys[i]] for i, _, _ in rows]
    weights = [float(v.re) if real else complex(v) for v in values]
    # each row of an orbit weighs its value times the orbit's orderings / r
    assert k_weights.tolist() == [w * (_distinct_orderings(keys[i]) / r)
                                  for w, (i, *_) in zip(weights, rows)]
    arcs = np.zeros((n, n), dtype=bool)  # an arc from each row's head to each index of its tail
    for _, k, tail in rows:
        for j in tail:
            arcs[k - 1, j - 1] = True
    assert np.array_equal(a._arcs(), arcs)

    assert a.diagonal() == [expected.get((k,) * r, ExactComplex(0)) for k in range(1, n + 1)]
    assert len(a.entries) == sum(map(_distinct_orderings, keys))
    negated = -a
    assert negated._by_orbit and negated._patterns() == tuple(keys)
    assert negated._row_dict() == {k: -v for k, v in expected.items()}
    if n > 1:  # every other vertex, renumbered 1, 2, ...
        pos = {v: i for i, v in enumerate(range(1, n + 1, 2), start=1)}
        sub = a.principal_submatrix(list(pos))
        assert sub._by_orbit
        assert sub._row_dict() == {tuple(pos[j] for j in key): v
                                           for key, v in expected.items() if set(key) <= set(pos)}

    twin = CubicalTensor(r, n, [(p, v) for key, v in expected.items() for p in set(permutations(key))])
    assert not twin._by_orbit
    assert a == twin and twin == a and hash(a) == hash(twin)
    assert -a == -twin and hash(-a) == hash(-twin)
    assert a._row_dict() == expected == _orbit_map(twin) == _orbit_map(a)
    assert all(a.entry(p) == v for key, v in expected.items() for p in set(permutations(key)))


def test_graph_kernel_searches_no_ordering_class():
    # no index repeats in a graph's rows: each kernel row weighs (r - 1)! = 6
    g = Hypergraph(4, 6, [(1, 2, 3, 4), (2, 3, 5, 6), (1, 4, 5, 6)])
    for a in (g, adjacency_tensor(g)):
        heads, tails, weights = a._kernel()
        assert "_orbit_counts" not in a._cache
        assert heads.tolist() == [0, 1, 2, 3, 0, 3, 4, 5, 1, 2, 4, 5]
        assert weights.tolist() == [6.0] * 12


@PROPERTY
@given(st.integers(2, 8), st.integers(1, 3), st.data())
def test_orbit_counts_match_brute_force(r, n, data):
    # at most 3 vertices in up to 8 indices: most rows repeat an index
    rows = data.draw(st.lists(st.tuples(*[st.integers(1, n)] * r), min_size=1, max_size=4))
    orbits = CubicalTensor.from_orbits(r, n, [(row, 1) for row in rows])
    tuples = CubicalTensor(r, n, [(row, 1) for row in rows])
    orderings = [len(set(permutations(row))) for row in orbits._patterns()]
    for a in (orbits, tuples):  # the same patterns
        cls, counts = a._orbit_counts()
        assert [counts[c] for c in cls.tolist()] == orderings
    assert len(orbits.entries) == sum(orderings) and len(tuples.entries) == len(set(rows))


@PROPERTY
@given(st.integers(2, 6), st.integers(1, 4), st.data())
def test_orderings_are_the_distinct_permutations_in_order(r, n, data):
    rows = data.draw(st.lists(st.tuples(*[st.integers(1, n)] * r), min_size=1, max_size=3))
    a = CubicalTensor.from_orbits(r, n, [(row, 1) for row in rows])
    for key in a._patterns():
        assert list(_orderings(key)) == sorted(set(permutations(key)))
    assert list(a.entries) == sorted(set().union(*(permutations(key) for key in rows)))


def test_expansion_walks_orderings_not_r_factorial_permutations():
    # 12!/10! = 132 orderings, where permutations() would walk 12! = 479,001,600
    a = CubicalTensor.from_orbits(12, 3, {(1,) * 10 + (2, 3): 1})
    start = time.perf_counter()
    items = list(a.entries.items())
    assert time.perf_counter() - start < 1.0
    assert len(items) == len(set(items)) == len(a.entries) == 132


@pytest.mark.parametrize("r, n, rows", [(2, 400, 100_000), (4, 60, 50_000)])
@pytest.mark.parametrize("by_orbit", [True, False])
def test_arcs_span_several_chunks(by_orbit, r, n, rows):
    # Both storages span several chunks of `_ARC_CHUNK` column pairs, the
    # last one partial.  At r = 2 nearly every arc comes from one row only,
    # so a row that a chunk skips shows; r = 4 has several pairs a row.
    rng = np.random.default_rng(11)
    keys = np.unique(rng.integers(1, n + 1, size=(rows, r)), axis=0)
    if by_orbit:
        keys = np.unique(np.sort(keys, axis=1), axis=0)
        a = CubicalTensor.from_orbits(r, n, [(tuple(k), 1) for k in keys.tolist()])
        pairs = [(i, j) for i in range(r) for j in range(r) if i != j]
    else:
        a = CubicalTensor(r, n, [(tuple(k), 1) for k in keys.tolist()])
        pairs = [(0, j) for j in range(1, r)]
    assert len(keys) * len(pairs) > _ARC_CHUNK
    arcs = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        arcs[keys[:, i] - 1, keys[:, j] - 1] = True
    assert np.array_equal(a._arcs(), arcs)
