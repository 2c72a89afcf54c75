"""Orbit-stored symmetric tensors against their full-tuple twins.

``CubicalTensor.from_orbits`` keeps one value per index multiset and
evaluates F(x) through a kernel with one row per distinct head of each
orbit.  These properties check that it is the same tensor as the one built
from every index tuple: same entries, same JSON, equal and equally hashed,
the same F(x), residuals and forms (both matching an exact sum over
``entries``), and the same components and irreducibility.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypersym import (
    CubicalTensor,
    ExactComplex,
    Hypergraph,
    adjacency_tensor,
    apply,
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
    xc = [complex(ExactComplex.coerce(v)) for v in x]
    exact = [complex(v) for v in exact_f(full, [ExactComplex.coerce(v) for v in x])]
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
def test_structure_agrees(data):
    r, n, orbits = data
    by_orbit, full = twins(r, n, orbits)
    assert digraph(by_orbit) == digraph(full)
    assert is_weakly_irreducible(by_orbit) == is_weakly_irreducible(full)
    dec_o, dec_f = components(by_orbit), components(full)
    assert dec_o.isolated == dec_f.isolated
    assert [v for v, _ in dec_o.parts] == [v for v, _ in dec_f.parts]
    for (_, sub_o), (_, sub_f) in zip(dec_o.parts, dec_f.parts):
        assert sub_o == sub_f
        assert list(sub_o.entries.items()) == list(sub_f.entries.items())
    assert by_orbit.principal_submatrix(range(1, n + 1)) is by_orbit


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
    assert type(a) is CubicalTensor and a._orbits is g._orbits
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
