"""Uniform hypergraphs, adjacency tensors, generator families, weak coloring."""

from __future__ import annotations

from itertools import permutations
from math import comb, factorial

import pytest

import hypersym as hs
from hypersym import (
    ColoringInfeasible,
    Hypergraph,
    OddColoring,
    SearchBudgetExceeded,
    TransversalInfeasible,
    WeakColoring,
    adjacency_tensor,
    chromatic_number,
    gen_prop4_graph,
    gen_prop5_graph,
    is_connected,
    is_weakly_irreducible,
    odd_coloring,
    odd_transversal,
    verify_certificate,
)

from conftest import random_hypergraph


def assert_weak_coloring_proper(g: Hypergraph, w: WeakColoring) -> None:
    assert len(w.assignment) == g.n
    assert all(1 <= c <= w.k for c in w.assignment)
    for e in g.edges:
        assert len({w.assignment[v - 1] for v in e}) > 1, f"monochromatic edge {e}"


class TestHypergraph:
    def test_canonicalization(self):
        g = Hypergraph(3, 4, [(3, 2, 1), (1, 2, 3), (2, 3, 4)])
        assert g.edges == ((1, 2, 3), (2, 3, 4))

    def test_validation(self):
        with pytest.raises(ValueError):
            Hypergraph(3, 4, [(1, 2)])
        with pytest.raises(ValueError):
            Hypergraph(3, 4, [(1, 2, 2)])
        with pytest.raises(ValueError):
            Hypergraph(3, 4, [(1, 2, 5)])
        with pytest.raises(ValueError):
            Hypergraph(1, 4, [])
        # vertices are type-checked before sorting: no TypeError from "<"
        for edge in (("1", 2), (1, [2]), (None, 1), (True, 2), (1.0, 2)):
            with pytest.raises(ValueError, match="out of range"):
                Hypergraph(2, 3, [edge])

    def test_graph_is_its_adjacency_tensor(self):
        g = Hypergraph(3, 4, [(1, 2, 3), (2, 3, 4)])
        assert isinstance(g, hs.CubicalTensor) and g._entries is None
        assert set(g._orbits.values()) == {hs.ExactComplex(1)}
        assert repr(g) == "Hypergraph(r=3, n=4, edges=2)"
        assert g == adjacency_tensor(g) and hash(g) == hash(adjacency_tensor(g))
        assert g.to_json_dict() == {"r": 3, "n": 4, "edges": [[1, 2, 3], [2, 3, 4]]}
        assert "entries" in adjacency_tensor(g).to_json_dict()
        with pytest.raises(AttributeError, match="Hypergraph is immutable"):
            g.r = 4

    def test_degree(self):
        g = Hypergraph(3, 4, [(1, 2, 3), (2, 3, 4)])
        assert [g.degree(v) for v in (1, 2, 3, 4)] == [1, 2, 2, 1]

    def test_json_round_trip(self):
        g = Hypergraph(4, 6, [(1, 2, 3, 4), (3, 4, 5, 6)])
        assert Hypergraph.from_json_dict(g.to_json_dict()) == g


class TestAdjacencyTensor:
    def test_single_edge_all_permutations(self):
        g = Hypergraph(3, 3, [(1, 2, 3)])
        a = adjacency_tensor(g)
        assert len(a.entries) == factorial(3)
        for p in permutations((1, 2, 3)):
            assert complex(a.entry(p)) == 1

    def test_entry_count_scales_with_edges(self):
        g = Hypergraph(4, 6, [(1, 2, 3, 4), (2, 3, 4, 5), (3, 4, 5, 6)])
        a = adjacency_tensor(g)
        assert len(a.entries) == 3 * factorial(4)
        assert hs.is_symmetric(a) and a.is_nonnegative()

    def test_connectivity_matches_weak_irreducibility(self, rng):
        for _ in range(25):
            n, r = rng.choice([(5, 2), (6, 3), (6, 4), (8, 3)])
            g = random_hypergraph(rng, n, r, density=rng.choice([0.05, 0.15, 0.4]))
            assert is_connected(g) == is_weakly_irreducible(adjacency_tensor(g))

    def test_edgeless_graph_disconnected(self):
        assert not is_connected(Hypergraph(3, 3, []))
        assert is_connected(Hypergraph(3, 3, [(1, 2, 3)]))


class TestTwoPartFamily:
    @pytest.mark.parametrize("k,a,b", [(1, 4, 4), (1, 5, 4), (2, 8, 9)])
    def test_edge_count_formula(self, k, a, b):
        g, phi = gen_prop4_graph(k, a, b)
        assert g.r == 4 * k and g.n == a + b
        assert len(g.edges) == comb(a, 2 * k) * comb(b, 2 * k)
        verify_certificate(g, phi)

    def test_colorable_but_no_transversal(self):
        g, _ = gen_prop4_graph(1, 4, 4)
        assert isinstance(odd_coloring(g), OddColoring)
        miss = odd_transversal(g)
        assert isinstance(miss, TransversalInfeasible)
        assert miss.pattern_indices

    def test_witness_structure(self):
        g, phi = gen_prop4_graph(1, 4, 4)
        assert phi.r == g.r
        assert set(phi.phi) == {0, 1}
        assert phi.phi.count(1) == 4

    def test_size_preconditions(self):
        with pytest.raises(ValueError):
            gen_prop4_graph(1, 3, 4)
        with pytest.raises(ValueError):
            gen_prop4_graph(2, 8, 7)
        with pytest.raises(ValueError):
            gen_prop4_graph(0, 4, 4)

    def test_weak_chromatic_number_two(self):
        g, _ = gen_prop4_graph(1, 4, 4)
        w = chromatic_number(g, 4)
        assert w is not None and w.k == 2
        assert_weak_coloring_proper(g, w)


class TestThreePartFamily:
    @pytest.mark.parametrize("k,a,b,c", [(1, 6, 6, 4), (1, 7, 6, 5)])
    def test_edge_count_formula(self, k, a, b, c):
        g, phi = gen_prop5_graph(k, a, b, c)
        assert g.r == 4 * k and g.n == a + b + c
        expected = (
            comb(a, 2 * k) * comb(c, 2 * k)
            + comb(b, 2 * k) * comb(c, 2 * k)
            + comb(a, k) * comb(b, 3 * k)
            + comb(a, 3 * k) * comb(b, k)
        )
        assert len(g.edges) == expected
        verify_certificate(g, phi)

    def test_edge_count_value_k1(self):
        g, _ = gen_prop5_graph(1, 6, 6, 4)
        assert g.n == 16 and len(g.edges) == 420

    def test_colorable_but_not_two_weak_colorable(self):
        g, phi = gen_prop5_graph(1, 6, 6, 4)
        assert isinstance(odd_coloring(g), OddColoring)
        w = chromatic_number(g, 3)
        assert w is not None and w.k == 3
        assert_weak_coloring_proper(g, w)
        assert isinstance(odd_transversal(g), TransversalInfeasible)

    def test_size_preconditions(self):
        with pytest.raises(ValueError):
            gen_prop5_graph(1, 5, 6, 4)
        with pytest.raises(ValueError):
            gen_prop5_graph(1, 6, 6, 3)


class TestChromaticNumber:
    def test_triangle_needs_three(self):
        g = Hypergraph(2, 3, [(1, 2), (1, 3), (2, 3)])
        w = chromatic_number(g, 3)
        assert w is not None and w.k == 3
        assert_weak_coloring_proper(g, w)

    def test_edgeless_needs_one(self):
        w = chromatic_number(Hypergraph(3, 5, []), 2)
        assert w is not None and w.k == 1

    def test_bound_too_small_returns_none(self):
        g = Hypergraph(2, 3, [(1, 2), (1, 3), (2, 3)])
        assert chromatic_number(g, 2) is None

    def test_budget_exhaustion_raises(self):
        g, _ = gen_prop5_graph(1, 6, 6, 4)
        with pytest.raises(SearchBudgetExceeded):
            chromatic_number(g, 3, node_budget=5)

    def test_random_graphs_get_proper_colorings(self, rng):
        for _ in range(15):
            g = random_hypergraph(rng, rng.randint(4, 7), 3, density=0.5)
            w = chromatic_number(g, 4)
            assert w is not None
            assert_weak_coloring_proper(g, w)

    def test_matches_networkx_on_2graphs(self, rng):
        nx = pytest.importorskip("networkx")
        for _ in range(10):
            g = random_hypergraph(rng, rng.randint(3, 7), 2, density=0.5)
            w = chromatic_number(g, g.n if g.n else 1)
            assert w is not None
            gx = nx.Graph()
            gx.add_nodes_from(range(1, g.n + 1))
            gx.add_edges_from(g.edges)
            # greedy gives an upper bound; exhaustive search must not exceed it
            greedy = max(
                nx.greedy_color(gx, strategy="DSATUR").values(), default=0
            ) + 1
            assert w.k <= greedy
            if g.edges:
                assert (w.k == 2) == nx.is_bipartite(gx)
