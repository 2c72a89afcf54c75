"""Core tensor type: storage, symmetry, evaluation, irreducibility, similarity."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypersym as hs
from hypersym import (
    ComponentDecomposition,
    CubicalTensor,
    ExactComplex,
    apply,
    components,
    diagonal_similarity,
    digraph,
    eigen_residual,
    fixture,
    is_bipartite_2matrix,
    is_symmetric,
    is_weakly_irreducible,
    polynomial_form,
)
from hypersym.jsonio import dumps_canonical, parse_tensor_or_graph

from conftest import random_symmetric_tensor, random_tensor


class TestExactComplex:
    def test_arithmetic(self):
        a = ExactComplex(Fraction(1, 2), Fraction(3))
        b = ExactComplex(2, -1)
        assert a + b == ExactComplex(Fraction(5, 2), 2)
        assert a - b == ExactComplex(Fraction(-3, 2), 4)
        assert a * b == ExactComplex(4, Fraction(11, 2))
        assert (a / b) * b == a
        assert -b == ExactComplex(-2, 1)

    def test_powers(self):
        i = ExactComplex(0, 1)
        assert i**2 == ExactComplex(-1, 0)
        assert i**4 == ExactComplex(1, 0)
        assert i**-1 == ExactComplex(0, -1)
        assert (ExactComplex(2, 0) ** -2) == ExactComplex(Fraction(1, 4), 0)

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            ExactComplex(1, 0) / ExactComplex(0, 0)

    def test_realness_and_conversion(self):
        assert ExactComplex(Fraction(7, 3), 0).is_real
        assert not ExactComplex(0, 1).is_real
        assert complex(ExactComplex(1, -2)) == 1 - 2j

    def test_hash_consistency(self):
        assert hash(ExactComplex(2, 0)) == hash(ExactComplex(Fraction(4, 2), 0))

    def test_real_value_hashes_like_its_real_part(self):
        for value in (1, -7, Fraction(3, 4), 0):
            assert ExactComplex(value) == value
            assert hash(ExactComplex(value)) == hash(value)
        assert {1: "one"}[ExactComplex(1)] == "one"
        assert ExactComplex(Fraction(1, 2)) in {0.5}

    def test_complex_value_hashes_like_python_complex(self):
        # 2**60 pushes hash(re) + hash_info.imag * hash(im) past a machine word
        for re, im in [(1, 2), (-3, 0.25), (0.5, -7), (0, 1), (2**60, 2**60), (-(2**62), 3)]:
            z = complex(re, im)
            e = ExactComplex(Fraction(re), Fraction(im))
            assert e == z
            assert hash(e) == hash(z)

    def test_complex_keyed_dict_hit(self):
        table = {1 + 2j: "z", -0.5j: "w"}
        assert table[ExactComplex(1, 2)] == "z"
        assert table[ExactComplex(0, Fraction(-1, 2))] == "w"
        assert ExactComplex(3, -4) in {3 - 4j}

    def test_reflected_subtraction_and_division(self):
        assert 3 - ExactComplex(1) == ExactComplex(2)
        assert Fraction(1, 2) - ExactComplex(0, 1) == ExactComplex(Fraction(1, 2), -1)
        assert 3 / ExactComplex(2) == ExactComplex(Fraction(3, 2))
        assert 1 / ExactComplex(0, 1) == ExactComplex(0, -1)
        with pytest.raises(ZeroDivisionError):
            1 / ExactComplex(0)


class TestCubicalTensor:
    def test_duplicate_entries_sum_and_zero_pruned(self):
        a = CubicalTensor(2, 2, [((1, 2), 1), ((1, 2), 2), ((2, 1), 3), ((2, 1), -3)])
        assert a.entry((1, 2)) == ExactComplex(3, 0)
        assert a.entry((2, 1)) == ExactComplex(0, 0)
        assert (2, 1) not in a.entries

    def test_validation(self):
        with pytest.raises(ValueError):
            CubicalTensor(2, 2, [((True, 2), 1)])
        with pytest.raises(ValueError):
            CubicalTensor.from_orbits(2, 2, [((1, True), 1)])
        with pytest.raises(ValueError):
            CubicalTensor(2, True, [])
        with pytest.raises(ValueError):
            CubicalTensor(1, 3, [])
        with pytest.raises(ValueError):
            CubicalTensor(2, 0, [])
        with pytest.raises(ValueError):
            CubicalTensor(2, 2, [((1, 2, 1), 1)])
        with pytest.raises(ValueError):
            CubicalTensor(2, 2, [((0, 1), 1)])
        with pytest.raises(ValueError):
            CubicalTensor(2, 2, [((1, 3), 1)])

    def test_equality_and_negation(self):
        a = fixture("h2")
        assert a == CubicalTensor(
            2, 2, [((1, 1), 1), ((1, 2), 1), ((2, 1), 1), ((2, 2), -1)]
        )
        assert -(-a) == a
        assert (-a).entry((2, 2)) == ExactComplex(1, 0)

    def test_from_matrix(self):
        a = CubicalTensor.from_matrix([[0, 1], [1, 0]])
        assert a.r == 2 and a.n == 2
        assert a.entry((1, 2)) == ExactComplex(1, 0)
        with pytest.raises(ValueError):
            CubicalTensor.from_matrix([[0, 1]])

    def test_flags(self):
        assert fixture("a1").is_real() and fixture("a1").is_nonnegative()
        neg = CubicalTensor(2, 2, [((1, 2), -1)])
        assert neg.is_real() and not neg.is_nonnegative()
        cx = CubicalTensor(2, 2, [((1, 2), ExactComplex(0, 1))])
        assert not cx.is_real() and not cx.is_nonnegative()

    def test_principal_submatrix_reindexes(self):
        a = fixture("a2")
        sub = a.principal_submatrix((3, 4))
        assert sub.n == 2 and sub.entry((1, 2)) == ExactComplex(1, 0)
        with pytest.raises(ValueError):
            a.principal_submatrix((1, 1))
        with pytest.raises(ValueError):
            a.principal_submatrix((1, 5))

    def test_diagonal(self):
        a = CubicalTensor(3, 2, [((1, 1, 1), 5), ((2, 2, 2), -2), ((1, 2, 2), 9)])
        assert a.diagonal() == [ExactComplex(5, 0), ExactComplex(-2, 0)]


class TestSymmetry:
    def test_fixture_symmetry(self):
        assert is_symmetric(fixture("h2"))
        assert is_symmetric(fixture("a2"))
        assert not is_symmetric(fixture("a1"))
        assert not is_symmetric(fixture("order6"))
        assert is_symmetric(CubicalTensor(3, 2, []))

    def test_random_against_bruteforce(self, rng):
        for _ in range(40):
            n, r = rng.choice([(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)])
            a = (
                random_symmetric_tensor(rng, n, r)
                if rng.random() < 0.5
                else random_tensor(rng, n, r)
            )
            brute = all(
                a.entry(p) == val
                for idx, val in a.entries.items()
                for p in permutations(idx)
            )
            assert is_symmetric(a) == brute

    def test_perturbing_one_orbit_member_breaks_symmetry(self, rng):
        a = random_symmetric_tensor(rng, 3, 3, density=0.9, lo=1, hi=3)
        off = next(k for k in a.entries if len(set(k)) > 1)
        bumped = CubicalTensor(
            a.r, a.n, list(a.entries.items()) + [(off, ExactComplex(1, 0))]
        )
        assert is_symmetric(a) and not is_symmetric(bumped)


class TestApplyAndResidual:
    def test_order6_fixed_vector(self):
        a = fixture("order6")
        out = apply(a, [1.0] * 6)
        assert out == pytest.approx([1.0] * 6)
        assert eigen_residual(a, 1.0, [1.0] * 6) <= 1e-15

    def test_homogeneity(self, rng):
        a = random_tensor(rng, 3, 3, density=0.6)
        x = [rng.uniform(-2, 2) for _ in range(3)]
        c = 1.7
        lhs = apply(a, [c * v for v in x])
        rhs = [c ** (a.r - 1) * v for v in apply(a, x)]
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_residual_scale_invariant_measure(self):
        zero = CubicalTensor(3, 2, [])
        assert eigen_residual(zero, 5.0, [1.0, 1.0]) == pytest.approx(1.0)
        assert eigen_residual(zero, 0.0, [3.0, -1.0]) == 0.0

    def test_residual_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            eigen_residual(fixture("h2"), 1.0, [0.0, 0.0])

    def test_vector_length_checked(self):
        with pytest.raises(ValueError):
            apply(fixture("h2"), [1.0])

    def test_polynomial_form(self):
        edge3 = hs.adjacency_tensor(hs.Hypergraph(3, 3, [(1, 2, 3)]))
        assert polynomial_form(edge3, [1.0, 1.0, 1.0]) == pytest.approx(6.0)
        assert polynomial_form(fixture("h2"), (1.0, 0.0)) == pytest.approx(1.0)
        cx = CubicalTensor(2, 2, [((1, 2), ExactComplex(0, 1))])
        with pytest.raises(ValueError):
            polynomial_form(cx, (1.0, 1.0))


class TestIrreducibilityAndComponents:
    def test_order6_digraph_arcs(self):
        arcs = digraph(fixture("order6"))
        assert arcs == {
            1: {2, 3},
            2: {3, 4},
            3: {4, 5},
            4: {5, 6},
            5: {6, 1},
            6: {1, 2},
        }
        assert is_weakly_irreducible(fixture("order6"))

    def test_single_vertex_always_irreducible(self):
        assert is_weakly_irreducible(CubicalTensor(3, 1, []))
        assert is_weakly_irreducible(CubicalTensor(3, 1, [((1, 1, 1), 4)]))

    def test_block_tensor_reducible(self):
        assert not is_weakly_irreducible(fixture("a2"))

    def test_random_against_networkx(self, rng):
        nx = pytest.importorskip("networkx")
        for _ in range(30):
            n, r = rng.choice([(2, 2), (4, 2), (3, 3), (4, 3), (3, 4)])
            a = random_tensor(rng, n, r, density=0.25)
            g = nx.DiGraph()
            g.add_nodes_from(range(1, n + 1))
            for k, succs in digraph(a).items():
                for j in succs:
                    g.add_edge(k, j)
            expected = nx.number_strongly_connected_components(g) == 1
            assert is_weakly_irreducible(a) == expected

    def test_components_of_block_matrix(self):
        dec = components(fixture("a2"))
        assert isinstance(dec, ComponentDecomposition)
        assert [part for part, _ in dec.parts] == [(1, 2), (3, 4)]
        for _, sub in dec.parts:
            assert sub == fixture("h2") or sub.entry((1, 2)) == ExactComplex(1, 0)
        assert dec.isolated == ()

    def test_components_zero_tensor_all_isolated(self):
        dec = components(CubicalTensor(3, 3, []))
        assert dec.isolated == (1, 2, 3)
        assert [part for part, _ in dec.parts] == [(1,), (2,), (3,)]
        assert all(not sub.entries for _, sub in dec.parts)

    def test_components_requires_symmetric(self):
        with pytest.raises(ValueError):
            components(fixture("a1"))


class TestDiagonalSimilarity:
    def test_identity(self):
        a = fixture("order6")
        assert diagonal_similarity(a, [ExactComplex(1, 0)] * 6) == a

    def test_exact_round_trip(self, rng):
        a = random_tensor(rng, 3, 3, density=0.7)
        z = [ExactComplex(Fraction(rng.randint(1, 5), rng.randint(1, 5)), 0) for _ in range(3)]
        b = diagonal_similarity(a, z)
        zinv = [ExactComplex(1, 0) / v for v in z]
        assert diagonal_similarity(b, zinv) == a

    def test_eigenpair_transport(self):
        a = fixture("order6")
        z = [complex(random.Random(3).uniform(0.5, 2), 0) for _ in range(6)]
        zx = [ExactComplex(Fraction(v.real).limit_denominator(997), 0) for v in z]
        b = diagonal_similarity(a, zx)
        u = [1.0 / complex(v) for v in zx]
        assert eigen_residual(b, 1.0, u) <= 1e-12

    def test_rejects_zero_scale(self):
        with pytest.raises(ValueError):
            diagonal_similarity(fixture("h2"), [ExactComplex(0, 0), ExactComplex(1, 0)])


class TestBipartite2Matrix:
    def test_block_matrix_partition(self):
        assert is_bipartite_2matrix(fixture("a2")) == ((1, 3), (2, 4))

    def test_odd_cycle_and_diagonal(self):
        assert is_bipartite_2matrix(fixture("a1")) is None
        assert is_bipartite_2matrix(fixture("h2")) is None

    def test_requires_r2(self):
        with pytest.raises(ValueError):
            is_bipartite_2matrix(CubicalTensor(3, 2, []))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(1, n), st.integers(1, n),
                           st.sampled_from([1, -2, "1/3", (0, 1)])), max_size=12),
        st.booleans())))
    def test_against_networkx(self, case):
        # any nonzero entry is an edge; (i, i) is a self-loop
        n, entries, by_orbit = case
        items = [((i, j), ExactComplex(*v) if isinstance(v, tuple) else v)
                 for i, j, v in entries]
        build = CubicalTensor.from_orbits if by_orbit else CubicalTensor
        a = build(2, n, items)
        g = nx.Graph()
        g.add_nodes_from(range(1, n + 1))
        g.add_edges_from(idx for idx in a.entries)
        parts = is_bipartite_2matrix(a)
        assert (parts is not None) == nx.is_bipartite(g)
        if parts is not None:
            u_side, w_side = parts
            assert sorted(u_side + w_side) == list(range(1, n + 1))
            assert all((i in u_side) != (j in u_side) for i, j in g.edges)
            # each component's smallest vertex, isolated ones included, is in U
            assert all(min(comp) in u_side for comp in nx.connected_components(g))


class TestJson:
    def test_tensor_round_trip(self, rng):
        for name in ("h2", "a1", "a2", "order6"):
            a = fixture(name)
            again = parse_tensor_or_graph(a.to_json_dict())
            assert again == a

    def test_exact_rational_value_survives(self):
        a = CubicalTensor(2, 2, [((1, 2), ExactComplex(Fraction(1, 3), Fraction(-2, 7)))])
        again = parse_tensor_or_graph(a.to_json_dict())
        assert again == a

    def test_canonical_dump_is_deterministic(self):
        a = fixture("order6")
        assert dumps_canonical(a.to_json_dict()) == dumps_canonical(a.to_json_dict())
        assert dumps_canonical({"b": 1, "a": 2}).index('"a"') < dumps_canonical(
            {"b": 1, "a": 2}
        ).index('"b"')
