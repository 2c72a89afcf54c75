"""Core tensor type: storage, symmetry, evaluation, irreducibility, similarity."""

from __future__ import annotations

import math
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import permutations

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
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
from hypersym.tensor import parse_value

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

    def test_conversion_past_float_range_names_the_value(self):
        with pytest.raises(ValueError, match=r"the value -1000\d* is past the float range"):
            complex(ExactComplex(0, -10**400))
        # past the int/str digit limit the value is named by its size
        with pytest.raises(ValueError, match=r"the value of about 2\*\*14284 is past"):
            complex(ExactComplex(10**4300))

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

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_components_against_networkx(self, data):
        # orbits only touch vertices 1..m, so the others are isolated or
        # carry just a diagonal entry
        r = data.draw(st.integers(2, 4))
        n = data.draw(st.integers(1, 8))
        m = data.draw(st.integers(1, n))
        keys = st.lists(st.integers(1, m), min_size=r, max_size=r).map(lambda k: tuple(sorted(k)))
        values = st.sampled_from([1, -2, "1/3"])
        orbits = {key: data.draw(values) for key in data.draw(st.lists(keys, max_size=5))}
        for k in data.draw(st.lists(st.integers(1, n), max_size=3)):
            orbits[(k,) * r] = data.draw(values)
        if data.draw(st.booleans()):
            a = CubicalTensor.from_orbits(r, n, orbits)
        else:
            a = CubicalTensor(r, n, [(p, v) for key, v in orbits.items()
                                     for p in set(permutations(key))])
        g = nx.Graph()
        g.add_nodes_from(range(1, n + 1))
        for idx in a.entries:
            g.add_edges_from((i, j) for i in idx for j in idx if i < j)
        expected = sorted(tuple(sorted(c)) for c in nx.connected_components(g))

        dec = components(a)
        assert [part for part, _ in dec.parts] == expected
        # no entry joins two parts, so the parts' entries make up the tensor
        assert sum(len(sub.entries) for _, sub in dec.parts) == len(a.entries)
        assert dec.isolated == tuple(part[0] for part in expected if len(part) == 1
                                     and (part[0],) * r not in a.entries)
        assert is_weakly_irreducible(a) == nx.is_connected(g) == (len(expected) == 1)

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

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_canonical_dump_refuses_non_finite_floats(self, value):
        with pytest.raises(ValueError, match="not finite"):
            dumps_canonical({"lambda": [1.0, value]})

    def test_canonical_dump_is_deterministic(self):
        a = fixture("order6")
        assert dumps_canonical(a.to_json_dict()) == dumps_canonical(a.to_json_dict())
        assert dumps_canonical({"b": 1, "a": 2}).index('"a"') < dumps_canonical(
            {"b": 1, "a": 2}
        ).index('"b"')


def two_step_ingest(data) -> CubicalTensor:
    """The tensor ingest before the one-pass loop: parse every value, then construct."""
    try:
        r, n, raw = data["r"], data["n"], data["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"tensor JSON must have keys r, n, entries: {exc}") from exc
    if not isinstance(raw, list):
        raise ValueError("tensor JSON 'entries' must be a list")
    items = []
    for rec in raw:
        if (not isinstance(rec, dict) or not isinstance(rec.get("i"), list)
                or "v" not in rec):
            raise ValueError(f"tensor entry must be {{'i': [...], 'v': ...}}, got {rec!r}")
        items.append((rec["i"], parse_value(rec["v"])))
    return CubicalTensor(r, n, items)


# Equal values in several JSON forms, and pairs that cancel when summed.
GOOD_VALUES = [1, 1.0, "1", "2/4", [1, 0], [0, 1], -1, "-1/2", [-1, 0], [0, -1], 0.5,
               "0.5e0", 0, "0", [0, 0], [1, "1/3"], "-2/6", 2]
BAD_VALUES = [True, False, float("nan"), float("inf"), [[1], 0], [1], [1, 2, 3], {"re": 1},
              None, "abc", "1/0", [1, True], [1, "2/0"]]


# Faults in an index tuple, each applied to a valid tuple of r indices in 1..n.
BAD_INDEX = {
    "long": lambda i, n: i + [1],
    "short": lambda i, n: i[1:],
    "zero": lambda i, n: [0] + i[1:],
    "over": lambda i, n: i[:-1] + [n + 1],
    "bool": lambda i, n: i[:-1] + [True],
    "string": lambda i, n: ["1"] + i[1:],
    "nested": lambda i, n: [[1]] + i[1:],
    "float": lambda i, n: i[:-1] + [2.0],
    "false": lambda i, n: [False] + i[1:],
    "null": lambda i, n: i[:-1] + [None],
    "huge": lambda i, n: [2**63] + i[1:],
}


@st.composite
def tensor_documents(draw):
    r = draw(st.integers(2, 3))
    n = draw(st.integers(1, 3))
    index = st.lists(st.integers(1, n), min_size=r, max_size=r)
    records = draw(st.lists(st.fixed_dictionaries(
        {"i": index, "v": st.sampled_from(GOOD_VALUES)}), max_size=25))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        fault = draw(st.sampled_from(["value", "record", *BAD_INDEX]))
        if fault == "value":
            rec = {"i": draw(index), "v": draw(st.sampled_from(BAD_VALUES))}
        elif fault == "record":
            rec = draw(st.sampled_from([5, [1, 2], {"i": [1] * r}, {"i": 1, "v": 1}, {"v": 1}]))
        else:
            rec = {"i": BAD_INDEX[fault](draw(index), n), "v": draw(st.sampled_from(GOOD_VALUES))}
        records.insert(draw(st.integers(0, len(records))), rec)
    r, n = draw(st.sampled_from([(r, n)] * 6 + [(1, n), (r, 0), (r, True), ("3", n)]))
    return {"r": r, "n": n, "entries": records}


def _ingest(read, doc):
    try:
        return read(doc)
    except Exception as exc:  # noqa: BLE001  (the oracle compares what is raised)
        return type(exc), str(exc)


class TestJsonIngest:
    """The one-pass ingest against the two-step one it replaced."""

    # Several faults: a record or value fault wins over a bad r or n, which
    # wins over a bad index, whatever the order of the records.
    @example({"r": 2, "n": 2, "entries": [{"i": [1], "v": 1}, {"i": [1, 2], "v": "x"}]})
    @example({"r": 2, "n": 2, "entries": [{"i": [1, 3], "v": 1}, {"v": 1}]})
    @example({"r": 2, "n": 0, "entries": [{"i": [1, 3], "v": 1}, {"i": [1, 1], "v": 2}]})
    @example({"r": 1, "n": 2, "entries": [{"i": [1, 1], "v": 1}, {"i": [1, 1], "v": [1]}]})
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(tensor_documents())
    def test_matches_two_step_ingest(self, doc):
        new = _ingest(CubicalTensor.from_json_dict, doc)
        old = _ingest(two_step_ingest, doc)
        if isinstance(old, CubicalTensor):
            assert isinstance(new, CubicalTensor)
            assert (new.r, new.n) == (old.r, old.n)
            assert list(new.entries.items()) == list(old.entries.items())
            assert new == old and dumps_canonical(new.to_json_dict()) == dumps_canonical(
                old.to_json_dict())
        else:
            assert new == old

    def test_numpy_integer_index_rejected(self):
        # the index check is on the exact type: an int64 with __index__ is not an index
        one, two = np.int64(1), np.int64(2)
        msg = re.escape(f"index {two!r} out of range 1..2 in {(1, two)!r}")
        with pytest.raises(ValueError, match=msg):
            CubicalTensor(2, 2, {(1, two): 1})
        with pytest.raises(ValueError, match=msg):
            CubicalTensor(2, 2, [((1, two), 1)])
        with pytest.raises(ValueError, match=msg):
            CubicalTensor.from_json_dict({"r": 2, "n": 2, "entries": [{"i": [1, two], "v": 1}]})
        with pytest.raises(ValueError, match=re.escape(
                f"vertex {two!r} out of range 1..2 in edge {(1, two)!r}")):
            hs.Hypergraph(2, 2, [(1, two)])
        with pytest.raises(ValueError, match=re.escape(
                f"vertex {one!r} out of range 1..2 in edge {(one, two)!r}")):
            hs.Hypergraph(2, 2, [np.array([1, 2])])

    def test_bool_after_equal_int_rejected(self):
        doc = {"r": 2, "n": 2, "entries": [{"i": [1, 2], "v": 1}, {"i": [2, 1], "v": True}]}
        with pytest.raises(ValueError, match="cannot parse tensor value True"):
            CubicalTensor.from_json_dict(doc)

    def test_equal_raw_values_share_one_object(self):
        doc = {"r": 2, "n": 3, "entries": [
            {"i": [1, 2], "v": 1}, {"i": [2, 1], "v": 1}, {"i": [1, 3], "v": "1"},
            {"i": [3, 1], "v": 1.0}, {"i": [2, 3], "v": [1, 0]}, {"i": [3, 2], "v": "1"}]}
        a = CubicalTensor.from_json_dict(doc)
        assert a.entry((1, 2)) is a.entry((2, 1))
        assert a.entry((1, 3)) is a.entry((3, 2))
        assert a.entry((1, 3)) is not a.entry((1, 2))  # "1" and 1 are parsed apart
        assert len({id(v) for v in a.entries.values()}) == 4
        # the values live as long as one call: a second read shares none
        assert CubicalTensor.from_json_dict(doc).entry((1, 2)) is not a.entry((1, 2))
        # scalars only, with no [re, im] pair: 1, 1.0 and "1" still stay apart
        scalars = CubicalTensor.from_json_dict({"r": 2, "n": 3, "entries": [
            {"i": [1, 2], "v": 1}, {"i": [2, 1], "v": 1.0}, {"i": [1, 3], "v": "1"},
            {"i": [3, 1], "v": 1}, {"i": [2, 3], "v": 1.0}, {"i": [3, 2], "v": "1"}]})
        assert scalars.entry((1, 2)) is scalars.entry((3, 1))
        assert scalars.entry((2, 1)) is scalars.entry((2, 3))
        assert scalars.entry((1, 3)) is scalars.entry((3, 2))
        assert len({id(v) for v in scalars.entries.values()}) == 3
        assert scalars == CubicalTensor.from_json_dict(doc) and hs.is_symmetric(scalars)

    def test_decimal_exponent_limit(self):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("the int/str digit limit is off")
        assert parse_value(f"1e{limit}") == ExactComplex(Fraction(10) ** limit)  # 1e4300
        assert parse_value(f"1e-{limit}") == ExactComplex(Fraction(1, 10**limit))
        assert parse_value(["2.5E+3", "1e-3"]) == ExactComplex(2500, Fraction(1, 1000))
        for text in (f"1e{limit + 1}", f"-1E-{limit + 1}", "1e999999999", "1.5e-999_999_999"):
            with pytest.raises(ValueError, match="decimal exponent"):
                parse_value(text)


# Each list holds one value in several raw JSON forms; each pair sums to zero.
EQUAL_RAWS = [[1, "1", 1.0, [1, 0], "2/2"], [0.5, "1/2", [0.5, 0]], [-2, "-2", -2.0],
              ["-1/3", ["-1/3", 0]], [[0, 1], ["0", 1.0]], [[1, "1/2"], [1.0, 0.5]],
              [0, "0", 0.0, [0, 0]]]
CANCELLING = [(1, -1), ("1/2", -0.5), ([0, 1], [0, -1]), ("-1/3", "1/3"), ([2, "1/3"], [-2.0, "-1/3"])]


def _exact(raw) -> tuple[Fraction, Fraction]:
    re_part, im_part = raw if isinstance(raw, list) else (raw, 0)
    return Fraction(re_part), Fraction(im_part)


def _ordering_count(key: tuple) -> int:
    return math.factorial(len(key)) // math.prod(map(math.factorial, Counter(key).values()))


def _orderings(key: tuple) -> list[tuple]:
    """The distinct orderings of an index multiset, without walking all r! permutations."""
    if not key:
        return [()]
    out = []
    for j in sorted(set(key)):
        t = key.index(j)
        out += [(j,) + rest for rest in _orderings(key[:t] + key[t + 1:])]
    return out


@st.composite
def storage_documents(draw, rs=st.integers(2, 5), ns=st.integers(1, 12)):
    """(r, n, records): index tuples and raw values, symmetric on purpose half the time."""
    r = draw(rs)
    n = draw(ns)
    index = st.tuples(*[st.integers(1, n)] * r)
    raws = st.sampled_from(EQUAL_RAWS)
    records = []
    if draw(st.booleans()):
        # every ordering of each multiset, with equal values in several forms
        for key in draw(st.lists(index.map(lambda t: tuple(sorted(t))), min_size=1, max_size=8,
                                 unique=True)):
            if len(records) + _ordering_count(key) > 280:
                break
            forms = draw(raws)
            records += [(idx, draw(st.sampled_from(forms))) for idx in _orderings(key)]
        if records and draw(st.booleans()):  # one value redrawn on a symmetric support
            t = draw(st.integers(0, len(records) - 1))
            records[t] = (records[t][0], draw(raws.flatmap(st.sampled_from)))
    else:
        size = draw(st.sampled_from([0, 3, 30, 120, 280]))
        records = draw(st.lists(st.tuples(index, raws.flatmap(st.sampled_from)),
                                min_size=size, max_size=size))
    for _ in range(draw(st.integers(0, 3))):  # pairs that cancel, on a stored tuple or not
        idx = draw(st.sampled_from([rec[0] for rec in records])) if records else draw(index)
        records += [(idx, raw) for raw in draw(st.sampled_from(CANCELLING))]
    return r, n, draw(st.permutations(records))


def _assert_matches_dict_oracle(r, n, records):
    """The document and the constructor on the same records, against a plain dict."""
    acc: dict = {}
    for idx, raw in records:
        re_part, im_part = acc.get(idx, (0, 0))
        d_re, d_im = _exact(raw)
        acc[idx] = (re_part + d_re, im_part + d_im)
    expected = {idx: acc[idx] for idx in sorted(acc) if acc[idx] != (0, 0)}
    keys = list(expected)
    patterns = sorted({tuple(sorted(idx)) for idx in keys})
    incidence = np.zeros((len(patterns), n), dtype=int)
    for i, pattern in enumerate(patterns):
        for j in pattern:
            incidence[i, j - 1] += 1
    real = all(im == 0 for _, im in expected.values())
    weights = [float(re) if real else complex(float(re), float(im))
               for re, im in expected.values()]
    groups: dict = {}
    for idx, value in expected.items():
        groups.setdefault(tuple(sorted(idx)), []).append(value)
    symmetric = all(len(values) == _ordering_count(key) and len(set(values)) == 1
                    for key, values in groups.items())

    doc = {"r": r, "n": n, "entries": [{"i": list(idx), "v": raw} for idx, raw in records]}
    built = CubicalTensor(r, n, [(idx, ExactComplex(*_exact(raw))) for idx, raw in records])
    for a in (CubicalTensor.from_json_dict(doc), built):
        assert [(idx, (v.re, v.im)) for idx, v in a.entries.items()] == list(expected.items())
        assert a._patterns() == tuple(patterns)
        assert np.array_equal(a._incidence(), incidence)
        heads, tails = a._rows()
        assert heads.tolist() == [idx[0] - 1 for idx in keys]
        assert tails.tolist() == [[idx[c] - 1 for idx in keys] for c in range(1, r)]
        k_heads, k_tails, k_weights = a._kernel()
        assert k_heads.tolist() == heads.tolist() and k_tails.tolist() == tails.tolist()
        assert k_weights.tolist() == weights
        # the distinct values are exactly the stored ones: none left over from a sum or zero
        assert a.is_real() == real
        assert a.is_nonnegative() == all(im == 0 and re >= 0 for re, im in expected.values())
        assert [(v.re, v.im) for v in a.diagonal()] == [
            expected.get((k,) * r, (0, 0)) for k in range(1, n + 1)]
        assert [(idx, (v.re, v.im)) for idx, v in (-a).entries.items()] == [
            (idx, (-re, -im)) for idx, (re, im) in expected.items()]
        if n > 1:  # every other vertex, renumbered 1, 2, ...
            pos = {v: i for i, v in enumerate(range(1, n + 1, 2), start=1)}
            sub = a.principal_submatrix(list(pos))
            assert [(idx, (v.re, v.im)) for idx, v in sub.entries.items()] == [
                (tuple(pos[j] for j in idx), value) for idx, value in expected.items()
                if set(idx) <= set(pos)]
        storage = a._orbit_storage()
        assert is_symmetric(a) == symmetric
        if symmetric:
            multisets, where, distinct = storage
            assert [(tuple(key), (distinct[w].re, distinct[w].im))
                    for key, w in zip(multisets.tolist(), where.tolist())] == [
                (key, groups[key][0]) for key in sorted(groups)]
        else:
            assert storage is None


class TestArrayStorage:
    """The array storage of tuple tensors against a plain dict built in the test."""

    @example((2, 3, []))
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(storage_documents())
    def test_matches_dict_oracle(self, case):
        _assert_matches_dict_oracle(*case)

    # 9**16 > 2**63: rows of 16 indices in 1..9 or more sort and group
    # without an int64 code per row
    @example((16, 9, [((1,) * 15 + (2,), 1), ((2,) + (1,) * 15, "1"), ((9,) * 16, 2)]))
    @example((16, 9, [(p, "1/2") for p in _orderings((1,) * 15 + (3,))]))
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(storage_documents(rs=st.just(16), ns=st.integers(9, 12)))
    def test_wide_rows_match_dict_oracle(self, case):
        _assert_matches_dict_oracle(*case)
