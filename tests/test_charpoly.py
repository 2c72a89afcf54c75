"""Characteristic polynomials: exact resultants, products, multiplicities."""

from __future__ import annotations

import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hypersym as hs
from hypersym import (
    CubicalTensor,
    Hypergraph,
    UniPoly,
    adjacency_tensor,
    charpoly_2matrix,
    charpoly_tensor,
    fixture,
    is_spectrum_symmetric_poly,
    isolated_vertex_multiplicity_check,
    poly_gcd,
    root_multiplicity,
    spectral_radius_power,
    squarefree_decomposition,
    verify_component_product,
)

from hypersym import resultants
from hypersym.charpoly import _cleared, _scaled
from hypersym.resultants import (
    _INT_KERNEL_MAX_ORDER,
    _INT_KERNEL_MAX_PRIMES,
    DegenerateNode,
    _charpoly_ints,
    _coefficient_bound,
    _convolve,
    _hessenberg_charpolys,
    _hessenberg_mod,
    _negated_residues,
    _primes_above,
    _strong_components,
    det_fractions,
    interpolate,
    macaulay_matrix,
    macaulay_resultant_3,
    shifted_det_coeffs,
    shifted_resultant_coeffs,
    sylvester_resultant,
)

from conftest import random_symmetric_tensor, random_tensor


def mixed_n2_tensor(r: int) -> CubicalTensor:
    """All order-r index tuples over {1,2} that use both vertices, value 1."""
    items = []
    for ones in range(1, r):
        base = (1,) * ones + (2,) * (r - ones)
        items += [(p, 1) for p in set(permutations(base))]
    return CubicalTensor(r, 2, items)


def block_n3_tensor() -> CubicalTensor:
    """Vertex 1 carries a loop of weight 2; vertices {2,3} carry mixed ones."""
    items = [((1, 1, 1), 2)]
    for base in [(1, 1, 2), (1, 2, 2)]:
        items += [
            (tuple(2 if i == 1 else 3 for i in p), 1)
            for p in set(permutations(base))
        ]
    return CubicalTensor(3, 3, items)


def sympy_charpoly_n2(a: CubicalTensor) -> list[Fraction]:
    """Independent route: binary-form resultant of the two eigen forms."""
    sp = pytest.importorskip("sympy")
    lam, x, y = sp.symbols("lam x y")
    d = a.r - 1
    f = [lam * x**d, lam * y**d]
    for idx, val in a.entries.items():
        mono = sp.Integer(1)
        for j in idx[1:]:
            mono *= x if j == 1 else y
        f[idx[0] - 1] -= sp.Rational(str(val.re)) * mono
    q = sp.degree(f[1], x)
    lc1 = sp.Poly(f[0], x).LC()
    res = sp.expand(lc1 ** (d - q) * sp.resultant(f[0], f[1], x))
    res = sp.expand(res.subs(y, 1))
    poly = sp.Poly(res, lam)
    monic = sp.Poly(res / poly.LC(), lam)
    return [Fraction(str(c)) for c in reversed(monic.all_coeffs())]


def sympy_macaulay_value(a: CubicalTensor, lam_value: int):
    """Macaulay-quotient value of the n=3 eigen-form system at one node."""
    sp = pytest.importorskip("sympy")
    from sympy.polys.multivariate_resultants import MacaulayResultant

    xs = sp.symbols("x1 x2 x3")
    d = a.r - 1
    forms = [sp.Rational(lam_value) * v**d for v in xs]
    for idx, val in a.entries.items():
        mono = sp.Integer(1)
        for j in idx[1:]:
            mono *= xs[j - 1]
        forms[idx[0] - 1] -= sp.Rational(str(val.re)) * mono
    mac = MacaulayResultant(forms, list(xs))
    m = mac.get_matrix()
    sub = mac.get_submatrix(m)
    det_sub = sub.det()
    if det_sub == 0:
        return None
    return m.det() / det_sub


# rationals with numerators and denominators up to 10**30
fractions = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30)) | st.integers(-3, 3)


def reference_product(a, b) -> list[Fraction]:
    """Ascending coefficients of a * b, convolved Fraction by Fraction."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    return out


class TestUniPoly:
    def test_trailing_zeros_trimmed(self):
        assert UniPoly([1, 2, 0, 0]).degree == 1
        assert UniPoly([0]).degree == 0

    def test_arithmetic(self):
        p = UniPoly([-1, 1])  # x - 1
        q = UniPoly([1, 1])  # x + 1
        assert p * q == UniPoly([-1, 0, 1])
        assert p**3 == UniPoly([-1, 3, -3, 1])
        quo, rem = divmod(p * q, p)
        assert quo == q and rem == UniPoly([0])

    def test_call_horner(self):
        p = UniPoly([-3, -8, -6, 0, 1])
        assert p(Fraction(3)) == 0
        assert p(Fraction(-1)) == 0
        assert p(Fraction(0)) == -3

    def test_compose_neg(self):
        p = UniPoly([-2, -3, 0, 1])  # x^3 - 3x - 2
        assert p.compose_neg() == UniPoly([-2, 3, 0, -1])

    def test_derivative(self):
        assert UniPoly([5, 0, 0, 1]).derivative() == UniPoly([0, 0, 3])

    def test_gcd_and_squarefree(self):
        p = UniPoly([-1, 1]) ** 2 * UniPoly([0, 1]) ** 3
        g = poly_gcd(p, p.derivative())
        assert g == UniPoly([-1, 1]) * UniPoly([0, 1]) ** 2
        assert squarefree_decomposition(p) == [
            (2, UniPoly([-1, 1])),
            (3, UniPoly([0, 1])),
        ]
        assert root_multiplicity(p, Fraction(1)) == 2
        assert root_multiplicity(p, Fraction(0)) == 3
        assert root_multiplicity(p, Fraction(7)) == 0

    def test_json_round_trip(self):
        p = UniPoly([Fraction(1, 3), 0, 1])
        again = UniPoly.from_json_dict(p.to_json_dict())
        assert again == p
        bad = p.to_json_dict()
        bad["degree"] = 5
        with pytest.raises(ValueError):
            UniPoly.from_json_dict(bad)

    @pytest.mark.parametrize("bad, text", [
        (True, "cannot parse tensor value True"),
        (math.inf, "tensor value inf is not finite"),
        ("1/0", "tensor value '1/0' has a zero denominator"),
        ([1, 2], "coefficient [1, 2] is not real"),
        ("1e999999999", "tensor value '1e999999999' has a decimal exponent"),
    ])
    def test_coefficients_follow_the_value_rule(self, bad, text):
        # Python before 3.10.7 holds exponents to 4300 digits; 0 turns the limit off
        if "exponent" in text and getattr(sys, "get_int_max_str_digits", lambda: 4300)() == 0:
            pytest.skip("the int/str digit limit is off")
        for build in (lambda: UniPoly([1, bad]), lambda: UniPoly([bad]),
                      lambda: UniPoly.from_json_dict({"coeffs": [1, bad]}),
                      lambda: root_multiplicity(UniPoly([0, 1]), bad)):
            with pytest.raises(ValueError, match=re.escape(text)):
                build()
        # a document's values as the tensor reader takes them
        assert UniPoly.from_json_dict({"coeffs": ["1/2", 0.25, [3, 0], "2.5e1"]}) == UniPoly(
            [Fraction(1, 2), Fraction(1, 4), 3, 25])

    def test_roots_match_numpy(self):
        roots = UniPoly([-2, 0, 1]).roots()
        vals = sorted(v.real for v in roots)
        assert vals == pytest.approx([-(2**0.5), 2**0.5], abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(a=st.lists(fractions, max_size=7), b=st.lists(fractions, max_size=7),
           e=st.integers(0, 5))
    def test_products_match_fraction_convolution(self, a, b, e):
        # an empty list is the zero polynomial, a one-element list a constant
        p, q = UniPoly(a), UniPoly(b)
        assert p * q == UniPoly(reference_product(p.coeffs, q.coeffs))
        power = [Fraction(1)]
        for _ in range(e):
            power = reference_product(power, p.coeffs)
        assert p ** e == UniPoly(power)


class TestCharpoly2Matrix:
    def test_frozen_values(self):
        assert charpoly_2matrix(fixture("h2")) == UniPoly([-2, 0, 1])
        assert charpoly_2matrix(fixture("a1")) == UniPoly([1, 0, -2, 0, 1])
        assert charpoly_2matrix(fixture("a2")) == UniPoly([1, 0, -2, 0, 1])

    def test_identity_matrix(self):
        ident = CubicalTensor(2, 4, [((i, i), 1) for i in range(1, 5)])
        assert charpoly_2matrix(ident) == UniPoly([-1, 1]) ** 4

    def test_triangle(self):
        k3 = adjacency_tensor(Hypergraph(2, 3, [(1, 2), (1, 3), (2, 3)]))
        assert charpoly_2matrix(k3) == UniPoly([-2, -3, 0, 1])

    def test_requires_r2(self):
        with pytest.raises(ValueError):
            charpoly_2matrix(CubicalTensor(3, 2, []))

    def test_matches_sympy_on_random_matrices(self, rng):
        sp = pytest.importorskip("sympy")
        for _ in range(10):
            n = rng.randint(1, 5)
            a = random_tensor(rng, n, 2, density=0.6)
            mine = charpoly_2matrix(a)
            m = sp.zeros(n, n)
            for (i, j), v in a.entries.items():
                m[i - 1, j - 1] = sp.Rational(str(v.re))
            lam = sp.symbols("lam")
            theirs = sp.Poly(m.charpoly(lam).as_expr(), lam)
            coeffs = [Fraction(str(c)) for c in reversed(theirs.all_coeffs())]
            assert list(mine.coeffs) == coeffs


class TestCharpolyTensor:
    def test_single_vertex(self):
        a = CubicalTensor(3, 1, [((1, 1, 1), 7)])
        assert charpoly_tensor(a) == UniPoly([-7, 1])
        assert charpoly_tensor(CubicalTensor(5, 1, [])) == UniPoly([0, 1])

    def test_frozen_mixed_n2_r3(self):
        p = charpoly_tensor(mixed_n2_tensor(3))
        assert p == UniPoly([-3, -8, -6, 0, 1])
        assert p == UniPoly([-3, 1]) * UniPoly([1, 1]) ** 3

    def test_frozen_mixed_n2_r4(self):
        p = charpoly_tensor(mixed_n2_tensor(4))
        assert p == UniPoly([-7, 1]) * UniPoly([1, 1]) ** 3 * UniPoly([2, 1]) ** 2

    def test_frozen_single_3edge(self):
        a = adjacency_tensor(Hypergraph(3, 3, [(1, 2, 3)]))
        p = charpoly_tensor(a)
        assert p == UniPoly([0, 0, 0, 1]) * UniPoly([-8, 0, 0, 1]) ** 3

    def test_zero_tensor_degree_law(self):
        for n, r in [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (3, 3), (2, 4), (2, 5), (3, 4)]:
            p = charpoly_tensor(CubicalTensor(r, n, []))
            deg = n * (r - 1) ** (n - 1)
            assert p == UniPoly([0] * deg + [1]), (n, r)

    def test_agrees_with_matrix_route(self, rng):
        # charpoly_tensor sends r = 2 to charpoly_2matrix; the resultant
        # engine on the linear forms of the same matrix must agree with it
        for _ in range(8):
            n = rng.randint(1, 3)
            a = random_tensor(rng, n, 2, density=0.7)
            scale, keys, values = _cleared(a)
            forms = [{} for _ in range(n)]
            for (i, j), v in zip(keys.tolist(), values.tolist()):
                key = tuple(int(k == j) for k in range(1, n + 1))
                forms[i - 1][key] = forms[i - 1].get(key, 0) + v
            engine = _scaled(shifted_resultant_coeffs(forms, [1] * n), scale)
            assert charpoly_tensor(a) == charpoly_2matrix(a) == engine

    def test_matches_sympy_resultant_n2(self, rng):
        for _ in range(6):
            r = rng.choice([3, 4, 5])
            a = random_tensor(rng, 2, r, density=0.5)
            mine = charpoly_tensor(a)
            assert list(mine.coeffs) == sympy_charpoly_n2(a)

    def test_matches_sympy_macaulay_nodes_n3(self, rng):
        for _ in range(3):
            a = random_tensor(rng, 3, 3, density=0.4, lo=0, hi=2)
            mine = charpoly_tensor(a)
            sign = None
            checked = 0
            for node in (3, 5, 7, 11):
                val = sympy_macaulay_value(a, node)
                if val is None:
                    continue
                expect = Fraction(str(val))
                got = mine(Fraction(node))
                if sign is None:
                    sign = 1 if got == expect else -1
                assert got == sign * expect
                checked += 1
            assert checked >= 2

    def test_monic_with_stated_degree(self, rng):
        for n, r in [(2, 3), (2, 4), (3, 3)]:
            a = random_symmetric_tensor(rng, n, r, density=0.6)
            p = charpoly_tensor(a)
            assert p.is_monic()
            assert p.degree == n * (r - 1) ** (n - 1)

    def test_negation_covariance(self, rng):
        # char poly of -A is the degree-parity twist of the char poly of A
        for _ in range(5):
            n = rng.randint(1, 2)
            r = rng.choice([3, 4])
            a = random_tensor(rng, n, r, density=0.6)
            p = charpoly_tensor(a)
            q = charpoly_tensor(-a)
            twisted = p.compose_neg()
            if twisted.coeffs[-1] < 0:
                twisted = UniPoly([-c for c in twisted.coeffs])
            assert q == twisted

    def test_diagonal_similarity_invariance(self, rng):
        a = random_tensor(rng, 2, 3, density=0.8)
        z = [hs.ExactComplex(Fraction(2), 0), hs.ExactComplex(Fraction(1, 3), 0)]
        b = hs.diagonal_similarity(a, z)
        assert charpoly_tensor(a) == charpoly_tensor(b)

    def test_contract_bounds(self):
        with pytest.raises(ValueError):
            charpoly_tensor(CubicalTensor(3, 4, []))
        with pytest.raises(ValueError):
            charpoly_tensor(CubicalTensor(6, 2, []))
        cx = CubicalTensor(3, 2, [((1, 2, 2), hs.ExactComplex(0, 1))])
        with pytest.raises(ValueError):
            charpoly_tensor(cx)

    def test_power_iteration_consistency(self, rng):
        # spectral radius from iteration equals the max root modulus
        for _ in range(4):
            n = rng.randint(2, 3)
            r = 3 if n == 3 else rng.choice([3, 4])
            a = random_symmetric_tensor(rng, n, r, density=0.95, lo=1, hi=3)
            if not (a.is_nonnegative() and hs.is_weakly_irreducible(a)):
                continue
            rho = spectral_radius_power(a).lam.real
            p = charpoly_tensor(a)
            top = max(abs(z) for z in p.roots())
            assert rho == pytest.approx(top, abs=1e-6)


class TestSpectrumSymmetryPredicate:
    def test_examples(self):
        assert is_spectrum_symmetric_poly(UniPoly([-2, 0, 1]))
        assert is_spectrum_symmetric_poly(UniPoly([1, 0, -2, 0, 1]))
        assert not is_spectrum_symmetric_poly(UniPoly([-2, -3, 0, 1]))
        assert is_spectrum_symmetric_poly(UniPoly([0, 1]))

    def test_odd_degree_symmetric_needs_zero_root(self):
        # x^3 - x = x(x-1)(x+1) is symmetric as a multiset
        assert is_spectrum_symmetric_poly(UniPoly([0, -1, 0, 1]))

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            is_spectrum_symmetric_poly(UniPoly([1, 0, 2]))


class TestComponentProduct:
    def test_block_tensor_exact(self):
        rep = verify_component_product(block_n3_tensor())
        assert rep.equal
        assert rep.lhs == UniPoly([-2, 1]) ** 4 * UniPoly([-3, -8, -6, 0, 1]) ** 2
        assert rep.lhs == rep.rhs
        assert len(rep.factors) == 2
        (v1, f1, e1), (v2, f2, e2) = rep.factors
        assert (v1, f1, e1) == ((1,), UniPoly([-2, 1]), 4)
        assert (v2, f2, e2) == ((2, 3), UniPoly([-3, -8, -6, 0, 1]), 2)

    def test_matrix_route_any_n(self):
        rep = verify_component_product(fixture("a2"))
        assert rep.equal
        assert rep.lhs == UniPoly([1, 0, -2, 0, 1])

    def test_requires_weakly_reducible(self):
        k3 = adjacency_tensor(Hypergraph(2, 3, [(1, 2), (1, 3), (2, 3)]))
        with pytest.raises(ValueError):
            verify_component_product(k3)

    def test_requires_symmetric(self):
        with pytest.raises(ValueError):
            verify_component_product(fixture("a1"))

    def test_tensor_route_contract_bound(self):
        with pytest.raises(ValueError):
            verify_component_product(CubicalTensor(3, 4, []))

    def test_random_reducible_instances(self, rng):
        for _ in range(5):
            # two independent components on {1} and {2,3}
            items = [((1, 1, 1), rng.randint(1, 3))]
            sub = random_symmetric_tensor(rng, 2, 3, density=0.8, lo=1, hi=2)
            items += [
                (tuple(v + 1 for v in idx), val) for idx, val in sub.entries.items()
            ]
            a = CubicalTensor(3, 3, items)
            rep = verify_component_product(a)
            assert rep.equal


class TestIsolatedVertexMultiplicity:
    def test_unit_loop_tensor(self):
        a = CubicalTensor(3, 1, [((1, 1, 1), 1)])
        rep = isolated_vertex_multiplicity_check(a)
        assert rep.base == UniPoly([-1, 1])
        assert rep.actual == UniPoly([-1, 1]) ** 2 * UniPoly([0, 1]) ** 2
        assert rep.product_matches and not rep.power_matches
        assert rep.zero_multiplicity_base == 0
        assert rep.zero_multiplicity_actual == 2

    def test_zero_single_vertex(self):
        rep = isolated_vertex_multiplicity_check(CubicalTensor(3, 1, []))
        assert rep.base == UniPoly([0, 1])
        assert rep.actual == UniPoly([0, 1]) ** 4
        assert rep.product_matches and not rep.power_matches

    def test_empty_graph_input(self):
        rep = isolated_vertex_multiplicity_check(Hypergraph(3, 1, []))
        assert rep.base == UniPoly([0, 1])
        assert rep.actual == UniPoly([0, 1]) ** 4

    def test_two_vertex_zero_tensor(self):
        rep = isolated_vertex_multiplicity_check(CubicalTensor(3, 2, []))
        assert rep.base == UniPoly([0, 0, 0, 0, 1])
        assert rep.actual == UniPoly([0] * 12 + [1])
        assert rep.product_matches

    def test_contract_bounds(self):
        with pytest.raises(ValueError):
            isolated_vertex_multiplicity_check(CubicalTensor(3, 3, []))
        with pytest.raises(ValueError):
            isolated_vertex_multiplicity_check(CubicalTensor(4, 1, []))

    def test_squarefree_parts_exposed(self):
        a = CubicalTensor(3, 1, [((1, 1, 1), 1)])
        rep = isolated_vertex_multiplicity_check(a)
        assert rep.base_squarefree == ((1, UniPoly([-1, 1])),)
        assert rep.actual_squarefree == ((2, UniPoly([0, -1, 1])),)


# ---------------------------------------------------------------------------
# the modular engine against the single-node Fraction oracle
# ---------------------------------------------------------------------------

ENGINE = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

HUGE = 2**63
# small integers, small rationals, and numerators or denominators past int64,
# which send the engine down its Python-int reduction path
values = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(Fraction, st.integers(HUGE, 4 * HUGE) | st.integers(-4 * HUGE, -HUGE),
              st.integers(1, 5)),
    st.builds(Fraction, st.integers(-7, 7), st.integers(HUGE, 4 * HUGE)),
)


@st.composite
def sparse_tensor(draw, n: int, r: int, max_size: int) -> CubicalTensor:
    index = st.tuples(*[st.integers(1, n)] * r)
    items = draw(st.dictionaries(index, values, max_size=max_size))
    return CubicalTensor(r, n, list(items.items()))


def oracle_resultant(a: CubicalTensor, lam: int) -> Fraction:
    """Resultant of lam * x_k^(r-1) - F_k at one node, built from the entries."""
    n, d = a.n, a.r - 1
    forms = [{} for _ in range(n)]
    for idx, v in a.entries.items():
        expo = [0] * n
        for j in idx[1:]:
            expo[j - 1] += 1
        form, key = forms[idx[0] - 1], tuple(expo)
        form[key] = form.get(key, 0) - v.re
    for k in range(n):
        lead = tuple(d if i == k else 0 for i in range(n))
        forms[k][lead] = forms[k].get(lead, 0) + lam
    if n == 2:
        desc = [[f.get((d - m, m), Fraction(0)) for m in range(d + 1)] for f in forms]
        return sylvester_resultant(*desc)
    return macaulay_resultant_3(forms, d)


SMALL_PRIMES = [2, 3, 5, 7, 65537]


def assert_kernels_agree(matrix: list[list[int]], primes: list[int]) -> None:
    """The numpy kernel, run directly, and the Python-int kernel give one residue table.

    The Python-int kernel runs once per prime, and once modulo the product
    of the primes unless a pivot shares a factor with it.
    """
    h = _negated_residues(matrix, primes)
    _hessenberg_mod(h, primes)
    want = _hessenberg_charpolys(h, primes).tolist()
    assert [_charpoly_ints(matrix, p) for p in primes] == want
    combined = _charpoly_ints(matrix, prod(primes))
    if combined is not None:
        assert [[c % p for c in combined] for p in primes] == want


def three_pivot_groups(rng: random.Random) -> list[list[int]]:
    """A 6 x 6 matrix whose first pivot is row 3 modulo the largest word prime q,
    row 2 modulo the next one q2 and row 1 modulo every other prime: three pivot
    groups, and q's pivot row is zero modulo q2."""
    q, q2 = _primes_above(2**31)
    m = [[rng.randint(-2**40, 2**40) for _ in range(6)] for _ in range(6)]
    for i, v in ((1, q * q2), (2, q), (3, q2)):
        m[i][0] = v
    return m


def record_batches(monkeypatch) -> list[tuple[int, int]]:
    """(primes, n) of every batch that the numpy kernel runs from now on."""
    batches = []

    def recorded(h, primes):
        batches.append(h.shape[:2])
        return _hessenberg_charpolys(h, primes)

    monkeypatch.setattr(resultants, "_hessenberg_charpolys", recorded)
    return batches


class TestEngine:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @settings(ENGINE, max_examples=10)
    @given(data=st.data(), nodes=st.lists(st.integers(-6, 6), min_size=3, max_size=3,
                                          unique=True))
    def test_tensor_matches_single_node_resultants(self, n, r, data, nodes):
        a = data.draw(sparse_tensor(n, r, 12))
        p = charpoly_tensor(a)
        assert p.is_monic() and p.degree == n * (r - 1) ** (n - 1)
        pairs = []
        for lam in nodes:
            try:
                pairs.append((p(Fraction(lam)), oracle_resultant(a, lam)))
            except DegenerateNode:
                continue
        assert all(got == want for got, want in pairs) or all(
            got == -want for got, want in pairs)

    @pytest.mark.parametrize("n, r", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3)])
    def test_interpolated_oracle_is_the_engine(self, rng, n, r):
        # the whole node route: deg + 1 usable nodes, then interpolation
        a = random_tensor(rng, n, r, density=0.5, lo=-3, hi=3)
        p = charpoly_tensor(a)
        points = []
        lam = 0
        while len(points) <= p.degree:
            try:
                points.append((Fraction(lam), oracle_resultant(a, lam)))
            except DegenerateNode:
                pass
            lam = -lam if lam > 0 else 1 - lam
        assert UniPoly(interpolate(points)) == p

    @ENGINE
    @given(n=st.integers(1, 12), data=st.data())
    def test_matrix_matches_det_fractions(self, n, data):
        a = data.draw(sparse_tensor(n, 2, 3 * n))
        p = charpoly_2matrix(a)
        assert p.is_monic() and p.degree == n
        for lam in (-2, 3):
            shifted = [[(lam if i == j else 0) - a.entry((i, j)).re
                        for j in range(1, n + 1)] for i in range(1, n + 1)]
            assert p(Fraction(lam)) == det_fractions(shifted)

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    @pytest.mark.parametrize("r", range(2, 9))
    def test_builder_puts_lambda_on_the_diagonal(self, nvars, r):
        d = r - 1
        pure = [{tuple(d if i == k else 0 for i in range(nvars)): 1} for k in range(nvars)]
        rows, non_reduced = macaulay_matrix(pure, [d] * nvars)
        size = len(rows)
        assert rows == [[int(i == j) for j in range(size)] for i in range(size)]
        # the quotient det(M) / det(M') has the charpoly degree n d^(n-1)
        assert size - len(non_reduced) == nvars * d ** (nvars - 1)

    def test_pivots_that_vanish_modulo_one_prime(self):
        # Multiples of the largest word prime are zero modulo it but not
        # modulo the others, so the primes take different pivot rows.
        q, q2 = _primes_above(2**31)
        rng = random.Random(5)
        inputs = [[[q * rng.randint(1, 3) if rng.random() < 0.5 else rng.randint(-2, 2)
                    for _ in range(n)] for _ in range(n)] for n in (3, 5, 8)]
        three = three_pivot_groups(rng)
        # only q2, not the first prime, moves its pivot
        second = [[rng.randint(-2**40, 2**40) for _ in range(6)] for _ in range(6)]
        second[1][0], second[2][0] = q2, 1
        # entry (1, 0) is zero: every prime swaps in row 2
        agree = [[rng.randint(-2**40, 2**40) for _ in range(6)] for _ in range(6)]
        agree[1][0], agree[2][0] = 0, 1
        # all-ones: every residue of -M is p - 1, the largest operands there are
        ones = [[1] * 40 for _ in range(40)]
        # two large sparse matrices; their primes fit one batch
        sparse = [[rng.choice((-3, -1, 0, 0, 0, 0, 1, 2)) for _ in range(n)] for n in (91, 96)
                  for _ in range(n)]
        inputs += [three, second, agree, ones, sparse[:91], sparse[91:]]
        for m in inputs:
            n = len(m)
            p = UniPoly(shifted_det_coeffs(m))
            assert p.degree == n and p.is_monic()
            for lam in ((-1, 0, 2) if n < 90 else (-1, 2)):
                shifted = [[(lam if i == j else 0) + m[i][j] for j in range(n)]
                           for i in range(n)]
                assert p(Fraction(lam)) == det_fractions(shifted)
            # the engine picks one kernel by size; both must give its residues
            # (two of its primes at n > 40, where a prime takes 0.2 s in Python)
            primes = _primes_above(2 * _coefficient_bound(m))
            assert_kernels_agree(m, primes if n <= 40 else primes[:2])
        # the product of the primes sees the pivot q * q2 and hands over to one
        # prime at a time
        assert _charpoly_ints(three, prod(_primes_above(2**200))) is None

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32),
           primes=st.lists(st.sampled_from(SMALL_PRIMES + _primes_above(2**62)),
                           min_size=1, max_size=4, unique=True),
           kind=st.sampled_from(["small", "multiples", "zero columns", "ones", "huge"]))
    def test_kernels_give_the_same_residues(self, n, seed, primes, kind):
        rng = random.Random(seed)
        q = rng.choice(primes)
        if kind == "ones":
            m = [[1] * n for _ in range(n)]
        elif kind == "huge":
            m = [[rng.choice((1, -1)) * rng.randint(0, 2**70) for _ in range(n)] for _ in range(n)]
        elif kind == "multiples":
            m = [[q * rng.randint(-3, 3) if rng.random() < 0.5 else rng.randint(-2, 2)
                  for _ in range(n)] for _ in range(n)]
        else:
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if kind == "zero columns":
                for j in rng.sample(range(n), rng.randint(1, n)):
                    for row in m:
                        row[j] = 0
        assert_kernels_agree(m, primes)

    # at and past the order bound, then at and past the prime-count bound
    @pytest.mark.parametrize("n, bits, int_kernel", [
        (_INT_KERNEL_MAX_ORDER, 3, True), (_INT_KERNEL_MAX_ORDER + 1, 3, False),
        (6, 38, True), (6, 43, False)])
    def test_both_sides_of_the_kernel_crossover(self, n, bits, int_kernel):
        rng = random.Random(bits)
        m = [[rng.randint(-2**bits, 2**bits) if rng.random() < 0.5 else 0 for _ in range(n)]
             for _ in range(n)]
        primes = _primes_above(2 * _coefficient_bound(m))
        assert (n <= _INT_KERNEL_MAX_ORDER and len(primes) <= _INT_KERNEL_MAX_PRIMES) == int_kernel
        p = UniPoly(shifted_det_coeffs(m))
        assert p.degree == n and p.is_monic()
        for lam in (-3, 0, 1):
            shifted = [[(lam if i == j else 0) + m[i][j] for j in range(n)] for i in range(n)]
            assert p(Fraction(lam)) == det_fractions(shifted)

    def test_empty_matrix(self):
        assert shifted_det_coeffs([]) == [1]

    @pytest.mark.parametrize("name", ["three pivot groups", "sparse"])
    def test_batch_split_changes_nothing(self, monkeypatch, name):
        rng = random.Random(7)
        if name == "sparse":
            m = [[rng.choice((-3, -1, 0, 0, 0, 0, 1, 2)) for _ in range(40)] for _ in range(40)]
        else:
            m = three_pivot_groups(rng)
        n = len(m)
        k = len(_primes_above(2 * _coefficient_bound(m)))
        assert k >= 3 and (n > _INT_KERNEL_MAX_ORDER or k > _INT_KERNEL_MAX_PRIMES)
        batches = record_batches(monkeypatch)
        got = []
        # one prime a batch, a short last batch, one batch
        for sizes in ([1] * k, [k // 2 + 1, k - k // 2 - 1], [k]):
            monkeypatch.setattr(resultants, "_BATCH_ENTRIES", sizes[0] * n * n)
            batches.clear()
            got.append(shifted_det_coeffs(m))
            assert batches == [(size, n) for size in sizes]
        assert got[0] == got[1] == got[2]
        p = UniPoly(got[0])
        for lam in (-1, 2):
            shifted = [[(lam if i == j else 0) + m[i][j] for j in range(n)] for i in range(n)]
            assert p(Fraction(lam)) == det_fractions(shifted)

    def test_batches_do_not_pin_their_tables(self, monkeypatch):
        # one prime a batch: each batch's (1, n + 1, n + 1) polynomial table
        # must be freed before the next batch runs, not kept until the CRT
        rng = random.Random(11)
        n = 96
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert len(_primes_above(2 * _coefficient_bound(m))) == 17
        monkeypatch.setattr(resultants, "_BATCH_ENTRIES", n * n)
        tracemalloc.start()
        try:
            shifted_det_coeffs(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the residues and temporaries of one batch come to about 4 tables;
        # the 17 tables kept alive would be more than 17
        assert peak < 6 * 8 * (n + 1) ** 2

    def test_contract_matrices_run_in_one_batch(self, rng, monkeypatch):
        blocks = []
        irreducible = resultants._irreducible_det_coeffs

        def recorded(m):
            blocks.append(m)
            return irreducible(m)

        monkeypatch.setattr(resultants, "_irreducible_det_coeffs", recorded)
        batches = record_batches(monkeypatch)
        # r = 5 at n = 3, the largest Macaulay matrix of the contract: order 66
        charpoly_tensor(random_tensor(rng, 3, 5, density=0.8, lo=-3, hi=3))
        # each block that the numpy kernel takes runs all its primes in one batch
        numpy_blocks = []
        for m in blocks:
            k = len(_primes_above(2 * _coefficient_bound(m)))
            if len(m) > _INT_KERNEL_MAX_ORDER or k > _INT_KERNEL_MAX_PRIMES:
                numpy_blocks.append((k, len(m)))
        assert batches == numpy_blocks
        assert max(n for _, n in numpy_blocks) == max(map(len, blocks)) > 30


# ---------------------------------------------------------------------------
# the engine block by block over strong components
# ---------------------------------------------------------------------------

# the kinds of a planted diagonal block: its order and its entries
BLOCK_KINDS = {
    "one": (st.just(1), st.integers(-9, 9)),
    "zero": (st.integers(1, 4), st.just(0)),
    "small": (st.integers(2, 6), st.integers(-4, 4)),
    "huge": (st.integers(2, 4), st.integers(-4 * HUGE, 4 * HUGE)),
    # past the Python-int kernel's order bound: the numpy kernel
    "numpy": (st.integers(_INT_KERNEL_MAX_ORDER + 1, _INT_KERNEL_MAX_ORDER + 4),
              st.sampled_from([-2, -1, 0, 1, 3])),
}


@st.composite
def planted_block_triangular(draw):
    """(P M P^T, the diagonal blocks of M, P as a list): M is block upper
    triangular with blocks of every kind, and the permutation P hides the shape."""
    kinds = draw(st.lists(st.sampled_from(sorted(BLOCK_KINDS)), min_size=1, max_size=5))
    if kinds.count("numpy") > 1:
        kinds = [k for k in kinds if k != "numpy"] + ["numpy"]
    blocks = []
    for kind in kinds:
        size, entry = BLOCK_KINDS[kind]
        k = draw(size)
        blocks.append([[draw(entry) for _ in range(k)] for _ in range(k)])
    n = sum(map(len, blocks))
    above = draw(st.sampled_from([0, 1, -5, 2**70]))
    m = [[0] * n for _ in range(n)]
    lo = 0
    for block in blocks:
        k = len(block)
        for i in range(k):
            m[lo + i][lo:lo + k] = block[i]
            for j in range(lo + k, n):  # above the block: anything
                m[lo + i][j] = draw(st.sampled_from([0, 0, 1, -3, above]))
        lo += k
    perm = draw(st.permutations(range(n)))
    hidden = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            hidden[perm[i]][perm[j]] = m[i][j]
    return hidden, blocks, perm


class TestStrongComponents:
    @ENGINE
    @given(planted_block_triangular())
    def test_planted_blocks_multiply(self, case):
        m, blocks, perm = case
        n = len(m)
        want = [1]
        for block in blocks:
            want = _convolve(want, shifted_det_coeffs(block))
        got = shifted_det_coeffs(m)
        assert got == want
        # every component lies inside one planted block, and together they
        # cover each vertex once
        planted = [b for b, block in enumerate(blocks) for _ in block]
        owner = {perm[i]: b for i, b in enumerate(planted)}
        found = _strong_components(m)
        assert sorted(v for c in found for v in c) == list(range(n))
        assert all(len({owner[v] for v in c}) == 1 for c in found)
        p = UniPoly(got)
        for lam in (-2, 1):
            shifted = [[(lam if i == j else 0) + m[i][j] for j in range(n)] for i in range(n)]
            assert p(Fraction(lam)) == det_fractions(shifted)

    @pytest.mark.parametrize("n", [2, 7, _INT_KERNEL_MAX_ORDER + 3])
    def test_strongly_connected_stays_one_block(self, monkeypatch, n):
        rng = random.Random(n)
        # a cycle through every vertex, then sparse entries anywhere
        m = [[rng.choice((0, 0, 0, 2, -1)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            m[i][(i + 1) % n] = rng.choice((1, -2, 5))
        assert _strong_components(m) == [list(range(n))]
        seen = []
        irreducible = resultants._irreducible_det_coeffs
        monkeypatch.setattr(resultants, "_irreducible_det_coeffs",
                            lambda b: seen.append(b) or irreducible(b))
        p = UniPoly(shifted_det_coeffs(m))
        assert seen == [m]
        for lam in (-1, 3):
            shifted = [[(lam if i == j else 0) + m[i][j] for j in range(n)] for i in range(n)]
            assert p(Fraction(lam)) == det_fractions(shifted)

    @pytest.mark.parametrize("n", [1, 2, 9, 40])
    def test_zero_matrix_gives_a_power_of_mu(self, n):
        assert shifted_det_coeffs([[0] * n for _ in range(n)]) == [0] * n + [1]

    def test_long_paths_need_no_recursion(self):
        # a path 1 -> 2 -> ... -> n searched depth first is n deep, past
        # Python's default recursion limit; each vertex is its own component
        n = 1500
        m = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            m[i][i + 1] = 1
        assert shifted_det_coeffs(m) == [0] * n + [1]
        m[n - 1][0] = 1  # closed into one cycle: one component
        assert _strong_components(m) == [list(range(n))]
