"""Power iteration, eigenpair certification, negation maps, symmetry reports."""

from __future__ import annotations

import cmath
import math
import random
import re
import sys
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypersym as hs
from hypersym import (
    ColoringInfeasible,
    ConvergenceError,
    CubicalTensor,
    EigenPair,
    FIXTURE_NAMES,
    Hypergraph,
    OddColoring,
    OddTransversal,
    adjacency_tensor,
    check_symmetric_spectrum_certified,
    eigen_residual,
    extract_transversal_from_eigenvector,
    fixture,
    gen_prop4_graph,
    negation_map_from_coloring,
    negation_map_from_transversal,
    odd_coloring,
    odd_transversal,
    polynomial_form,
    spectral_radius_power,
)
from hypersym.spectra import _power, _r_norm
from hypersym.tensor import to_float

from conftest import random_graph_with_odd_transversal, random_symmetric_tensor


def complete_graph_tensor(n: int) -> CubicalTensor:
    return adjacency_tensor(
        Hypergraph(2, n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])
    )


class TestEigenPair:
    def test_certify_recomputes_residual(self):
        a = fixture("order6")
        pair = EigenPair.certify(a, 1.0, [1.0] * 6)
        assert pair.residual <= 1e-15
        assert pair.kind == "H"

    def test_kind_inferred_complex(self):
        a = fixture("order6")
        y = [cmath.exp(2j * math.pi * k / 6) for k in range(1, 7)]
        pair = EigenPair.certify(a, -1.0, y)
        assert pair.kind == "general"
        assert pair.residual <= 1e-12

    def test_explicit_kind_respected(self):
        a = fixture("order6")
        pair = EigenPair.certify(a, 1.0, [1.0] * 6, kind="general")
        assert pair.kind == "general"

    @pytest.mark.parametrize("kind", ["Z", "h", ""])
    def test_certify_refuses_other_kinds(self, kind):
        with pytest.raises(ValueError, match=f"kind must be 'general' or 'H', got {kind!r}"):
            EigenPair.certify(fixture("order6"), 1.0, [1.0] * 6, kind=kind)

    def test_json_round_trip(self):
        a = fixture("order6")
        pair = spectral_radius_power(a)
        again = EigenPair.from_json_dict(pair.to_json_dict())
        assert again.lam == pair.lam
        assert again.x == pair.x
        assert again.kind == pair.kind


    @pytest.mark.parametrize("lam,x0", [([math.inf, 0], [1, 0]), ([math.nan, 0], [1, 0]),
                                        ([True, 0], [1, 0]), ([1, 0], [1, -math.inf]),
                                        ([1, 0], [10 ** 400, 0]), ([1, 0], [False, 1])])
    def test_from_json_dict_rejects_non_finite_and_boolean_components(self, lam, x0):
        with pytest.raises(ValueError, match="eigenpair component"):
            EigenPair.from_json_dict({"lambda": lam, "x": [x0, [1, 0]], "residual": 0})

    @pytest.mark.parametrize("lam,x1,where", [
        ([1, 0, 5], [1, 0], "'lambda'"), ([1], [1, 0], "'lambda'"), (1.0, [1, 0], "'lambda'"),
        ((1, 0), [1, 0], "'lambda'"), ([1, 0], [1, 0, 3], "'x' entry 2"),
        ([1, 0], [], "'x' entry 2"), ([1, 0], "10", "'x' entry 2"),
    ])
    def test_from_json_dict_requires_two_parts(self, lam, x1, where):
        with pytest.raises(ValueError, match=f"eigenpair {where} is not a list"):
            EigenPair.from_json_dict({"lambda": lam, "x": [[1, 0], x1], "residual": 0})


class TestPowerIteration:
    def test_uniform_cycle_tensor(self):
        pair = spectral_radius_power(fixture("order6"))
        assert pair.lam.real == pytest.approx(1.0, abs=1e-10)
        assert pair.residual <= 1e-10
        assert all(v.real > 0 for v in pair.x)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_complete_graph_rho(self, n):
        pair = spectral_radius_power(complete_graph_tensor(n))
        assert pair.lam.real == pytest.approx(n - 1, abs=1e-9)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_single_edge_rho_is_factorial(self, r):
        g = Hypergraph(r, r, [tuple(range(1, r + 1))])
        pair = spectral_radius_power(adjacency_tensor(g))
        assert pair.lam.real == pytest.approx(math.factorial(r - 1), abs=1e-9)

    def test_matches_numpy_eigvals_on_random_matrices(self, rng):
        np = pytest.importorskip("numpy")
        for _ in range(10):
            n = rng.randint(2, 6)
            a = random_symmetric_tensor(rng, n, 2, density=0.8, lo=1, hi=4)
            if not hs.is_weakly_irreducible(a):
                continue
            m = np.zeros((n, n))
            for (i, j), v in a.entries.items():
                m[i - 1, j - 1] = float(complex(v).real)
            expected = max(abs(np.linalg.eigvals(m)))
            pair = spectral_radius_power(a)
            assert pair.lam.real == pytest.approx(expected, rel=1e-8, abs=1e-8)

    def test_unit_norm_and_positive_vector(self, rng):
        a = random_symmetric_tensor(rng, 4, 3, density=0.9, lo=1, hi=3)
        pair = spectral_radius_power(a)
        xs = [v.real for v in pair.x]
        assert all(v > 0 for v in xs)
        assert sum(abs(v) ** a.r for v in xs) == pytest.approx(1.0, abs=1e-9)

    def test_collatz_wielandt_upper_bound(self, rng):
        # rho dominates the form value at any unit-r-norm nonnegative vector
        a = random_symmetric_tensor(rng, 3, 4, density=0.9, lo=1, hi=3)
        rho = spectral_radius_power(a).lam.real
        for _ in range(50):
            x = [rng.uniform(0.01, 1.0) for _ in range(3)]
            norm = sum(v ** a.r for v in x) ** (1.0 / a.r)
            x = [v / norm for v in x]
            assert polynomial_form(a, x) <= rho + 1e-8

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            spectral_radius_power(fixture("h2"))

    def test_rejects_complex_entries(self):
        a = CubicalTensor(2, 2, [((1, 2), hs.ExactComplex(0, 1)), ((2, 1), 1)])
        with pytest.raises(ValueError):
            spectral_radius_power(a)

    def test_rejects_reducible_with_pointer_to_components(self):
        with pytest.raises(ValueError, match="components"):
            spectral_radius_power(fixture("a2"))

    def test_convergence_error_carries_bracket(self):
        # path graph: non-uniform Perron vector, so the bracket needs iterations
        a = adjacency_tensor(Hypergraph(2, 3, [(1, 2), (2, 3)]))
        with pytest.raises(ConvergenceError) as exc:
            spectral_radius_power(a, tol=1e-300, max_iter=2)
        assert exc.value.lower <= exc.value.upper
        assert exc.value.iterations == 2

    @pytest.mark.parametrize("tol", [0.0, -1e-10, -math.inf, math.inf, math.nan])
    def test_tol_must_be_finite_and_positive(self, tol):
        # tol = inf stopped after one step at the midpoint of the first
        # bracket; nan never stopped on width
        path = adjacency_tensor(Hypergraph(2, 3, [(1, 2), (2, 3)]))
        cycle = adjacency_tensor(Hypergraph(2, 4, [(1, 2), (2, 3), (3, 4), (1, 4)]))
        assert check_symmetric_spectrum_certified(cycle).branch == "colorable"
        message = f"tol must be finite and positive, got {tol!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            spectral_radius_power(path, tol=tol)
        with pytest.raises(ValueError, match=re.escape(message)):
            check_symmetric_spectrum_certified(cycle, tol=tol)
        with pytest.raises(ValueError, match=re.escape(message)):
            _power(path, tol, 100)

    @pytest.mark.parametrize("bad", [True, 1.0])
    def test_max_iter_refuses_non_ints(self, bad):
        # True would run one iteration
        a = adjacency_tensor(gen_prop4_graph(1, 4, 4)[0])
        for run in (spectral_radius_power, check_symmetric_spectrum_certified):
            with pytest.raises(ValueError, match=f"max_iter must be an integer, got {bad!r}"):
                run(a, max_iter=bad)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_max_iter_must_be_positive(self, bad):
        # it raised a ConvergenceError with the bracket [nan, nan]
        path = adjacency_tensor(Hypergraph(2, 3, [(1, 2), (2, 3)]))
        cycle = adjacency_tensor(Hypergraph(2, 4, [(1, 2), (2, 3), (3, 4), (1, 4)]))
        assert check_symmetric_spectrum_certified(cycle).branch == "colorable"
        message = f"max_iter must be a positive integer, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            spectral_radius_power(path, max_iter=bad)
        with pytest.raises(ValueError, match=re.escape(message)):
            check_symmetric_spectrum_certified(cycle, max_iter=bad)
        with pytest.raises(ValueError, match=re.escape(message)):
            _power(path, 1e-10, bad)

    def test_large_rho_stops_at_float_precision(self):
        # times 10^12 the float bracket stalls about 0.01 wide, far above tol,
        # so only the stall stop ends the run
        orbits = {(1, 2, 3, 4): 1, (1, 2, 3, 5): 1, (1, 1, 4, 5): 1, (2, 5, 5, 5): 1}
        small = spectral_radius_power(CubicalTensor.from_orbits(4, 5, orbits))
        big = spectral_radius_power(
            CubicalTensor.from_orbits(4, 5, {k: v * 10**12 for k, v in orbits.items()}))
        assert big.lam.real == pytest.approx(small.lam.real * 10**12, rel=1e-12)
        assert big.residual <= 1e-12

    def test_small_values_run_near_1(self):
        # Values below 1/2 run on the tensor times an exact power of two.  As
        # given, the shift s >= 1 swamps F(x) = O(1e-6) and the bracket does
        # not narrow to tol in 100,000 iterations.
        orbits = {(1, 2): Fraction(1, 10**6), (2, 3): Fraction(4, 10**6)}
        pair = spectral_radius_power(CubicalTensor.from_orbits(2, 3, orbits), max_iter=1000)
        assert pair.lam.real == pytest.approx(17 ** 0.5 * 1e-6, abs=1e-10)
        assert pair.residual <= 1e-10
        # the pair of the tensor times 2**17, whose largest value is in [1/2, 1),
        # scaled back; the scaled run keeps the caller's tol
        big = spectral_radius_power(
            CubicalTensor.from_orbits(2, 3, {k: v * 2**17 for k, v in orbits.items()}),
            tol=1e-10)
        assert pair.lam.real == math.ldexp(big.lam.real, -17) and pair.x == big.x

    def test_small_values_build_the_arc_matrix_once(self, monkeypatch):
        # the tensor times 2^-k has the same index rows and signs, so the
        # rescaled run repeats neither structure check
        builds = []
        arcs = CubicalTensor._arcs

        def counted(self):
            if "_arcs" not in self._cache:
                builds.append(self)
            return arcs(self)

        monkeypatch.setattr(CubicalTensor, "_arcs", counted)
        orbits = {(1, 2): Fraction(1, 10**6), (2, 3): Fraction(4, 10**6)}
        spectral_radius_power(CubicalTensor.from_orbits(2, 3, orbits), max_iter=1000)
        assert len(builds) == 1

    def test_bracket_held_by_the_graph_is_no_stall(self):
        # A 4 x 4 torus grid and a 7-cycle, one edge of each cut and the ends
        # cross-joined: every degree stays 4 or 2.  From the uniform start the
        # bracket is exactly [2, 4] for several iterations, so a stall stop
        # that ignored its width would report rho = 3.
        t, c = 4, 7
        grid = lambda i, j: (i % t) * t + j % t + 1
        edges = {tuple(sorted((grid(i, j), grid(i + di, j + dj))))
                 for i in range(t) for j in range(t) for di, dj in ((1, 0), (0, 1))}
        edges |= {(t * t + k, t * t + k % c + 1) for k in range(1, c)} | {(t * t + 1, t * t + c)}
        edges -= {(1, 2), (t * t + 1, t * t + 2)}
        edges |= {(1, t * t + 1), (2, t * t + 2)}
        a = adjacency_tensor(Hypergraph(2, t * t + c, sorted(edges)))
        pair = spectral_radius_power(a)
        dense = np.zeros((a.n, a.n))
        for i, j in edges:
            dense[i - 1, j - 1] = dense[j - 1, i - 1] = 1
        assert pair.lam.real == pytest.approx(np.linalg.eigvalsh(dense)[-1], abs=1e-9)
        assert pair.residual <= 1e-10

    def test_narrow_exact_plateau_is_no_stall(self):
        # A 220-cycle with 21 consecutive edges of weight 1 + 1e-8.  From the
        # uniform start the bracket is exactly [2, 2 + 2e-8] for several
        # iterations while x still moves by millions of ulps; stopping there
        # would report rho 8e-9 too high.
        n, heavy, w = 220, 21, Fraction(100000001, 100000000)
        orbits = {tuple(sorted((k + 1, (k + 1) % n + 1))): w if k < heavy else 1
                  for k in range(n)}
        pair = spectral_radius_power(CubicalTensor.from_orbits(2, n, orbits))
        dense = np.zeros((n, n))
        for (i, j), v in orbits.items():
            dense[i - 1, j - 1] = dense[j - 1, i - 1] = float(v)
        assert pair.lam.real == pytest.approx(np.linalg.eigvalsh(dense)[-1], abs=1e-10)

    def test_diagonal_shift_handles_loops(self):
        # dominant diagonal plus coupling still converges
        a = CubicalTensor(
            3,
            2,
            [((1, 1, 1), 5), ((2, 2, 2), 1)]
            + [(p, 1) for p in set(permutations((1, 1, 2)))]
            + [(p, 1) for p in set(permutations((1, 2, 2)))],
        )
        pair = spectral_radius_power(a)
        assert pair.residual <= 1e-10
        assert pair.lam.real > 5


@pytest.mark.parametrize("r", range(2, 9))
def test_r_norm_is_numpys_norm_bit_for_bit(r):
    gen = np.random.default_rng(r)
    for n, scale in [(1, 1.0), (5, 1.0), (40, 1e-3), (1000, 1.0), (1000, 1e30), (200, 1e300)]:
        x = gen.random(n) * scale + 1e-300
        with np.errstate(over="ignore"):  # 1e300 ** r is inf on both sides
            assert _r_norm(x, r, 1.0 / r) == np.linalg.norm(x, ord=r)


# ---------------------------------------------------------------------------
# bit-identity oracle for the power step
# ---------------------------------------------------------------------------
# The reference is `_power`, `_rescaled_power`, `_r_norm` and `apply_array`
# as they read while every step recomputed 1/p and 1/r, looked the reductions
# up, multiplied the shift in and took abs before the r-th powers.  Each
# floating-point operation is the same and runs in the same order, so
# `_power` must return the same floats, and raise with the same bracket.

def _reference_r_norm(x: np.ndarray, r: int) -> np.floating:
    if r == 2:
        return np.sqrt(x.dot(x))
    absx = np.abs(x)
    absx **= r
    return np.add.reduce(absx) ** np.reciprocal(float(r))


def _reference_apply(a, x):
    heads, tails, weights = a._kernel()
    if not len(heads):  # no terms, however many tail factors each would have
        return np.zeros(a.n)
    terms = weights * x[tails[0]]
    for row in tails[1:]:
        terms *= x[row]
    if np.iscomplexobj(terms):
        # bincount accepts real weights only
        return (np.bincount(heads, weights=terms.real, minlength=a.n)
                + 1j * np.bincount(heads, weights=terms.imag, minlength=a.n))
    return np.bincount(heads, weights=terms, minlength=a.n)


@np.errstate(over="ignore")
def _reference_power(a, tol, max_iter):
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    largest = max((v.re for v in a._arrays[2]), default=Fraction(1))
    k = largest.numerator.bit_length() - largest.denominator.bit_length()
    if largest < Fraction(1, 2):  # the shift would swamp F(x): iterate on values near 1
        return _reference_rescaled_power(a, k, tol, max_iter)
    n, r = a.n, a.r
    p = r - 1
    shift = 1.0 + max((to_float(v.re) for v in a.diagonal()), default=0.0)

    x = np.full(n, n ** (-1.0 / r))
    lo = hi = math.nan
    width, stalled = math.inf, 0
    for it in range(max_iter):
        xp = x ** p
        y = _reference_apply(a, x) + shift * xp
        ratios = y / xp
        lo = float(np.minimum.reduce(ratios)) - shift
        hi = float(np.maximum.reduce(ratios)) - shift
        if not math.isfinite(hi - lo):
            if it == 0 and k > 0:
                return _reference_rescaled_power(a, k, tol, max_iter)
            raise ValueError(f"the spectral radius bracket [{lo!r}, {hi!r}] is not finite "
                             "in floating point")
        x_new = y ** (1.0 / p)
        norm = _reference_r_norm(x_new, r)
        if norm == math.inf:  # the r-th powers overflow: scale by a power of two, exactly
            x_new = np.ldexp(x_new, -np.frexp(x_new.max())[1])
            norm = _reference_r_norm(x_new, r)
        x_new /= norm
        if hi - lo < width:
            width, stalled = hi - lo, 0
        elif np.abs(x_new - x).max() <= hs.spectra._STALL_STEP * x.max():
            stalled += 1
        else:
            stalled = 0
        if width <= tol or stalled == hs.spectra._STALL_ITERATIONS:
            return 0.5 * lo + 0.5 * hi, x  # 0.5 * (lo + hi) unless lo + hi overflows
        x = x_new
    raise ConvergenceError(lo, hi, max_iter)


@np.errstate(over="ignore")
def _reference_rescaled_power(a, k, tol, max_iter):
    try:
        rho, x = _reference_power(a._scaled(Fraction(2) ** -k), min(math.ldexp(tol, -k), tol),
                                  max_iter)
    except ConvergenceError as exc:
        raise ConvergenceError(float(np.ldexp(exc.lower, k)), float(np.ldexp(exc.upper, k)),
                               exc.iterations) from None
    scaled = float(np.ldexp(rho, k))
    if scaled == math.inf:
        raise ValueError(f"the spectral radius {rho!r} * 2**{k} is not finite "
                         "in floating point")
    return scaled, x


def _outcome(power, a):
    """(rho, x), or the type and text of the error, which carry the last bracket."""
    try:
        # an entry of x that underflows to 0 makes a ratio inf or nan: the
        # bracket is then not finite, and both raise
        with np.errstate(divide="ignore", invalid="ignore"):
            return power(a, 1e-10, 2000)
    except (ConvergenceError, ValueError) as exc:
        return type(exc), str(exc)


def assert_same_floats(a):
    want, got = _outcome(_reference_power, a), _outcome(_power, a)
    if isinstance(want[1], np.ndarray):
        assert isinstance(got[1], np.ndarray)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
    else:
        assert got == want


@st.composite
def shifted_tuple_tensors(draw):
    """Nonnegative tuple tensors at r = 2..5 with a diagonal entry: shift > 1."""
    r = draw(st.integers(2, 5))
    n = draw(st.integers(1, 5 if r <= 3 else 4))
    values = (st.integers(1, 50)
              | st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**3))
              | st.sampled_from([1e300, 2.5e307]))
    # the arcs k -> k + 1 around a cycle make the tensor weakly irreducible
    items = {(k,) + (k % n + 1,) * (r - 1): draw(values) for k in range(1, n + 1)}
    items[(draw(st.integers(1, n)),) * r] = draw(values)
    index = st.tuples(*[st.integers(1, n)] * r)
    items.update(draw(st.dictionaries(index, values, max_size=8)))
    return CubicalTensor(r, n, list(items.items()))


@st.composite
def connected_hypergraphs(draw):
    """Connected r-graphs at r = 2..5: their diagonal is empty, so shift = 1."""
    r = draw(st.integers(2, 5))
    n = draw(st.integers(r, r + 4))
    edges = {frozenset(range(i, i + r)) for i in range(1, n - r + 2)}
    edges |= set(draw(st.lists(st.frozensets(st.integers(1, n), min_size=r, max_size=r),
                               max_size=6)))
    return Hypergraph(r, n, sorted(tuple(sorted(e)) for e in edges))


def _fixture_tensors():
    for name in FIXTURE_NAMES:
        for a in ([fixture(name, r=r) for r in (2, 4, 6, 171)] if name == "edge-r"
                  else [fixture(name)]):
            if not a.is_nonnegative():
                continue
            if hs.is_weakly_irreducible(a):
                parts = [a]
            elif hs.is_symmetric(a):  # a2: one part per component
                parts = [sub for _, sub in hs.components(a).parts]
            else:
                parts = []
            yield from (pytest.param(t, id=f"{name}-r{t.r}-n{t.n}") for t in parts)


class TestPowerStepOracle:
    @pytest.mark.parametrize("a", list(_fixture_tensors()))
    def test_fixtures(self, a):
        assert_same_floats(a)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(shifted_tuple_tensors())
    def test_tuple_tensors_with_a_diagonal(self, a):
        assert hs.is_weakly_irreducible(a) and a.is_nonnegative()
        assert_same_floats(a)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(connected_hypergraphs())
    def test_hypergraphs(self, g):
        assert hs.is_weakly_irreducible(g)
        assert_same_floats(g)

    @pytest.mark.parametrize("items", [
        # every value below 1/2: the run is on the tensor times a power of two
        [((1, 2), Fraction(1, 10**6)), ((2, 1), Fraction(1, 10**6)),
         ((2, 3), Fraction(4, 10**6)), ((3, 2), Fraction(4, 10**6))],
        # the first bracket's upper end, 2e308, overflows
        [((1, 2), 1e308), ((2, 1), 1e308), ((2, 3), 1e308), ((3, 2), 1e308)],
        # the r-norm of the first iterate overflows
        [((1, 1), 2e307), ((1, 2), 4e307), ((2, 1), 4e307)],
        # rho = 1e308 is finite, though lo + hi is not
        [((1, 2), 1e308), ((2, 1), 1e308)],
    ], ids=["small-values", "first-bracket-overflows", "iterate-norm-overflows",
            "bracket-sum-overflows"])
    def test_near_the_float_limits(self, items):
        n = max(max(i) for i, _ in items)
        assert_same_floats(CubicalTensor(2, n, items))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(shifted_tuple_tensors(), st.data())
    def test_apply_array_real_and_complex(self, a, data):
        parts = st.floats(-2.0, 2.0)
        re = np.array(data.draw(st.lists(parts, min_size=a.n, max_size=a.n)))
        im = np.array(data.draw(st.lists(parts, min_size=a.n, max_size=a.n)))
        with np.errstate(over="ignore", invalid="ignore"):
            for x in (re, re + 1j * im):
                assert np.array_equal(hs.tensor.apply_array(a, x), _reference_apply(a, x),
                                      equal_nan=True)


class TestNegationMaps:
    def test_coloring_map_for_pair_graph(self):
        g, phi = gen_prop4_graph(1, 4, 4)
        a = adjacency_tensor(g)
        pair = spectral_radius_power(a)
        nmap = negation_map_from_coloring(phi, a)
        flipped = nmap.transport(pair, a)
        assert flipped.lam.real == pytest.approx(-pair.lam.real, abs=1e-9)
        assert flipped.residual <= 1e-9

    def test_coloring_map_diag_values_are_unit_roots(self):
        g, phi = gen_prop4_graph(1, 4, 4)
        a = adjacency_tensor(g)
        nmap = negation_map_from_coloring(phi, a)
        for d, residue in zip(nmap.diag, phi.phi):
            assert d == pytest.approx(cmath.exp(2j * math.pi * residue / phi.r))

    def test_transversal_map_literal_signs(self):
        g = Hypergraph(4, 4, [(1, 2, 3, 4)])
        a = adjacency_tensor(g)
        x = odd_transversal(g)
        assert isinstance(x, OddTransversal)
        nmap = negation_map_from_transversal(x, a)
        assert all(d in (1.0, -1.0) or d in (1, -1) for d in nmap.diag)
        for k, d in enumerate(nmap.diag, start=1):
            assert (d == 1) == (k in x)

    def test_transversal_map_flips_perron_pair_exactly(self):
        g = Hypergraph(4, 4, [(1, 2, 3, 4)])
        a = adjacency_tensor(g)
        pair = spectral_radius_power(a)
        assert pair.lam.real == pytest.approx(6.0, abs=1e-9)
        x = odd_transversal(g)
        nmap = negation_map_from_transversal(x, a)
        flipped = nmap.transport(pair, a)
        assert flipped.kind == "H"
        assert flipped.lam.real == pytest.approx(-6.0, abs=1e-9)
        assert flipped.residual <= 1e-12

    def test_transport_preserves_residual_even_for_rough_pairs(self):
        g, phi = gen_prop4_graph(1, 4, 4)
        a = adjacency_tensor(g)
        pair = spectral_radius_power(a, tol=1e-4)
        nmap = negation_map_from_coloring(phi, a)
        flipped = nmap.transport(pair, a)
        assert flipped.residual == pytest.approx(pair.residual, rel=1e-6, abs=1e-15)

    def test_unverified_certificates_rejected(self):
        g, _ = gen_prop4_graph(1, 4, 4)
        a = adjacency_tensor(g)
        with pytest.raises(ValueError):
            negation_map_from_coloring(OddColoring(r=4, phi=(0,) * 8), a)
        with pytest.raises(ValueError):
            negation_map_from_transversal(OddTransversal(n=8, vertices=(1,)), a)

    def test_transport_refuses_mismatched_sizes(self):
        g, phi = gen_prop4_graph(1, 4, 4)
        a = adjacency_tensor(g)
        pair = spectral_radius_power(a)
        nmap = negation_map_from_coloring(phi, a)
        short = EigenPair(lam=pair.lam, x=pair.x[:-1], residual=0.0, kind="H")
        other = adjacency_tensor(Hypergraph(4, 9, [(1, 2, 3, 4)]))
        for bad_pair, target in [(short, a), (pair, other)]:
            with pytest.raises(ValueError, match="sizes disagree"):
                nmap.transport(bad_pair, target)

    def test_transversal_map_requires_even_order(self):
        g = Hypergraph(3, 3, [(1, 2, 3)])
        a = adjacency_tensor(g)
        x = odd_transversal(g)
        with pytest.raises(ValueError):
            negation_map_from_transversal(x, a)


class TestExtractTransversal:
    def test_recovers_sign_pattern(self):
        assert extract_transversal_from_eigenvector([-1.0, 2.0, -3.0]) == (
            OddTransversal(n=3, vertices=(1, 3))
        )

    def test_rejects_near_zero_entries(self):
        with pytest.raises(ValueError):
            extract_transversal_from_eigenvector([1.0, 1e-12, -1.0])

    def test_rejects_complex_entries(self):
        with pytest.raises(ValueError):
            extract_transversal_from_eigenvector([1.0, 1j])

    def test_round_trip_with_flipped_perron(self, rng):
        for _ in range(8):
            g, _ = random_graph_with_odd_transversal(rng, rng.randint(4, 7), 4)
            a = adjacency_tensor(g)
            pair = spectral_radius_power(a)
            x = odd_transversal(g)
            assert isinstance(x, OddTransversal)
            nmap = negation_map_from_transversal(x, a)
            flipped = nmap.transport(pair, a)
            recovered = extract_transversal_from_eigenvector(flipped.x)
            assert hs.verify_certificate(g, recovered)


class TestSymmetryReport:
    def test_colorable_branch_pads_component_witnesses(self):
        g, _ = gen_prop4_graph(1, 4, 4)
        a = adjacency_tensor(g)
        rep = check_symmetric_spectrum_certified(a)
        assert rep.symmetric and rep.branch == "colorable"
        assert isinstance(rep.certificate, OddColoring)
        assert hs.verify_certificate(a, rep.certificate)
        (w,) = rep.witness_pairs
        assert w.plus.lam.real == pytest.approx(108.0, abs=1e-8)
        assert w.minus.lam.real == pytest.approx(-108.0, abs=1e-8)
        assert w.plus.residual <= 1e-9 and w.minus.residual <= 1e-9
        assert len(w.plus.x) == a.n and len(w.minus.x) == a.n

    def test_not_colorable_branch(self):
        k3 = complete_graph_tensor(3)
        rep = check_symmetric_spectrum_certified(k3)
        assert not rep.symmetric and rep.branch == "not-colorable"
        assert rep.certificate is None and rep.witness_pairs == ()
        assert isinstance(rep.infeasibility, ColoringInfeasible)

    def test_odd_r_zero_and_nonzero(self):
        zero = CubicalTensor(3, 2, [])
        rep = check_symmetric_spectrum_certified(zero)
        assert rep.symmetric and rep.branch == "odd-r"
        edge = adjacency_tensor(Hypergraph(3, 3, [(1, 2, 3)]))
        rep2 = check_symmetric_spectrum_certified(edge)
        assert not rep2.symmetric and rep2.branch == "odd-r"

    def test_requires_symmetric_tensor(self):
        with pytest.raises(ValueError):
            check_symmetric_spectrum_certified(fixture("order6"))

    def test_reducible_tensor_gets_one_witness_per_component(self):
        rep = check_symmetric_spectrum_certified(fixture("a2"))
        assert rep.symmetric and rep.branch == "colorable"
        assert len(rep.witness_pairs) == 2
        for w in rep.witness_pairs:
            assert w.plus.lam.real == pytest.approx(1.0, abs=1e-9)
            assert w.minus.lam.real == pytest.approx(-1.0, abs=1e-9)
            # padded to the full vertex set with zeros off-component
            assert len(w.plus.x) == 4
            off = set(range(1, 5)) - set(w.vertices)
            for v in off:
                assert abs(w.plus.x[v - 1]) == 0

    def test_json_payload_shape(self):
        rep = check_symmetric_spectrum_certified(fixture("a2"))
        data = rep.to_json_dict()
        assert sorted(data) == ["branch", "certificate", "symmetric", "witness_pairs"]

    def test_zero_tensor_even_r_symmetric(self):
        rep = check_symmetric_spectrum_certified(CubicalTensor(4, 2, []))
        assert rep.symmetric and rep.branch == "colorable"

    def test_each_pair_is_certified_once(self, monkeypatch):
        # every part of components() is connected, so weakly irreducible, and
        # nonnegative as the tensor is: no part is checked again, and each
        # reported pair gets one residual, against the tensor as given
        residuals, builds, irreducible = [], [], []
        residual, arcs = hs.spectra.eigen_residual, CubicalTensor._arcs
        weakly_irreducible = hs.tensor.is_weakly_irreducible

        def counted_residual(a, lam, x):
            residuals.append(a)
            return residual(a, lam, x)

        def counted_arcs(self):
            if "_arcs" not in self._cache:
                builds.append(self)
            return arcs(self)

        def counted_irreducible(a):
            irreducible.append(a)
            return weakly_irreducible(a)

        monkeypatch.setattr(hs.spectra, "eigen_residual", counted_residual)
        monkeypatch.setattr(CubicalTensor, "_arcs", counted_arcs)
        for name, module in list(sys.modules.items()):
            if name.startswith("hypersym.") and hasattr(module, "is_weakly_irreducible"):
                monkeypatch.setattr(module, "is_weakly_irreducible", counted_irreducible)

        g = fixture("prop4-k1")
        twice = Hypergraph(g.r, 2 * g.n, [*g.edges, *(tuple(v + g.n for v in e) for e in g.edges)])
        rep = check_symmetric_spectrum_certified(twice)
        assert [w.vertices for w in rep.witness_pairs] == [tuple(range(1, 9)), tuple(range(9, 17))]
        assert residuals == [twice] * 4 and builds == [twice] and irreducible == []

        residuals.clear()
        orbits = {(1, 2): Fraction(1, 10**6), (2, 3): Fraction(4, 10**6)}
        small = CubicalTensor.from_orbits(2, 3, orbits)
        spectral_radius_power(small, max_iter=1000)
        assert residuals == [small]

        irreducible.clear()
        assert hs.verify_component_product(fixture("a2")).equal
        assert irreducible == []


class TestDiagonalSimilaritySpectra:
    def test_unit_modulus_scaling_preserves_residual(self):
        a = adjacency_tensor(gen_prop4_graph(1, 4, 4)[0])
        pair = spectral_radius_power(a)
        local = random.Random(99)
        # exact fourth roots of unity keep the similarity unit-modulus exactly
        quarter = [hs.ExactComplex(0, 1), hs.ExactComplex(-1, 0),
                   hs.ExactComplex(0, -1), hs.ExactComplex(1, 0)]
        zx = [quarter[local.randrange(4)] for _ in range(a.n)]
        b = hs.diagonal_similarity(a, zx)
        u = [complex(pair.x[j]) / complex(zx[j]) for j in range(a.n)]
        assert eigen_residual(b, pair.lam, u) <= 1e-9
