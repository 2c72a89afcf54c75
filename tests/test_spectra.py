"""Power iteration, eigenpair certification, negation maps, symmetry reports."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

import hypersym as hs
from hypersym import (
    ColoringInfeasible,
    ConvergenceError,
    CubicalTensor,
    EigenPair,
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

    def test_large_rho_stops_at_float_precision(self):
        # times 10^12 the float bracket stalls about 0.01 wide, far above tol,
        # so only the stall stop ends the run
        orbits = {(1, 2, 3, 4): 1, (1, 2, 3, 5): 1, (1, 1, 4, 5): 1, (2, 5, 5, 5): 1}
        small = spectral_radius_power(CubicalTensor.from_orbits(4, 5, orbits))
        big = spectral_radius_power(
            CubicalTensor.from_orbits(4, 5, {k: v * 10**12 for k, v in orbits.items()}))
        assert big.lam.real == pytest.approx(small.lam.real * 10**12, rel=1e-12)
        assert big.residual <= 1e-12

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
