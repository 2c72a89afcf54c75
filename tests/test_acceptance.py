"""Top-level behavioral guarantees, one reported line per criterion.

Each test prints ``ACCEPTANCE nn: PASS/FAIL`` on the real stdout so the
status survives pytest's capture, then asserts at the stated tolerance.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import random
import time
from itertools import permutations

import numpy as np
import pytest

import hypersym as hs
from hypersym import cli
from hypersym import (
    ColoringInfeasible,
    CubicalTensor,
    Hypergraph,
    OddColoring,
    OddTransversal,
    UniPoly,
    adjacency_tensor,
    charpoly_2matrix,
    charpoly_tensor,
    check_symmetric_spectrum_certified,
    chromatic_number,
    coloring_to_transversal,
    eigen_residual,
    extract_transversal_from_eigenvector,
    fixture,
    gen_prop4_graph,
    gen_prop5_graph,
    is_bipartite_2matrix,
    is_spectrum_symmetric_poly,
    negation_map_from_coloring,
    negation_map_from_transversal,
    odd_coloring,
    odd_transversal,
    spectral_radius_power,
    support_patterns,
    TransversalInfeasible,
    transversal_to_coloring,
    verify_certificate,
    verify_component_product,
)

import conftest
from conftest import (
    random_graph_with_odd_transversal,
    random_hypergraph,
    random_symmetric_tensor,
)


def criterion(num: int, desc: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                conftest.record_acceptance(num, desc, "FAIL")
                print(f"ACCEPTANCE {num:02d}: FAIL — {desc}", flush=True)
                raise
            conftest.record_acceptance(num, desc, "PASS")
            print(f"ACCEPTANCE {num:02d}: PASS — {desc}", flush=True)
            return result

        return wrapper

    return deco


@criterion(1, "two-part 4-uniform family: colorable, transversal-infeasible, < 1 s")
def test_criterion_01_two_part_family():
    t0 = time.perf_counter()
    g, phi = gen_prop4_graph(1, 4, 4)
    assert g.n == 8 and g.r == 4
    assert len(g.edges) == 36
    assert verify_certificate(g, phi)

    found = odd_coloring(g)
    assert isinstance(found, OddColoring)
    assert verify_certificate(g, found)

    miss = odd_transversal(g)
    assert not isinstance(miss, OddTransversal)
    # the exhibited rows form an explicit GF(2) contradiction:
    # their incidence vectors cancel while the parities sum to 1
    assert len(miss.pattern_indices) % 2 == 1
    patterns = support_patterns(g)
    acc = 0
    for i in miss.pattern_indices:
        assert patterns[i] == miss.patterns[miss.pattern_indices.index(i)]
        for v in patterns[i]:
            acc ^= 1 << (v - 1)
    assert acc == 0

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion(2, "three-part 4-uniform family: colorable yet weak chromatic number 3, < 60 s")
def test_criterion_02_three_part_family():
    t0 = time.perf_counter()
    g, phi = gen_prop5_graph(1, 6, 6, 4)
    assert g.n == 16 and len(g.edges) == 420
    assert verify_certificate(g, phi)

    found = odd_coloring(g)
    assert isinstance(found, OddColoring)
    assert verify_certificate(g, found)

    w = chromatic_number(g, 4)
    assert w is not None and w.k == 3
    for e in g.edges:
        assert len({w.assignment[v - 1] for v in e}) > 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.3f}s"


@criterion(3, "negation map flips the Perron pair of the two-part adjacency tensor")
def test_criterion_03_negation_map_flip():
    g, phi = gen_prop4_graph(1, 4, 4)
    a = adjacency_tensor(g)
    pair = spectral_radius_power(a, tol=1e-10)
    assert pair.residual <= 1e-10
    assert pair.lam.real == pytest.approx(108.0, abs=1e-6)
    assert all(v.real > 0 and v.imag == 0 for v in pair.x)

    nmap = negation_map_from_coloring(phi, a)
    flipped = nmap.transport(pair, a)
    assert flipped.lam.real == pytest.approx(-pair.lam.real, abs=1e-9)
    assert flipped.residual <= 1e-9
    assert eigen_residual(a, flipped.lam, flipped.x) <= 1e-9


@criterion(4, "order-6 cyclic tensor: rho = 1 with exact paired eigenvectors")
def test_criterion_04_order6_cycle():
    a = fixture("order6")
    pair = spectral_radius_power(a, tol=1e-10)
    assert pair.lam.real == pytest.approx(1.0, abs=1e-10)

    ones = [1.0] * 6
    assert eigen_residual(a, 1.0, ones) <= 1e-12
    y = [cmath.exp(2j * math.pi * k / 6) for k in range(1, 7)]
    assert eigen_residual(a, -1.0, y) <= 1e-12

    with pytest.raises(ValueError):
        check_symmetric_spectrum_certified(a)


@criterion(5, "matrix case: exact charpolys, spectral symmetry, bipartite detection")
def test_criterion_05_matrix_case():
    a1, a2, h2 = fixture("a1"), fixture("a2"), fixture("h2")

    p1 = charpoly_2matrix(a1)
    assert p1 == UniPoly([-1, 1]) ** 2 * UniPoly([1, 1]) ** 2
    assert is_spectrum_symmetric_poly(p1)
    assert is_spectrum_symmetric_poly(charpoly_2matrix(h2))
    assert is_spectrum_symmetric_poly(charpoly_2matrix(a2))

    assert is_bipartite_2matrix(a2) == ((1, 3), (2, 4))
    assert is_bipartite_2matrix(a1) is None
    assert is_bipartite_2matrix(h2) is None


@criterion(6, "block tensor charpoly factors per component with tracked degrees")
def test_criterion_06_block_charpoly():
    items = [((1, 1, 1), 2)]
    for base in [(1, 1, 2), (1, 2, 2)]:
        items += [
            (tuple(2 if i == 1 else 3 for i in p), 1)
            for p in set(permutations(base))
        ]
    a = CubicalTensor(3, 3, items)

    q = UniPoly([-3, -8, -6, 0, 1])
    expected = UniPoly([-2, 1]) ** 4 * q**2
    p = charpoly_tensor(a)
    assert p == expected
    assert p.degree == 12
    assert 12 == 1 * 4 + q.degree * 2  # per-factor degree bookkeeping

    rep = verify_component_product(a)
    assert rep.equal and rep.lhs == expected
    exps = {part: e for part, _, e in rep.factors}
    assert exps == {(1,): 4, (2, 3): 2}


@criterion(7, "random sweep: spectral symmetry iff odd-colorable (even r); odd r forces zero")
def test_criterion_07_symmetry_iff_colorable():
    rng = random.Random(0xACCE55)
    checked = 0
    for r in (2, 4):
        plans = [(1, 25), (2, 45), (3, 40 if r == 2 else 35)]
        for n, count in plans:
            for i in range(count):
                density = rng.choice([0.0, 0.15, 0.3, 0.5, 0.7]) if i else 0.0
                a = random_symmetric_tensor(rng, n, r, density=density)
                p = charpoly_tensor(a)
                sym = is_spectrum_symmetric_poly(p)
                colorable = isinstance(odd_coloring(a), OddColoring)
                assert sym == colorable, (n, r, dict(a.entries))
                checked += 1
    assert checked >= 200

    # odd order: the zero tensor is the only symmetric-spectrum instance
    for n in (1, 2, 3):
        for i in range(20):
            a = random_symmetric_tensor(
                rng, n, 3, density=0.0 if i == 0 else rng.choice([0.2, 0.5, 0.8])
            )
            sym = is_spectrum_symmetric_poly(charpoly_tensor(a))
            assert sym == (not a.entries), (n, dict(a.entries))


@criterion(8, "random 6-uniform sweep: colorable iff transversal, conversions verify")
def test_criterion_08_coloring_transversal_equivalence():
    rng = random.Random(0xE1CE)
    checked = 0
    for _ in range(210):
        n = rng.randint(6, 10)
        g = random_hypergraph(rng, n, 6, density=rng.choice([0.1, 0.3, 0.5]))
        c = odd_coloring(g)
        x = odd_transversal(g)
        assert isinstance(c, OddColoring) == isinstance(x, OddTransversal)
        if isinstance(c, OddColoring):
            assert verify_certificate(g, c)
            assert verify_certificate(g, x)
            assert verify_certificate(g, coloring_to_transversal(c))
            assert verify_certificate(g, transversal_to_coloring(x, 6))
        checked += 1
    assert checked >= 200


@criterion(9, "spectral radii agree with closed forms and exact charpoly roots")
def test_criterion_09_rho_oracles():
    for r in (2, 3, 4, 5):
        g = Hypergraph(r, r, [tuple(range(1, r + 1))])
        pair = spectral_radius_power(adjacency_tensor(g))
        assert pair.lam.real == pytest.approx(math.factorial(r - 1), abs=1e-9)

    for n in range(2, 9):
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        a = adjacency_tensor(Hypergraph(2, n, edges))
        pair = spectral_radius_power(a)
        assert pair.lam.real == pytest.approx(n - 1, abs=1e-9)
        m = np.zeros((n, n))
        for (i, j), _ in a.entries.items():
            m[i - 1, j - 1] = 1.0
        assert pair.lam.real == pytest.approx(
            max(abs(np.linalg.eigvals(m))), abs=1e-9
        )

    rng = random.Random(0x5EED)
    instances = [
        adjacency_tensor(Hypergraph(2, 3, [(1, 2), (1, 3), (2, 3)])),
        adjacency_tensor(Hypergraph(2, 3, [(1, 2), (2, 3)])),
        adjacency_tensor(Hypergraph(3, 3, [(1, 2, 3)])),
    ]
    for r in (3, 4, 5):
        items = []
        for ones in range(1, r):
            base = (1,) * ones + (2,) * (r - ones)
            items += [(p, 1) for p in set(permutations(base))]
        instances.append(CubicalTensor(r, 2, items))
    while len(instances) < 12:
        n = rng.randint(2, 3)
        r = 3 if n == 3 else rng.choice([3, 4])
        a = random_symmetric_tensor(rng, n, r, density=0.9, lo=1, hi=3)
        if a.is_nonnegative() and hs.is_weakly_irreducible(a):
            instances.append(a)
    for a in instances:
        rho = spectral_radius_power(a).lam.real
        top = max(abs(z) for z in charpoly_tensor(a).roots())
        assert rho == pytest.approx(top, abs=1e-6), (a.r, a.n)


@criterion(10, "sign flips on sampled transversal graphs produce verified negative pairs")
def test_criterion_10_transversal_sign_flips():
    rng = random.Random(0xF11B)
    done = 0
    while done < 50:
        n = rng.randint(4, 8)
        g, _ = random_graph_with_odd_transversal(rng, n, 4)
        a = adjacency_tensor(g)
        pair = spectral_radius_power(a)
        assert pair.residual <= 1e-10

        x = odd_transversal(g)
        assert isinstance(x, OddTransversal)
        nmap = negation_map_from_transversal(x, a)
        flipped = nmap.transport(pair, a)
        assert flipped.kind == "H"
        assert flipped.lam.real == pytest.approx(-pair.lam.real, abs=1e-8)
        assert flipped.residual <= 1e-8

        recovered = extract_transversal_from_eigenvector(flipped.x)
        assert verify_certificate(g, recovered)
        done += 1
    assert done == 50


@criterion(11, "k = 2 two-part family: 4,900 8-edges certified without expanding 8! tuples each")
def test_criterion_11_two_part_family_k2():
    g, phi = gen_prop4_graph(2, 8, 8)
    a = adjacency_tensor(g)
    assert len(g.edges) == 4900
    assert len(a.entries) == math.factorial(8) * 4900  # counted, not expanded

    report = check_symmetric_spectrum_certified(a)
    assert report.symmetric and report.branch == "colorable"
    assert verify_certificate(g, report.certificate)
    (witness,) = report.witness_pairs
    assert witness.vertices == tuple(range(1, 17))
    # every vertex lies on C(7,3) * C(8,4) edges, so rho = 2450 * 7!
    assert witness.plus.lam.real == pytest.approx(2450 * math.factorial(7), rel=1e-12)
    assert witness.minus.lam.real == pytest.approx(-witness.plus.lam.real, rel=1e-12)
    assert witness.plus.residual <= 1e-8
    assert witness.minus.residual <= 1e-8

    assert isinstance(odd_transversal(g), TransversalInfeasible)
    assert isinstance(odd_transversal(a), TransversalInfeasible)


@criterion(12, "k = 2 three-part family: 191,268 8-edges, coloring verifies, no odd transversal")
def test_criterion_12_three_part_family_k2():
    g, _phi = gen_prop5_graph(2, 12, 12, 8)
    assert (g.r, g.n, len(g.edges)) == (8, 32, 191_268)

    coloring = odd_coloring(g)
    assert isinstance(coloring, OddColoring)
    assert verify_certificate(g, coloring)
    assert all(sum(coloring.phi[v - 1] for v in e) % 8 == 4 for e in g.edges)

    refutation = odd_transversal(g)
    assert isinstance(refutation, TransversalInfeasible)
    # the named edges sum to 0 == 1 over GF(2): every vertex is hit evenly
    hits = [0] * g.n
    for e in refutation.patterns:
        for v in e:
            hits[v - 1] += 1
    assert len(refutation.patterns) % 2 == 1 and all(h % 2 == 0 for h in hits)
    assert refutation.patterns == tuple(g.edges[i] for i in refutation.pattern_indices)


@criterion(13, "k = 2 three-part family through the CLI: check-symmetric certifies rho ~ 2.5e8")
def test_criterion_13_three_part_family_k2_check_symmetric(tmp_path):
    # rho is too large for a 1e-10 bracket in floats; the run ends at the
    # power iteration's stall stop instead of running to max_iter
    g, _phi = gen_prop5_graph(2, 12, 12, 8)
    doc, out = tmp_path / "prop5-k2.json", tmp_path / "report.json"
    doc.write_text(json.dumps(g.to_json_dict()))
    assert cli.main(["check-symmetric", "--input", str(doc), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["symmetric"] and report["branch"] == "colorable"
    (witness,) = report["witness_pairs"]
    assert witness["component"] == list(range(1, 33))
    assert witness["plus"]["residual"] <= 1e-8
    assert witness["minus"]["residual"] <= 1e-8
