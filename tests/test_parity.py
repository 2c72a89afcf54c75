"""Odd colorings and odd transversals: solvers, certificates, conversions."""

from __future__ import annotations

from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hypersym as hs
from hypersym import (
    ColoringInfeasible,
    CubicalTensor,
    Hypergraph,
    OddColoring,
    OddColoringUndefinedError,
    OddTransversal,
    TransversalInfeasible,
    adjacency_tensor,
    coloring_to_transversal,
    fixture,
    gen_prop4_graph,
    odd_coloring,
    odd_transversal,
    support_patterns,
    transversal_to_coloring,
    verify_certificate,
)
from hypersym import parity
from hypersym.parity import _solve_gf2, _solve_mod_prime_power

from conftest import random_hypergraph, random_tensor


def brute_force_coloring_feasible(obj, r: int) -> bool:
    """Exhaustive check over all r^n residue assignments."""
    patterns = support_patterns(obj)
    n = obj.n
    half = r // 2
    for phi in product(range(r), repeat=n):
        if all(sum(phi[i - 1] for i in pat) % r == half for pat in patterns):
            return True
    return False


def brute_force_transversal_feasible(obj) -> bool:
    patterns = support_patterns(obj)
    n = obj.n
    for bits in product((0, 1), repeat=n):
        if all(sum(bits[i - 1] for i in pat) % 2 == 1 for pat in patterns):
            return True
    return False


class TestCertificateTypes:
    def test_coloring_validation(self):
        with pytest.raises(OddColoringUndefinedError):
            OddColoring(r=3, phi=(0, 1, 2))
        with pytest.raises(ValueError):
            OddColoring(r=4, phi=(0, 4))
        assert OddColoring(r=4, phi=(0, 1, 2, 3)).n == 4

    def test_transversal_sorted_and_membership(self):
        x = OddTransversal(n=5, vertices=(3, 1))
        assert x.vertices == (1, 3)
        assert 1 in x and 2 not in x
        with pytest.raises(ValueError):
            OddTransversal(n=2, vertices=(3,))
        with pytest.raises(ValueError):
            OddTransversal(n=4, vertices=(2, 2))
        with pytest.raises(ValueError):
            OddTransversal(n=3, vertices=(0,))

    def test_boolean_residue_or_vertex_rejected(self):
        with pytest.raises(ValueError):
            OddColoring(r=2, phi=(0, True))
        with pytest.raises(ValueError):
            OddTransversal(n=2, vertices=(True,))
        with pytest.raises(ValueError):  # not a TypeError from sorting
            OddTransversal(n=2, vertices=(1, "2"))

    @pytest.mark.parametrize("data", [
        {"kind": "odd-coloring", "r": "2", "phi": [1, 0]},
        {"kind": "odd-coloring", "r": True, "phi": [1, 0]},
        {"kind": "odd-coloring", "r": 2, "phi": 5},
        {"kind": "odd-coloring", "r": 2, "phi": [0, True]},
    ])
    def test_ill_typed_coloring_document_is_type_error(self, data):
        with pytest.raises(TypeError):
            OddColoring.from_json_dict(data)

    @pytest.mark.parametrize("xs", [5, [1, "a"], [True], (1,)])
    def test_ill_typed_transversal_document_is_type_error(self, xs):
        with pytest.raises(TypeError):
            OddTransversal.from_json_dict({"kind": "odd-transversal", "X": xs}, n=2)

    def test_json_round_trips(self):
        phi = OddColoring(r=6, phi=(3, 0, 0, 3))
        assert OddColoring.from_json_dict(phi.to_json_dict()) == phi
        x = OddTransversal(n=5, vertices=(2, 4))
        assert OddTransversal.from_json_dict(x.to_json_dict(), n=5) == x
        assert x.to_json_dict() == {"kind": "odd-transversal", "X": [2, 4]}


class TestSupportPatterns:
    def test_tensor_distinct_sorted(self):
        a = CubicalTensor(
            3, 3, [((2, 1, 3), 1), ((3, 2, 1), 5), ((1, 1, 2), 2)]
        )
        assert support_patterns(a) == [(1, 1, 2), (1, 2, 3)]

    def test_graph_patterns_are_edges(self):
        g = Hypergraph(3, 4, [(1, 2, 3), (2, 3, 4)])
        assert support_patterns(g) == list(g.edges)


class TestOddColoring:
    def test_triangle_infeasible(self):
        k3 = Hypergraph(2, 3, [(1, 2), (1, 3), (2, 3)])
        bad = odd_coloring(k3)
        assert isinstance(bad, ColoringInfeasible)
        assert bad.r == 2 and bad.modulus == 2

    def test_odd_r_undefined(self):
        g = Hypergraph(3, 3, [(1, 2, 3)])
        with pytest.raises(OddColoringUndefinedError):
            odd_coloring(g)

    def test_loop_entry_forces_infeasible(self):
        a = CubicalTensor(4, 2, [((1, 1, 1, 1), 1)])
        assert isinstance(odd_coloring(a), ColoringInfeasible)

    def test_zero_tensor_vacuous(self):
        c = odd_coloring(CubicalTensor(4, 3, []))
        assert isinstance(c, OddColoring)
        assert verify_certificate(CubicalTensor(4, 3, []), c)

    def test_returned_colorings_always_verify(self, rng):
        for _ in range(60):
            r = rng.choice([2, 4, 6, 8, 12])
            n = rng.randint(2, 7)
            g = random_hypergraph(rng, n, min(r, n), density=0.4)
            if g.r != r:
                continue
            result = odd_coloring(g)
            if isinstance(result, OddColoring):
                assert verify_certificate(g, result)

    @pytest.mark.parametrize("r", [2, 4])
    def test_matches_brute_force_graphs(self, r, rng):
        import random as _random

        local = _random.Random(1000 + r)
        for _ in range(15):
            n = local.randint(r, 5)
            g = random_hypergraph(local, n, r, density=0.45)
            result = odd_coloring(g)
            expect = brute_force_coloring_feasible(g, r)
            assert isinstance(result, OddColoring) == expect
        # deterministic infeasible instance: the complete r-graph on r+1
        # vertices sums its constraints to 0 == r/2 (mod r), a contradiction
        from itertools import combinations

        full = Hypergraph(r, r + 1, combinations(range(1, r + 2), r))
        assert isinstance(odd_coloring(full), ColoringInfeasible)
        assert not brute_force_coloring_feasible(full, r)

    @pytest.mark.parametrize("r", [6, 8, 12])
    def test_matches_brute_force_multiset_patterns(self, r):
        # order-r tensors on few vertices: repeated indices give the solver
        # coefficient multiplicities (2*phi_1 + ... == r/2 mod r), which is
        # where prime-power pivoting and CRT recombination earn their keep
        import random as _random

        local = _random.Random(2000 + r)
        seen_infeasible = seen_feasible = False
        for _ in range(12):
            n = local.randint(2, 3)
            keys = {
                tuple(sorted(local.choices(range(1, n + 1), k=r)))
                for _ in range(local.randint(1, 4))
            }
            a = CubicalTensor(r, n, [(k, 1) for k in keys])
            result = odd_coloring(a)
            expect = brute_force_coloring_feasible(a, r)
            assert isinstance(result, OddColoring) == expect
            if isinstance(result, OddColoring):
                assert verify_certificate(a, result)
            seen_infeasible |= not expect
            seen_feasible |= expect
        assert seen_feasible and seen_infeasible

    def test_multiplicity_in_patterns_respected(self):
        # pattern (1,1,2) over Z_4 needs 2*phi1 + phi2 == 2 (mod 4)
        a = CubicalTensor(3, 2, [((1, 1, 2), 1)])
        with pytest.raises(OddColoringUndefinedError):
            odd_coloring(a)  # r = 3 is odd
        b = CubicalTensor(4, 2, [((1, 1, 2, 2), 1)])
        c = odd_coloring(b)
        assert isinstance(c, OddColoring) and verify_certificate(b, c)


class TestOddTransversal:
    def test_single_edge(self):
        g = Hypergraph(4, 4, [(1, 2, 3, 4)])
        x = odd_transversal(g)
        assert isinstance(x, OddTransversal)
        assert verify_certificate(g, x)

    def test_two_part_family_infeasible_with_audit(self):
        g, _ = gen_prop4_graph(1, 4, 4)
        miss = odd_transversal(g)
        assert isinstance(miss, TransversalInfeasible)
        # exhibited subsystem: rows XOR to zero while an odd number of
        # right-hand sides are 1, an explicit contradiction over GF(2)
        assert len(miss.pattern_indices) % 2 == 1
        full = support_patterns(g)
        assert [full[i] for i in miss.pattern_indices] == list(miss.patterns)
        acc = 0
        for pat in miss.patterns:
            row = 0
            for v in pat:
                row ^= 1 << (v - 1)
            acc ^= row
        assert acc == 0

    def test_matches_brute_force(self, rng):
        for _ in range(40):
            n = rng.randint(2, 9)
            r = rng.choice([2, 3, 4])
            if r > n:
                continue
            g = random_hypergraph(rng, n, r, density=0.35)
            result = odd_transversal(g)
            assert isinstance(result, OddTransversal) == brute_force_transversal_feasible(g)
            if isinstance(result, OddTransversal):
                assert verify_certificate(g, result)

    def test_tensor_diagonal_pattern(self):
        # pattern (1,1) has even intersection with every X: infeasible
        a = CubicalTensor(2, 2, [((1, 1), 1)])
        assert isinstance(odd_transversal(a), TransversalInfeasible)

    @pytest.mark.parametrize("n", [63, 64, 65, 130, 200])
    def test_paths_and_odd_cycles_past_one_word(self, n):
        # the GF(2) rows hold 64 vertices a machine word: a path is
        # bipartite, so every second vertex is a transversal, while an odd
        # cycle refutes with all of its edges
        path = Hypergraph(2, n, [(v, v + 1) for v in range(1, n)])
        x = odd_transversal(path)
        assert x.vertices in (tuple(range(1, n + 1, 2)), tuple(range(2, n + 1, 2)))
        cycle = Hypergraph(2, n, [(v, v % n + 1) for v in range(1, n + 1)])
        refutation = odd_transversal(cycle)
        if n % 2:
            assert sorted(refutation.patterns) == list(cycle.edges)
        else:
            assert verify_certificate(cycle, refutation)
        # multiplicity counts mod 2: (1, 1, 1, n) is the row of {1, n}
        a = CubicalTensor(4, n, [((1, 1, 1, n), 1), ((1, 2, 2, n), 1)])
        assert odd_transversal(a).vertices == (1,)

    def test_tensor_route_agrees_with_graph_route(self):
        g, _ = gen_prop4_graph(1, 4, 4)
        a = adjacency_tensor(g)
        assert isinstance(odd_transversal(a), TransversalInfeasible)
        assert isinstance(odd_coloring(a), OddColoring)


class TestConversions:
    def test_transversal_to_coloring_any_even_r(self):
        x = OddTransversal(n=4, vertices=(1, 3))
        phi4 = transversal_to_coloring(x, 4)
        assert phi4 == OddColoring(r=4, phi=(2, 0, 2, 0))
        phi6 = transversal_to_coloring(x, 6)
        assert phi6 == OddColoring(r=6, phi=(3, 0, 3, 0))
        with pytest.raises(ValueError):
            transversal_to_coloring(x, 3)

    def test_coloring_to_transversal_requires_r_2_mod_4(self):
        phi = OddColoring(r=6, phi=(3, 0, 0, 1, 5, 0))
        assert coloring_to_transversal(phi) == OddTransversal(
            n=6, vertices=(1, 4, 5)
        )
        with pytest.raises(ValueError):
            coloring_to_transversal(OddColoring(r=4, phi=(2, 0)))

    def test_round_trip_preserves_validity_r6(self, rng):
        for _ in range(30):
            n = rng.randint(6, 10)
            g = random_hypergraph(rng, n, 6, density=0.4)
            x = odd_transversal(g)
            c = odd_coloring(g)
            assert isinstance(x, OddTransversal) == isinstance(c, OddColoring)
            if isinstance(x, OddTransversal):
                phi = transversal_to_coloring(x, 6)
                assert verify_certificate(g, phi)
                back = coloring_to_transversal(phi)
                assert back == x
            if isinstance(c, OddColoring):
                xc = coloring_to_transversal(c)
                assert verify_certificate(g, xc)


class TestVerifyCertificate:
    def test_shape_mismatch(self):
        g = Hypergraph(4, 4, [(1, 2, 3, 4)])
        with pytest.raises(ValueError):
            verify_certificate(g, OddColoring(r=4, phi=(2, 0, 0)))
        with pytest.raises(ValueError):
            verify_certificate(g, OddColoring(r=6, phi=(3, 0, 0, 0)))
        with pytest.raises(ValueError):
            verify_certificate(g, OddTransversal(n=3, vertices=(1,)))

    def test_rejects_wrong_certificates(self):
        g = Hypergraph(4, 4, [(1, 2, 3, 4)])
        assert not verify_certificate(g, OddColoring(r=4, phi=(0, 0, 0, 0)))
        assert not verify_certificate(g, OddTransversal(n=4, vertices=(1, 2)))
        assert verify_certificate(g, OddTransversal(n=4, vertices=(1,)))

    def test_odd_r_coloring_verification_undefined(self):
        g = Hypergraph(3, 3, [(1, 2, 3)])
        with pytest.raises(OddColoringUndefinedError):
            verify_certificate(g, OddColoring(r=4, phi=(2, 0, 0)))


class TestComplementProperty:
    def test_complement_of_transversal_is_transversal(self, rng):
        # |e| = r is even, so |e & X| odd forces |e & complement| odd too
        for _ in range(20):
            n = rng.randint(4, 9)
            g = random_hypergraph(rng, n, 4, density=0.4)
            x = odd_transversal(g)
            if isinstance(x, OddTransversal):
                comp = OddTransversal(
                    n=n,
                    vertices=tuple(v for v in range(1, n + 1) if v not in x),
                )
                assert verify_certificate(g, comp)


# ---------------------------------------------------------------------------
# the numpy elimination over Z/p^e against the Python loop it replaced
# ---------------------------------------------------------------------------

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
# 11: the largest p^e whose products of residues fit int8; 128 and 131: the
# largest with an 8-bit working matrix and the smallest with a 16-bit one
PRIME_POWERS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 2), (11, 1), (2, 7),
                (131, 1)]


def _valuation(a: int, p: int) -> int:
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def oracle_solve_mod_prime_power(rows, rhs, ncols, p, e):
    """The list-of-lists elimination, kept verbatim as the reference."""
    mod = p ** e
    m = [[v % mod for v in row] for row in rows]
    b = [v % mod for v in rhs]
    nrows = len(m)
    pivots = []  # (row, col, p^v, unit)
    used_cols = set()
    top = 0
    while top < nrows:
        best = None
        for i in range(top, nrows):
            for j in range(ncols):
                if j in used_cols:
                    continue
                a = m[i][j]
                if a == 0:
                    continue
                v = _valuation(a, p)
                if best is None or v < best[0]:
                    best = (v, i, j)
                    if v == 0:
                        break
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        v, pi, pj = best
        m[top], m[pi] = m[pi], m[top]
        b[top], b[pi] = b[pi], b[top]
        pv = p ** v
        unit = (m[top][pj] // pv) % mod
        inv_unit = pow(unit, -1, mod)
        for i in range(top + 1, nrows):
            a = m[i][pj]
            if a:
                t = ((a // pv) * inv_unit) % mod
                if t:
                    m[i] = [(m[i][j] - t * m[top][j]) % mod for j in range(ncols)]
                    b[i] = (b[i] - t * b[top]) % mod
        pivots.append((top, pj, pv, unit))
        used_cols.add(pj)
        top += 1
    for i in range(top, nrows):
        if b[i] % mod:
            return "unsat", f"0 == {b[i]} (mod {mod}) after elimination"
    x = [0] * ncols
    for row, col, pv, unit in reversed(pivots):
        s = b[row]
        for j in range(ncols):
            if j != col and m[row][j]:
                s -= m[row][j] * x[j]
        s %= mod
        if s % pv:
            return "unsat", (f"pivot equation needs {s} divisible by {pv} "
                             f"(mod {mod})")
        x[col] = ((s // pv) * pow(unit, -1, mod)) % (mod // pv)
    return "sat", x


@st.composite
def residue_systems(draw):
    """Systems with zero rows, rows of high p-valuation and repeated rows
    whose own right side often contradicts the first copy.

    Up to 40 rows, so that most rows share a pivot column.  Half of the
    systems come as ``odd_coloring`` passes them: counts 0..r, for an r
    that p^e divides, in the narrow signed dtype of ``_incidence()``.
    """
    p, e = draw(st.sampled_from(PRIME_POWERS))
    mod = p ** e
    ncols = draw(st.integers(1, 6))
    r = mod * draw(st.integers(1, 3)) if draw(st.booleans()) else None
    rows, rhs = [], []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["zero", "high-valuation", "any", "repeat"]))
        if kind == "repeat" and rows:
            row = list(rows[draw(st.integers(0, len(rows) - 1))])
        elif kind == "zero":
            row = [0] * ncols
        else:
            scale = p ** draw(st.integers(1, e)) if kind == "high-valuation" else 1
            values = st.integers(-mod, 2 * mod) if r is None else st.integers(0, r // scale)
            row = [scale * draw(values) for _ in range(ncols)]
        rows.append(row)
        rhs.append(draw(st.integers(-mod, 2 * mod)))
    dtype = np.int64 if r is None else np.min_scalar_type(-r - 1)
    return p, e, ncols, rows, rhs, dtype


class TestPrimePowerElimination:
    @PROPERTY
    @given(residue_systems())
    @example((2, 2, 1, [[2]], [1], np.int64))  # 2x == 1 (mod 4): the pivot equation fails
    @example((3, 2, 2, [[0, 0]], [4], np.int64))  # 0 == 4 (mod 9) after elimination
    @example((2, 3, 3, [], [], np.int64))  # no rows: x = 0
    # the update leaves 130 (mod 131), and 130 + 131 is past 8 bits
    @example((131, 1, 2, [[1, 0], [1, 130]], [0, 1], np.int64))
    # zero rows, then rows of valuation >= 1, before the first unit: the
    # first scan crosses blocks of every size up to the cap of a mock
    @example((2, 3, 2, [[0, 0]] * 20 + [[4, 2]] * 6 + [[6, 1], [0, 3], [2, 2]],
              [4] * 26 + [1, 3, 0], np.int64))
    @example((3, 2, 3, [[3, 0, 6]] * 9 + [[0, 9, 0]] * 14 + [[9, 3, 1], [1, 1, 1]],
              [3] * 9 + [0] * 14 + [2, 5], np.int8))
    # pivots 1 and 2 (mod 8) share the unit 1 but not p^v, which t depends on
    @example((2, 3, 2, [[1, 0], [0, 2], [0, 6]], [1, 2, 6], np.int64))
    def test_matches_python_oracle(self, system):
        p, e, ncols, rows, rhs, dtype = system
        expected = oracle_solve_mod_prime_power(rows, rhs, ncols, p, e)
        args = (np.array(rows, dtype=dtype).reshape(len(rows), ncols),
                np.array(rhs, dtype=np.int64), p, e)
        got = _solve_mod_prime_power(*args)
        assert got == expected
        # the pivot search scans rows by growing blocks; tiny ones split every
        # system: blocks of 1, 2, 4, 4, ... rows, and of 3, 3, ... rows
        for first, cap in ((1, 4), (3, 3)):
            with mock.patch.multiple(parity, _SCAN_FIRST=first, _SCAN_ROWS=cap):
                assert _solve_mod_prime_power(*args) == expected
        status, x = got
        if status == "sat":
            mod = p ** e
            assert all((sum(a * v for a, v in zip(row, x)) - b) % mod == 0
                       for row, b in zip(rows, rhs))

    @PROPERTY
    @given(data=st.data(), modulus=st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    def test_back_substitution_reads_pivot_columns_only(self, data, modulus):
        # wide sparse systems over Z/4, Z/8 and Z/9: most columns are not
        # pivots, and the oracle sums each pivot row over all of them
        p, e = modulus
        mod = p ** e
        ncols = data.draw(st.integers(1, 40))
        entry = st.sampled_from([0] * 6 + list(range(1, mod)))
        rows = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                                  max_size=12))
        rhs = data.draw(st.lists(st.integers(0, mod - 1), min_size=len(rows),
                                 max_size=len(rows)))
        got = _solve_mod_prime_power(np.array(rows, dtype=np.int64).reshape(len(rows), ncols),
                                     np.array(rhs, dtype=np.int64), p, e)
        assert got == oracle_solve_mod_prime_power(rows, rhs, ncols, p, e)

    def test_both_refutations_are_reached(self):
        four = _solve_mod_prime_power(np.array([[2]]), np.array([1]), 2, 2)
        assert four == ("unsat", "pivot equation needs 1 divisible by 2 (mod 4)")
        nine = _solve_mod_prime_power(np.array([[3], [3]]), np.array([3, 6]), 3, 2)
        assert nine == ("unsat", "0 == 3 (mod 9) after elimination")


# ---------------------------------------------------------------------------
# the column-bitset GF(2) elimination against the row loop it replaced
# ---------------------------------------------------------------------------

def oracle_solve_gf2(rows: list[int], rhs: list[int], n: int):
    """Solve the GF(2) system given rows as bitmasks.

    Returns ("sat", solution_mask) or ("unsat", history_mask) where the
    history names the original rows whose XOR is the inconsistent 0 == 1 row.
    """
    reduced: list[tuple[int, int, int, int]] = []  # (mask, rhs, history, pivot_col)
    for ri, (mask, b) in enumerate(zip(rows, rhs)):
        hist = 1 << ri
        for pmask, pb, phist, pcol in reduced:
            if (mask >> pcol) & 1:
                mask ^= pmask
                b ^= pb
                hist ^= phist
        if mask == 0:
            if b:
                return "unsat", hist
            continue
        pcol = (mask & -mask).bit_length() - 1
        reduced.append((mask, b, hist, pcol))
    x = 0
    for mask, b, _hist, pcol in reversed(reduced):
        val = b ^ ((mask & x & ~(1 << pcol)).bit_count() & 1)
        if val:
            x |= 1 << pcol
    return "sat", x


@st.composite
def gf2_systems(draw):
    """Systems of up to 80 rows on up to 70 columns (more than one 64-bit
    word), with zero rows, sparse rows, and repeats and sums of earlier rows
    whose own right side often contradicts them.
    """
    n = draw(st.integers(1, 70))
    rows, rhs = [], []
    for _ in range(draw(st.integers(0, 80))):
        kind = draw(st.sampled_from(["zero", "sparse", "any", "repeat", "sum"]))
        if kind in ("repeat", "sum") and rows:
            picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1,
                                  max_size=1 if kind == "repeat" else 4))
            row = 0
            for i in picks:
                row ^= rows[i]
        elif kind == "zero":
            row = 0
        elif kind == "sparse":
            row = sum(1 << j for j in draw(st.sets(st.integers(0, n - 1), max_size=3)))
        else:
            row = draw(st.integers(0, (1 << n) - 1))
        rows.append(row)
        rhs.append(draw(st.integers(0, 1)))
    return n, rows, rhs


class TestGF2Elimination:
    @PROPERTY
    @given(gf2_systems())
    @example((3, [], []))  # no rows: x = 0
    @example((2, [0], [1]))  # 0 == 1 at once
    @example((70, [1 << 69, 1 << 69 | 1, 1], [1, 0, 0]))  # row 2 is rows 0 and 1 summed
    @example((66, [3, 1 << 65, 2, 1 << 65 | 1], [1, 1, 0, 1]))
    # row 1's pivot row gains column 3 from row 0, which row 1 of a lacks
    @example((4, [0b1001, 0b0011, 0b0010], [1, 0, 0]))
    # pivot row 0 reaches the conflict only through pivot row 1: rows [0, 1, 2]
    @example((3, [0b001, 0b011, 0b010], [1, 0, 0]))
    # pivot row 0's update set holds both rows of the sum, so it stays out: rows [1, 2]
    @example((3, [0b001, 0b011, 0b011], [0, 1, 0]))
    def test_matches_row_loop(self, system):
        n, rows, rhs = system
        expected = oracle_solve_gf2(rows, rhs, n)
        a = np.array([[row >> j & 1 for j in range(n)] for row in rows],
                     dtype=np.int8).reshape(len(rows), n)
        status, result = _solve_gf2(a, sum(b << i for i, b in enumerate(rhs)))
        assert status == expected[0]
        if status == "sat":
            assert result == expected[1]
        else:
            assert result == [i for i in range(len(rows)) if expected[1] >> i & 1]


@st.composite
def small_pattern_tensors(draw):
    """Order-r tensors on n <= 4 vertices, one unit value per drawn multiset."""
    r = draw(st.sampled_from([2, 4, 6, 8, 12]))
    n = draw(st.integers(1, 4))
    pattern = st.lists(st.integers(1, n), min_size=r, max_size=r)
    patterns = draw(st.lists(pattern, min_size=1, max_size=5))
    return CubicalTensor(r, n, [(pat, 1) for pat in patterns])


@PROPERTY
@given(small_pattern_tensors())
def test_odd_coloring_against_brute_force(a):
    r, n = a.r, a.n
    patterns = support_patterns(a)
    # every phi in (Z_r)^n at once: row t of `grid` is one assignment
    grid = np.array(list(product(range(r), repeat=n)), dtype=np.int64)
    counts = np.array([[pat.count(j) for j in range(1, n + 1)] for pat in patterns])
    feasible = bool(np.any(np.all((grid @ counts.T) % r == r // 2, axis=1)))
    result = odd_coloring(a)
    assert isinstance(result, OddColoring) == feasible
    if feasible:
        assert all(sum(result.phi[j - 1] for j in pat) % r == r // 2
                   for pat in patterns)
    else:
        assert r % result.modulus == 0
