"""Exact resultants of eigenvalue forms, as characteristic polynomials.

hypersym's characteristic polynomials are resultants of the eigenvalue
forms lam * x_k^d - F_k(x).  In the Macaulay matrix of such a system (the
Sylvester matrix for two variables) lam appears only on the diagonal: the
row of monomial m carries form k shifted by m / x_k^d, and its lam * x_k^d
term lands in column m itself.  So each resultant is det(lam I + M0) for
one integer matrix M0 once denominators are cleared, divided for three or
more variables by det(lam I + M0'), where M0' is the principal submatrix
on the non-reduced monomials (Macaulay's quotient).  The divisor is
monic, so the division is exact and there are no evaluation nodes.

`shifted_det_coeffs` is the one engine.  It takes the determinant block
by block: ordered by the strong components of the digraph i -> j
(M[i][j] != 0, Tarjan 1972), M is block triangular, so det(x I + M) is
the product of its diagonal blocks'.  A Macaulay matrix often splits into
one large block and many small ones.  A 1 x 1 block [m] is x + m, a
2 x 2 block [[a, b], [c, d]] is x^2 + (a + d) x + (ad - bc), and a
larger one takes the characteristic polynomial of minus the block modulo
word-size primes through a Hessenberg reduction and combines the residues
by the Chinese remainder theorem once the product of the primes exceeds
twice a certified bound on every coefficient of that block.  It has two
kernels for the same reduction and recurrence, chosen by the order of the
block and the number of primes: a small block with few primes runs on
Python ints, once modulo the product of the primes, since there numpy's
per-call cost exceeds the arithmetic; the rest run on a numpy kernel
vectorized over the primes.  `macaulay_matrix` is the one matrix builder;
`shifted_resultant_coeffs` joins the two, splitting the numerator and
Macaulay's denominator alike.

The numpy kernel works in int64 on residues below 2**31.  An elementwise
product of two residues is below 2**62, so a row update needs one
remainder.  Sums of products go through one helper, `_dot_mod`, which
splits its small operand at bit 16; its int64 sums stay exact while the
entries are below 2**31 and the inner dimension is below 2**16, that is
for any matrix of order below 65,536 (32 GB of int64 per prime).

The single-node evaluators (`sylvester_resultant`, `macaulay_resultant_3`
over `det_fractions` and fraction-free Bareiss elimination) and Newton
`interpolate` build the same matrix at one value of lam; they are the
independent oracle the engine is tested against.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import isqrt, lcm, prod
from operator import mul
from typing import Sequence

import numpy as np

Monomial = tuple[int, ...]
Form = dict[Monomial, Fraction]


def bareiss_det_int(matrix: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination."""
    m = [row[:] for row in matrix]
    size = len(m)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for i in range(k + 1, size):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, size):
            row_i = m[i]
            row_k = m[k]
            lead = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[size - 1][size - 1]


def det_fractions(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a rational matrix (rows integerized first)."""
    size = len(matrix)
    if size == 0:
        return Fraction(1)
    scale = 1
    int_rows = []
    for row in matrix:
        denom = lcm(*(f.denominator for f in row)) if row else 1
        scale *= denom
        int_rows.append([int(f * denom) for f in row])
    return Fraction(bareiss_det_int(int_rows), scale)


# ---------------------------------------------------------------------------
# the Macaulay matrix (Sylvester for two forms)
# ---------------------------------------------------------------------------

def _monomials(nvars: int, total: int) -> list[Monomial]:
    """Exponent tuples of the given total degree, descending lexicographic."""
    if nvars == 1:
        return [(total,)]
    return [(a,) + rest for a in range(total, -1, -1)
            for rest in _monomials(nvars - 1, total - a)]


def macaulay_matrix(forms: Sequence[Form], degrees: Sequence[int]) -> tuple[list[list], list[int]]:
    """Macaulay matrix of a square system of homogeneous forms, and M'.

    ``forms[k]`` maps exponent tuples to coefficients and is homogeneous
    of degree ``degrees[k]``.  Rows and columns are the monomials of degree
    D = sum(d_k - 1) + 1 in descending lexicographic order; the row of
    monomial m is (m / x_k^d_k) * f_k for the first k with x_k^d_k | m, so
    the x_k^d_k coefficient of every form lands on the diagonal.  The
    second value lists the non-reduced monomials (divisible by two or more
    x_k^d_k); M' is the principal submatrix on them.  For two forms this is
    the Sylvester matrix and M' is empty.
    """
    nvars = len(forms)
    if nvars < 1 or len(degrees) != nvars:
        raise ValueError("need one degree per form and at least one form")
    if min(degrees) < 1:
        raise ValueError(f"form degrees must be >= 1, got {list(degrees)}")
    mons = _monomials(nvars, sum(degrees) - nvars + 1)
    col_of = {mon: i for i, mon in enumerate(mons)}
    rows: list[list] = []
    non_reduced: list[int] = []
    for mi, mon in enumerate(mons):
        divisible = [mon[k] >= degrees[k] for k in range(nvars)]
        cls = divisible.index(True)  # the degree of mon guarantees one
        if sum(divisible) >= 2:
            non_reduced.append(mi)
        quotient = list(mon)
        quotient[cls] -= degrees[cls]
        row = [0] * len(mons)
        for fmon, coeff in forms[cls].items():
            row[col_of[tuple(q + e for q, e in zip(quotient, fmon))]] += coeff
        rows.append(row)
    return rows, non_reduced


def _principal(rows: list[list], idx: list[int]) -> list[list]:
    return [[rows[i][j] for j in idx] for i in idx]


# ---------------------------------------------------------------------------
# single-node resultants (the oracle)
# ---------------------------------------------------------------------------

def sylvester_resultant(f_desc: Sequence[Fraction], g_desc: Sequence[Fraction]) -> Fraction:
    """Resultant of two binary forms given by full descending coefficient lists.

    ``f_desc`` has formal degree len(f_desc) - 1; leading zeros are
    meaningful (they encode roots at infinity of the dehomogenized pair).
    """
    df = len(f_desc) - 1
    dg = len(g_desc) - 1
    if df < 1 or dg < 1:
        raise ValueError("both forms must have formal degree >= 1")
    forms = [{(df - j, j): Fraction(c) for j, c in enumerate(f_desc)},
             {(dg - j, j): Fraction(c) for j, c in enumerate(g_desc)}]
    rows, _ = macaulay_matrix(forms, (df, dg))
    return det_fractions(rows)


class DegenerateNode(Exception):
    """det(M') vanished at this evaluation node; pick another node."""


def macaulay_resultant_3(forms: Sequence[Form], d: int) -> Fraction:
    """Resultant of three degree-d ternary forms via det(M) / det(M').

    Raises DegenerateNode when det(M') = 0.
    """
    if len(forms) != 3:
        raise ValueError("exactly three forms required")
    if d < 1:
        raise ValueError(f"form degree must be >= 1, got {d}")
    rows, non_reduced = macaulay_matrix(forms, (d, d, d))
    det_m = det_fractions(rows)
    det_sub = det_fractions(_principal(rows, non_reduced))
    if det_sub == 0:
        raise DegenerateNode(
            "denominator minor vanished at this evaluation node")
    return det_m / det_sub


def interpolate(points: Sequence[tuple[Fraction, Fraction]]) -> list[Fraction]:
    """Ascending coefficients of the polynomial through the given points."""
    xs = [Fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    divided = [Fraction(y) for _, y in points]
    k = len(points)
    for level in range(1, k):
        for i in range(k - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - level])
    # Horner on the Newton form: p <- p * (x - x_i) + d_i, ascending coeffs
    coeffs = [divided[k - 1]]
    for i in range(k - 2, -1, -1):
        shifted = [Fraction(0)] + coeffs
        coeffs = [shifted[j] - xs[i] * (coeffs[j] if j < len(coeffs) else Fraction(0))
                  for j in range(len(shifted))]
        coeffs[0] += divided[i]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


# ---------------------------------------------------------------------------
# the engine: det(x I + M) modulo word primes, lifted by CRT
# ---------------------------------------------------------------------------

# Primes below 2**31, largest first, so every product of two residues fits
# in an int64.  Extended on first use, never at import.
_PRIMES: list[int] = []


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; bases 2, 3, 5, 7 suffice below 3.2e9."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for base in (2, 3, 5, 7):
        x = pow(base, t, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_above(bound: int) -> list[int]:
    """The fewest largest word primes whose product exceeds ``bound``."""
    out: list[int] = []
    product = 1
    while product <= bound:
        if len(out) == len(_PRIMES):
            c = _PRIMES[-1] - 2 if _PRIMES else 2**31 - 1
            while not _is_prime(c):
                c -= 2
            _PRIMES.append(c)
        out.append(_PRIMES[len(out)])
        product *= out[-1]
    return out


def _coefficient_bound(matrix: Sequence[Sequence[int]]) -> int:
    """An integer B >= prod(1 + ||row_i||_2).

    The coefficient of x^(n-j) in det(x I + M) is the sum of the j x j
    principal minors of M.  By Hadamard each is at most the product of its
    rows' norms, so the sum is at most the j-th elementary symmetric
    function of the row norms, which is below B.
    """
    bound = 1
    for row in matrix:
        bound *= isqrt(sum(v * v for v in row)) + 2
    return bound


def _negated_residues(matrix: Sequence[Sequence[int]], primes: list[int]) -> np.ndarray:
    """-M mod p for each prime, shape (primes, n, n), int64."""
    try:
        a = np.array(matrix, dtype=np.int64)
    except OverflowError:
        # entries beyond int64 are reduced as Python ints, one prime at a time
        a = np.array(matrix, dtype=object)
        return np.stack([(-a % p).astype(np.int64) for p in primes])
    ps = np.array(primes, dtype=np.int64)[:, None, None]
    h = np.remainder(a, ps)
    np.negative(h, out=h)
    return np.remainder(h, ps, out=h)


# Shifts that split a residue below 2**31 at bit 16: (v >> 16, v) & 0xFFFF.
_HALVES = np.array([16, 0], dtype=np.int64)


def _dot_mod(a: np.ndarray, v: np.ndarray, p: np.ndarray) -> np.ndarray:
    """A value congruent to a @ v modulo p, batched over the first axis.

    ``a`` has shape (k, rows, m) and ``v`` (k, m, 1); their entries are
    residues below 2**31, ``p`` has shape (k, 1) and m is below 2**16.
    ``v`` is split at bit 16 into (k, m, 2) halves below 2**16, so one
    matmul gives both half sums, each below 2**63.  The result, shape
    (k, rows), is congruent to a @ v and lies in [0, 2**63 - 2**47): the
    caller can add a residue to it, or subtract it from one, in int64.
    """
    sums = a @ (v >> _HALVES & 0xFFFF)
    return (sums[..., 0] % p << 16) + sums[..., 1]


def _hessenberg_mod(h: np.ndarray, primes: list[int]) -> None:
    """Reduce each h[b] in place to upper Hessenberg form by similarity mod primes[b]."""
    k, n, _ = h.shape
    p = np.array(primes, dtype=np.int64)[:, None]
    p3 = p[:, :, None]
    batch = np.arange(k)[:, None]
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
    columns = h.transpose(0, 2, 1)
    for j in range(n - 2):
        # the pivot: the first nonzero entry of column j from row j+1 down, as
        # an offset from row j+1 (0 where the column is zero there)
        offset = (h[:, j + 1:, j] != 0).argmax(axis=1)
        if np.count_nonzero(offset):
            # swap row j+1 with the pivot row, then the same columns, for
            # every prime at once (a prime whose offset is 0 swaps in place)
            pairs = offset[:, None, None] * swap + (j + 1)
            h[batch, pairs[:, 0]] = h[batch, pairs[:, 1]]
            columns[batch, pairs[:, 0]] = columns[batch, pairs[:, 1]]
        pivots = h[:, j + 1, j].tolist()
        if not any(pivots):
            continue
        inv = [pow(v, -1, q) if v else 0 for v, q in zip(pivots, primes)]
        mult = h[:, j + 2:, j, None] * np.array(inv, dtype=np.int64)[:, None, None]
        np.remainder(mult, p3, out=mult)
        if not np.count_nonzero(mult):
            continue
        # rows below: row_i -= mult_i * row_{j+1}, each term in (-2**62, 2**31);
        # then column j+1 gains sum_i mult_i * column_i, which keeps the similarity.
        below = h[:, j + 2:, j:]
        below -= mult * h[:, j + 1, None, j:]
        np.remainder(below, p3, out=below)
        column = h[:, :, j + 1]
        column += _dot_mod(h[:, :, j + 2:], mult, p)
        np.remainder(column, p, out=column)


def _hessenberg_charpolys(h: np.ndarray, primes: list[int]) -> np.ndarray:
    """Ascending coefficients of det(x I - h[b]) mod primes[b], shape (primes, n + 1).

    ``h`` is upper Hessenberg.  With p_m the charpoly of the leading m x m
    block and s_t = h[t, t-1],
    p_m = x p_{m-1} - sum_{i<m} h[i, m-1] s_{i+1}...s_{m-1} p_i,
    where the product is empty (1) for i = m - 1.
    """
    k, n, _ = h.shape
    p = np.array(primes, dtype=np.int64)[:, None]
    polys = np.zeros((k, n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    by_degree = polys.transpose(0, 2, 1)
    carry = np.ones((k, n), dtype=np.int64)  # s_{i+1} ... s_{m-1} for i < m
    for m in range(1, n + 1):
        if m > 1:
            chain = carry[:, :m - 1]
            chain *= h[:, m - 1, m - 2, None]
            np.remainder(chain, p, out=chain)
        coef = h[:, :m, m - 1] * carry[:, :m]
        np.remainder(coef, p, out=coef)
        # p_i has degree i, so only the first m coefficients take part
        cur = polys[:, m]
        cur[:, 1:m + 1] = polys[:, m - 1, :m]
        cur[:, :m] -= _dot_mod(by_degree[:, :m, :m], coef[:, :, None], p)
        np.remainder(cur, p, out=cur)
    return polys[:, n]


def _crt(residues: np.ndarray, primes: list[int]) -> list[int]:
    """Integers in (-P/2, P/2] with the given residues, one per column, P = prod(primes)."""
    modulus = 1
    for p in primes:
        modulus *= p
    weights = []
    for p in primes:
        q = modulus // p
        weights.append(q * pow(q % p, -1, p))
    half = modulus // 2
    out = []
    for column in residues.T.tolist():
        v = sum(r * w for r, w in zip(column, weights)) % modulus
        out.append(v - modulus if v > half else v)
    return out


def _charpoly_ints(matrix: Sequence[Sequence[int]], modulus: int) -> list[int] | None:
    """Ascending coefficients of det(x I + M) mod ``modulus``, on Python ints.

    Runs the reduction of -M to upper Hessenberg form of `_hessenberg_mod`,
    with its pivot rule, and the recurrence of `_hessenberg_charpolys`, on
    lists for one modulus.  The modulus may be composite: returns None when
    a pivot is nonzero but not a unit modulo it, as no prime modulus does.
    """
    n = len(matrix)
    h = [[-v % modulus for v in row] for row in matrix]
    for j in range(n - 2):
        # the pivot: the first nonzero entry of column j from row j+1 down
        col = j + 1
        for i in range(col, n):
            if h[i][j]:
                break
        else:
            continue
        if i != col:
            h[i], h[col] = h[col], h[i]
            for row in h:
                row[i], row[col] = row[col], row[i]
        pivot = h[col]
        try:
            inv = pow(pivot[j], -1, modulus)
        except ValueError:  # pivot[j] shares a factor with the modulus
            return None
        tail = pivot[col:]
        below, mult = [], []
        for i in range(col + 1, n):
            row = h[i]
            if row[j]:
                # row_i -= u * row_{j+1}; row_i is zero up to column j after it
                u = row[j] * inv % modulus
                h[i] = [0] * col + [(a - u * b) % modulus for a, b in zip(row[col:], tail)]
                below.append(i)
                mult.append(u)
        if below:
            # column j+1 gains sum_i u_i * column_i, which keeps the similarity
            for row in h:
                row[col] = (row[col] + sum(map(mul, mult, map(row.__getitem__, below)))) % modulus
    polys = [[1]]  # polys[m]: det(x I - h) on the leading m x m block
    chain: list[int] = []  # chain[i] = s_{i+1} ... s_{m-1}, with s_t = h[t][t-1]
    for m in range(1, n + 1):
        if m > 1:
            s = h[m - 1][m - 2]
            chain = [c * s % modulus for c in chain]
        chain.append(1)
        cur = [0] + polys[-1]
        for i, c in enumerate(chain):
            c = h[i][m - 1] * c % modulus
            if c:
                for t, v in enumerate(polys[i]):
                    cur[t] -= c * v
        polys.append([v % modulus for v in cur])
    return polys[n]


# Blocks of order up to _INT_KERNEL_MAX_ORDER that need at most
# _INT_KERNEL_MAX_PRIMES primes run on `_charpoly_ints`; the rest on the
# numpy kernel.  Python's work grows as n^3 and with the size of the
# modulus, numpy's calls as n.  Timed on whole matrices, before the engine
# split them into blocks, over the 206 matrices that the
# exact-charpoly benchmark's seed-7 job list passes to `shifted_det_coeffs`
# (the per-order table is in CHANGES.md), numpy -> Python ints, ms, best
# of 7: n <= 10 (163 matrices) 20.6 -> 6.4, n = 12 to 14 (5) 4.0 -> 2.0,
# n = 15 (27, Macaulay matrices, 2 primes) 14.6 -> 7.0, n = 18 (2) 1.8 ->
# 2.2, n = 21 (1) 1.1 -> 3.4, n = 30 (1) 2.4 -> 8.3.  Dense random
# matrices cross earlier: entries in [-4, 4], 2 primes, Python ints take
# 0.66x numpy's time at n = 10, 0.87x at 12 and 1.76x at 15.  More primes
# widen the gap: at n = 15, 7 primes 1.65x, 16 primes 2.7x, 31 primes 4.2x;
# at n = 8, dense, 4 primes 0.55x and 9 primes 1.01x, hence the prime bound.
_INT_KERNEL_MAX_ORDER = 15
_INT_KERNEL_MAX_PRIMES = 8


# Most int64 entries in one batch of per-prime blocks, 1 MiB an array.
# Every numpy-kernel block of the exact-charpoly benchmark (order 18 to 60,
# at most 10 primes, 36,000 residues) runs all its primes in one batch, as
# would an order-66 Macaulay matrix with 30 primes, so each Hessenberg
# column costs one set of numpy calls, not one per batch.  Larger blocks
# run batch by batch.  Best of 5 in ms, and the tracemalloc peak of
# `shifted_det_coeffs` in MiB, both before the split into blocks: the 11
# numpy-kernel matrices of the benchmark's seed-7 job list, then dense
# matrices with entries in [-6, 6]
# (10, 17, 21 and 42 primes):
#   cap      seed 7   n = 60       n = 96       n = 120      n = 220
#   2**14    56.3     17.5, 0.33   118.1, 0.28  232.5, 0.37  1944, 1.18
#   2**16    46.4     12.5, 0.66    74.7, 1.12  165.2, 1.02  1971, 1.18
#   2**17    45.4     13.3, 0.66    73.6, 2.10  157.0, 2.12  1988, 1.92
#   2**19    44.0     13.2, 0.66    67.1, 2.53  152.6, 4.83  1845, 7.83
# Past 2**17 the time gains little and the peak grows with the cap.
_BATCH_ENTRIES = 1 << 17


def _strong_components(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strong components of the digraph i -> j (M[i][j] != 0), each in ascending order.

    Tarjan's algorithm with an explicit path, so no recursion limit applies
    whatever the order of M.  Each vertex reads its successors through one
    `compress` iterator, which resumes where it stopped when the search
    returns to the vertex.  A self-loop i -> i is read but changes nothing.
    """
    n = len(matrix)
    succ = [compress(range(n), row) for row in matrix]
    # 0 while unvisited, then the discovery number from 1, then n + 1 once
    # the vertex's component is popped, so that no later arc lowers a link
    num = [0] * n
    low = [0] * n
    at = [0] * n  # each vertex's place on the stack
    stack: list[int] = []
    blocks: list[list[int]] = []
    done = n + 1
    count = 0
    for root in range(n):
        if num[root]:
            continue
        count += 1
        num[root] = low[root] = count
        at[root] = len(stack)
        stack.append(root)
        path = [root]
        while path:
            v = path[-1]
            link = low[v]
            for w in succ[v]:
                seen = num[w]
                if not seen:  # descend into w; v resumes at its next successor
                    low[v] = link
                    count += 1
                    num[w] = low[w] = count
                    at[w] = len(stack)
                    stack.append(w)
                    path.append(w)
                    break
                if seen < link:
                    link = seen
            else:
                path.pop()
                if link == num[v]:  # v roots a component: pop it
                    block = stack[at[v]:]
                    del stack[at[v]:]
                    for w in block:
                        num[w] = done
                    blocks.append(sorted(block))
                elif link < low[path[-1]]:
                    low[path[-1]] = link
    return blocks


def _irreducible_det_coeffs(matrix: Sequence[Sequence[int]]) -> list[int]:
    """`shifted_det_coeffs` on one block: the bound, the primes and a kernel for the whole of M.

    A 2 x 2 M, one block or not, takes its closed form instead.
    """
    n = len(matrix)
    if n == 2:  # x^2 + (a + d) x + (ad - bc)
        (a, b), (c, d) = matrix
        return [a * d - b * c, a + d, 1]
    primes = _primes_above(2 * _coefficient_bound(matrix))
    if n <= _INT_KERNEL_MAX_ORDER and len(primes) <= _INT_KERNEL_MAX_PRIMES:
        modulus = prod(primes)
        coeffs = _charpoly_ints(matrix, modulus)
        if coeffs is None:  # a pivot vanished modulo some of the primes: one at a time
            return _crt(np.array([_charpoly_ints(matrix, p) for p in primes], dtype=np.int64),
                        primes)
        half = modulus // 2
        return [c - modulus if c > half else c for c in coeffs]
    step = max(1, _BATCH_ENTRIES // (n * n))
    # one row per prime, filled batch by batch: no batch's polynomial table
    # outlives its batch
    residues = np.empty((len(primes), n + 1), dtype=np.int64)
    for lo in range(0, len(primes), step):
        batch = primes[lo:lo + step]
        h = _negated_residues(matrix, batch)
        _hessenberg_mod(h, batch)
        residues[lo:lo + step] = _hessenberg_charpolys(h, batch)
    return _crt(residues, primes)


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Ascending integer coefficients of the product of two polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def shifted_det_coeffs(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Ascending integer coefficients of det(x I + M) for a square integer matrix M.

    Ordered by its strong components, M is block triangular, so the
    determinant is the product of those of its diagonal blocks.  A 1 x 1
    block [m] gives x + m.  A 2 x 2 block gives x^2 + (a + d) x + (ad - bc),
    and so does a whole 2 x 2 M, with no component search.  Each larger
    block gets its own coefficient bound, and primes whose product exceeds
    twice it, so each coefficient is the residue of least absolute value.
    Up to order `_INT_KERNEL_MAX_ORDER` and `_INT_KERNEL_MAX_PRIMES` primes
    the Python-int kernel reduces the block once modulo that product, or
    one prime at a time when a pivot vanishes modulo some primes only.  Other
    blocks take the numpy kernel, all their primes in one batch up to
    `_BATCH_ENTRIES` residues, else in batches of at most that many.
    `_crt` combines the residues of each prime.
    """
    if not len(matrix):
        return [1]
    if len(matrix) == 2:  # one block or two, one closed form: no components to find
        return _irreducible_det_coeffs(matrix)
    blocks = _strong_components(matrix)
    if len(blocks[0]) == len(matrix) > 1:  # M is one block
        return _irreducible_det_coeffs(matrix)
    coeffs = [1]
    zeros = 0  # 1 x 1 blocks [0], each a factor x
    for block in blocks:
        if len(block) > 1:
            coeffs = _convolve(coeffs, _irreducible_det_coeffs(_principal(matrix, block)))
        elif matrix[block[0]][block[0]]:
            coeffs = _convolve(coeffs, [matrix[block[0]][block[0]], 1])
        else:
            zeros += 1
    return [0] * zeros + coeffs


def _exact_quotient(num: list[int], den: list[int]) -> list[int]:
    """num / den over the integers, for a monic den that divides num."""
    rem = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = rem[i + dd]
        if c:
            for j in range(dd + 1):
                rem[i + j] -= c * den[j]
    if any(rem[:dd]):
        raise RuntimeError("internal error: Macaulay denominator does not divide")
    return quot


def shifted_resultant_coeffs(forms: Sequence[Form], degrees: Sequence[int]) -> list[int]:
    """Ascending coefficients of Res(x * x_k^d_k + f_k) as a polynomial in x.

    The forms have integer coefficients; the result is monic of degree
    prod(degrees) * sum(1 / d_k) (Macaulay's normalization,
    Res(x_1^d_1, ..., x_n^d_n) = 1).
    """
    rows, non_reduced = macaulay_matrix(forms, degrees)
    coeffs = shifted_det_coeffs(rows)
    if non_reduced:
        coeffs = _exact_quotient(coeffs, shifted_det_coeffs(_principal(rows, non_reduced)))
    return coeffs
