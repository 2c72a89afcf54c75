"""Parity certificates for spectrum negation: odd colorings and odd transversals.

An odd coloring (r even) assigns each vertex a residue phi(k) in Z_r such
that every stored support tuple (j_1, ..., j_r) satisfies

    phi(j_1) + ... + phi(j_r) == r/2  (mod r).

An odd transversal is a vertex set X meeting every support tuple in an odd
number of positions (counted with multiplicity).  Both reduce to linear
systems over residue rings: one equation per distinct support multiset.

Solvers and checks read one pattern-incidence array C, cached on the tensor
(a hypergraph is one): C[i, j] counts vertex j+1 in pattern i.  A coloring
phi verifies when C @ phi == r/2 (mod r) row by row, a transversal X when
C[:, X] sums to an odd number in every row.  The residue system C phi ==
r/2 is solved modulo each prime power p^e of r and recombined by CRT; with
no pattern rows phi = 0 holds, and r is not factored.  The elimination
pivots on the row-major-first entry of minimum p-valuation among the
unused columns of the remaining rows, so a pivot divides every other entry
of its row and free variables can be set to zero.  It divides no entry of
the working matrix: every row below a pivot subtracts a row read from a
table of the pivot row's multiples mod p^e, indexed by the row's own
pivot-column entry, and the unsigned wrap of a negative difference is
folded back to its residue.  The odd-transversal system over GF(2) is
eliminated column by column, each column of C mod 2 held as one Python int
whose bit i is row i.  The same elimination answers either way: with a
transversal, or with the odd set of patterns that sums to 0 == 1, read from
the sets of rows each pivot row was added to.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .tensor import CubicalTensor

__all__ = [
    "OddColoringUndefinedError", "OddColoring", "OddTransversal",
    "ColoringInfeasible", "TransversalInfeasible", "support_patterns",
    "odd_coloring", "odd_transversal", "transversal_to_coloring",
    "coloring_to_transversal", "verify_certificate",
]


class OddColoringUndefinedError(ValueError):
    """Raised when an odd-coloring question is posed for odd r."""


@dataclass(frozen=True)
class OddColoring:
    """Residue assignment phi: vertex k -> phi[k-1] in Z_r, r even."""
    r: int
    phi: tuple[int, ...]

    def __post_init__(self):
        if self.r < 2 or self.r % 2:
            raise OddColoringUndefinedError(
                f"odd colorings need even r >= 2, got r={self.r}")
        object.__setattr__(self, "phi", tuple(self.phi))
        for v in self.phi:
            # type(v) is int, not isinstance: a bool is not a residue
            if type(v) is not int or not 0 <= v < self.r:
                raise ValueError(f"residue {v!r} out of range 0..{self.r - 1}")

    @property
    def n(self) -> int:
        return len(self.phi)

    def to_json_dict(self) -> dict:
        return {"kind": "odd-coloring", "r": self.r, "phi": list(self.phi)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "OddColoring":
        if data.get("kind") != "odd-coloring":
            raise ValueError(f"expected kind 'odd-coloring', got {data.get('kind')!r}")
        r, phi = data["r"], data["phi"]
        if type(r) is not int:
            raise TypeError(f"coloring 'r' must be an integer, got {r!r}")
        return cls(r=r, phi=_int_list(phi, "coloring 'phi'"))


@dataclass(frozen=True)
class OddTransversal:
    """Vertex set X (1-based, sorted) on a ground set of size n."""
    n: int
    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = tuple(self.vertices)
        for v in vs:  # before sorting, which needs comparable vertices
            # type(v) is int, not isinstance: a bool is not a vertex
            if type(v) is not int or not 1 <= v <= self.n:
                raise ValueError(f"vertex {v!r} out of range 1..{self.n}")
        if len(set(vs)) != len(vs):
            raise ValueError("transversal vertices must be distinct")
        object.__setattr__(self, "vertices", tuple(sorted(vs)))

    def __contains__(self, vertex: int) -> bool:
        return vertex in set(self.vertices)

    def to_json_dict(self) -> dict:
        return {"kind": "odd-transversal", "X": list(self.vertices)}

    @classmethod
    def from_json_dict(cls, data: dict, n: int) -> "OddTransversal":
        if data.get("kind") != "odd-transversal":
            raise ValueError(f"expected kind 'odd-transversal', got {data.get('kind')!r}")
        return cls(n=n, vertices=_int_list(data["X"], "transversal 'X'"))


def _int_list(obj, what: str) -> tuple[int, ...]:
    """A certificate document's list of integers, bools excluded, as a tuple."""
    if type(obj) is not list or any(type(v) is not int for v in obj):
        raise TypeError(f"{what} must be a list of integers, got {obj!r:.60}")
    return tuple(obj)


@dataclass(frozen=True)
class ColoringInfeasible:
    """Witness that the residue system has no solution modulo ``modulus``."""
    r: int
    modulus: int
    detail: str


@dataclass(frozen=True)
class TransversalInfeasible:
    """Inconsistent GF(2) row: the listed support patterns sum to 0 == 1."""
    n: int
    pattern_indices: tuple[int, ...]
    patterns: tuple[tuple[int, ...], ...] = field(repr=False)


# ---------------------------------------------------------------------------
# support patterns
# ---------------------------------------------------------------------------

def _tensor(obj) -> CubicalTensor:
    """``obj`` itself if it is a tensor (a Hypergraph is one), else a TypeError."""
    if not isinstance(obj, CubicalTensor):
        raise TypeError(f"expected CubicalTensor or Hypergraph, got {type(obj).__name__}")
    return obj


def support_patterns(obj) -> list[tuple[int, ...]]:
    """Distinct support multisets (sorted tuples) of a tensor or hypergraph.

    The parity congruences are permutation-invariant, so one row per
    distinct multiset suffices; a hypergraph's are its edges.
    """
    return list(_tensor(obj)._patterns())


# ---------------------------------------------------------------------------
# GF(2) elimination on column bitsets
# ---------------------------------------------------------------------------

def _solve_gf2(a: np.ndarray, rhs: int):
    """Solve a @ x == rhs over GF(2), for a 0/1 array a and rhs bit i for row i.

    Eliminates column by column on column bitsets, one Python int per
    column whose bit i is row i: the pivot of a column is the lowest-index
    non-pivot row with its bit set, and it is added to the other non-pivot
    rows that have it, its update set.  A row is added only to rows after
    it, so the pivot rows are the greedy row-order basis, and a non-pivot
    row ends as zero plus the unique combination of the pivot rows before
    it.  Each pivot reads every nonzero column of a after its own, about
    rank x (nonzero columns) steps in all.  A column that is zero in a
    stays zero and is never read, so a wide system with few sparse rows
    pays for the columns its rows touch, not for all of them.

    Returns ("sat", x), x the solution supported on the pivot columns (bit
    j for column j), unique since the pivot columns depend on the row space
    only; or ("unsat", rows): the ascending indices of the least non-pivot
    row i left with right side 1 and of the pivot rows that sum to it, so
    that the rows read 0 == 1.  Those pivot rows are read from the update
    sets, last pivot first: a pivot enters the sum when an odd number of
    the rows already in it were in its update set.
    """
    # numpy packs a contiguous copy faster than it packs along strides
    packed = np.packbits(np.ascontiguousarray(a.T), axis=1, bitorder="little")
    live = np.flatnonzero(packed.any(axis=1)).tolist()  # the nonzero columns
    data, size = packed.tobytes(), packed.shape[1]
    cols = [0] * a.shape[1]
    for j in live:
        cols[j] = int.from_bytes(data[j * size:(j + 1) * size], "little")
    free = (1 << len(a)) - 1  # the non-pivot rows
    pivots: list[tuple[int, int, int]] = []  # (column, its pivot row's bit, update set)
    for k, j in enumerate(live):
        hit = cols[j] & free
        if not hit:
            continue
        low = hit & -hit
        rest = hit ^ low
        free ^= low
        for c in live[k + 1:]:
            if cols[c] & low:
                cols[c] ^= rest
        if rhs & low:
            rhs ^= rest
        pivots.append((j, low, rest))
    bad = rhs & free
    if bad:
        rows = bad & -bad  # the rows of the sum so far, as bits
        found = [rows.bit_length() - 1]
        for _, low, rest in reversed(pivots):
            if (rest & rows).bit_count() & 1:
                rows |= low
                found.append(low.bit_length() - 1)
        return "unsat", sorted(found)
    # a pivot row is never updated after its column, so the final columns
    # hold its entries; acc is the sum of the columns set in x so far
    x = acc = 0
    for j, low, _ in reversed(pivots):
        if (rhs ^ acc) & low:
            x |= 1 << j
            acc ^= cols[j]
    return "sat", x


# ---------------------------------------------------------------------------
# linear solve over Z_m via prime powers + CRT
# ---------------------------------------------------------------------------

def _prime_power_factors(m: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1
    if m > 1:
        out.append((m, 1))
    return out


# A pivot scan reads blocks of 8, 16, 32, ... rows, up to 1,024: a unit
# ends it, so a unit near the top is found without reading far below.
_SCAN_FIRST = 8
_SCAN_ROWS = 1024


def _solve_mod_prime_power(rows: np.ndarray, rhs: np.ndarray, p: int, e: int):
    """Particular solution of rows @ x == rhs over Z_{p^e}, or an unsat witness.

    Elimination pivots on the row-major-first entry of minimum p-valuation
    among the unused columns of the remaining rows, so every non-pivot
    coefficient in a pivot row has valuation at least the pivot's;
    feasibility then depends only on the reduced right sides, and setting
    free variables to zero is lossless.

    The working matrix is [rows | rhs] in an unsigned dtype, one residue
    in [0, p^e) per entry, and no step divides its entries.  A pivot
    subtracts t * (pivot row) from every row below it, with t = (a / p^v)
    / unit for its pivot-column entry a; the row to subtract is read from
    a table over the p^e values of a, whose row 0 is zero.  The
    subtraction wraps below zero in the unsigned range: for p = 2 the wrap
    is a multiple of p^e and the low e bits are the residue; for odd p,
    adding p^e wraps the difference again to its residue.  For p = 2 the
    table is built in the storage dtype, whose products wrap by the same
    multiple; for odd p they would overflow it, so it is built in int64
    and reduced mod p^e.
    """
    mod = p ** e
    nrows, ncols = rows.shape
    dtype = np.min_scalar_type(2 * mod - 1)  # unsigned, with p^e at most half its range
    w = np.empty((nrows, ncols + 1), dtype=dtype)
    for out, a in ((w[:, :ncols], rows), (w[:, ncols], rhs)):
        # a signed dtype that holds p^e and every entry of a
        a = a.astype(np.promote_types(a.dtype, np.min_scalar_type(-mod - 1)), copy=False)
        if p == 2:  # in two's complement the low e bits are the residue
            np.bitwise_and(a, mod - 1, out=out, casting="unsafe")
        else:
            np.remainder(a, mod, out=out, casting="unsafe")
    val = np.zeros(mod, dtype=np.int8)  # p-valuation of each residue; e for 0
    for k in range(1, e + 1):
        val[::p ** k] += 1
    residues = np.arange(mod)
    last = None  # the (p^v, unit) of the pivot that t was computed for
    pivots: list[tuple[int, int, int]] = []  # (col, p^v, unit) of the pivot in row i
    for top in range(min(nrows, ncols)):
        # row-major-first minimum.  Pivot columns are zero below their
        # pivots, so they never hold it.
        v, lo, size = e, top, _SCAN_FIRST
        while lo < nrows:
            vals = val.take(w[lo:lo + size, :ncols])
            at = int(vals.argmin())
            if vals.item(at) < v:
                v = vals.item(at)
                pi, pj = divmod(at, ncols)
                pi += lo
                if v == 0:
                    break
            lo += size
            size = min(2 * size, _SCAN_ROWS)
        if v == e:
            break
        if pi != top:
            w[[top, pi]] = w[[pi, top]]
        pv = p ** v
        unit = int(w[top, pj]) // pv
        if (pv, unit) != last:
            last, t = (pv, unit), residues // pv * pow(unit, -1, mod) % mod
            if p == 2:
                t = t.astype(dtype)
        table = np.multiply.outer(t, w[top])
        if p != 2:
            table = (table % mod).astype(dtype)
        below = w[top + 1:]
        below -= table.take(below[:, pj], axis=0)
        if p == 2:
            below &= mod - 1
        else:
            np.minimum(below, below + mod, out=below)
        pivots.append((pj, pv, unit))
    top = len(pivots)
    bad = np.flatnonzero(w[top:, ncols])
    if bad.size:
        return "unsat", f"0 == {int(w[top + bad[0], ncols])} (mod {mod}) after elimination"
    # x is zero off the pivot columns, so each pivot row is read at those
    # only, and at its right side, which meets the 0 that ends xs
    cols = [col for col, _, _ in pivots]
    block = w[:top].take(cols + [ncols], axis=1).tolist()
    xs = [0] * (top + 1)  # x at the pivot columns, in pivot order
    for i in range(top - 1, -1, -1):
        _, pv, unit = pivots[i]
        row = block[i]
        s = (row[top] - sum(map(mul, row, xs))) % mod  # xs[i] is still 0
        if s % pv:
            return "unsat", (f"pivot equation needs {s} divisible by {pv} "
                             f"(mod {mod})")
        xs[i] = s // pv * pow(unit, -1, mod) % (mod // pv)
    x = [0] * ncols
    for col, v in zip(cols, xs):
        x[col] = v
    return "sat", x


# ---------------------------------------------------------------------------
# public solvers
# ---------------------------------------------------------------------------

def odd_coloring(obj) -> OddColoring | ColoringInfeasible:
    """Find an odd coloring of a tensor or hypergraph, or show none exists."""
    tensor = _tensor(obj)
    r, n = tensor.r, tensor.n
    if r % 2:
        raise OddColoringUndefinedError(
            f"odd colorings are defined for even r only, got r={r}")
    rows = tensor._incidence()
    rhs = np.full(len(rows), r // 2)
    phi, modulus = [0] * n, 1  # lifted by CRT one prime power at a time
    # no pattern rows: phi = 0 holds vacuously, and r, unbounded by the
    # document's size, is neither factored nor given to the solver
    for p, e in _prime_power_factors(r) if len(rows) else ():
        status, result = _solve_mod_prime_power(rows, rhs, p, e)
        if status == "unsat":
            return ColoringInfeasible(r=r, modulus=p ** e, detail=result)
        q = p ** e
        lift = pow(modulus, -1, q)
        phi = [a + modulus * ((x - a) * lift % q) for a, x in zip(phi, result)]
        modulus *= q
    coloring = OddColoring(r=r, phi=tuple(phi))
    if not verify_certificate(obj, coloring):
        raise RuntimeError("internal error: solver produced a non-verifying coloring")
    return coloring


def odd_transversal(obj) -> OddTransversal | TransversalInfeasible:
    """Find an odd transversal of a tensor or hypergraph, or show none exists."""
    tensor = _tensor(obj)
    n = tensor.n
    odd = tensor._incidence() & 1  # [i, j]: vertex j+1 occurs an odd number of times
    status, result = _solve_gf2(odd, (1 << len(odd)) - 1)
    if status == "unsat":
        return TransversalInfeasible(
            n=n, pattern_indices=tuple(result),
            patterns=tuple(map(tuple, tensor._pattern_rows()[result].tolist())))
    vertices = tuple(j + 1 for j, bit in enumerate(bin(result)[:1:-1]) if bit == "1")
    x = OddTransversal(n=n, vertices=vertices)
    if not verify_certificate(obj, x):
        raise RuntimeError("internal error: solver produced a non-verifying transversal")
    return x


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

def transversal_to_coloring(x: OddTransversal, r: int) -> OddColoring:
    """phi = (r/2) * indicator(X): valid for any even r when X is valid."""
    if r < 2 or r % 2:
        raise OddColoringUndefinedError(
            f"conversion to a coloring needs even r, got r={r}")
    half = r // 2
    members = set(x.vertices)
    return OddColoring(r=r, phi=tuple(half if v in members else 0
                                      for v in range(1, x.n + 1)))


def coloring_to_transversal(phi: OddColoring) -> OddTransversal:
    """X = vertices with odd residue: valid exactly when r == 2 (mod 4)."""
    if phi.r % 4 != 2:
        raise ValueError(
            f"odd-residue extraction needs r == 2 (mod 4), got r={phi.r}")
    vertices = tuple(v for v in range(1, phi.n + 1) if phi.phi[v - 1] % 2)
    return OddTransversal(n=phi.n, vertices=vertices)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_certificate(obj, cert: OddColoring | OddTransversal) -> bool:
    """Check a certificate against every support pattern of a tensor/graph."""
    tensor = _tensor(obj)
    r, n = tensor.r, tensor.n
    if isinstance(cert, OddColoring):
        if r % 2:
            raise OddColoringUndefinedError(
                f"coloring certificate against odd r={r} is undefined")
        if cert.r != r or cert.n != n:
            raise ValueError(
                f"certificate shape (r={cert.r}, n={cert.n}) does not match "
                f"target (r={r}, n={n})")
        wide = np.min_scalar_type(-r * r)  # holds every row sum, below r * r
        sums = tensor._incidence().astype(wide, copy=False) @ np.array(cert.phi, dtype=wide)
        return bool(np.all(sums % r == r // 2))
    if isinstance(cert, OddTransversal):
        if cert.n != n:
            raise ValueError(f"certificate n={cert.n} does not match target n={n}")
        members = np.array(cert.vertices, dtype=np.intp) - 1
        return bool(np.all(tensor._incidence()[:, members].sum(axis=1) % 2 == 1))
    raise TypeError(f"unknown certificate type {type(cert).__name__}")
