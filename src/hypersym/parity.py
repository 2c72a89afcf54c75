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
r/2 is solved modulo each prime power p^e of r and recombined by CRT.  The
elimination pivots on the row-major-first entry of minimum p-valuation
among the unused columns of the remaining rows, so a pivot divides every
other entry of its row and free variables can be set to zero.  The
odd-transversal system over GF(2) takes the rows of C mod 2 as bitmasks.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
# GF(2) elimination with row-provenance tracking
# ---------------------------------------------------------------------------

def _solve_gf2(rows: list[int], rhs: list[int], n: int):
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


_SCAN_ROWS = 1024


def _solve_mod_prime_power(rows: np.ndarray, rhs: np.ndarray, p: int, e: int):
    """Particular solution of rows @ x == rhs over Z_{p^e}, or an unsat witness.

    Elimination pivots on the row-major-first entry of minimum p-valuation
    among the unused columns of the remaining rows, so every non-pivot
    coefficient in a pivot row has valuation at least the pivot's;
    feasibility then depends only on the reduced right sides, and setting
    free variables to zero is lossless.
    """
    mod = p ** e
    dtype = np.min_scalar_type(-mod * mod)  # holds every product of residues
    m = np.remainder(rows, mod, dtype=np.promote_types(rows.dtype, dtype)).astype(dtype)
    b = np.remainder(rhs, mod).astype(dtype)
    nrows, ncols = m.shape
    val = np.zeros(mod, dtype=np.int8)  # p-valuation of each residue; e for 0
    for k in range(1, e + 1):
        val[::p ** k] += 1
    used = np.zeros(ncols, dtype=bool)
    pivots: list[tuple[int, int, int, int]] = []  # (row, col, p^v, unit)
    top = 0
    while top < nrows and not used.all():
        free = np.flatnonzero(~used)
        v = e + 1
        # row-major-first minimum, by blocks of rows: a unit ends the scan
        for lo in range(top, nrows, _SCAN_ROWS):
            vals = val[m[lo:lo + _SCAN_ROWS, free]]
            i, k = divmod(int(vals.argmin()), len(free))
            if vals[i, k] < v:
                v, pi, pj = int(vals[i, k]), lo + i, int(free[k])
                if v == 0:
                    break
        if v == e:
            break
        m[[top, pi]] = m[[pi, top]]
        b[[top, pi]] = b[[pi, top]]
        pv = p ** v
        unit = int(m[top, pj]) // pv
        below = top + 1 + np.flatnonzero(m[top + 1:, pj])
        t = (m[below, pj] // pv) * pow(unit, -1, mod) % mod
        m[below] = (m[below] - t[:, None] * m[top]) % mod
        b[below] = (b[below] - t * b[top]) % mod
        pivots.append((top, pj, pv, unit))
        used[pj] = True
        top += 1
    rest = np.flatnonzero(b[top:])
    if rest.size:
        return "unsat", f"0 == {int(b[top + rest[0]])} (mod {mod}) after elimination"
    x = np.zeros(ncols, dtype=np.int64)
    for row, col, pv, unit in reversed(pivots):
        s = (int(b[row]) - int(m[row] @ x)) % mod  # x[col] is still 0
        if s % pv:
            return "unsat", (f"pivot equation needs {s} divisible by {pv} "
                             f"(mod {mod})")
        x[col] = ((s // pv) * pow(unit, -1, mod)) % (mod // pv)
    return "sat", x.tolist()


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
    for p, e in _prime_power_factors(r):
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
    # bit j of a row's mask: vertex j+1 occurs an odd number of times
    bits = np.packbits(tensor._incidence() & 1, axis=1, bitorder="little")
    words = np.zeros((len(bits), -(-n // 64) * 8), dtype=np.uint8)
    words[:, :bits.shape[1]] = bits
    words = words.view("<u8")  # 64 vertices a word
    masks = words[:, 0].tolist()
    for k in range(1, words.shape[1]):
        masks = [m | w << 64 * k for m, w in zip(masks, words[:, k].tolist())]
    status, result = _solve_gf2(masks, [1] * len(masks), n)
    if status == "unsat":
        patterns = support_patterns(obj)
        idxs = tuple(i for i in range(len(patterns)) if (result >> i) & 1)
        return TransversalInfeasible(
            n=n, pattern_indices=idxs,
            patterns=tuple(patterns[i] for i in idxs))
    vertices = tuple(j + 1 for j in range(n) if (result >> j) & 1)
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
