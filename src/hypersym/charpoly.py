"""Exact characteristic polynomials of small tensors and their symmetry tests.

The characteristic polynomial of an order-n tensor with r indices is the
resultant of the n eigenvalue forms lam * x_k^(r-1) - F_k(x); it is monic of
degree n * (r-1)^(n-1).  Denominators are cleared once per tensor, and
lam then appears only on the diagonal of one integer Sylvester (n = 2) or
Macaulay (n = 3) matrix, so the resultant is det(mu I + M0), divided for
n = 3 by the same on the submatrix of non-reduced monomials.  The
determinants come exactly from `resultants.shifted_det_coeffs`:
characteristic polynomials modulo word primes, lifted by CRT.  No
evaluation nodes are used; a matrix (r = 2) is one shifted determinant.
A polynomial has a symmetric root multiset iff p(-x) == (-1)^deg p(x).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .tensor import CubicalTensor, components, is_symmetric, is_weakly_irreducible

__all__ = [
    "UniPoly", "charpoly_2matrix", "charpoly_tensor",
    "is_spectrum_symmetric_poly", "ProductReport", "verify_component_product",
    "MultiplicityReport", "isolated_vertex_multiplicity_check",
]


def _numerators(coeffs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The least common denominator of the coefficients, and each one times it."""
    den = lcm(*(c.denominator for c in coeffs))
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Ascending integer coefficients of the product of two polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


class UniPoly:
    """Univariate polynomial with exact rational coefficients, ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Fraction | int | str]):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]  # Fractions are immutable
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        den_a, a = _numerators(self.coeffs)
        den_b, b = _numerators(other.coeffs)
        den = den_a * den_b
        return UniPoly([Fraction(c, den) for c in _convolve(a, b)])

    def __pow__(self, e: int) -> "UniPoly":
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        den, base = _numerators(self.coeffs)
        den **= e
        out = [1]
        while e:
            if e & 1:
                out = _convolve(out, base)
            e >>= 1
            if e:
                base = _convolve(base, base)
        return UniPoly([Fraction(c, den) for c in out])

    def compose_neg(self) -> "UniPoly":
        """p(-x)."""
        return UniPoly([c if i % 2 == 0 else -c
                        for i, c in enumerate(self.coeffs)])

    def derivative(self) -> "UniPoly":
        if self.degree == 0:
            return UniPoly([0])
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.coeffs == (Fraction(0),):
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly([0]), self
        quot = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for i in range(dq, -1, -1):
            c = rem[i + len(other.coeffs) - 1] / lead
            quot[i] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return UniPoly(quot), UniPoly(rem)

    __divmod__ = divmod

    def roots(self) -> list[complex]:
        """Numerical roots with multiplicity (floats).

        Repeated roots are located once per squarefree factor and then
        replicated, which conditions them far better than rooting the
        full polynomial directly.
        """
        if self.degree == 0:
            return []
        out: list[complex] = []
        for mult, factor in squarefree_decomposition(self):
            desc = [float(c) for c in reversed(factor.coeffs)]
            for z in np.roots(desc):
                out.extend([complex(z)] * mult)
        return out

    def to_json_dict(self) -> dict:
        return {"degree": self.degree, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "UniPoly":
        p = cls([Fraction(c) for c in data["coeffs"]])
        if "degree" in data and data["degree"] != p.degree:
            raise ValueError(
                f"declared degree {data['degree']} != actual degree {p.degree}")
        return p

    def __repr__(self) -> str:
        return f"UniPoly({[str(c) for c in self.coeffs]})"


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic greatest common divisor over the rationals."""
    while b.coeffs != (Fraction(0),):
        _, rem = a.divmod(b)
        a, b = b, rem
    if a.coeffs == (Fraction(0),):
        return a
    lead = a.coeffs[-1]
    return UniPoly([c / lead for c in a.coeffs])


def squarefree_decomposition(p: UniPoly) -> list[tuple[int, UniPoly]]:
    """Yun's decomposition: [(multiplicity, monic squarefree factor), ...]."""
    if p.degree == 0:
        return []
    lead = p.coeffs[-1]
    p = UniPoly([c / lead for c in p.coeffs])
    dp = p.derivative()
    a = poly_gcd(p, dp)
    b, _ = p.divmod(a)
    c, _ = dp.divmod(a)
    d = UniPoly([x - y for x, y in
                 _pad(c.coeffs, b.derivative().coeffs)])
    out = []
    i = 1
    while b.degree > 0:
        a_i = poly_gcd(b, d)
        if a_i.degree > 0:
            out.append((i, a_i))
        b, _ = b.divmod(a_i)
        c, _ = d.divmod(a_i)
        d = UniPoly([x - y for x, y in _pad(c.coeffs, b.derivative().coeffs)])
        i += 1
    return out


def _pad(xs: Sequence[Fraction], ys: Sequence[Fraction]):
    length = max(len(xs), len(ys))
    for i in range(length):
        yield (xs[i] if i < len(xs) else Fraction(0),
               ys[i] if i < len(ys) else Fraction(0))


def root_multiplicity(p: UniPoly, root: Fraction) -> int:
    """Largest k with (x - root)^k dividing p."""
    factor = UniPoly([-Fraction(root), 1])
    count = 0
    while True:
        q, rem = p.divmod(factor)
        if rem.coeffs != (Fraction(0),):
            return count
        p = q
        count += 1


# ---------------------------------------------------------------------------
# characteristic polynomials
# ---------------------------------------------------------------------------

def _require_real_rational(a: CubicalTensor, what: str) -> None:
    if not a.is_real():
        raise ValueError(f"{what} requires real rational entries")


def _cleared(a: CubicalTensor) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    """L, the lcm of the entry denominators, and each entry times -L as an int."""
    items = list(a.entries.items())
    scale = lcm(1, *(v.re.denominator for _, v in items))
    return scale, [(idx, -v.re.numerator * (scale // v.re.denominator)) for idx, v in items]


def _scaled(coeffs: list[int], scale: int) -> UniPoly:
    """q(scale * x) / scale^deg q for the ascending integer coefficients of q."""
    deg = len(coeffs) - 1
    return UniPoly([Fraction(c, scale ** (deg - i)) for i, c in enumerate(coeffs)])


def charpoly_2matrix(a: CubicalTensor) -> UniPoly:
    """Exact det(xI - A) for an r = 2 matrix of any order."""
    if a.r != 2:
        raise ValueError(f"matrix characteristic polynomial needs r=2, got r={a.r}")
    _require_real_rational(a, "charpoly_2matrix")
    # Imported on first use: most verbs never need the exact engine, and
    # importing it compiles the module.
    from .resultants import shifted_det_coeffs

    n = a.n
    # det(xI - A) = det(mu I - L A) / L^n with mu = L x
    scale, items = _cleared(a)
    m0 = [[0] * n for _ in range(n)]
    for (i, j), v in items:
        m0[i - 1][j - 1] = v
    p = _scaled(shifted_det_coeffs(m0), scale)
    if p.degree != n or not p.is_monic():
        raise RuntimeError("internal error: matrix charpoly is not monic of degree n")
    return p


def charpoly_tensor(a: CubicalTensor) -> UniPoly:
    """Exact characteristic polynomial for r = 2 at any n, else n <= 3 and r <= 5.

    Monic of degree n * (r-1)^(n-1): the resultant of the forms
    lam * x_k^(r-1) - F_k, computed as one shifted determinant (quotient of
    two for n = 3) of the integer Macaulay matrix of -L * F, L the common
    denominator of the entries, in mu = L * lam.  For r = 2 that matrix is
    -L * A, and `charpoly_2matrix` takes it directly.
    """
    if a.r == 2:
        return charpoly_2matrix(a)
    if a.n > 3:
        raise ValueError(
            f"exact tensor characteristic polynomials are limited to n <= 3, "
            f"got n={a.n}")
    if a.r not in (3, 4, 5):
        raise ValueError(f"supported index counts are r in {{2,3,4,5}}, got r={a.r}")
    _require_real_rational(a, "charpoly_tensor")
    from .resultants import shifted_resultant_coeffs  # on first use, as above

    n, r = a.n, a.r
    degree = n * (r - 1) ** (n - 1)
    scale, items = _cleared(a)
    forms: list[dict] = [{} for _ in range(n)]
    for idx, v in items:
        expo = [0] * n
        for j in idx[1:]:
            expo[j - 1] += 1
        key = tuple(expo)
        form = forms[idx[0] - 1]
        form[key] = form.get(key, 0) + v
    p = _scaled(shifted_resultant_coeffs(forms, [r - 1] * n), scale)
    if p.degree != degree or not p.is_monic():
        raise RuntimeError(
            f"internal error: resultant is not monic of degree {degree}")
    return p


def is_spectrum_symmetric_poly(p: UniPoly) -> bool:
    """True iff the root multiset of a monic p is closed under negation."""
    if not p.is_monic():
        raise ValueError("spectrum symmetry test expects a monic polynomial")
    deg = p.degree
    return all(c == 0 for i, c in enumerate(p.coeffs) if (deg - i) % 2 == 1)


# ---------------------------------------------------------------------------
# component product
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductReport:
    """Whole-tensor charpoly vs the product over components."""
    equal: bool
    lhs: UniPoly
    rhs: UniPoly
    factors: tuple[tuple[tuple[int, ...], UniPoly, int], ...]  # (part, poly, exponent)

    def to_json_dict(self) -> dict:
        return {
            "equal": self.equal,
            "lhs": self.lhs.to_json_dict(),
            "rhs": self.rhs.to_json_dict(),
            "factors": [{"component": list(part), "poly": poly.to_json_dict(),
                         "exponent": expo}
                        for part, poly, expo in self.factors],
        }


def verify_component_product(a: CubicalTensor) -> ProductReport:
    """Check charpoly(A) == prod_i charpoly(A_i)^((r-1)^(n-n_i)) exactly.

    Requires a symmetric, weakly reducible tensor within the contract of
    `charpoly_tensor`.
    """
    if not is_symmetric(a):
        raise ValueError("component product is defined for symmetric tensors")
    if is_weakly_irreducible(a):
        raise ValueError("tensor is weakly irreducible: nothing to verify")
    lhs = charpoly_tensor(a)
    rhs = UniPoly([1])
    factors = []
    for vertices, sub in components(a).parts:
        poly = charpoly_tensor(sub)
        expo = (a.r - 1) ** (a.n - len(vertices))
        factors.append((vertices, poly, expo))
        rhs = rhs * poly ** expo
    return ProductReport(equal=lhs == rhs, lhs=lhs, rhs=rhs,
                         factors=tuple(factors))


# ---------------------------------------------------------------------------
# isolated-vertex multiplicity transformation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplicityReport:
    """How eigenvalue multiplicities change when an isolated vertex is added.

    ``product_prediction`` (per-factor multiplicities scaled by r-1, zero
    gains (r-1)^n) and ``power_prediction`` (multiplicities raised to the
    r-1 power) are both compared against the actual polynomial; the two
    claims disagree in general and the empirical answer is reported as-is.
    """
    base: UniPoly
    actual: UniPoly
    product_prediction: UniPoly
    power_prediction: UniPoly
    product_matches: bool
    power_matches: bool
    zero_multiplicity_base: int
    zero_multiplicity_actual: int
    base_squarefree: tuple[tuple[int, UniPoly], ...]
    actual_squarefree: tuple[tuple[int, UniPoly], ...]

    def to_json_dict(self) -> dict:
        return {
            "base": self.base.to_json_dict(),
            "actual": self.actual.to_json_dict(),
            "product_prediction": self.product_prediction.to_json_dict(),
            "power_prediction": self.power_prediction.to_json_dict(),
            "product_matches": self.product_matches,
            "power_matches": self.power_matches,
            "zero_multiplicity_base": self.zero_multiplicity_base,
            "zero_multiplicity_actual": self.zero_multiplicity_actual,
        }


def isolated_vertex_multiplicity_check(obj) -> MultiplicityReport:
    """Adjoin one isolated vertex (r = 3, base n <= 2) and compare predictions.

    Accepts a symmetric r = 3 tensor, such as a 3-uniform hypergraph, of
    order n <= 2 so the enlarged tensor stays within the exact n <= 3 contract.
    """
    if not isinstance(obj, CubicalTensor):
        raise TypeError(f"expected CubicalTensor or Hypergraph, got {type(obj).__name__}")
    if obj.r != 3:
        raise ValueError(f"isolated-vertex check is fixed at r=3, got r={obj.r}")
    if not is_symmetric(obj):
        raise ValueError("isolated-vertex check requires a symmetric tensor")
    n, r = obj.n, obj.r
    if n > 2:
        raise ValueError(
            f"base order must be n <= 2 so the enlarged tensor stays at "
            f"n <= 3, got n={n}")
    enlarged = CubicalTensor(r, n + 1, list(obj.entries.items()))
    base = charpoly_tensor(obj)
    actual = charpoly_tensor(enlarged)

    scale = r - 1
    gain = scale ** n
    product_prediction = base ** scale * UniPoly([0, 1]) ** gain

    m0 = root_multiplicity(base, Fraction(0))
    x_part = UniPoly([0, 1]) ** m0
    rest, _ = base.divmod(x_part)
    power_prediction = UniPoly([0, 1]) ** (m0 ** scale + gain)
    for mult, factor in squarefree_decomposition(rest):
        power_prediction = power_prediction * factor ** (mult ** scale)

    return MultiplicityReport(
        base=base,
        actual=actual,
        product_prediction=product_prediction,
        power_prediction=power_prediction,
        product_matches=actual == product_prediction,
        power_matches=actual == power_prediction,
        zero_multiplicity_base=m0,
        zero_multiplicity_actual=root_multiplicity(actual, Fraction(0)),
        base_squarefree=tuple(squarefree_decomposition(base)),
        actual_squarefree=tuple(squarefree_decomposition(actual)),
    )
