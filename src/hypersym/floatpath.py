"""The float path: every float that hypersym prints is computed here.

The floats are the parts of the paper's certificate for a symmetric
spectrum: a Perron H-eigenpair from shifted power iteration, its residual
under the eigenvalue equation, and the unit roots of a negation map
diag(exp(2 pi i phi(k) / r)).  They all start from the float kernel that
``CubicalTensor._kernel`` caches on the tensor.

Each operation here whose result IEEE 754 does not pin down, so that it may
depend on the CPU's SIMD paths or on the C library, sits behind one named
helper: `_ipow` and `_root` for powers, `_cabs` for complex moduli and
`_unit_root` for exp.  A tier-1 test parses this module and refuses such an
operation anywhere else.

This module imports nothing from ``tensor.py`` at run time; ``tensor.py``
imports from it.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .tensor import CubicalTensor


# ---------------------------------------------------------------------------
# the operations that IEEE 754 does not pin down
# ---------------------------------------------------------------------------

def _ipow(x, p):
    """x ** p for an integer power p: numpy's power ufunc on an array, pow on a float.

    p may be passed as a float64 holding an integer.
    """
    return x ** p


def _root(x, inv):
    """x ** inv for a fractional exponent inv, such as 1.0 / p."""
    return x ** inv


def _cabs(z):
    """|z| of a complex, or of each entry of a complex array: abs() is np.abs on an array."""
    return abs(z)


def _unit_root(num: int, den: int) -> complex:
    """exp(2*pi*i*num/den), exact at quarter turns."""
    num %= den
    quarter, rem = divmod(4 * num, den)
    if rem == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[quarter % 4]
    return cmath.exp(2j * cmath.pi * num / den)


# ---------------------------------------------------------------------------
# F(x), the residual and the form
# ---------------------------------------------------------------------------

def to_float(q: Fraction) -> float:
    """float(q); a ValueError that names q when q is past the float range."""
    try:
        return float(q)
    except OverflowError:
        pass
    try:
        name = str(q)
    except ValueError:  # past the int/str digit limit
        name = f"of about 2**{q.numerator.bit_length() - q.denominator.bit_length()}"
    raise ValueError(f"the value {name} is past the float range")


def apply_array(a: CubicalTensor, x: np.ndarray) -> np.ndarray:
    """F(x) for a numpy vector, through the tensor's cached float kernel."""
    heads, tails, weights = a._kernel()
    if not len(heads):  # no terms, however many tail factors each would have
        return np.zeros(a.n)
    terms = weights * x[tails[0]]
    for c in range(1, len(tails)):  # cheaper than iterating the rows of tails[1:]
        terms *= x[tails[c]]
    if terms.dtype.kind == "c":
        # bincount accepts real weights only
        return (np.bincount(heads, weights=terms.real, minlength=a.n)
                + 1j * np.bincount(heads, weights=terms.imag, minlength=a.n))
    return np.bincount(heads, weights=terms, minlength=a.n)


def apply(a: CubicalTensor, x: Sequence[complex]) -> list[complex]:
    """The map F(x)_k = sum a_{k j_2 ... j_r} x_{j_2} ... x_{j_r} in floats."""
    if len(x) != a.n:
        raise ValueError(f"vector length {len(x)} != order n={a.n}")
    xs = np.array([complex(v) for v in x])
    return apply_array(a, xs).tolist()


@np.errstate(over="ignore", invalid="ignore")  # past the float range: refused below
def eigen_residual(a: CubicalTensor, lam: complex, x: Sequence[complex]) -> float:
    """Scaled worst-equation defect of (lam, x) under the eigenvalue equation.

    Returns max_k |lam x_k^(r-1) - F(x)_k| / max(1, |lam| ||x||_inf^(r-1),
    ||x||_inf^(r-1)).  A ValueError names the float range when
    ||x||_inf^(r-1), or the defect of some equation, is past it.
    """
    xs = np.array([complex(v) for v in x])
    if len(xs) != a.n:
        raise ValueError(f"vector length {len(xs)} != order n={a.n}")
    if not xs.any():
        raise ValueError("eigenvector must be nonzero")
    lam = complex(lam)
    p = a.r - 1
    xmax = float(_cabs(xs).max())
    num = float(_cabs(lam * _ipow(xs, p) - apply_array(a, xs)).max())
    try:
        xinf = _ipow(xmax, p)
    except OverflowError:
        xinf = math.inf
    if xinf == math.inf:
        raise ValueError(f"the largest |x_k|, {xmax!r}, to the power r - 1 = {p} "
                         "is past the float range")
    if not num < math.inf:  # nan fails too
        raise ValueError("lam x_k^(r-1) - F(x)_k is past the float range for some k")
    den = max(1.0, _cabs(lam) * xinf, xinf)
    return num / den


def polynomial_form(a: CubicalTensor, x: Sequence[float]) -> float:
    """The homogeneous form sum a_{j_1...j_r} x_{j_1} ... x_{j_r} (real input)."""
    if not a.is_real():
        raise ValueError("polynomial form is defined for real tensors only")
    if len(x) != a.n:
        raise ValueError(f"vector length {len(x)} != order n={a.n}")
    xs = np.array([float(v) for v in x])
    # sum over j_1 of x_{j_1} F(x)_{j_1}
    return float(xs @ apply_array(a, xs))


# ---------------------------------------------------------------------------
# the power step
# ---------------------------------------------------------------------------

class ConvergenceError(RuntimeError):
    """Power iteration ran out of iterations; carries the last bracket."""

    def __init__(self, lower: float, upper: float, iterations: int):
        self.lower = lower
        self.upper = upper
        self.iterations = iterations
        super().__init__(
            f"power iteration did not reach tolerance after {iterations} "
            f"iterations; spectral radius bracketed in [{lower!r}, {upper!r}]")


def _r_norm(x: np.ndarray, r: float, inv_r: float) -> np.floating:
    """``np.linalg.norm(x, ord=r)`` of a vector x >= +0, with the same float operations.

    With inv_r = 1.0 / r: sqrt(x . x) for r = 2, else add.reduce(x ** r) ** inv_r.
    numpy takes ``abs`` of x first, which is the identity on x >= +0.  The
    power step passes r as a float64, which numpy need not convert.
    """
    if r == 2:
        return np.sqrt(x.dot(x))
    return _root(np.add.reduce(_ipow(x, r)), inv_r)


# The exact bracket never widens but can hold still while x moves.  A stall
# is an iteration whose bracket is no narrower than the narrowest so far and
# whose step max|x_new - x| is within 2^10 ulps of max x, i.e. rounding; 3 in
# a row mean float precision has been reached.
_STALL_ITERATIONS, _STALL_STEP = 3, 1024 * float(np.finfo(float).eps)


@np.errstate(over="ignore")  # an overflow leaves a bracket or a norm that is not finite: see below
def _power(a: CubicalTensor, tol: float, max_iter: int) -> tuple[float, np.ndarray]:
    """The bare Perron pair (rho, x) of `spectral_radius_power`, with no residual.

    ``a`` must be nonnegative and weakly irreducible; the caller checks that,
    or knows it, and certifies the pair against the tensor it reports on.

    With p = r - 1, shift s and the iterate x >= +0, one step is

        xp = x ** p;  y = F(x) + s * xp   (y = F(x) + xp when s = 1.0)
        ratios = y / xp;  lo, hi = min(ratios) - s, max(ratios) - s
        x_new = y ** (1.0 / p);  x_new /= _r_norm(x_new, r, 1.0 / r)

    with 1.0 / p and 1.0 / r, and p and r as float64 exponents, computed
    once per call.  s is 1 + the largest float among the distinct values of
    the stored diagonal rows: a missing diagonal value is 0, which no value
    of a nonnegative tensor is below.
    """
    if not 0 < tol < math.inf:  # nan fails both comparisons
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if type(max_iter) is not int:  # not isinstance: a bool is not a count
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 1:  # no iteration leaves no bracket to report
        raise ValueError(f"max_iter must be a positive integer, got {max_iter!r}")
    largest = max((v.re for v in a._arrays[2]), default=Fraction(1))
    k = largest.numerator.bit_length() - largest.denominator.bit_length()
    if largest < Fraction(1, 2):  # the shift would swamp F(x): iterate on values near 1
        return _rescaled_power(a, k, tol, max_iter)
    keys, where, distinct = a._arrays
    # distinct places, in vertex order: a value past the float range is named as by diagonal()
    on_diagonal = dict.fromkeys(where[(keys == keys[:, :1]).all(axis=1)].tolist())
    shift = 1.0 + max((to_float(distinct[w].re) for w in on_diagonal), default=0.0)
    n, r = a.n, a.r
    p = r - 1
    inv_p, inv_r = 1.0 / p, 1.0 / r
    # float64 exponents spare numpy an int conversion on every power; the int 2 alone
    # takes numpy's faster square, with the same floats
    p_exp, r_exp = p if p == 2 else np.float64(p), np.float64(r)
    minimum, maximum = np.minimum.reduce, np.maximum.reduce

    x = np.full(n, _root(n, -1.0 / r))
    lo = hi = math.nan
    width, stalled = math.inf, 0
    for it in range(max_iter):
        xp = _ipow(x, p_exp)
        y = apply_array(a, x)  # a new array, so it takes the shift term in place
        y += xp if shift == 1.0 else shift * xp
        ratios = y / xp
        lo = float(minimum(ratios)) - shift
        hi = float(maximum(ratios)) - shift
        if not math.isfinite(hi - lo):
            if it == 0 and k > 0:
                return _rescaled_power(a, k, tol, max_iter)
            raise ValueError(f"the spectral radius bracket [{lo!r}, {hi!r}] is not finite "
                             "in floating point")
        x_new = _root(y, inv_p)
        norm = _r_norm(x_new, r_exp, inv_r)
        if norm == math.inf:  # the r-th powers overflow: scale by a power of two, exactly
            x_new = np.ldexp(x_new, -np.frexp(x_new.max())[1])
            norm = _r_norm(x_new, r_exp, inv_r)
        x_new /= norm
        if hi - lo < width:
            width, stalled = hi - lo, 0
        elif np.abs(x_new - x).max() <= _STALL_STEP * x.max():
            stalled += 1
        else:
            stalled = 0
        if width <= tol or stalled == _STALL_ITERATIONS:
            return 0.5 * lo + 0.5 * hi, x  # 0.5 * (lo + hi) unless lo + hi overflows
        x = x_new
    raise ConvergenceError(lo, hi, max_iter)


@np.errstate(over="ignore")  # a tol or radius past the float range scales to inf: see below
def _rescaled_power(a: CubicalTensor, k: int, tol: float,
                    max_iter: int) -> tuple[float, np.ndarray]:
    """The bare Perron pair of ``a`` from that of a * 2^-k: rho times 2^k, the same x.

    Scaling by a positive factor keeps the index rows and the signs, so the
    scaled tensor needs no structure check, and it gets no residual: the
    caller certifies the pair against the tensor it reports on.
    """
    # never looser than tol: values below 1/2 (k < 0) would scale tol up,
    # past every bracket, and the run would stop at its first
    scaled_tol = min(float(np.ldexp(tol, -k)), tol)
    try:
        rho, x = _power(a._scaled(Fraction(2) ** -k), scaled_tol, max_iter)
    except ConvergenceError as exc:
        raise ConvergenceError(float(np.ldexp(exc.lower, k)), float(np.ldexp(exc.upper, k)),
                               exc.iterations) from None
    scaled = float(np.ldexp(rho, k))
    if scaled == math.inf:
        raise ValueError(f"the spectral radius {rho!r} * 2**{k} is not finite "
                         "in floating point")
    if scaled == 0:  # a positive radius is not 0
        raise ValueError(f"the spectral radius {rho!r} * 2**{k} is below the float range")
    return scaled, x
