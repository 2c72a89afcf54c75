"""Spectral radii by shifted power iteration, and spectrum-negation maps.

For a nonnegative weakly irreducible tensor the iteration on A + sI with a
positive diagonal shift s converges from the uniform positive vector; the
min/max ratio bracket pins the spectral radius to the requested tolerance,
or to float precision when that is coarser.
Parity certificates turn into diagonal unit maps that carry eigenpairs
(lam, x) to (-lam, diag * x).
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .parity import (ColoringInfeasible, OddColoring, OddTransversal,
                     odd_coloring, verify_certificate)
from .tensor import (CubicalTensor, apply_array, components, eigen_residual,
                     is_symmetric, is_weakly_irreducible)

__all__ = [
    "EigenPair", "NegationMap", "ConvergenceError",
    "spectral_radius_power", "negation_map_from_coloring",
    "negation_map_from_transversal", "extract_transversal_from_eigenvector",
    "SymmetryReport", "check_symmetric_spectrum_certified",
]


@dataclass(frozen=True)
class EigenPair:
    """An eigenvalue/eigenvector pair with its recomputed residual.

    kind is "H" when both the value and every vector entry are real, else
    "general".
    """
    lam: complex
    x: tuple[complex, ...]
    residual: float
    kind: str

    @classmethod
    def certify(cls, a: CubicalTensor, lam: complex, x, kind: str | None = None) -> "EigenPair":
        xs = tuple(complex(v) for v in x)
        lam = complex(lam)
        if kind is None:
            real = lam.imag == 0 and all(v.imag == 0 for v in xs)
            kind = "H" if real else "general"
        if kind not in ("general", "H"):
            raise ValueError(f"kind must be 'general' or 'H', got {kind!r}")
        return cls(lam=lam, x=xs, residual=eigen_residual(a, lam, xs), kind=kind)

    def to_json_dict(self) -> dict:
        return {
            "lambda": [self.lam.real, self.lam.imag],
            "x": [[v.real, v.imag] for v in self.x],
            "residual": self.residual,
            "kind": self.kind,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EigenPair":
        lam = complex(_component(data["lambda"][0]), _component(data["lambda"][1]))
        x = tuple(complex(_component(p[0]), _component(p[1])) for p in data["x"])
        return cls(lam=lam, x=x, residual=float(data["residual"]),
                   kind=data.get("kind", "general"))


def _component(v) -> float:
    """A real or imaginary part of a pair document: a finite int or float, not a bool."""
    # inf, nan and an int past the float range fail the comparison
    if type(v) not in (int, float) or not abs(v) <= sys.float_info.max:
        raise ValueError(f"eigenpair component {v!r:.60} is not a finite number")
    return float(v)


class ConvergenceError(RuntimeError):
    """Power iteration ran out of iterations; carries the last bracket."""

    def __init__(self, lower: float, upper: float, iterations: int):
        self.lower = lower
        self.upper = upper
        self.iterations = iterations
        super().__init__(
            f"power iteration did not reach tolerance after {iterations} "
            f"iterations; spectral radius bracketed in [{lower!r}, {upper!r}]")


# The exact bracket never widens but can hold still while x moves.  A stall
# is an iteration whose bracket is no narrower than the narrowest so far and
# whose step max|x_new - x| is within 2^10 ulps of max x, i.e. rounding; 3 in
# a row mean float precision has been reached.
_STALL_ITERATIONS, _STALL_STEP = 3, 2.0 ** 10 * float(np.finfo(float).eps)


def spectral_radius_power(a: CubicalTensor, tol: float = 1e-10,
                          max_iter: int = 100_000) -> EigenPair:
    """Spectral radius and positive eigenvector of a nonnegative tensor.

    Requires real nonnegative entries and weak irreducibility.  Iterates
    x <- normalize((F(x) + s x^[r-1])^[1/(r-1)]) with shift s = 1 + max
    diagonal entry; stops when the min/max eigenvalue bracket is within tol,
    or when it stalls at float precision (as for large spectral radii).
    """
    if not a.is_nonnegative():
        raise ValueError("power iteration requires real nonnegative entries")
    if not is_weakly_irreducible(a):
        raise ValueError(
            "tensor is weakly reducible; decompose it with components() and "
            "take per-part spectral radii")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    n, r = a.n, a.r
    p = r - 1
    shift = 1.0 + max((float(v.re) for v in a.diagonal()), default=0.0)

    x = np.full(n, n ** (-1.0 / r))
    lo = hi = math.nan
    width, stalled = math.inf, 0
    for it in range(max_iter):
        xp = x ** p
        y = apply_array(a, x) + shift * xp
        ratios = y / xp
        lo = float(ratios.min()) - shift
        hi = float(ratios.max()) - shift
        x_new = y ** (1.0 / p)
        x_new /= np.linalg.norm(x_new, ord=r)
        if hi - lo < width:
            width, stalled = hi - lo, 0
        elif np.abs(x_new - x).max() <= _STALL_STEP * x.max():
            stalled += 1
        else:
            stalled = 0
        if width <= tol or stalled == _STALL_ITERATIONS:
            rho = 0.5 * (lo + hi)
            return EigenPair.certify(a, rho, x, kind="H")
        x = x_new
    raise ConvergenceError(lo, hi, max_iter)


# ---------------------------------------------------------------------------
# negation maps
# ---------------------------------------------------------------------------

def _unit_root(num: int, den: int) -> complex:
    """exp(2*pi*i*num/den), exact at quarter turns."""
    num %= den
    quarter, rem = divmod(4 * num, den)
    if rem == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[quarter % 4]
    return cmath.exp(2j * cmath.pi * num / den)


@dataclass(frozen=True)
class NegationMap:
    """Diagonal unit map carrying eigenpairs (lam, x) to (-lam, diag * x)."""
    diag: tuple[complex, ...]
    source: OddColoring | OddTransversal

    def transport(self, pair: EigenPair, a: CubicalTensor) -> EigenPair:
        if len(self.diag) != a.n or len(pair.x) != a.n:
            raise ValueError("negation map / pair / tensor sizes disagree")
        y = tuple(d * v for d, v in zip(self.diag, pair.x))
        real = all(d.imag == 0 for d in self.diag)
        kind = "H" if (pair.kind == "H" and real) else "general"
        return EigenPair.certify(a, -complex(pair.lam), y, kind=kind)

    def to_json_dict(self) -> dict:
        return {
            "diag": [[d.real, d.imag] for d in self.diag],
            "source": self.source.to_json_dict(),
        }


def negation_map_from_coloring(phi: OddColoring, a) -> NegationMap:
    """diag_k = exp(2 phi(k) pi i / r) from a coloring verified against ``a``."""
    if not verify_certificate(a, phi):
        raise ValueError("coloring does not verify against the target tensor")
    diag = tuple(_unit_root(phi.phi[k], phi.r) for k in range(phi.n))
    return NegationMap(diag=diag, source=phi)


def negation_map_from_transversal(x: OddTransversal, a) -> NegationMap:
    """diag_k = 2*I_X(k) - 1 from a transversal verified against ``a`` (r even).

    Either global sign of the diagonal transports eigenpairs to the negated
    eigenvalue; the literal formula (+1 on X) is used.
    """
    if a.r % 2:
        raise ValueError(f"transversal negation maps need even r, got r={a.r}")
    if not verify_certificate(a, x):
        raise ValueError("transversal does not verify against the target tensor")
    members = set(x.vertices)
    diag = tuple(1.0 + 0j if k in members else -1.0 + 0j
                 for k in range(1, x.n + 1))
    return NegationMap(diag=diag, source=x)


def extract_transversal_from_eigenvector(x, zero_tol: float = 1e-8) -> OddTransversal:
    """Vertex set of negative entries of a real, nowhere-zero vector."""
    xs = [complex(v) for v in x]
    if not xs:
        raise ValueError("vector must be nonempty")
    scale = max(abs(v) for v in xs)
    if scale == 0:
        raise ValueError("vector must be nonzero")
    if any(abs(v.imag) > zero_tol * scale for v in xs):
        raise ValueError("vector must be real to carry a sign pattern")
    if any(abs(v.real) < zero_tol * scale for v in xs):
        raise ValueError(
            "vector has entries indistinguishable from zero; sign pattern "
            "is not well defined")
    return OddTransversal(n=len(xs),
                          vertices=tuple(k + 1 for k, v in enumerate(xs)
                                         if v.real < 0))


# ---------------------------------------------------------------------------
# certified symmetric-spectrum check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentWitness:
    """Perron pair of one component (zero-padded) and its negated image."""
    vertices: tuple[int, ...]
    plus: EigenPair
    minus: EigenPair

    def to_json_dict(self) -> dict:
        return {
            "component": list(self.vertices),
            "plus": self.plus.to_json_dict(),
            "minus": self.minus.to_json_dict(),
        }


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of the certified symmetric-spectrum decision.

    branch is "odd-r" (odd r: only the zero tensor is symmetric),
    "colorable" (witness coloring + negated Perron pairs per component), or
    "not-colorable" (residue system infeasible).
    """
    symmetric: bool
    branch: str
    certificate: OddColoring | None
    witness_pairs: tuple[ComponentWitness, ...]
    infeasibility: ColoringInfeasible | None = None

    def to_json_dict(self) -> dict:
        return {
            "symmetric": self.symmetric,
            "branch": self.branch,
            "certificate": None if self.certificate is None
            else self.certificate.to_json_dict(),
            "witness_pairs": [w.to_json_dict() for w in self.witness_pairs],
        }


def check_symmetric_spectrum_certified(a: CubicalTensor, tol: float = 1e-10,
                                       max_iter: int = 100_000) -> SymmetryReport:
    """Decide spectrum symmetry of a symmetric nonnegative tensor, certified.

    Odd r: symmetric only for the zero tensor.  Even r: the spectrum is
    symmetric iff an odd coloring exists; on success the report carries, per
    connected component, the Perron pair and its image under the coloring's
    negation map, both with recomputed residuals.
    """
    if not is_symmetric(a):
        raise ValueError("certified symmetry check requires a symmetric tensor")
    if not a.is_nonnegative():
        raise ValueError("certified symmetry check requires nonnegative entries")
    if a.r % 2:
        is_zero = not a.entries
        return SymmetryReport(symmetric=is_zero, branch="odd-r",
                              certificate=None, witness_pairs=())
    result = odd_coloring(a)
    if isinstance(result, ColoringInfeasible):
        return SymmetryReport(symmetric=False, branch="not-colorable",
                              certificate=None, witness_pairs=(),
                              infeasibility=result)
    nm = negation_map_from_coloring(result, a)
    witnesses = []
    for vertices, sub in components(a).parts:
        sub_pair = spectral_radius_power(sub, tol=tol, max_iter=max_iter)
        x_full = [0j] * a.n
        for local, v in enumerate(vertices):
            x_full[v - 1] = sub_pair.x[local]
        plus = EigenPair.certify(a, sub_pair.lam, x_full, kind="H")
        minus = nm.transport(plus, a)
        witnesses.append(ComponentWitness(vertices=vertices, plus=plus,
                                          minus=minus))
    return SymmetryReport(symmetric=True, branch="colorable",
                          certificate=result, witness_pairs=tuple(witnesses))
