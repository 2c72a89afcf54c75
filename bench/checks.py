"""Independent checks of every job's stdout.

The checks read the input documents with the standard library and numpy
only; they never call the package under test.  Each check returns a list
of problems, empty when the output is right:

- coloring and transversal certificates against the input's edges or
  support patterns, and every GF(2) conflict against its sum;
- the residual of every rho, verify-eigenpair and witness pair, from this
  module's own F(x);
- the known feasibility of the families and planted instances;
- for each characteristic polynomial: monic, degree n(r-1)^(n-1), second
  coefficient -(r-1)^(n-1) * trace, and for matrices p(node) against an
  exact determinant computed here.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np

TOL = 1e-7


class Instance:
    """Support patterns, float COO arrays and the diagonal of one input."""

    def __init__(self, doc: dict):
        self.r, self.n = doc["r"], doc["n"]
        r = self.r
        if "edges" in doc:
            edges = sorted(tuple(sorted(e)) for e in doc["edges"])
            self.patterns = edges
            self.exact = None
            weight = factorial(r - 1)
            rows, cols = [], []
            for e in edges:
                for p in range(r):
                    rows.append(e[p])
                    cols.append(e[:p] + e[p + 1:])
            vals = [complex(weight)] * len(rows)
            self.diagonal = [Fraction(0)] * self.n
        else:
            acc: dict[tuple, complex | Fraction] = {}
            for rec in doc["entries"]:
                idx = tuple(rec["i"])
                acc[idx] = acc.get(idx, 0) + _value(rec["v"])
            self.exact = {idx: v for idx, v in acc.items() if v != 0}
            self.patterns = sorted({tuple(sorted(idx)) for idx in self.exact})
            rows = [idx[0] for idx in self.exact]
            cols = [idx[1:] for idx in self.exact]
            vals = [complex(v) for v in self.exact.values()]
            self.diagonal = [self.exact.get((k,) * r, Fraction(0)) for k in range(1, self.n + 1)]
        self._rows = np.array(rows, dtype=np.intp) - 1
        self._cols = np.array(cols, dtype=np.intp).reshape(len(rows), r - 1) - 1
        self._vals = np.array(vals, dtype=complex)

    def residual(self, lam: complex, x: np.ndarray) -> float:
        """max_k |lam x_k^(r-1) - F(x)_k| / max(1, |lam| |x|^(r-1), |x|^(r-1))."""
        f = np.zeros(self.n, dtype=complex)
        np.add.at(f, self._rows, self._vals * np.prod(x[self._cols], axis=1))
        p = self.r - 1
        xinf = float(np.max(np.abs(x))) ** p
        num = float(np.max(np.abs(lam * x ** p - f)))
        return num / max(1.0, abs(lam) * xinf, xinf)


def _value(v) -> Fraction | complex:
    if isinstance(v, list):
        re, im = Fraction(v[0]), Fraction(v[1])
        return re if im == 0 else complex(re, im)
    return Fraction(v)


def _pair(data: dict) -> tuple[complex, np.ndarray]:
    lam = complex(data["lambda"][0], data["lambda"][1])
    x = np.array([complex(p[0], p[1]) for p in data["x"]])
    return lam, x


def _check_pair(inst: Instance, data: dict, what: str, positive: bool) -> list[str]:
    problems = []
    lam, x = _pair(data)
    if len(x) != inst.n:
        return [f"{what}: vector length {len(x)} != n={inst.n}"]
    res = inst.residual(lam, x)
    if not res <= TOL:
        problems.append(f"{what}: own residual {res:.3g} > {TOL}")
    if not data["residual"] <= TOL:
        problems.append(f"{what}: reported residual {data['residual']:.3g} > {TOL}")
    if positive:
        if lam.imag != 0 or not lam.real > 0:
            problems.append(f"{what}: spectral radius {lam} is not a positive real")
        if np.any(x.imag != 0) or not np.all(x.real > 0):
            problems.append(f"{what}: Perron vector is not positive")
        if data["kind"] != "H":
            problems.append(f"{what}: kind {data['kind']!r} != 'H'")
    return problems


def _coloring_ok(inst: Instance, phi: list[int]) -> bool:
    r = inst.r
    return (len(phi) == inst.n and all(0 <= v < r for v in phi)
            and all(sum(phi[j - 1] for j in pat) % r == r // 2 for pat in inst.patterns))


def _parity_mask(pattern) -> int:
    mask = 0
    for j in pattern:
        mask ^= 1 << (j - 1)
    return mask


def check_odd_coloring(inst: Instance, out: dict) -> list[str]:
    if out["feasible"]:
        cert = out["certificate"]
        if cert["kind"] != "odd-coloring" or cert["r"] != inst.r:
            return [f"coloring certificate has kind {cert['kind']!r}, r={cert['r']}"]
        if not _coloring_ok(inst, cert["phi"]):
            return ["coloring certificate fails a support pattern"]
        return []
    modulus = out["conflict"]["modulus"]
    if out["certificate"] is not None or inst.r % modulus:
        return [f"infeasible coloring with certificate or modulus {modulus} not dividing r"]
    return []


def check_odd_transversal(inst: Instance, out: dict) -> list[str]:
    if out["feasible"]:
        members = set(out["certificate"]["X"])
        if not members <= set(range(1, inst.n + 1)):
            return ["transversal has vertices outside 1..n"]
        if not all(sum(j in members for j in pat) % 2 == 1 for pat in inst.patterns):
            return ["transversal meets a support pattern an even number of times"]
        return []
    conflict = out["conflict"]
    idxs, pats = conflict["pattern_indices"], [tuple(p) for p in conflict["patterns"]]
    if out["certificate"] is not None or len(idxs) != len(pats) or len(idxs) % 2 == 0:
        return [f"GF(2) conflict of {len(idxs)} rows cannot sum to 0 == 1"]
    if any(i < 0 or i >= len(inst.patterns) or inst.patterns[i] != p
           for i, p in zip(idxs, pats)):
        return ["GF(2) conflict names rows that are not the input's patterns"]
    total = 0
    for p in pats:
        total ^= _parity_mask(p)
    if total:
        return ["GF(2) conflict rows do not sum to the zero row"]
    return []


def check_rho(inst: Instance, out: dict) -> list[str]:
    return _check_pair(inst, out, "rho", positive=True)


def check_verify_eigenpair(inst: Instance, out: dict, pair: dict) -> list[str]:
    problems = _check_pair(inst, out, "verify-eigenpair", positive=False)
    if out["lambda"] != pair["lambda"] or out["x"] != pair["x"]:
        problems.append("verify-eigenpair changed the pair it was given")
    return problems


def check_symmetric(inst: Instance, out: dict, family: str) -> list[str]:
    if family == "planted-k5":
        if (out["symmetric"], out["branch"], out["certificate"], out["witness_pairs"]) != (
                False, "not-colorable", None, []):
            return [f"planted K5 graph reported {out['branch']!r}, symmetric={out['symmetric']}"]
        return []
    if not out["symmetric"] or out["branch"] != "colorable":
        return [f"{family} graph reported {out['branch']!r}, symmetric={out['symmetric']}"]
    problems = []
    if not _coloring_ok(inst, out["certificate"]["phi"]):
        problems.append("witness coloring fails an edge")
    covered = []
    for w in out["witness_pairs"]:
        covered += w["component"]
        plus_lam, _ = _pair(w["plus"])
        minus_lam, _ = _pair(w["minus"])
        if minus_lam != -plus_lam:
            problems.append("minus pair does not carry the negated eigenvalue")
        problems += _check_pair(inst, w["plus"], "plus pair", positive=False)
        problems += _check_pair(inst, w["minus"], "minus pair", positive=False)
    if sorted(covered) != list(range(1, inst.n + 1)):
        problems.append("witness components do not partition the vertices")
    return problems


def _poly(data: dict) -> list[Fraction]:
    coeffs = [Fraction(c) for c in data["coeffs"]]
    if data["degree"] != len(coeffs) - 1:
        raise ValueError("declared degree does not match the coefficient list")
    return coeffs


def check_charpoly(inst: Instance, out: dict, oracle: tuple[int, int] | None) -> list[str]:
    coeffs = _poly(out)
    n, r = inst.n, inst.r
    degree = n * (r - 1) ** (n - 1)
    problems = []
    if len(coeffs) != degree + 1 or coeffs[-1] != 1:
        return [f"charpoly is not monic of degree {degree}"]
    trace = sum(inst.diagonal, Fraction(0))
    if coeffs[degree - 1] != -((r - 1) ** (n - 1)) * trace:
        problems.append("second coefficient != -(r-1)^(n-1) * trace")
    if oracle is not None:
        node, det = oracle
        value = Fraction(0)
        for c in reversed(coeffs):
            value = value * node + c
        if value != det:
            problems.append(f"p({node}) = {value} != det({node} I - A) = {det}")
    return problems


def check_verify_product(inst: Instance, out: dict) -> list[str]:
    if out["equal"] is not True:
        return ["verify-product reported equal: false"]
    lhs, rhs = _poly(out["lhs"]), _poly(out["rhs"])
    if lhs != rhs:
        return ["verify-product reported equal with different polynomials"]
    return check_charpoly(inst, out["lhs"], None)


def matrix_oracle(inst: Instance, node: int) -> tuple[int, int]:
    """(node, det(node I - A)) for an integer matrix, by fraction-free elimination."""
    n = inst.n
    if any(Fraction(v).denominator != 1 for v in inst.exact.values()):
        raise ValueError("the determinant oracle takes integer matrices only")
    m = [[(node if i == j else 0) - int(inst.exact.get((i, j), 0))
          for j in range(1, n + 1)] for i in range(1, n + 1)]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return node, 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return node, sign * m[n - 1][n - 1]
