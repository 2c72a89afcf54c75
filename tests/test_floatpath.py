"""floatpath.py keeps each operation that IEEE 754 does not pin down in its named helpers.

A power, a complex modulus, exp and the like may round differently from one
CPU's SIMD path or C library to another, and so change printed bytes.  Such
an operation may appear only inside `_ipow`, `_root`, `_cabs` and
`_unit_root`, or at a site listed in ALLOWED with the reason it is there.
"""

from __future__ import annotations

import ast
import os

import pytest

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src", "hypersym", "floatpath.py")
HELPERS = ("_ipow", "_root", "_cabs", "_unit_root")

# (enclosing function, source text) -> why the site may stay outside the helpers
ALLOWED = {
    ("_power", "math.isfinite(hi - lo)"): "a test of the bits, not arithmetic",
    ("_power", "np.abs(x_new - x)"): "the stall test: |d| of a real d is exact",
    ("_rescaled_power", "Fraction(2) ** -k"): "an exact rational power",
    ("_r_norm", "x.dot(x)"): "a BLAS dot, as np.linalg.norm takes at r = 2",
    ("polynomial_form", "xs @ apply_array(a, xs)"): "a BLAS dot; the form is never printed",
}

# numpy functions backed by the C library or by SIMD code that may round differently
_NUMPY_REFUSED = frozenset({
    "power", "float_power", "abs", "absolute", "exp", "exp2", "expm1", "log", "log2",
    "log10", "log1p", "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2",
    "sinh", "cosh", "tanh", "hypot", "cbrt", "norm", "vdot", "inner", "matmul", "einsum"})


def _refused(node: ast.AST) -> bool:
    """Whether ``node`` is an operation that IEEE 754 does not pin down."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, (ast.Pow, ast.MatMult))
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in ("pow", "abs")
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr == "dot":  # np.dot, or the method of any array
        return True
    root = func.value
    while isinstance(root, ast.Attribute):  # np.linalg.norm is rooted at np
        root = root.value
    if not isinstance(root, ast.Name):
        return False
    if root.id in ("math", "cmath"):
        return func.attr != "sqrt"
    return root.id in ("np", "numpy") and func.attr in _NUMPY_REFUSED


def violations(source: str) -> list[str]:
    """Each refused site outside the helpers and not listed, and each listed site not found."""
    # each listed text as ast.unparse writes it, e.g. with -k in parentheses
    allowed = {(scope, ast.unparse(ast.parse(text, mode="eval"))) for scope, text in ALLOWED}
    found, unused = [], dict.fromkeys(allowed)

    def visit(node: ast.AST, scope: str) -> None:
        if scope in HELPERS:
            return
        if _refused(node):
            site = (scope, ast.unparse(node))
            if site in unused:
                del unused[site]
            elif site not in allowed:
                found.append(f"{scope}, line {node.lineno}: {site[1]}")
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
            visit(child, inner if scope == "<module>" else scope)

    visit(ast.parse(source), "<module>")
    return found + [f"{scope}: {text} is listed but not found" for scope, text in unused]


def _source() -> str:
    with open(PATH, encoding="utf-8") as fh:
        return fh.read()


def test_every_inexact_operation_is_in_a_helper():
    assert violations(_source()) == []


def test_the_helpers_are_module_functions():
    tree = ast.parse(_source())
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(HELPERS) <= defined


@pytest.mark.parametrize("old, new", [
    ("        x_new /= norm\n", "        x_new /= norm ** 1.0\n"),
    ("        x_new /= norm\n", "        x_new /= np.power(norm, 1.0)\n"),
    ("    lam = complex(lam)\n", "    lam = complex(lam) * cmath.exp(0j)\n"),
    ("    lam = complex(lam)\n", "    lam = complex(lam)\n    lam = abs(lam)\n"),
    ("    p = a.r - 1\n", "    p = a.r - 1\n    p = math.pow(p, 1)\n"),
    ("    p = a.r - 1\n", "    p = a.r - 1\n    xs = np.abs(xs)\n"),
    ("    p = a.r - 1\n", "    p = a.r - 1\n    xs = xs.dot(xs)\n"),
    ("    p = a.r - 1\n", "    p = a.r - 1\n    p **= 1\n"),
    ("    return x ** p\n", "    return x ** p\n\n\ndef _ipow2(x):\n    return x ** 2\n"),
    ("elif np.abs(x_new - x).max()", "elif abs(x_new - x).max()"),
], ids=["pow-operator", "np-power", "cmath-exp", "builtin-abs", "math-pow", "np-abs",
        "dot", "augmented-pow", "new-function", "allowed-site-moved"])
def test_an_added_operation_is_refused(old, new):
    source = _source()
    assert source.count(old) == 1
    assert violations(source.replace(old, new))
