"""Command-line front end: solvers, certificates, and fixtures as JSON.

Exit codes: 0 = computed (including infeasible answers), 2 = usage or parse
error, 3 = precondition violation or out of memory, 4 = no convergence.
"""
from __future__ import annotations

import argparse
import functools
import gc
import json
import sys

from . import fixtures
from .charpoly import charpoly_tensor, verify_component_product
from .hypergraph import gen_prop4_graph, gen_prop5_graph
from .jsonio import dumps_canonical, parse_tensor_or_graph
from .parity import (ColoringInfeasible, OddColoring, OddTransversal,
                     TransversalInfeasible, coloring_to_transversal,
                     odd_coloring, odd_transversal, transversal_to_coloring,
                     verify_certificate)
from .spectra import (ConvergenceError, EigenPair,
                      check_symmetric_spectrum_certified, spectral_radius_power)

USAGE_ERROR, PRECONDITION_ERROR, CONVERGENCE_ERROR = 2, 3, 4


def _read_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _UsageError(f"cannot read {path}: not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer literal past the int/str digit limit
        raise _UsageError(f"invalid JSON in {path}: {exc}") from exc


class _UsageError(Exception):
    pass


def _load_input(path: str):
    # The cyclic collector is paused while the document is read, decoded,
    # built and released.  A decoded document is a tree of dicts and lists,
    # and the build makes only acyclic temporaries, so a collection has
    # nothing to free here; yet decoding triggers one every 700 new
    # containers by default, and each older-generation one walks the whole
    # document.  (Over a tensor-json benchmark pass the collector ran 548
    # times, freed no object and took about a tenth of the pass; with the
    # pause it runs 0 times.)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return parse_tensor_or_graph(_read_json(path))
    except ValueError as exc:
        raise _UsageError(f"bad input document: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def _emit(payload: dict, output: str | None) -> None:
    text = dumps_canonical(payload)
    if output and output != "-":
        _write_file(output, text)
    else:
        sys.stdout.write(text)


def _add_io_flags(p: argparse.ArgumentParser, needs_input: bool = True) -> None:
    if needs_input:
        p.add_argument("--input", required=True,
                       help="path to a tensor or hypergraph JSON file ('-' for stdin)")
    p.add_argument("--output", default=None,
                   help="destination path (default: stdout)")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The root parser, and each verb's own parser by name."""
    parser = argparse.ArgumentParser(
        prog="hypersym",
        description="Spectral symmetry toolkit for cubical tensors and "
                    "uniform hypergraphs.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("rho", help="spectral radius by power iteration")
    _add_io_flags(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=100_000)

    p = sub.add_parser("odd-coloring", help="solve the odd-coloring residue system")
    _add_io_flags(p)

    p = sub.add_parser("odd-transversal", help="solve the odd-transversal GF(2) system")
    _add_io_flags(p)

    p = sub.add_parser("convert-certificate",
                       help="convert between coloring and transversal certificates")
    _add_io_flags(p)
    p.add_argument("--cert", required=True,
                   help="path to the certificate JSON ('-' for stdin)")

    p = sub.add_parser("check-symmetric",
                       help="certified symmetric-spectrum decision")
    _add_io_flags(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=100_000)

    p = sub.add_parser("charpoly", help="exact characteristic polynomial")
    _add_io_flags(p)

    p = sub.add_parser("verify-eigenpair",
                       help="recompute the residual of a claimed eigenpair")
    _add_io_flags(p)
    p.add_argument("--pair", required=True,
                   help="path to the eigenpair JSON ('-' for stdin)")

    p = sub.add_parser("verify-product",
                       help="check the per-component charpoly product")
    _add_io_flags(p)

    p = sub.add_parser("gen", help="generate a parity-separating family")
    p.add_argument("family", choices=["prop4", "prop5"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--size-a", type=int, required=True)
    p.add_argument("--size-b", type=int, required=True)
    p.add_argument("--size-c", type=int, default=None)
    p.add_argument("--witness-output", default=None,
                   help="also write the witness coloring JSON here")
    _add_io_flags(p, needs_input=False)

    p = sub.add_parser("fixture", help="emit a named reference object")
    p.add_argument("name")
    p.add_argument("--r", type=int, default=None,
                   help="uniformity for the edge-r fixture")
    _add_io_flags(p, needs_input=False)

    return parser, sub.choices


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parsers, built on the first call to `main` and reused after it."""
    return build_parser()


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``parse_args(argv)`` of the root parser, in one argparse pass where it can be.

    The root parser hands everything after the verb to that verb's parser.
    When argv starts with a verb whose parser takes every remaining argument,
    that one pass is the whole parse.  Any other argv (no verb, an unknown
    one, ``-h`` first, or arguments left over) goes to the root parser, which
    prints its own usage and error text.
    """
    parser, verbs = _parser()
    verb = verbs.get(argv[0]) if argv else None
    if verb is not None:
        args, rest = verb.parse_known_args(argv[1:])
        if not rest:
            args.verb = argv[0]
            return args
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# verb handlers
# ---------------------------------------------------------------------------

def _run_rho(args) -> None:
    tensor = _load_input(args.input)
    pair = spectral_radius_power(tensor, tol=args.tol, max_iter=args.max_iter)
    _emit(pair.to_json_dict(), args.output)


def _run_odd_coloring(args) -> None:
    obj = _load_input(args.input)
    result = odd_coloring(obj)
    if isinstance(result, ColoringInfeasible):
        payload = {"feasible": False, "certificate": None,
                   "conflict": {"modulus": result.modulus, "detail": result.detail}}
    else:
        payload = {"feasible": True, "certificate": result.to_json_dict(),
                   "conflict": None}
    _emit(payload, args.output)


def _run_odd_transversal(args) -> None:
    obj = _load_input(args.input)
    result = odd_transversal(obj)
    if isinstance(result, TransversalInfeasible):
        payload = {"feasible": False, "certificate": None,
                   "conflict": {"pattern_indices": list(result.pattern_indices),
                                "patterns": [list(p) for p in result.patterns]}}
    else:
        payload = {"feasible": True, "certificate": result.to_json_dict(),
                   "conflict": None}
    _emit(payload, args.output)


def _run_convert_certificate(args) -> None:
    obj = _load_input(args.input)
    cert_data = _read_json(args.cert)
    kind = cert_data.get("kind") if isinstance(cert_data, dict) else None
    try:
        if kind == "odd-coloring":
            cert = OddColoring.from_json_dict(cert_data)
        elif kind == "odd-transversal":
            cert = OddTransversal.from_json_dict(cert_data, n=obj.n)
        else:
            raise _UsageError(f"certificate kind must be 'odd-coloring' or "
                              f"'odd-transversal', got {kind!r}")
    except KeyError as exc:
        raise _UsageError(f"certificate of kind {kind!r} lacks the key {exc}") from exc
    except TypeError as exc:
        raise _UsageError(f"bad certificate document: {exc}") from exc
    if not verify_certificate(obj, cert):
        what = "coloring" if kind == "odd-coloring" else "transversal"
        raise ValueError(f"{what} does not verify against the input; "
                         "conversion needs a valid certificate")
    if isinstance(cert, OddColoring):
        converted = coloring_to_transversal(cert)
    else:
        converted = transversal_to_coloring(cert, obj.r)
    if not verify_certificate(obj, converted):
        raise RuntimeError("internal error: converted certificate does not verify")
    _emit(converted.to_json_dict(), args.output)


def _run_check_symmetric(args) -> None:
    tensor = _load_input(args.input)
    report = check_symmetric_spectrum_certified(tensor, tol=args.tol,
                                                max_iter=args.max_iter)
    _emit(report.to_json_dict(), args.output)


def _exact_payload(result) -> dict:
    """JSON of an exact result; a coefficient past the int/str digit limit exits 2."""
    try:
        return result.to_json_dict()
    except ValueError as exc:
        # str() of an int past the limit; any other ValueError is not ours
        if "integer string conversion" not in str(exc):
            raise
        raise _UsageError(f"the result has a coefficient of more than "
                          f"{sys.get_int_max_str_digits()} digits") from exc


def _run_charpoly(args) -> None:
    tensor = _load_input(args.input)
    _emit(_exact_payload(charpoly_tensor(tensor)), args.output)


def _run_verify_eigenpair(args) -> None:
    tensor = _load_input(args.input)
    try:
        claimed = EigenPair.from_json_dict(_read_json(args.pair))
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise _UsageError(f"bad eigenpair document: {exc}") from exc
    pair = EigenPair.certify(tensor, claimed.lam, claimed.x)
    _emit(pair.to_json_dict(), args.output)


def _run_verify_product(args) -> None:
    tensor = _load_input(args.input)
    _emit(_exact_payload(verify_component_product(tensor)), args.output)


def _run_gen(args) -> None:
    if args.family == "prop4":
        if args.size_c is not None:
            raise _UsageError("--size-c applies to the prop5 family only")
        g, phi = gen_prop4_graph(args.k, args.size_a, args.size_b)
    else:
        if args.size_c is None:
            raise _UsageError("the prop5 family needs --size-c")
        g, phi = gen_prop5_graph(args.k, args.size_a, args.size_b, args.size_c)
    if args.witness_output:
        _write_file(args.witness_output, dumps_canonical(phi.to_json_dict()))
    _emit(g.to_json_dict(), args.output)


def _run_fixture(args) -> None:
    try:
        obj = fixtures.fixture(args.name, r=args.r)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    _emit(obj.to_json_dict(), args.output)


_HANDLERS = {
    "rho": _run_rho,
    "odd-coloring": _run_odd_coloring,
    "odd-transversal": _run_odd_transversal,
    "convert-certificate": _run_convert_certificate,
    "check-symmetric": _run_check_symmetric,
    "charpoly": _run_charpoly,
    "verify-eigenpair": _run_verify_eigenpair,
    "verify-product": _run_verify_product,
    "gen": _run_gen,
    "fixture": _run_fixture,
}


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        _HANDLERS[args.verb](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONVERGENCE_ERROR
    except (ValueError, TypeError, MemoryError) as exc:
        # numpy refuses an array whose byte size overflows with a ValueError
        if isinstance(exc, MemoryError) or str(exc).startswith("array is too big"):
            exc = f"the input is too large for {args.verb}: out of memory"
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
