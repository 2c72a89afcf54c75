"""Outside-in spans around the package's public functions.

`install` replaces each traced function, in every ``hypersym`` module
namespace that holds it, with a wrapper that records a span
``[name, start, end, parent, extra]`` in a `Recorder`; methods are
replaced on their class.  Nothing inside the package changes, so calls
that a module makes through a private alias are attributed to the caller.

`layer_metrics` turns the spans of one pass over the job list into the
per-layer metrics.  Every ``_s`` metric is self time: the span's duration
minus the durations of its child spans.
"""
from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# (module, attribute path, span name).  The span name is the layer and the
# operation; metric names below are built from it.
TARGETS = (
    ("hypersym.cli", "main", "cli.main"),
    ("hypersym.jsonio", "parse_tensor_or_graph", "jsonio.parse"),
    ("hypersym.jsonio", "dumps_canonical", "jsonio.dumps"),
    ("hypersym.hypergraph", "adjacency_tensor", "hypergraph.adjacency"),
    ("hypersym.tensor", "CubicalTensor.__init__", "tensor.construct"),
    ("hypersym.tensor", "CubicalTensor.is_nonnegative", "tensor.is_nonnegative"),
    ("hypersym.tensor", "CubicalTensor.principal_submatrix", "tensor.submatrix"),
    ("hypersym.tensor", "is_symmetric", "tensor.is_symmetric"),
    ("hypersym.tensor", "is_weakly_irreducible", "tensor.irreducible"),
    ("hypersym.tensor", "components", "tensor.components"),
    ("hypersym.tensor", "apply", "tensor.apply"),
    ("hypersym.tensor", "eigen_residual", "tensor.residual"),
    ("hypersym.parity", "support_patterns", "parity.patterns"),
    ("hypersym.parity", "odd_coloring", "parity.coloring"),
    ("hypersym.parity", "odd_transversal", "parity.transversal"),
    ("hypersym.parity", "verify_certificate", "parity.verify"),
    ("hypersym.spectra", "spectral_radius_power", "spectra.power"),
    ("hypersym.spectra", "NegationMap.transport", "spectra.transport"),
    ("hypersym.spectra", "check_symmetric_spectrum_certified", "spectra.check"),
    ("hypersym.charpoly", "charpoly_tensor", "charpoly.tensor"),
    ("hypersym.charpoly", "charpoly_2matrix", "charpoly.matrix"),
    # Traced so that its polynomial products are not counted as CLI time.
    ("hypersym.charpoly", "verify_component_product", "charpoly.product"),
    ("hypersym.resultants", "det_fractions", "resultants.det_fractions"),
    ("hypersym.resultants", "bareiss_det_int", "resultants.bareiss"),
    ("hypersym.resultants", "macaulay_resultant_3", "resultants.macaulay"),
    ("hypersym.resultants", "sylvester_resultant", "resultants.sylvester"),
    ("hypersym.resultants", "interpolate", "resultants.interpolate"),
)


def _matrix_shape(args, _result):
    matrix = args[0]
    top = max((abs(v) for row in matrix for v in row), default=0)
    return {"dim": len(matrix), "bits": top.bit_length()}


def _entry_count(_args, result):
    return {"entries": len(result.entries)}


def _infeasible(_args, result):
    return {"infeasible": type(result).__name__.endswith("Infeasible")}


EXTRAS = {
    "resultants.bareiss": _matrix_shape,
    "hypergraph.adjacency": _entry_count,
    "parity.coloring": _infeasible,
    "parity.transversal": _infeasible,
}


class Recorder:
    """Spans kept in memory until the run ends; ``stack`` holds open span ids."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self.stack
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(sid)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                stack.pop()
                span[4] = {"raised": type(exc).__name__}
                raise
            span[2] = perf_counter()
            stack.pop()
            if extra is not None:
                span[4] = extra(args, result)
            return result

        return traced


def install(recorder: Recorder) -> int:
    """Wrap every target wherever the package bound it; return the bindings replaced."""
    replaced = 0
    for module_name, path, span_name in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, attr, recorder.wrap(cls.__dict__[attr], span_name))
            replaced += 1
            continue
        original = getattr(module, path)
        wrapped = recorder.wrap(original, span_name)
        for name, mod in list(sys.modules.items()):
            if name == "hypersym" or name.startswith("hypersym."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        replaced += 1
    return replaced


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# metric name -> (span name, "self" | "calls"), for the plain sums.
_SELF_AND_CALLS = {
    "cli.self_s": ("cli.main", "self"),
    "jsonio.parse_s": ("jsonio.parse", "self"),
    "jsonio.dumps_s": ("jsonio.dumps", "self"),
    "hypergraph.adjacency_s": ("hypergraph.adjacency", "self"),
    "tensor.construct_s": ("tensor.construct", "self"),
    "tensor.construct_calls": ("tensor.construct", "calls"),
    "tensor.is_symmetric_s": ("tensor.is_symmetric", "self"),
    "tensor.is_symmetric_calls": ("tensor.is_symmetric", "calls"),
    "tensor.is_nonnegative_calls": ("tensor.is_nonnegative", "calls"),
    "tensor.irreducible_s": ("tensor.irreducible", "self"),
    "tensor.components_s": ("tensor.components", "self"),
    "tensor.submatrix_s": ("tensor.submatrix", "self"),
    "tensor.apply_s": ("tensor.apply", "self"),
    "tensor.residual_s": ("tensor.residual", "self"),
    "tensor.residual_calls": ("tensor.residual", "calls"),
    "parity.patterns_s": ("parity.patterns", "self"),
    "parity.patterns_calls": ("parity.patterns", "calls"),
    "parity.coloring_s": ("parity.coloring", "self"),
    "parity.transversal_s": ("parity.transversal", "self"),
    "parity.verify_s": ("parity.verify", "self"),
    "parity.verify_calls": ("parity.verify", "calls"),
    "spectra.power_s": ("spectra.power", "self"),
    "spectra.power_calls": ("spectra.power", "calls"),
    "spectra.transport_s": ("spectra.transport", "self"),
    "spectra.check_self_s": ("spectra.check", "self"),
    "charpoly.tensor_self_s": ("charpoly.tensor", "self"),
    "charpoly.matrix_self_s": ("charpoly.matrix", "self"),
    "resultants.det_convert_s": ("resultants.det_fractions", "self"),
    "resultants.bareiss_s": ("resultants.bareiss", "self"),
    "resultants.det_calls": ("resultants.bareiss", "calls"),
    "resultants.macaulay_self_s": ("resultants.macaulay", "self"),
    "resultants.sylvester_self_s": ("resultants.sylvester", "self"),
    "resultants.interpolate_s": ("resultants.interpolate", "self"),
}

# Every per-layer metric the traced run reports, in report order.
PER_LAYER_METRICS = (
    "cli.self_s", "jsonio.parse_s", "jsonio.dumps_s", "jsonio.bytes_in", "jsonio.bytes_out",
    "hypergraph.adjacency_s", "hypergraph.adjacency_entries",
    "tensor.construct_s", "tensor.construct_calls", "tensor.is_symmetric_s",
    "tensor.is_symmetric_calls", "tensor.is_nonnegative_calls", "tensor.irreducible_s",
    "tensor.components_s", "tensor.submatrix_s", "tensor.apply_s", "tensor.residual_s",
    "tensor.residual_calls",
    "parity.patterns_s", "parity.patterns_calls", "parity.coloring_s", "parity.transversal_s",
    "parity.verify_s", "parity.verify_calls", "parity.infeasible_frac",
    "spectra.power_s", "spectra.power_calls", "spectra.transport_s", "spectra.check_self_s",
    "charpoly.tensor_self_s", "charpoly.matrix_self_s", "charpoly.nodes_tried",
    "charpoly.node_yield",
    "resultants.det_convert_s", "resultants.bareiss_s", "resultants.det_calls",
    "resultants.det_max_dim", "resultants.det_max_bits", "resultants.macaulay_self_s",
    "resultants.sylvester_self_s", "resultants.interpolate_s", "resultants.degenerate_nodes",
    "trace.overhead_frac",
)

# Counts that depend only on the inputs; they must repeat exactly for a seed.
COUNT_METRICS = ("tensor.construct_calls", "tensor.is_symmetric_calls",
                 "tensor.is_nonnegative_calls", "tensor.residual_calls",
                 "parity.patterns_calls", "parity.verify_calls",
                 "spectra.power_calls", "resultants.det_calls",
                 "hypergraph.adjacency_entries", "charpoly.nodes_tried",
                 "resultants.det_max_dim", "resultants.degenerate_nodes")

UNITS = {"jsonio.bytes_in": "bytes", "jsonio.bytes_out": "bytes",
         "parity.infeasible_frac": "ratio", "charpoly.node_yield": "ratio",
         "resultants.det_max_bits": "bits", "trace.overhead_frac": "ratio"}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "s" if metric.endswith("_s") else "count"


def layer_metrics(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics of ``spans[lo:hi]``, a whole number of jobs.

    Parents are absolute indices into ``spans``; a job's spans never point
    outside its own range.
    """
    child_time = [0.0] * (hi - lo)
    for name, start, end, parent, _extra in spans[lo:hi]:
        if parent >= 0:
            child_time[parent - lo] += end - start
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    entries = tried = degenerate = solved = infeasible = 0
    max_dim = max_bits = 0
    for i in range(lo, hi):
        name, start, end, parent, extra = spans[i]
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i - lo]
        calls[name] = calls.get(name, 0) + 1
        if name == "hypergraph.adjacency":
            entries += extra.get("entries", 0)
        elif name == "resultants.bareiss":
            max_dim = max(max_dim, extra.get("dim", 0))
            max_bits = max(max_bits, extra.get("bits", 0))
        elif name in ("parity.coloring", "parity.transversal") and extra:
            solved += 1
            infeasible += extra.get("infeasible", False)
        caller = spans[parent][0] if parent >= 0 else None
        if ((caller == "charpoly.tensor"
             and name in ("resultants.macaulay", "resultants.sylvester"))
                or (caller == "charpoly.matrix" and name == "resultants.det_fractions")):
            tried += 1
            if extra and extra.get("raised") == "DegenerateNode":
                degenerate += 1
    out: dict[str, float] = {}
    for metric, (span, kind) in _SELF_AND_CALLS.items():
        out[metric] = self_time.get(span, 0.0) if kind == "self" else calls.get(span, 0)
    out["hypergraph.adjacency_entries"] = entries
    out["parity.infeasible_frac"] = infeasible / solved if solved else 0.0
    out["charpoly.nodes_tried"] = tried
    out["charpoly.node_yield"] = (tried - degenerate) / tried if tried else 0.0
    out["resultants.det_max_dim"] = max_dim
    out["resultants.det_max_bits"] = max_bits
    out["resultants.degenerate_nodes"] = degenerate
    return out
