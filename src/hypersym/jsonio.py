"""Deterministic JSON for every serialized object.

Writers emit sorted keys and floats with 17 significant digits, so equal
in-memory objects always serialize to identical bytes and every float
round-trips exactly.  A non-finite float has no JSON form and is refused.
"""
from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii
from typing import Any

from .hypergraph import Hypergraph
from .tensor import CubicalTensor

__all__ = ["dumps_canonical", "parse_tensor_or_graph"]


def _render(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"{obj!r} has no JSON form: a result is not finite")
        out.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))  # what json.dumps(obj) returns
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _render(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if i:
                out.append(", ")
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _render(obj[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_canonical(obj: Any) -> str:
    """Serialize with sorted keys and fixed 17-significant-digit floats."""
    out: list[str] = []
    _render(obj, out)
    out.append("\n")
    return "".join(out)


def parse_tensor_or_graph(data: dict) -> CubicalTensor:
    """Dispatch a parsed JSON document on its schema ('entries' vs 'edges')."""
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    if "entries" in data:
        return CubicalTensor.from_json_dict(data)
    if "edges" in data:
        return Hypergraph.from_json_dict(data)
    raise ValueError("JSON object is neither a tensor ('entries') nor a "
                     "hypergraph ('edges')")
