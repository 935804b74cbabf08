"""Serialization of results: canonical JSON, TSV rows, DOT graphs.

All emitters are deterministic (sorted JSON keys, stable orderings), so a
repeated run with the same inputs produces byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .clusters import format_variable, neg_vertex
from .errors import ParseError
from .quiver import DimVec


def variable_to_json(v: DimVec) -> dict:
    if any(a < 0 for a in v):
        return {"type": "neg_simple", "vertex": neg_vertex(v)}
    return {"type": "root", "dim": list(v)}


def variable_from_json(obj, n: int) -> DimVec:
    """Inverse of variable_to_json; ParseError on malformed objects."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ParseError(0, f"cluster variable must be an object with 'type': {obj!r}")
    if obj["type"] == "neg_simple":
        k = obj.get("vertex")
        if not isinstance(k, int) or not (1 <= k <= n):
            raise ParseError(0, f"neg_simple vertex {k!r} out of range 1..{n}")
        return tuple(-1 if i == k - 1 else 0 for i in range(n))
    if obj["type"] == "root":
        dim = obj.get("dim")
        if (
            not isinstance(dim, list)
            or len(dim) != n
            or not all(isinstance(a, int) and a >= 0 for a in dim)
            or not any(dim)
        ):
            raise ParseError(0, f"root dim {dim!r} is not a nonzero vector of length {n}")
        return tuple(dim)
    raise ParseError(0, f"unknown cluster variable type {obj['type']!r}")


def fraction_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def representation_to_json(rep) -> dict:
    return {
        "dims": list(rep.dims),
        "matrices": [
            [[fraction_str(v) for v in row] for row in mat] for mat in rep.matrices
        ],
    }


def cluster_label(c) -> str:
    return ", ".join(format_variable(v) for v in c)


def emit_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit_tsv(rows) -> str:
    return "".join("\t".join(str(c) for c in row) + "\n" for row in rows)


def emit_dot(labels, edges, name: str = "poset") -> str:
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i, label in enumerate(labels):
        text = str(label).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{text}"];')
    for i, j in edges:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"

