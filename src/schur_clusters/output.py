"""Serialization of results: canonical JSON, TSV rows, DOT graphs.

All emitters are deterministic (sorted JSON keys, stable orderings), so a
repeated run with the same inputs produces byte-identical output.

``emit_json`` writes exactly what ``json.dumps(payload, indent=2,
sort_keys=True)`` writes, plus a newline, rendering every value where it
occurs; there is no memo.

The ``clusters``, ``preclusters``, ``poset`` and ``stilt`` payloads hold
their cluster lists as an ``IndexedGroups``: index tuples into the table's
variables and one JSON record per variable (``variable_groups`` builds the
plain ones; ``stilt``'s also carry the module's dims).  ``emit_json``
renders each record once and each cluster as the join of those texts over
its indices: the bytes of the list of records, without building the
variable tuples or their record lists.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .clusters import neg_vertex
from .errors import ParseError
from .quiver import DimVec, Record


def variable_to_json(v: DimVec) -> dict:
    if any(a < 0 for a in v):
        return {"type": "neg_simple", "vertex": neg_vertex(v)}
    return {"type": "root", "dim": list(v)}


class IndexedGroups(Record, eq=False):
    """A JSON list whose g-th item is ``[records[i] for i in groups[g]]``,
    rendered by ``emit_json`` with each record's text made once."""

    records: list
    groups: tuple


def variable_groups(variables, groups) -> IndexedGroups:
    """Index tuples into ``variables`` as the JSON lists of their
    ``variable_to_json`` records."""
    return IndexedGroups([variable_to_json(v) for v in variables], groups)


def _is_int(x) -> bool:
    """A JSON integer: ``json`` reads true and false as bools, which are ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def variable_from_json(obj, n: int) -> DimVec:
    """Inverse of variable_to_json; ParseError on malformed objects."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ParseError(0, f"cluster variable must be an object with 'type': {obj!r}")
    if obj["type"] == "neg_simple":
        k = obj.get("vertex")
        if not _is_int(k) or not (1 <= k <= n):
            raise ParseError(0, f"neg_simple vertex {k!r} out of range 1..{n}")
        return tuple(-1 if i == k - 1 else 0 for i in range(n))
    if obj["type"] == "root":
        dim = obj.get("dim")
        if (
            not isinstance(dim, list)
            or len(dim) != n
            or not all(_is_int(a) and a >= 0 for a in dim)
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


def emit_json(payload) -> str:
    """Canonical JSON: 2-space indent, sorted keys, ASCII only, trailing
    newline.  Dict keys must be ``str`` (``TypeError`` otherwise).  An
    ``IndexedGroups`` renders as its list of lists would."""

    def render(obj, depth: int) -> str:
        if isinstance(obj, str):
            return encode_basestring_ascii(obj)
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            for k in obj:
                if not isinstance(k, str):
                    raise TypeError(
                        f"JSON object keys must be str, not {type(k).__name__}"
                    )
            items = (
                encode_basestring_ascii(k) + ": " + render(obj[k], depth + 1)
                for k in sorted(obj)
            )
            return _wrap("{", items, "}", depth)
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            if all(type(v) is int for v in obj):
                items = map(int.__repr__, obj)
            else:
                items = (render(v, depth + 1) for v in obj)
            return _wrap("[", items, "]", depth)
        if isinstance(obj, IndexedGroups):
            texts = [render(r, depth + 2) for r in obj.records]
            lists = [
                _wrap("[", map(texts.__getitem__, g), "]", depth + 1) if g else "[]"
                for g in obj.groups
            ]
            return _wrap("[", lists, "]", depth) if lists else "[]"
        return json.dumps(obj)

    return render(payload, 0) + "\n"


def _wrap(open_: str, items, close: str, depth: int) -> str:
    inner = "\n" + "  " * (depth + 1)
    return open_ + inner + ("," + inner).join(items) + "\n" + "  " * depth + close


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

