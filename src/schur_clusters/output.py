"""Serialization of results: canonical JSON, TSV rows, DOT graphs.

All emitters are deterministic (sorted JSON keys, stable orderings), so a
repeated run with the same inputs produces byte-identical output.

``emit_json`` writes exactly what ``json.dumps(payload, indent=2,
sort_keys=True)`` writes, plus a newline.  With an indent ``json`` falls
back to its pure-Python encoder, which renders every occurrence of a
value afresh; cluster payloads repeat the same few variable records
thousands of times.  So ``emit_json`` renders each dict once per depth and
reuses the text: the memo key is ``(id(d), depth)``.  The id is safe
because every dict in the payload is held by the payload for the whole
call, so no id can be freed and reused while the memo lives.  The depth is
part of the key because the same dict at another depth is indented
differently.  ``variables_to_json`` builds lists in which equal variables
share one record, so that memo hits (the ``stilt`` labels).

The ``clusters``, ``preclusters`` and ``poset`` payloads hold their
cluster lists as index tuples into the table's variables, wrapped by
``variable_groups``.  ``emit_json`` renders each variable's record once
and each cluster as the join of those texts over its indices: the bytes
of the list of records, without building the variable tuples or their
record lists.  The records belong to the ``IndexedGroups`` in the
payload, so the memo's ids stay safe.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .clusters import format_variable, neg_vertex
from .errors import ParseError
from .quiver import DimVec, Record


def variable_to_json(v: DimVec) -> dict:
    if any(a < 0 for a in v):
        return {"type": "neg_simple", "vertex": neg_vertex(v)}
    return {"type": "root", "dim": list(v)}


def variables_to_json(groups) -> list[list[dict]]:
    """``variable_to_json`` over each group of variables (a sequence of
    sequences), with one shared record per distinct variable."""
    records = {v: variable_to_json(v) for v in {v for g in groups for v in g}}
    return [[records[v] for v in g] for g in groups]


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


def cluster_label(c) -> str:
    return ", ".join(format_variable(v) for v in c)


def emit_json(payload) -> str:
    """Canonical JSON: 2-space indent, sorted keys, ASCII only, trailing
    newline.  Dict keys must be ``str`` (``TypeError`` otherwise).  An
    ``IndexedGroups`` renders as its list of lists would."""
    memo: dict[tuple[int, int], str] = {}

    def render(obj, depth: int) -> str:
        if isinstance(obj, str):
            return encode_basestring_ascii(obj)
        if isinstance(obj, dict):
            key = (id(obj), depth)
            text = memo.get(key)
            if text is None:
                text = memo[key] = render_dict(obj, depth)
            return text
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            if all(type(v) is int for v in obj):
                items = map(int.__repr__, obj)
            else:
                # Inline memo hits: only dicts are memoised, and the payload
                # keeps each alive, so an entry under id(v) is v's own text.
                d = depth + 1
                items = [memo.get((id(v), d)) or render(v, d) for v in obj]
            return _wrap("[", items, "]", depth)
        if isinstance(obj, IndexedGroups):
            texts = [render(r, depth + 2) for r in obj.records]
            lists = [
                _wrap("[", map(texts.__getitem__, g), "]", depth + 1) if g else "[]"
                for g in obj.groups
            ]
            return _wrap("[", lists, "]", depth) if lists else "[]"
        return json.dumps(obj)

    def render_dict(d: dict, depth: int) -> str:
        if not d:
            return "{}"
        for k in d:
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be str, not {type(k).__name__}")
        items = (
            encode_basestring_ascii(k) + ": " + render(d[k], depth + 1)
            for k in sorted(d)
        )
        return _wrap("{", items, "}", depth)

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

