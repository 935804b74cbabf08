"""Plain-text input formats for quivers and posets.

Quiver files: UTF-8 lines, ``#`` starts a comment, blank lines ignored.
The first data line is ``n <vertex count>``; every following line is one
arrow ``<source> <target>`` with 1-based vertices.  Emission is canonical,
so parse(emit(q)) round-trips bit-exactly.

Poset files use the same conventions with cover lines ``<lower> <upper>``
(1-based); the transitive closure is taken automatically, and a cycle is
reported in the file's own numbering.
"""

from __future__ import annotations

from .errors import NotAntisymmetric, ParseError
from .posets import FinitePoset, build_poset
from .quiver import Quiver


def _data_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _header_and_pairs(text: str, what: str):
    lines = list(_data_lines(text))
    if not lines:
        raise ParseError(1, f"empty {what} file")
    no, line = lines[0]
    parts = line.split()
    if len(parts) != 2 or parts[0] != "n":
        raise ParseError(no, f"expected 'n <count>', got {line!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(no, f"vertex count {parts[1]!r} is not an integer")
    if n < 1:
        raise ParseError(no, f"count must be >= 1, got {n}")
    pairs = []
    for no, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(no, f"expected two integers, got {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(no, f"expected two integers, got {line!r}")
        if not (1 <= a <= n and 1 <= b <= n):
            raise ParseError(no, f"index out of range 1..{n} in {line!r}")
        pairs.append((no, a, b))
    return n, pairs


def parse_quiver_text(text: str) -> Quiver:
    n, pairs = _header_and_pairs(text, "quiver")
    return Quiver(n, tuple((a, b) for _, a, b in pairs))


def parse_quiver_file(path) -> Quiver:
    with open(path, encoding="utf-8") as fh:
        return parse_quiver_text(fh.read())


def emit_quiver_text(q: Quiver) -> str:
    lines = [f"n {q.n}"]
    lines.extend(f"{s} {t}" for s, t in q.arrows)
    return "\n".join(lines) + "\n"


def parse_poset_text(text: str) -> FinitePoset:
    n, pairs = _header_and_pairs(text, "poset")
    for no, a, b in pairs:
        if a == b:
            raise ParseError(no, f"cover {a} {b} relates an element to itself")
    try:
        return build_poset(n, covers=[(a - 1, b - 1) for _, a, b in pairs])
    except NotAntisymmetric as exc:  # name the cycle in the file's 1-based numbering
        raise NotAntisymmetric(*(k + 1 for k in exc.info["pair"])) from None


def parse_poset_file(path) -> FinitePoset:
    with open(path, encoding="utf-8") as fh:
        return parse_poset_text(fh.read())


def emit_poset_text(p: FinitePoset) -> str:
    lines = [f"n {p.n}"]
    lines.extend(f"{i + 1} {j + 1}" for i, j in p.hasse)
    return "\n".join(lines) + "\n"
