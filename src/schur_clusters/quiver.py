"""Finite acyclic quivers and their root combinatorics.

A quiver is stored as a vertex count ``n`` (vertices are numbered ``1..n``)
together with a tuple of arrows ``(source, target)``.  Parallel arrows are
allowed, loops and oriented cycles are not.  On top of that this module
provides the Euler form, its symmetrization, simple reflections, and the
generation of positive real roots as the Weyl orbit of the simple roots.

``Record`` is the base of the package's frozen value classes (``Quiver``,
``RootSet``, ``clusters.ClusterTable`` and the rest).  A subclass declares
its fields as class annotations, in order; a class-level value is that
field's default.  Instances are built positionally or by keyword, then
``__post_init__`` runs if the class defines one.  Fields cannot be assigned
or deleted (``AttributeError``).  Values derived at construction are set
with ``object.__setattr__`` in ``__post_init__``, as ``Quiver`` does.
``cached_property`` still works for lazy values, since it writes the
instance dict directly, but once that dict exists every attribute read of
the instance is slower, so hot classes avoid it.  Equality, hash and repr
are field-wise, and ``class X(Record, eq=False)`` keeps identity equality
and hashing.  It stands in for ``dataclasses``, whose code generation every
CLI call would otherwise pay for at import.
"""

from __future__ import annotations

import heapq
from operator import attrgetter, index

from .errors import BadIndex, BoundRequired, CycleDetected, DimensionMismatch, NegativeEntry

# Dimension vectors are plain integer tuples of length n.
DimVec = tuple[int, ...]


def unit(n: int, i: int) -> DimVec:
    """The i-th simple root (1-based vertex index)."""
    return tuple(1 if j == i - 1 else 0 for j in range(n))


def topological_sort(n: int, edges) -> list[int]:
    """Kahn's algorithm on vertices 0..n-1, smallest ready vertex first.

    ``edges`` are (s, t) pairs meaning s comes before t; parallel edges are
    fine.  The order is shorter than n exactly when the edges close a
    cycle, and then it omits every vertex on a cycle or reachable from one.
    """
    indeg = [0] * n
    out = [[] for _ in range(n)]
    for s, t in edges:
        out[s].append(t)
        indeg[t] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return order


def support(x: DimVec) -> frozenset[int]:
    """Vertices (1-based) where x is nonzero."""
    return frozenset(i + 1 for i, a in enumerate(x) if a != 0)


def root_key(x: DimVec) -> tuple:
    """Canonical sort key for roots: by height, then lexicographic."""
    return (sum(x), x)


class Record:
    """Frozen value class with field-wise equality (see the module docstring)."""

    _fields = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__annotations__)
        # The field values (one value when there is one field); an
        # attrgetter does not bind, so it is called with the instance.
        cls._key = attrgetter(*cls._fields)
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        # Set one by one, not through self.__dict__: touching __dict__ turns
        # the instance's inline attribute values into a dict, and every
        # later attribute read gets slower.
        for field, value in zip(self._fields, args):
            object.__setattr__(self, field, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """Every field's value, in order, from a call with keywords or defaults."""
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(args)}")
        values = dict(zip(cls._fields, args))
        for field, value in kwargs.items():
            if field not in cls._fields or field in values:
                raise TypeError(f"{cls.__name__} got an unknown or repeated field {field!r}")
            values[field] = value
        for field in cls._fields:
            if field not in values:
                if not hasattr(cls, field):
                    raise TypeError(f"{cls.__name__} is missing field {field!r}")
                values[field] = getattr(cls, field)  # the class-level default
        return [values[field] for field in cls._fields]

    def __post_init__(self):
        pass

    def __setattr__(self, field, value):
        raise AttributeError(f"cannot assign to {field!r}: {type(self).__name__} is frozen")

    def __delattr__(self, field):
        raise AttributeError(f"cannot delete {field!r}: {type(self).__name__} is frozen")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({body})"


def _topological_order(n: int, arrows) -> tuple[int, ...]:
    """Vertices in a source-to-sink order (arrows go forward)."""
    order = topological_sort(n, [(s - 1, t - 1) for s, t in arrows])
    if len(order) != n:
        stuck = sorted(set(range(1, n + 1)) - {v + 1 for v in order})
        raise CycleDetected(
            f"quiver contains an oriented cycle through vertices {stuck}",
            vertices=stuck,
        )
    return tuple(v + 1 for v in order)


def _euler_matrix(n: int, arrows) -> tuple[tuple[int, ...], ...]:
    """Matrix e with <x, y> = x . e . y: identity minus arrow multiplicities."""
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = 1
    for s, t in arrows:
        mat[s - 1][t - 1] -= 1
    return tuple(tuple(row) for row in mat)


def _positive_definite(sym) -> bool:
    """Sylvester's criterion with fraction-free integer pivots: the Bareiss
    pivots are exactly the leading principal minors."""
    c = [list(row) for row in sym]
    n = len(c)
    prev = 1
    for k in range(n):
        if c[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                c[i][j] = (c[i][j] * c[k][k] - c[i][k] * c[k][j]) // prev
        prev = c[k][k]
    return True


class Quiver(Record):
    """A finite acyclic quiver on vertices 1..n.

    Construction validates arrow endpoints and rejects oriented cycles, so a
    held instance is always well formed.  Equality is field-wise.  The hash
    is computed once per instance, because every ``reps`` cache key holds
    the quiver.  Construction also sets the derived attributes:

    - ``topological_order``: the vertices in a source-to-sink order.
    - ``euler_matrix``: e with <x, y> = x . e . y, the identity minus the
      arrow multiplicities.
    - ``sym_matrix``: e + e^T, the matrix of the symmetrized form.
    - ``is_dynkin``: True iff the underlying graph is a disjoint union of
      ADE diagrams.  Equivalently (Gabriel), the Tits form is positive
      definite; checked by Sylvester's criterion with exact integer
      pivots, so multi-edges and affine shapes are rejected exactly.
    """

    n: int
    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        # operator.index takes ints and numpy integers and raises TypeError
        # on anything else, such as a float that int() would truncate.
        object.__setattr__(self, "n", index(self.n))
        if self.n < 1:
            raise BadIndex(f"vertex count must be >= 1, got {self.n}")
        object.__setattr__(
            self, "arrows", tuple((index(s), index(t)) for s, t in self.arrows)
        )
        for s, t in self.arrows:
            if not (1 <= s <= self.n) or not (1 <= t <= self.n):
                raise BadIndex(
                    f"arrow ({s}, {t}) out of range for {self.n} vertices",
                    arrow=(s, t),
                )
        # The derived tables are plain attributes, set once at construction
        # like the fields: a cached_property would write the instance
        # __dict__ and slow every later attribute read (see ``Record``).
        order = _topological_order(self.n, self.arrows)  # raises CycleDetected
        euler = _euler_matrix(self.n, self.arrows)
        sym = tuple(
            tuple(euler[i][j] + euler[j][i] for j in range(self.n))
            for i in range(self.n)
        )
        object.__setattr__(self, "topological_order", order)
        object.__setattr__(self, "euler_matrix", euler)
        object.__setattr__(self, "sym_matrix", sym)
        object.__setattr__(self, "is_dynkin", _positive_definite(sym))
        object.__setattr__(self, "_hash", hash((self.n, self.arrows)))

    def __hash__(self):
        return self._hash

    def check_dimvec(self, x, allow_negative=False) -> DimVec:
        x = tuple(map(index, x))
        if len(x) != self.n:
            raise DimensionMismatch(
                f"vector of length {len(x)} against a quiver with {self.n} vertices"
            )
        if not allow_negative and x and min(x) < 0:
            raise NegativeEntry(f"vector {x} has a negative entry")
        return x


def validate_quiver(n: int, arrows) -> Quiver:
    """Build a validated quiver from raw data (1-based vertex indices)."""
    return Quiver(n, tuple(arrows))


def euler_form(q: Quiver, x: DimVec, y: DimVec) -> int:
    """<x, y> = sum_i x_i y_i - sum_{arrows a} x_{source(a)} y_{target(a)}."""
    x = q.check_dimvec(x, allow_negative=True)
    y = q.check_dimvec(y, allow_negative=True)
    total = sum(a * b for a, b in zip(x, y))
    for s, t in q.arrows:
        total -= x[s - 1] * y[t - 1]
    return total


def sym_form(q: Quiver, x: DimVec, y: DimVec) -> int:
    """Symmetrized Euler form (x, y) = <x, y> + <y, x>."""
    return euler_form(q, x, y) + euler_form(q, y, x)


def tits_form(q: Quiver, x: DimVec) -> int:
    """q(x) = <x, x>."""
    return euler_form(q, x, x)


def reflect(q: Quiver, i: int, x: DimVec) -> DimVec:
    """Simple reflection s_i(x) = x - (x, e_i) e_i at vertex i (1-based)."""
    if not (1 <= i <= q.n):
        raise BadIndex(f"vertex {i} out of range for {q.n} vertices")
    x = q.check_dimvec(x, allow_negative=True)
    row = q.sym_matrix[i - 1]
    pairing = sum(row[j] * x[j] for j in range(q.n))
    out = list(x)
    out[i - 1] -= pairing
    return tuple(out)


class RootSet(Record):
    """Positive real roots of a quiver, canonically sorted.

    ``complete`` is True only when the reflection closure terminated on its
    own (Dynkin case) and no height bound truncated the result.
    """

    roots: tuple[DimVec, ...]
    height_bound: int | None
    complete: bool

    def __iter__(self):
        return iter(self.roots)

    def __len__(self):
        return len(self.roots)

    def __contains__(self, x):
        return tuple(x) in self.roots


def positive_real_roots(q: Quiver, bound: int | None = None) -> RootSet:
    """Positive part of the Weyl orbit of the simple roots.

    Breadth-first closure under all simple reflections, keeping vectors with
    nonnegative entries.  Dynkin quivers terminate without a bound; all other
    quivers have infinitely many real roots, so a height bound is required.
    """
    if bound is not None and bound < 1:
        raise BoundRequired(f"height bound must be >= 1, got {bound}")
    dynkin = q.is_dynkin
    if not dynkin and bound is None:
        raise BoundRequired(
            "non-Dynkin quivers have infinitely many real roots; pass a height bound"
        )
    cap = None if dynkin else bound
    seen = {unit(q.n, i) for i in range(1, q.n + 1)}
    frontier = list(seen)
    while frontier:
        fresh = []
        for x in frontier:
            for i in range(1, q.n + 1):
                y = reflect(q, i, x)
                if y in seen or any(a < 0 for a in y):
                    continue
                if cap is not None and sum(y) > cap:
                    continue
                seen.add(y)
                fresh.append(y)
        frontier = fresh
    roots = sorted(seen, key=root_key)
    if bound is not None:
        kept = tuple(x for x in roots if sum(x) <= bound)
        complete = dynkin and len(kept) == len(roots)
        return RootSet(kept, bound, complete)
    return RootSet(tuple(roots), None, dynkin)


def dynkin_components(q: Quiver) -> tuple[tuple[str, tuple[int, ...]], ...] | None:
    """The connected components of the underlying graph of ``q`` with their
    Dynkin types, as (type, vertices) pairs in order of least vertex; None
    when some component is not a simply-laced Dynkin diagram.

    A component on k vertices is "A<k>" when it is a path, and a tree with
    one vertex of degree 3 whose three arms hold (1, 1, k - 3), (1, 2, 2),
    (1, 2, 3) or (1, 2, 4) vertices is "D<k>", "E6", "E7" or "E8".  Anything
    else (a multiple edge, a cycle, a vertex of degree 4, two branch
    points or longer arms) is not Dynkin.
    """
    edges = {frozenset(a) for a in q.arrows}
    if len(edges) != len(q.arrows):
        return None  # a multiple edge
    adj = {v: [] for v in range(1, q.n + 1)}
    for s, t in q.arrows:
        adj[s].append(t)
        adj[t].append(s)
    found, seen = [], set()
    for start in adj:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        for v in comp:  # grows while it is read
            fresh = [w for w in adj[v] if w not in seen]
            seen.update(fresh)
            comp.extend(fresh)
        k = len(comp)
        if sum(len(adj[v]) for v in comp) != 2 * (k - 1):
            return None  # not a tree
        branch = [v for v in comp if len(adj[v]) > 2]
        if not branch:
            found.append((f"A{k}", tuple(sorted(comp))))
            continue
        if len(branch) > 1 or len(adj[branch[0]]) > 3:
            return None
        arms = []
        for v in adj[branch[0]]:
            prev, length = branch[0], 1
            while len(adj[v]) == 2:
                prev, v = v, next(w for w in adj[v] if w != prev)
                length += 1
            arms.append(length)
        arms.sort()
        if arms[:2] == [1, 1]:
            kind = f"D{k}"
        elif arms[:2] == [1, 2] and arms[2] <= 4:
            kind = f"E{k}"
        else:
            return None
        found.append((kind, tuple(sorted(comp))))
    return tuple(found)


def coxeter_number(kind: str) -> int:
    """h of a Dynkin type from ``dynkin_components``: k + 1 for A<k>,
    2k - 2 for D<k>, 12, 18 and 30 for E6, E7 and E8.  A root system of rank
    k has k h / 2 positive roots (Humphreys, Reflection Groups and Coxeter
    Groups, 3.18)."""
    k = int(kind[1:])
    return {"A": k + 1, "D": 2 * k - 2, "E": {6: 12, 7: 18, 8: 30}.get(k)}[kind[0]]


def projective_dimension_vectors(q: Quiver) -> tuple[DimVec, ...]:
    """Dimension vectors of the indecomposable projectives, one per vertex.

    Entry j of the i-th vector counts paths from i to j; computed by dynamic
    programming from sinks backwards.
    """
    rows: dict[int, list[int]] = {}
    for v in reversed(q.topological_order):
        row = [0] * q.n
        row[v - 1] = 1
        for s, t in q.arrows:
            if s == v:
                for j in range(q.n):
                    row[j] += rows[t][j]
        rows[v] = row
    return tuple(tuple(rows[i]) for i in range(1, q.n + 1))
