"""Finite posets and monotone map counting.

Torsion classes over a base ring with finite prime spectrum correspond to
order-preserving maps from the spectrum poset into the cluster poset of
the quiver.  Counting contracts the codomain's zeta matrix Z along a
linear extension of the source (Stanley, Enumerative Combinatorics I,
3.12), with one array axis per placed element that still has an upper
cover to place.  Counts are exact: each is held in float64 digits of
base 2^b, as many as |L|^|P| needs, with |L|·2^b < 2^52.  Arrays over
``CELL_LIMIT`` cells, digits included, are refused with LimitExceeded
up front, even where a sparse search could run.  A backtracking search over the
same linear extension is the cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clusters import ClusterPoset, cluster_poset, cluster_table, cover_pairs
from .clusters import format_variable
from .errors import (
    BadIndex,
    LimitExceeded,
    NotAntisymmetric,
    NotDynkin,
    NotTransitiveClosure,
    SizeMismatch,
)
from .quiver import Quiver, topological_sort

# The largest array a count may allocate: 2^23 float64 cells (64 MiB), as
# large as einv's table for its largest box.  A step holds up to about
# three arrays of that size at once.
CELL_LIMIT = 2**23


@dataclass(frozen=True, eq=False)
class FinitePoset:
    """Elements 0..n-1 with a read-only boolean matrix leq[i, j] <=> i <= j."""

    n: int
    leq: np.ndarray
    names: tuple[str, ...] | None = None

    def __len__(self):
        return self.n


def _closure(mat: np.ndarray) -> np.ndarray:
    out = mat.copy()
    for k in range(len(out)):
        out |= np.outer(out[:, k], out[k, :])
    return out


def build_poset(n: int, relation=None, covers=None, names=None) -> FinitePoset:
    """Build a validated poset from either a full relation or a cover list.

    ``relation``: iterable of (i, j) pairs meaning i <= j, or a full boolean
    matrix.  Reflexivity is added; the relation must already be transitively
    closed, otherwise NotTransitiveClosure is raised.  ``covers``: iterable
    of (i, j) pairs meaning i < j; the transitive closure is computed.
    Cycles surface as antisymmetry failures in both modes.  Indices are
    0-based.
    """
    if n < 0:
        raise BadIndex(f"poset size must be >= 0, got {n}")
    if (relation is None) == (covers is None):
        raise ValueError("pass exactly one of relation= or covers=")
    mat = np.zeros((n, n), dtype=bool)
    pairs = relation if relation is not None else covers
    if relation is not None and isinstance(relation, np.ndarray):
        if relation.shape != (n, n):
            raise SizeMismatch(f"relation shape {relation.shape} for n={n}")
        mat = relation.astype(bool).copy()
    else:
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise BadIndex(f"pair ({i}, {j}) out of range for n={n}")
            mat[i, j] = True
    np.fill_diagonal(mat, True)
    closed = _closure(mat)
    if relation is not None and (closed & ~mat).any():
        i, j = map(int, np.argwhere(closed & ~mat)[0])
        raise NotTransitiveClosure(
            f"relation misses implied pair ({i}, {j})", pair=(i, j)
        )
    mat = closed
    sym = mat & mat.T
    np.fill_diagonal(sym, False)
    if sym.any():
        i, j = map(int, np.argwhere(sym)[0])
        raise NotAntisymmetric(f"elements {i} and {j} compare both ways", pair=(i, j))
    mat.setflags(write=False)
    if names is not None:
        names = tuple(str(s) for s in names)
        if len(names) != n:
            raise SizeMismatch(f"{len(names)} names for {n} elements")
    return FinitePoset(n, mat, names)


def chain(k: int) -> FinitePoset:
    """Total order on k elements, 0 < 1 < ... < k-1."""
    return build_poset(k, covers=[(i, i + 1) for i in range(k - 1)])


def antichain(k: int) -> FinitePoset:
    return build_poset(k, covers=[])


def as_finite_poset(cp: ClusterPoset) -> FinitePoset:
    """View an assembled cluster (or tilting) poset as a bare FinitePoset."""
    names = []
    for el in cp.elements:
        if isinstance(el, tuple):
            names.append(", ".join(format_variable(v) for v in el))
        else:
            names.append(str(el))
    mat = cp.leq.copy()
    mat.setflags(write=False)
    return FinitePoset(len(cp.elements), mat, tuple(names))


def covers_of(p: FinitePoset) -> tuple[tuple[int, int], ...]:
    """Cover pairs (i, j), i covered by j: the transitive reduction."""
    return cover_pairs(p.leq)


def is_monotone(f, p: FinitePoset, l: FinitePoset) -> bool:
    """Does the assignment f (list of l-indices, one per p-element) preserve order?"""
    f = list(_check_map(f, p, l))
    return bool((l.leq[np.ix_(f, f)] | ~p.leq).all())


def _check_map(f, p: FinitePoset, l: FinitePoset):
    f = tuple(int(v) for v in f)
    if len(f) != p.n:
        raise SizeMismatch(f"map has {len(f)} values for {p.n} elements")
    for v in f:
        if not (0 <= v < l.n):
            raise BadIndex(f"value {v} outside codomain of size {l.n}")
    return f


def _monotone_walk(p: FinitePoset, l: FinitePoset):
    """Yield every monotone map p -> l, backtracking along a linear extension.

    The yielded list, indexed by p's elements, is reused: copy it to keep it.
    """
    order = topological_sort(p.n, covers_of(p))
    preds = [[c for c in order[:k] if p.leq[c, e]] for k, e in enumerate(order)]
    assign = [0] * p.n

    def rec(k):
        if k == p.n:
            yield assign
            return
        for v in range(l.n):
            if all(l.leq[assign[j], v] for j in preds[k]):
                assign[order[k]] = v
                yield from rec(k + 1)

    return rec(0)


def _carry(t: np.ndarray, base: float) -> np.ndarray:
    """Bring each digit on t's axis 0 below base, carrying upward; exact."""
    for i in range(len(t) - 1):
        up = np.floor(t[i] / base)
        t[i] -= up * base
        t[i + 1] += up
    return t


def _count_contraction(p: FinitePoset, l: FinitePoset) -> int:
    """Sum over all maps f of the product of Z[f(i), f(j)] over covers i < j.

    t counts the ways to place the elements already summed out, per value
    of each frontier element.  Placing e is a product with Z on the axis of
    a lower cover whose last upper cover is e (its axis becomes e's), else
    a new axis, and a mask Z[c, e] per other lower cover c; then the axes
    of elements with no upper cover left are summed out, one at a time.
    No count exceeds |l|^|p|, so t holds each in that many base-2^b digits
    on its axis 0; a product or a one-axis sum makes digits below
    |l|·2^b < 2^52, exact in float64, and carrying brings them below 2^b.
    """
    covers = covers_of(p)
    order = topological_sort(p.n, covers)
    step = {e: k for k, e in enumerate(order)}
    lower = [[] for _ in range(p.n)]
    last_upper = [-1] * p.n
    for i, j in covers:
        lower[j].append(i)
        last_upper[i] = max(last_upper[i], step[j])
    width = axes = 0
    for k, e in enumerate(order):
        lower[e].sort(key=lambda c: last_upper[c] != k)
        leaves = sum(last_upper[c] == k for c in lower[e])
        axes = max(axes, width + (leaves == 0))
        width += (last_upper[e] > k) - leaves
    b = 52 - l.n.bit_length()
    digits = -(-(l.n**p.n).bit_length() // b) or 1
    cells = digits * l.n**axes
    if cells > CELL_LIMIT:
        raise LimitExceeded(
            f"counting monotone maps needs an array of {digits}·{l.n}^{axes} = "
            f"{cells} cells, over the limit of {CELL_LIMIT}",
            cells=cells,
            limit=CELL_LIMIT,
        )
    zeta, outside = l.leq.astype(np.float64), ~l.leq
    t = np.zeros(digits)
    t[0] = 1
    frontier: list[int] = []
    for k, e in enumerate(order):
        below = lower[e]
        if below and last_upper[below[0]] == k:
            t = np.tensordot(t, zeta, ([1 + frontier.index(below[0])], [0]))
            t = _carry(t, 2.0**b)
            frontier.remove(below[0])
            below = below[1:]
        else:
            t = t[..., None] * np.ones(l.n)
        frontier.append(e)
        for c in below:
            shape = [1] * t.ndim
            shape[1 + frontier.index(c)] = shape[-1] = l.n
            np.copyto(t, 0, where=outside.reshape(shape))
        for a in reversed(range(len(frontier))):
            if last_upper[frontier[a]] <= k:
                t = _carry(t.sum(axis=1 + a), 2.0**b)
                del frontier[a]
    return sum(int(d) << (b * i) for i, d in enumerate(t))


def count_monotone_maps(p: FinitePoset, l: FinitePoset, method: str = "auto") -> int:
    """Number of order-preserving maps p -> l.

    method: 'auto' or 'dp' (the zeta-matrix contraction, which raises
    LimitExceeded past CELL_LIMIT cells), or 'backtrack' (a plain search
    over a linear extension, kept as the cross-check).
    """
    if method in ("auto", "dp"):
        return _count_contraction(p, l)
    if method == "backtrack":
        return sum(1 for _ in _monotone_walk(p, l))
    raise ValueError(f"unknown method {method!r}")


def enumerate_monotone_maps(p: FinitePoset, l: FinitePoset, limit: int = 100000):
    """All monotone maps as value tuples, lexicographically sorted.

    Counts first; if the total exceeds ``limit`` raises LimitExceeded before
    enumerating anything.
    """
    total = count_monotone_maps(p, l)
    if total > limit:
        raise LimitExceeded(
            f"{total} monotone maps exceed the limit {limit}", count=total
        )
    return sorted(tuple(f) for f in _monotone_walk(p, l))


def map_poset_leq(f, g, p: FinitePoset, l: FinitePoset) -> bool:
    """Pointwise order on maps: f <= g iff f(x) <= g(x) for every x."""
    f = _check_map(f, p, l)
    g = _check_map(g, p, l)
    return all(l.leq[f[i], g[i]] for i in range(p.n))


def torsion_class_count(q: Quiver, p: FinitePoset, method: str = "auto") -> int:
    """Number of monotone maps from p into the cluster poset of q.

    For a base ring whose spectrum is the finite poset p, this counts the
    torsion classes of the quiver algebra over that ring.  Needs a Dynkin
    quiver (the cluster poset must be finite and complete).
    """
    if not q.is_dynkin:
        raise NotDynkin("torsion class counting needs a Dynkin quiver")
    cp = cluster_poset(cluster_table(q))  # read-only leq; the count reads no labels
    return count_monotone_maps(p, FinitePoset(len(cp.elements), cp.leq), method)
