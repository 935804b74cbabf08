"""Finite posets and monotone map counting.

The counting model for torsion classes over a base ring with finite prime
spectrum: torsion classes correspond to order-preserving maps from the
spectrum poset into the cluster poset of the quiver.  Counting runs through
two algorithms, a frontier dynamic program over a linear extension and a
plain backtracking search, which must agree.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .clusters import ClusterPoset, cluster_poset, cover_pairs, format_variable
from .errors import (
    BadIndex,
    LimitExceeded,
    NotAntisymmetric,
    NotDynkin,
    NotTransitiveClosure,
    SizeMismatch,
)
from .quiver import Quiver


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
    n = len(out)
    for k in range(n):
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
    f = _check_map(f, p, l)
    for i in range(p.n):
        for j in range(p.n):
            if p.leq[i, j] and not l.leq[f[i], f[j]]:
                return False
    return True


def _check_map(f, p: FinitePoset, l: FinitePoset):
    f = tuple(int(v) for v in f)
    if len(f) != p.n:
        raise SizeMismatch(f"map has {len(f)} values for {p.n} elements")
    for v in f:
        if not (0 <= v < l.n):
            raise BadIndex(f"value {v} outside codomain of size {l.n}")
    return f


def _linear_extension(p: FinitePoset) -> list[int]:
    mat = p.leq
    remaining = set(range(p.n))
    order = []
    while remaining:
        ready = sorted(
            i for i in remaining if not any(mat[j, i] for j in remaining if j != i)
        )
        order.append(ready[0])
        remaining.remove(ready[0])
    return order


def _count_backtracking(p: FinitePoset, l: FinitePoset) -> int:
    order = _linear_extension(p)
    preds = [
        [j for j in range(k) if p.leq[order[j], order[k]]] for k in range(p.n)
    ]
    lleq = l.leq
    assign = [0] * p.n

    def rec(k):
        if k == p.n:
            return 1
        total = 0
        for v in range(l.n):
            if all(lleq[assign[j], v] for j in preds[k]):
                assign[k] = v
                total += rec(k + 1)
        return total

    return rec(0)


def _count_dp(p: FinitePoset, l: FinitePoset) -> int:
    """Frontier DP over a linear extension.

    After placing a prefix, only values on elements that still have
    unplaced successors matter; states are value tuples on that frontier.
    """
    if p.n == 0:
        return 1
    order = _linear_extension(p)
    m = p.n
    leq = p.leq
    frontiers = []
    for k in range(m):
        fr = tuple(
            j
            for j in range(k + 1)
            if any(leq[order[j], order[i]] for i in range(k + 1, m))
        )
        frontiers.append(fr)
    states = {(): 1}
    prev_fr: tuple[int, ...] = ()
    lleq = l.leq
    for k in range(m):
        e = order[k]
        pred_slots = [idx for idx, j in enumerate(prev_fr) if leq[order[j], e]]
        keep = [(-1 if j == k else prev_fr.index(j)) for j in frontiers[k]]
        new_states: dict[tuple, int] = defaultdict(int)
        for state, cnt in states.items():
            for v in range(l.n):
                if all(lleq[state[s], v] for s in pred_slots):
                    ns = tuple(v if s == -1 else state[s] for s in keep)
                    new_states[ns] += cnt
        states = dict(new_states)
        prev_fr = frontiers[k]
    return sum(states.values())


def count_monotone_maps(p: FinitePoset, l: FinitePoset, method: str = "auto") -> int:
    """Number of order-preserving maps p -> l.

    method: 'dp' (frontier dynamic program), 'backtrack', or 'auto' which
    picks backtracking for very small domains and the DP otherwise.
    """
    if method == "auto":
        method = "backtrack" if p.n <= 4 else "dp"
    if method == "dp":
        return _count_dp(p, l)
    if method == "backtrack":
        return _count_backtracking(p, l)
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
    lleq = l.leq
    pleq = p.leq
    out = []
    assign = [-1] * p.n

    def rec(i):
        if i == p.n:
            out.append(tuple(assign))
            return
        for v in range(l.n):
            ok = True
            for j in range(i):
                if pleq[j, i] and not lleq[assign[j], v]:
                    ok = False
                    break
                if pleq[i, j] and not lleq[v, assign[j]]:
                    ok = False
                    break
            if ok:
                assign[i] = v
                rec(i + 1)
        assign[i] = -1

    rec(0)
    return out


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
    return count_monotone_maps(p, as_finite_poset(cluster_poset(q)), method)
