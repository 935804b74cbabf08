"""Finite posets and monotone map counting.

The counting model for torsion classes over a base ring with finite prime
spectrum: torsion classes correspond to order-preserving maps from the
spectrum poset into the cluster poset of the quiver.  Counting runs a
dynamic program over the cover relation of the source, whose frontier holds
only elements with an upper cover still to place; a plain backtracking
search over the same linear extension is the cross-check, and the two must
agree.
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
from .quiver import Quiver, topological_sort


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


def _count_backtracking(p: FinitePoset, l: FinitePoset) -> int:
    order = topological_sort(p.n, covers_of(p))
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
    """Frontier DP over the cover relation of p, along a linear extension.

    A map is monotone on every pair of p once it is monotone on every
    cover, because l is transitive.  So an element only constrains its
    upper covers, and it leaves the frontier once the last of them has
    been placed; states are the value tuples on that frontier.  The values
    allowed for the next element are the AND of the up-sets of its lower
    covers' values, each an int bitset over l.  An element that does not
    stay on the frontier multiplies a state's count by the number of
    allowed values instead of branching on them.  Counts are exact ints.
    """
    covers = covers_of(p)
    order = topological_sort(p.n, covers)
    step = {e: k for k, e in enumerate(order)}
    lower = [[] for _ in range(p.n)]
    last_upper = [-1] * p.n
    for i, j in covers:
        lower[j].append(i)
        last_upper[i] = max(last_upper[i], step[j])
    rows = np.packbits(l.leq, axis=1, bitorder="little")
    up = [int.from_bytes(row.tobytes(), "little") for row in rows]
    everything = (1 << l.n) - 1
    frontier: list[int] = []
    states = {(): 1}
    for k, e in enumerate(order):
        slots = [frontier.index(c) for c in lower[e]]
        kept = [s for s, c in enumerate(frontier) if last_upper[c] > k]
        stays = last_upper[e] > k
        new_states: dict[tuple, int] = defaultdict(int)
        for state, cnt in states.items():
            allowed = everything
            for s in slots:
                allowed &= up[state[s]]
            rest = tuple(state[s] for s in kept)
            if not stays:
                if allowed:
                    new_states[rest] += cnt * allowed.bit_count()
                continue
            while allowed:
                low = allowed & -allowed
                new_states[rest + (low.bit_length() - 1,)] += cnt
                allowed ^= low
        states = new_states
        frontier = [frontier[s] for s in kept] + ([e] if stays else [])
    return sum(states.values())


def count_monotone_maps(p: FinitePoset, l: FinitePoset, method: str = "auto") -> int:
    """Number of order-preserving maps p -> l.

    method: 'auto' or 'dp' (the cover-frontier dynamic program), or
    'backtrack' (a plain search over a linear extension, kept as the
    cross-check).
    """
    if method in ("auto", "dp"):
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
