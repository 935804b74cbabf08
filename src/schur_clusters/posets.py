"""Finite posets and monotone map counting.

Torsion classes over a base ring with finite prime spectrum correspond to
order-preserving maps from the spectrum poset into the cluster poset of
the quiver.  Both ends are one type, ``FinitePoset``, built and validated
only by ``assemble_poset``: source posets through ``build_poset``, cluster
and support tilting posets directly.  Counting contracts the codomain's
zeta matrix Z along a linear extension of the source (Stanley,
Enumerative Combinatorics I, 3.12), with one array axis per placed
element that still has an upper cover to place.  Counts are exact: each
is held in float64 digits of base 2^b, as many as |L|^|P| needs, with
|L|·2^b < 2^52.  Arrays over ``CELL_LIMIT`` cells, digits included, are
refused with LimitExceeded up front, even where a sparse search could
run.  A backtracking search over the same linear extension is the
cross-check.

``assemble_poset`` squares the strict order once, for the transitivity
check and the covers, on int bitsets: each row packed into a Python int,
row i of the square the OR of the rows j with i < j.  That is exact at
any size, with no threshold and no thread setting.  numpy's bool ``@``
uses no BLAS.  A float32 product is exact below 2^24 and uses BLAS, but
under OpenBLAS's default two threads a 132² product (A5) took 15–21 ms,
against 0.09–0.16 ms on one thread, so it would need a size threshold and
a thread setting.  On a 2-core Xeon VM the bool ``@`` took 0.3–0.5 s for
E6's 833² square and the bitset square 6–12 ms; E7's 4160² takes 0.2 s.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BadIndex,
    LimitExceeded,
    NotAntisymmetric,
    NotAPartialOrder,
    NotTransitiveClosure,
    SizeMismatch,
)
from .quiver import Record, topological_sort

# The largest array a count may allocate: 2^23 float64 cells (64 MiB), as
# large as einv's table for its largest box.  A step holds up to about
# three arrays of that size at once.
CELL_LIMIT = 2**23


class FinitePoset(Record, eq=False):
    """A finite poset, built and validated by ``assemble_poset``.

    ``leq[i, j]`` (read-only bool) says element i <= element j; ``hasse``
    lists the cover pairs (i, j), i covered by j, in row-major order.
    ``top``/``bottom`` are element indices, or None when there is no
    greatest/least element.  ``complete`` is False when a height bound
    truncated the elements, which are then those within ``height_bound``.
    """

    elements: tuple
    leq: np.ndarray
    hasse: tuple[tuple[int, int], ...]
    top: int | None
    bottom: int | None
    complete: bool = True
    height_bound: int | None = None

    @property
    def n(self) -> int:
        return len(self.elements)

    def __len__(self):
        return len(self.elements)


def bit_rows(mat) -> list[int]:
    """The rows of a 2-d bool matrix as ints: bit j of row i is mat[i, j]."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return [
        int.from_bytes(data[k * width : (k + 1) * width], "little")
        for k in range(len(packed))
    ]


def bool_square(mat: np.ndarray) -> np.ndarray:
    """``mat @ mat`` for a square bool matrix, exact: row i ORs the
    int-bitset rows j with mat[i, j]."""
    rows = bit_rows(mat)
    m = len(rows)
    width = (m + 7) // 8
    square = bytearray()
    for row in mat:
        acc = 0
        for j in np.nonzero(row)[0].tolist():
            acc |= rows[j]
        square += acc.to_bytes(width, "little")
    packed = np.frombuffer(square, dtype=np.uint8).reshape(m, width)
    return np.unpackbits(packed, axis=1, count=m, bitorder="little").view(bool)


def assemble_poset(elements, leq, complete: bool = True, height_bound=None) -> FinitePoset:
    """Verify the order axioms on a relation matrix and package the poset.

    Raises NotAPartialOrder if reflexivity fails, NotAntisymmetric or
    NotTransitiveClosure (both NotAPartialOrder) if antisymmetry or
    transitivity does, each with the first witness in row-major order.
    For a reflexive ``leq``, ``leq @ leq`` is ``leq | (lt @ lt)`` with
    ``lt`` the strict part, so one square ``lt @ lt`` (``bool_square``)
    serves the transitivity check and the covers.
    """
    leq = np.asarray(leq, dtype=bool)
    m = len(elements)
    if leq.shape != (m, m):
        raise NotAPartialOrder(f"relation shape {leq.shape} for {m} elements")
    diag = leq.diagonal()
    if not diag.all():
        i = int(np.flatnonzero(~diag)[0])
        raise NotAPartialOrder(f"not reflexive at element {i}", index=i)
    lt = leq & ~np.eye(m, dtype=bool)
    sym = lt & lt.T
    if sym.any():
        raise NotAntisymmetric(*map(int, np.argwhere(sym)[0]))
    lt2 = bool_square(lt)
    gap = lt2 & ~leq
    if gap.any():
        raise NotTransitiveClosure(*map(int, np.argwhere(gap)[0]))
    bottoms = np.flatnonzero(leq.all(axis=1))
    tops = np.flatnonzero(leq.all(axis=0))
    leq = leq.copy()
    leq.setflags(write=False)
    top = int(tops[0]) if len(tops) else None
    bottom = int(bottoms[0]) if len(bottoms) else None
    # Positional: a keyword call binds through Record._bind, several times slower.
    hasse = tuple(map(tuple, np.argwhere(lt & ~lt2).tolist()))
    return FinitePoset(tuple(elements), leq, hasse, top, bottom, complete, height_bound)


def _closure(mat: np.ndarray) -> np.ndarray:
    out = mat.copy()
    for k in range(len(out)):
        out |= np.outer(out[:, k], out[k, :])
    return out


def build_poset(n: int, relation=None, covers=None, names=None) -> FinitePoset:
    """Build a validated poset from either a full relation or a cover list.

    ``relation``: iterable of (i, j) pairs meaning i <= j, or a full boolean
    matrix; it must already be transitively closed, otherwise
    NotTransitiveClosure is raised.  ``covers``: iterable of (i, j) pairs
    meaning i < j, whose transitive closure is taken.  Reflexivity is added
    in both modes, and cycles surface as NotAntisymmetric.  Indices are
    0-based.  ``names`` become the elements, 0..n-1 by default.
    """
    if n < 0:
        raise BadIndex(f"poset size must be >= 0, got {n}")
    if (relation is None) == (covers is None):
        raise ValueError("pass exactly one of relation= or covers=")
    if isinstance(relation, np.ndarray):
        if relation.shape != (n, n):
            raise SizeMismatch(f"relation shape {relation.shape} for n={n}")
        mat = relation.astype(bool)
    else:
        mat = np.zeros((n, n), dtype=bool)
        for i, j in relation if relation is not None else covers:
            if not (0 <= i < n and 0 <= j < n):
                raise BadIndex(f"pair ({i}, {j}) out of range for n={n}")
            mat[i, j] = True
    np.fill_diagonal(mat, True)
    if covers is not None:
        mat = _closure(mat)
    elements = tuple(range(n)) if names is None else tuple(names)
    if len(elements) != n:
        raise SizeMismatch(f"{len(elements)} names for {n} elements")
    return assemble_poset(elements, mat)


def chain(k: int) -> FinitePoset:
    """Total order on k elements, 0 < 1 < ... < k-1."""
    return build_poset(k, covers=[(i, i + 1) for i in range(k - 1)])


def antichain(k: int) -> FinitePoset:
    return build_poset(k, covers=[])


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
    order = topological_sort(p.n, p.hasse)
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
    covers = p.hasse
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

