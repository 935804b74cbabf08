"""Generic extension invariant between dimension vectors.

For dimension vectors x, y of an acyclic quiver, ``e_invariant(q, x, y)``
computes the minimal dimension of Ext^1(M, N) over representations M, N of
dimension vectors x, y.  It is defined purely combinatorially:

    e(x, 0) = e(0, y) = 0
    e(x, y) = max { -<x', y - y'> : x' in S(x), y' in S(y) }
    S(x)    = { x' : 0 <= x' <= x, e(x', x - x') = 0 }

where <.,.> is the Euler form and S(x) is the set of generic subvectors
(dimension vectors of subrepresentations of a generic representation) of x.
Two one-sided maxima agree with the two-sided value: fixing y' = 0 peels
only the left argument, e(x, y) = max { -<x', y> : x' in S(x) }, and
fixing x' = x peels only generic quotients of y (Schofield, "General
representations of quivers", Proc. LMS 1992).

The sets S(w) are filled bottom-up over the box 0 <= w <= top below a
queried vector, one height level at a time (``_fill``), with a table
Z[a, b] = (e(a, b) == 0) over pairs of box cells: S(w) is the sub-box
a <= w masked by Z[a, w - a], whose other cells lie on lower levels, and
by the left one-sided form a level's rows of Z are NOT the OR of the
packed sign rows <a, b> < 0 over a in S(w).  Each S(w) is stored once per
quiver, as int64 rows in C order; boxes of more than ``BOX_LIMIT`` cells
are refused before anything is allocated.

The fill uses only the left one-sided form, ``e_invariant`` the
two-sided maximum and ``e_invariant_alt`` the right and left forms.  They
share only the sets, so the ``einv`` command and ``verify`` (box-wise via
``box_rows``) compare three formulas, and a wrong set would most likely
show as a disagreement.  Top-level pairs are memoized per quiver.  Every
product is exact under one proven bound (``_check_exact``).

A general module M of dimension alpha has End = k (alpha is a Schur root)
exactly when <b, alpha> - <alpha, b> > 0 for every b in S(alpha) other
than 0 and alpha (Schofield 1992, Theorem 6.1).  If q(alpha) = 1 then
dim Ext^1(M, M) = dim End(M) - q(alpha) = 0 and M is exceptional, so
``real_schur_roots`` reads real Schur roots off the stored sets, with no
module sampled.  Tits form 1 and e(alpha, alpha) = 0 do not suffice: on
the affine quiver 1->2->3->4, 1->4, alpha = delta + e3 = (1, 1, 2, 1) has
both, but b = e3 gives 0 and M splits as delta plus the simple at 3.

On a Dynkin quiver the algebra is representation-directed: for
indecomposables X, Y at most one of Hom(X, Y) and Ext^1(X, Y) is nonzero,
so on positive roots e(a, b) = max(0, -<a, b>) (Ringel, *Tame algebras and
integral quadratic forms*, LNM 1099, 1984; Marsh-Reineke-Zelevinsky,
"Generalized associahedra via quiver representations", 2003).
``e_nonzero`` uses it on a whole root table as one matrix product; every
other argument, and ``e_invariant`` itself, runs the general computation.
"""

from __future__ import annotations

import math
from bisect import bisect_right

# hashlib's own blake2b (same seeds), imported without OpenSSL's libcrypto.
from _blake2 import blake2b

import numpy as np

from .errors import LimitExceeded, NotDynkin, ProbeExhausted
from .quiver import DimVec, Quiver, Record, RootSet, positive_real_roots, root_key
from .quiver import tits_form

# Largest box (number of cells 0 <= w <= top) one fill may cover.  The Z
# table holds one byte per pair of cells and NEG one more bit, so this
# caps the two at 72 MiB.
BOX_LIMIT = 8192

# Largest run of sub-box pairs or gathered NEG words (in cells) ``_fill``
# hands numpy at once, so each such temporary holds at most 64 KiB.
FILL_CELL_LIMIT = 2**13

# Largest product (in cells) ``box_rows`` or a level of ``_fill`` forms at
# once: wider ones are cut into blocks, so one block of float64 holds at
# most 8 MiB.
SWEEP_CELL_LIMIT = 2**20

# Integers below this are exact in float64 as well as in int64.
_EXACT_LIMIT = 2**53


class _Memo:
    def __init__(self, quiver: Quiver):
        self.quiver = quiver
        self.emat = np.array(quiver.euler_matrix, dtype=np.int64)
        self.emax = int(np.abs(self.emat).max())
        self.pairs: dict[tuple[DimVec, DimVec], int] = {}
        # S(w) for every w some fill has covered, as int64 rows in C order:
        # the only copy of each set.
        self.sets: dict[DimVec, np.ndarray] = {}
        # S(x) . E for the vectors callers asked for.
        self.products: dict[DimVec, np.ndarray] = {}
        self.hits = 0
        self.misses = 0


# The memos of at most ``MEMO_QUIVERS`` quivers are kept, the oldest
# dropped first, so a loop over many orientations holds bounded memory.
MEMO_QUIVERS = 32
_MEMOS: dict[Quiver, _Memo] = {}


def _memo_for(q: Quiver) -> _Memo:
    memo = _MEMOS.get(q)
    if memo is None:
        while len(_MEMOS) >= MEMO_QUIVERS:
            del _MEMOS[next(iter(_MEMOS))]
        memo = _MEMOS[q] = _Memo(q)
    return memo


def e_cache_stats(q: Quiver) -> dict:
    """Memo counters of one quiver.

    ``pairs``, ``hits`` and ``misses`` count top-level ``e_invariant``
    queries with both arguments nonzero (stored pairs, repeats, first
    sightings); ``summand_sets`` counts the vectors whose S(w) is stored,
    i.e. every cell of every box filled so far.
    """
    memo = _memo_for(q)
    return {
        "pairs": len(memo.pairs),
        "summand_sets": len(memo.sets),
        "hits": memo.hits,
        "misses": memo.misses,
    }


def clear_caches() -> None:
    """Empty every per-quiver E memo and the ``reps.hom_basis`` cache."""
    from . import reps  # deferred: reps pulls in the cluster machinery

    _MEMOS.clear()
    reps.hom_basis.cache_clear()


def _check_exact(memo: _Memo, h: int) -> None:
    """Refuse a fill whose products might not be exact.

    Every product in this module is a sum  sum_ij a_i E_ij b_j  with E the
    Euler matrix and a, b nonnegative integer vectors (b may be a difference
    y - y' with y' <= y).  Its partial sums are integers of absolute value
    at most emax * h(a) * h(b), h being the height (entry sum) and emax =
    max |E_ij| <= max(1, number of arrows).  Below 2^53 that is exact both
    in int64 and in float64, whatever the summation order.

    ``_fill`` makes the only call, with h the height of its top T, and that
    covers every later product too.  Each vector a product reads is stored
    in ``memo.sets``, so it lies under some filled top T, has height at most
    h(T), and that fill passed emax * h(T)^2 < 2^53.  So for any two stored
    vectors x and y, emax * h(x) * h(y) <= emax * max(h(x), h(y))^2 < 2^53.

    A vector inside a box of at most BOX_LIMIT cells has height at most
    BOX_LIMIT - 1, because prod(x_i + 1) >= 1 + sum(x_i); so the bound holds
    for every quiver with fewer than 2^53 / 8191^2, about 1.3e8, arrows,
    and failing it is an internal error, never a silent rounding or wrap.
    """
    if memo.emax * h * h >= _EXACT_LIMIT:
        raise RuntimeError(
            f"internal error: exact-product bound failed ({memo.emax} * {h}^2 >= 2^53)"
        )


def _blocks(cost: np.ndarray, limit: int) -> list[tuple[int, int]]:
    """Cut 0..len(cost) into consecutive ranges whose costs sum to at most
    ``limit``, or to one item where that item alone is over it."""
    if cost.sum() <= limit:
        return [(0, len(cost))]
    cum = np.cumsum(cost).tolist()
    cuts = [0]
    while cuts[-1] < len(cum):
        lo = cuts[-1]
        hi = bisect_right(cum, (cum[lo - 1] if lo else 0) + limit)
        cuts.append(max(hi, lo + 1))
    return list(zip(cuts, cuts[1:]))


def _fill(memo: _Memo, top: DimVec) -> None:
    """Store S(w) for every w in the box 0 <= w <= top, one height level
    at a time.

    Rows of Z (bytes) and NEG (packed bits) are numbered by cells in C
    order, their columns in (height, C) order, so the row of a cell at
    height h covers only the cells of height at most h(top) - h, all that
    a later level reads of it.  For each level:

    - the pairs (w, a) with a <= w are listed in C order of a, and S(w)
      keeps those with Z[a, w - a]; the entry Z[w, 0] of a = w is set up
      front, every other a lies on a lower level;
    - NEG[w] = (<w, b> < 0) comes from a float64 product, exact under
      ``_check_exact``;
    - Z[w] = NOT (OR of NEG[a] over a in S(w)), one
      ``bitwise_or.reduceat`` over the gathered rows.

    Pairs are listed for runs of cells whose sub-boxes hold at most
    ``FILL_CELL_LIMIT`` cells together, ORs are cut the same way and
    products by ``SWEEP_CELL_LIMIT``, so no temporary grows with the width
    of a level.
    """
    shape = tuple(t + 1 for t in top)
    cells = math.prod(shape)
    if cells > BOX_LIMIT:
        raise LimitExceeded(
            f"the box below {list(top)} has {cells} cells, "
            f"over the limit of {BOX_LIMIT}",
            box=list(top),
            cells=cells,
            limit=BOX_LIMIT,
        )
    height = sum(top)
    _check_exact(memo, height)
    grid = np.indices(shape, dtype=np.intp).reshape(len(shape), cells)
    box = grid.T.astype(np.int64)  # cell coordinates, rows in C order
    keys = list(map(tuple, box.tolist()))
    heights = grid.sum(axis=0)
    order = np.argsort(heights, kind="stable")  # (height, C) order
    pos = np.empty(cells, dtype=np.intp)
    pos[order] = np.arange(cells)
    # ends[h]: cells of height below h, so level h is order[ends[h] : ends[h + 1]].
    ends = [0] + np.bincount(heights).cumsum().tolist()
    span = grid + 1
    sub = span.prod(axis=0)  # cells of the sub-box below each cell
    cols = grid[:, order].astype(np.float64)
    rowe = (box @ memo.emat).astype(np.float64)
    strides = [math.prod(shape[i + 1 :]) for i in range(len(shape))]
    neg = np.zeros((cells, -(-cells // 64)), dtype=np.uint64)
    z = np.zeros((cells, cells), dtype=bool)
    z[:, 0] = True  # e(a, 0) = 0: S(w) keeps w itself
    zflat, zbytes, negbytes = z.reshape(-1), z.view(np.uint8), neg.view(np.uint8)
    # A block is a run of cells in (height, C) order.  Listing its pairs
    # reads nothing of Z, so it is done for the whole block at once; then
    # its levels are filled in turn, each reading rows of lower levels.
    for lo, hi in _blocks(sub[order], FILL_CELL_LIMIT):
        ws = order[lo:hi]
        # The pairs a <= w, in C order of a within each w, axis by axis:
        # wrep is the C index of w and ia that of a.
        ia, wrep = np.zeros(len(ws), dtype=np.intp), ws
        for axis, step in enumerate(strides):
            cnt = span[axis, wrep]
            stop = cnt.cumsum()
            ia = (ia + (cnt - stop) * step).repeat(cnt)
            ia += np.arange(0, stop[-1] * step, step)
            wrep = wrep.repeat(cnt)
        wrep -= ia  # now the C index of w - a
        zidx = pos[wrep]  # Z[a, w - a]
        del wrep
        zidx += ia * cells
        first = np.concatenate(([0], sub[ws].cumsum()))
        for h in range(int(heights[ws[0]]), int(heights[ws[-1]]) + 1):
            c0, c1 = max(ends[h], lo) - lo, min(ends[h + 1], hi) - lo
            level = ws[c0:c1]
            width = ends[height - h + 1]
            chunk = max(1, SWEEP_CELL_LIMIT // width)
            for r in range(0, len(level), chunk):
                rows = level[r : r + chunk]
                low = rowe[rows] @ cols[:, :width]
                negbytes[rows, : -(-width // 8)] = np.packbits(low < 0, axis=1, bitorder="little")
            p0, p1 = first[c0], first[c1]
            keep = zflat[zidx[p0:p1]]
            kept = ia[p0:p1][keep]
            counts = np.add.reduceat(keep, first[c0:c1] - p0, dtype=np.intp)
            stop = counts.cumsum()
            sets = box[kept]
            start = 0
            for w, end in zip(level.tolist(), stop.tolist()):
                memo.sets.setdefault(keys[w], sets[start:end])
                start = end
            # Z[w] = NOT (OR of NEG[a] over a in S(w)), on the level's prefix.
            words = -(-width // 64)
            for a, b in _blocks(counts * words, FILL_CELL_LIMIT):
                seg = stop[a:b] - counts[a:b]
                gathered = neg[kept[seg[0] : stop[b - 1]], :words]
                ors = np.bitwise_or.reduceat(gathered, seg - seg[0])
                zbytes[level[a:b], :width] = np.unpackbits(
                    (~ors).view(np.uint8), axis=1, count=width, bitorder="little"
                )


def _summands(memo: _Memo, x: DimVec) -> np.ndarray:
    """S(x) . E, after storing S(x) and checking it once.

    C order lists the sub-box below x from 0 to x, so S(x) must start with
    the zero row and end with x itself.
    """
    se = memo.products.get(x)
    if se is not None:
        return se
    if x not in memo.sets:
        _fill(memo, x)
    s = memo.sets[x]
    if not len(s) or s[0].any() or s[-1].tolist() != list(x):
        raise RuntimeError(
            f"internal error: generic summand set of {x} lost a trivial splitting"
        )
    se = memo.products[x] = s @ memo.emat
    return se


def _e(memo: _Memo, x: DimVec, y: DimVec) -> int:
    if not any(x) or not any(y):
        return 0
    key = (x, y)
    cached = memo.pairs.get(key)
    if cached is not None:
        memo.hits += 1
        return cached
    memo.misses += 1
    if x not in memo.sets and y not in memo.sets:
        _fill_join(memo, (x, y))  # one fill for both, where it is no larger
    xe = _summands(memo, x)
    _summands(memo, y)  # stores and checks S(y)
    diff = np.array(y, dtype=np.int64) - memo.sets[y]
    val = -int((xe @ diff.T).min())
    if val < 0:
        raise RuntimeError(
            "internal error: extension invariant came out negative "
            f"({val}) for quiver {memo.quiver.arrows}"
        )
    memo.pairs[key] = val
    return val


def _colmin(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """min over the rows of a @ rows.T, in column blocks of at most
    ``SWEEP_CELL_LIMIT`` cells (one column at least)."""
    width = max(1, SWEEP_CELL_LIMIT // len(a))
    low = np.empty(len(rows))
    for j in range(0, len(rows), width):
        low[j : j + width] = (a @ rows[j : j + width].T).min(axis=0)
    return low


def box_rows(q: Quiver, box: int):
    """The three forms of e(x, y) over the box 0 <= x, y <= (box, ..., box).

    Yields (x, e, right, left) for every x of the box in C order; e, right
    and left are int64 arrays over every y in C order, holding the
    two-sided value and the right and left one-sided values.  The sets
    S(y) are stacked once, each y a contiguous segment of summand rows
    y' and difference rows y - y', so each row of the box is a few
    products: S(x) E against the differences then a min per segment
    (two-sided), x E against the summands then a max per segment (right),
    and S(x) E against the cells (left).  As in ``e_invariant`` and
    ``e_invariant_alt``, the forms share only the sets.
    """
    if box < 0:
        raise ValueError(f"box must be nonnegative, got {box}")
    memo = _memo_for(q)
    top = (box,) * q.n
    if top not in memo.sets:
        _fill(memo, top)
    grid = np.indices((box + 1,) * q.n).reshape(q.n, -1)
    vecs = [tuple(w) for w in grid.T.tolist()]
    sets = [memo.sets[w] for w in vecs]
    sizes = [len(s) for s in sets]
    starts = np.cumsum([0] + sizes[:-1])
    cells = grid.T.astype(np.float64)
    subs = np.concatenate(sets).astype(np.float64)
    diffs = np.repeat(cells, sizes, axis=0) - subs
    emat = memo.emat.astype(np.float64)
    for x, s in zip(vecs, sets):
        a = s @ emat
        xe = np.array(x, dtype=np.float64) @ emat
        e = -np.minimum.reduceat(_colmin(a, diffs), starts)
        right = np.maximum.reduceat(subs @ xe, starts) - cells @ xe
        left = -_colmin(a, cells)
        yield x, e.astype(np.int64), right.astype(np.int64), left.astype(np.int64)


def box_sweep(q: Quiver, box: int) -> tuple[int, tuple | None]:
    """Compare the three forms of e(x, y) on every pair of the box.

    Returns (pairs, mismatch): mismatch is the first (x, y, e, right, left)
    with the three values not all equal, x-major and y-minor, or None, and
    pairs counts the pairs up to it or all (box + 1)^(2n) of them.  A
    negative two-sided value met first is an internal error, as in
    ``e_invariant``.
    """
    pairs = 0
    for x, e, right, left in box_rows(q, box):
        bad = (e < 0) | (e != right) | (e != left)
        if not bad.any():
            pairs += len(e)
            continue
        j = int(bad.argmax())
        pairs += j + 1
        if e[j] < 0:
            raise RuntimeError(
                "internal error: extension invariant came out negative "
                f"({int(e[j])}) for quiver {q.arrows}"
            )
        y = tuple(int(v) for v in np.unravel_index(j, (box + 1,) * q.n))
        return pairs, (x, y, int(e[j]), int(right[j]), int(left[j]))
    return pairs, None


def e_nonzero(q: Quiver, roots) -> np.ndarray:
    """The boolean matrix of e(a, b) != 0 over ``roots`` (rows a, columns b).

    Precondition: ``roots`` are positive real roots from the quiver's root
    table (for a non-Dynkin quiver, any dimension vectors will do).  On a
    Dynkin quiver e(a, b) != 0 exactly when <a, b> < 0, so the matrix is
    R E R^T < 0 with R holding the roots as rows and E the Euler matrix;
    elsewhere each entry comes from ``e_invariant``.
    """
    roots = [q.check_dimvec(r) for r in roots]
    if not q.is_dynkin:
        return np.array(
            [[e_invariant(q, a, b) != 0 for b in roots] for a in roots],
            dtype=bool,
        ).reshape(len(roots), len(roots))
    # Dynkin root entries are at most 6 (the highest root of E8), so every
    # entry of R E R^T is tiny and int64 is exact without a guard.
    r = np.array(roots, dtype=np.int64).reshape(len(roots), q.n)
    return r @ np.array(q.euler_matrix, dtype=np.int64) @ r.T < 0


def generic_summands(q: Quiver, x) -> tuple[DimVec, ...]:
    """All x' with 0 <= x' <= x and e(x', x - x') = 0, in (height, lex) order.

    These are the generic subvectors of x: the dimension vectors of the
    subrepresentations every general representation of dimension x has
    (Schofield 1992).  They always include 0 and x itself.
    """
    x = q.check_dimvec(x)
    memo = _memo_for(q)
    _summands(memo, x)
    return tuple(sorted(map(tuple, memo.sets[x].tolist()), key=root_key))


def e_invariant(q: Quiver, x, y) -> int:
    """The two-sided maximum; equals min dim Ext^1 over reps of dims x, y."""
    x = q.check_dimvec(x)
    y = q.check_dimvec(y)
    return _e(_memo_for(q), x, y)


def e_invariant_alt(q: Quiver, x, y) -> tuple[int, int]:
    """Both one-sided values, sharing only the generic summand sets.

    Returns (right, left): the right form is max{-<x, y - y'>} over generic
    summands y' of y, the left form is max{-<x', y>} over generic summands
    x' of x.  Each equals ``e_invariant(q, x, y)``.
    """
    x = q.check_dimvec(x)
    y = q.check_dimvec(y)
    memo = _memo_for(q)
    if x not in memo.sets and y not in memo.sets:
        _fill_join(memo, (x, y))
    # Store and check S(x) and S(y); both forms read the sets themselves.
    _summands(memo, x)
    _summands(memo, y)
    yv = np.array(y, dtype=np.int64)
    xe = np.array(x, dtype=np.int64) @ memo.emat
    ey = memo.emat @ yv
    # <x, y> = x . E . y, read off xe; both vectors are validated above.
    right = -int(xe @ yv) + int((memo.sets[y] @ xe).max())
    left = -int((memo.sets[x] @ ey).min())
    return (right, left)


def derived_seed(q: Quiver, alpha: DimVec, seed: int, salt: str = "") -> int:
    """Stable per-(quiver, vector) seed so probe runs are reproducible."""
    key = repr((q.n, q.arrows, tuple(alpha), int(seed), salt)).encode()
    return int.from_bytes(blake2b(key, digest_size=8).digest(), "big")


class SchurCheck(Record):
    """Outcome of a real Schur root test, with its certificate.

    ``reason`` is one of: root-table, not-a-root (exact mode); tits-filter,
    self-ext-filter, schofield-filter, probe-verified, probe-exhausted
    (probe mode).  A probe success carries the seed and the verified
    exceptional representation; exhaustion means sampling missed on a real
    Schur root.
    """

    ok: bool
    mode: str
    reason: str
    seed: int | None = None
    rep: object | None = None


def _schur_failure(q: Quiver, alpha: DimVec) -> tuple[str, DimVec | None] | None:
    """None when the positive vector alpha is a real Schur root, else the
    first test it fails: ("tits-filter", None), ("self-ext-filter", None),
    or ("schofield-filter", b) with b the first vector of the stored S(alpha)
    other than 0 and alpha with <b, alpha> - <alpha, b> <= 0 (Schofield's
    criterion, see ``real_schur_roots``).  The criterion holding with
    e(alpha, alpha) != 0 is an internal error: the two share only S(alpha).
    """
    if tits_form(q, alpha) != 1:
        return "tits-filter", None
    memo = _memo_for(q)
    ext = _e(memo, alpha, alpha)
    rows = memo.sets[alpha][1:-1]
    bad = np.flatnonzero(rows @ ((memo.emat - memo.emat.T) @ alpha) <= 0)
    if ext:
        if not len(bad):
            raise RuntimeError(f"internal error: Schur root {alpha} has e = {ext}")
        return "self-ext-filter", None
    if len(bad):
        return "schofield-filter", tuple(rows[bad[0]].tolist())
    return None


def is_real_schur_root(
    q: Quiver, alpha, mode: str = "auto", seed: int = 0, budget: int = 8
) -> SchurCheck:
    """Test whether alpha is the dimension vector of an exceptional module.

    Dynkin quivers admit an exact answer (all positive real roots qualify).
    Otherwise a probe filters by Tits form, self-extension invariant and
    Schofield's criterion, and then searches for a verified exceptional
    representation with seeds derived deterministically from (quiver,
    alpha, seed).
    """
    alpha = q.check_dimvec(alpha)
    if mode not in ("auto", "exact", "probe"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "exact" if q.is_dynkin else "probe"
    if mode == "exact":
        if not q.is_dynkin:
            raise NotDynkin(
                "exact membership needs a finite root system; use probe mode"
            )
        ok = alpha in positive_real_roots(q)
        return SchurCheck(ok, "exact", "root-table" if ok else "not-a-root")
    failure = _schur_failure(q, alpha)
    if failure is not None:
        return SchurCheck(False, "probe", failure[0])
    from . import reps  # deferred: reps pulls in the cluster machinery

    base = derived_seed(q, alpha, seed)
    try:
        rep = reps.sample_exceptional(q, alpha, seed=base, budget=budget)
    except ProbeExhausted:
        return SchurCheck(False, "probe", "probe-exhausted", seed=base)
    return SchurCheck(True, "probe", "probe-verified", seed=base, rep=rep)


def _fill_join(memo: _Memo, vectors) -> None:
    """Fill the box below the componentwise join of ``vectors`` when it
    fits ``BOX_LIMIT`` and has no more cells than the boxes of the maximal
    vectors together, so one fill covers all of them."""
    if not vectors:
        return
    join = tuple(map(max, zip(*vectors)))
    if join in memo.sets:
        return
    maximal = [
        v for v in vectors
        if not any(u != v and all(a <= b for a, b in zip(v, u)) for u in vectors)
    ]
    cells = math.prod(t + 1 for t in join)
    if cells <= min(BOX_LIMIT, sum(math.prod(t + 1 for t in v) for v in maximal)):
        _fill(memo, join)


def real_schur_roots(
    q: Quiver, bound: int | None = None, seed: int = 0, budget: int = 8
) -> RootSet:
    """Positive real Schur roots: the root table (Dynkin), or the bounded
    roots alpha with <b, alpha> - <alpha, b> > 0 for every b in S(alpha)
    other than 0 and alpha (Schofield's criterion), with no module sampled;
    ``seed`` and ``budget`` are accepted and not consulted.

    A general module M of such an alpha has End = k, so with q(alpha) = 1,
    dim Ext^1(M, M) = dim End(M) - q(alpha) = 0.  The Tits and
    self-extension filters alone do not suffice: on the affine quiver
    1->2->3->4, 1->4, delta + e3 = (1, 1, 2, 1) has q = 1 and e = 0, but
    b = e3 gives 0.  Each root is decided by ``_schur_failure``.  The join
    of the candidates is filled once where ``_fill_join`` allows, else they
    are decided top-down, so each maximal box is filled once.
    """
    if q.is_dynkin:
        return positive_real_roots(q, bound)
    candidates = positive_real_roots(q, bound)
    _fill_join(_memo_for(q), candidates.roots)
    keep = [a for a in reversed(candidates.roots) if _schur_failure(q, a) is None]
    return RootSet(tuple(sorted(keep, key=root_key)), bound, False)
