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
queried vector, with a bool table Z[a, b] = (e(a, b) == 0) over pairs of
box cells.  Cells are visited in C order, which lists every a <= w before
w.  Z[a, w - a] sits at idx(w) + idx(a) * (cells - 1), idx being linear,
so one strided view of Z holds each anti-diagonal as a box and S(w) is
the sub-box a <= w masked by it (w itself is kept: e(w, 0) = 0).  Then
the left one-sided form gives row w at once: Z[w, b] = (min over x' in
S(w) of <x', b>) >= 0, one product of S(w) with the sub-box b <= top - w,
the only columns a later read needs.  Each S(w) is kept per quiver, so a
later box only recomputes its Z rows.  Boxes of more than ``BOX_LIMIT``
cells are refused before anything is allocated.

The fill uses only the left one-sided form.  ``e_invariant`` still takes
the two-sided maximum over S(x) x S(y), the definition itself, and
``e_invariant_alt`` the right and left forms; the three agree by
Schofield's theorem but share nothing except the sets.  So the ``einv``
command and the ``verify`` battery compare three formulas, and a wrong
set would most likely show as a disagreement rather than pass unseen.
``verify`` evaluates the three forms box-wise (``box_rows``): each
row x of the box against every y at once, from the sets stacked once.
``e_invariant`` and ``e_invariant_alt`` stay the per-pair reference.
Top-level pairs are memoized per quiver.  Every product is exact under
one proven magnitude bound (``_check_exact``).

On a Dynkin quiver the algebra is representation-directed: for
indecomposables X, Y at most one of Hom(X, Y) and Ext^1(X, Y) is nonzero.
So on positive roots the invariant has the closed form
e(a, b) = max(0, -<a, b>) (Ringel, *Tame algebras and integral quadratic
forms*, LNM 1099, 1984; Marsh-Reineke-Zelevinsky, "Generalized
associahedra via quiver representations", 2003).  ``e_nonzero`` uses it to
give E-vanishing on a whole root table as one matrix product.  The
general computation still runs for every other argument: non-root vectors,
every non-Dynkin quiver, and ``e_invariant`` itself, which stays the
reference.
"""

from __future__ import annotations

import math
from itertools import product

# hashlib's own blake2b: hashlib takes blake2 from _blake2, never from
# OpenSSL, so importing it here skips loading libcrypto and keeps every
# derived seed bit-identical.
from _blake2 import blake2b

import numpy as np

from .errors import LimitExceeded, NotDynkin, ProbeExhausted
from .quiver import DimVec, Quiver, Record, RootSet, positive_real_roots, root_key
from .quiver import tits_form

# Largest box (number of cells 0 <= w <= top) one fill may cover.  The Z
# table holds one byte per pair of cells, so this caps it at 64 MiB.
BOX_LIMIT = 8192

# Largest product (in cells) ``box_rows`` forms at once: wider rows are cut
# into column blocks, so one block of float64 holds at most 8 MiB.
SWEEP_CELL_LIMIT = 2**20

# Integers below this are exact in float64 as well as in int64.
_EXACT_LIMIT = 2**53


class _Summands(Record):
    """Generic subvectors of one queried vector.

    ``vecs`` are the x' with e(x', x - x') = 0, in (height, lex) order;
    ``arr`` holds them as int64 rows and ``earr`` the rows x' . euler_matrix.
    """

    vecs: tuple[DimVec, ...]
    arr: np.ndarray
    earr: np.ndarray


class _Memo:
    def __init__(self, quiver: Quiver):
        self.quiver = quiver
        self.emat = np.array(quiver.euler_matrix, dtype=np.int64)
        self.emax = int(np.abs(self.emat).max())
        self.pairs: dict[tuple[DimVec, DimVec], int] = {}
        # S(w) for every w some fill has covered, as int64 rows in C order.
        self.sets: dict[DimVec, np.ndarray] = {}
        # Records of the vectors callers asked for.
        self.records: dict[DimVec, _Summands] = {}
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


def _check_exact(memo: _Memo, h1: int, h2: int) -> None:
    """Refuse a product whose entries might not be exact.

    Every product in this module is a sum  sum_ij a_i E_ij b_j  with E the
    Euler matrix and a, b nonnegative integer vectors of heights (entry
    sums) at most h1 and h2; b may be a difference y - y' with y' <= y.
    Every partial sum is then an integer of absolute value at most
    emax * h1 * h2, where emax = max |E_ij| <= max(1, number of arrows).
    Below 2^53 that is exact both in int64 and in float64 (the fill's
    product), whatever the summation order.  A vector inside a box of at
    most BOX_LIMIT cells has height at most BOX_LIMIT - 1, because
    prod(x_i + 1) >= 1 + sum(x_i); so the bound holds for every quiver
    with fewer than 2^53 / 8191^2, about 1.3e8, arrows, and failing it is
    an internal error, never a silent rounding or wrap.
    """
    if memo.emax * h1 * h2 >= _EXACT_LIMIT:
        raise RuntimeError(
            "internal error: exact-product bound failed "
            f"({memo.emax} * {h1} * {h2} >= 2^53)"
        )


def _fill(memo: _Memo, top: DimVec) -> None:
    """Store S(w) for every w in the box 0 <= w <= top."""
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
    _check_exact(memo, sum(top), sum(top))
    grid = np.indices(shape, dtype=np.int64)
    box = np.moveaxis(grid, 0, -1)
    ebt = np.tensordot(memo.emat.astype(np.float64), grid, 1)
    z = np.zeros((cells, cells), dtype=bool)
    z[:, 0] = True  # e(a, 0) = 0: S(w) keeps w itself
    rows = z.reshape((cells,) + shape)
    # anti[w_idx][a] = Z[a, w - a], at w_idx + idx(a) * (cells - 1) in z.
    # No offset reaches cells^2: the largest is (cells - 1) * cells.
    steps = tuple(st * (cells - 1) for st in rows.strides[1:])
    anti = np.lib.stride_tricks.as_strided(z, rows.shape, (1,) + steps, writeable=False)
    # Per cell w in C order: the sub-box a <= w, and the sub-box b <= top - w
    # (Z[w, b] is only ever read with w + b <= top).
    belows = product(*([slice(a + 1) for a in range(m)] for m in shape))
    rests = product(*([slice(m - a) for a in range(m)] for m in shape))
    cuts = zip(product(*map(range, shape)), belows, rests)
    for w_idx, (w, below, rest) in enumerate(cuts):
        s = memo.sets.get(w)
        if s is None:
            s = memo.sets[w] = box[below][anti[(w_idx,) + below]]
        cols = ebt[(slice(None),) + rest]
        low = np.minimum.reduce(s @ cols.reshape(len(cols), -1))
        rows[(w_idx,) + rest] = low.reshape(cols.shape[1:]) >= 0


def _summands(memo: _Memo, x: DimVec) -> _Summands:
    rec = memo.records.get(x)
    if rec is not None:
        return rec
    if x not in memo.sets:
        _fill(memo, x)
    arr = memo.sets[x]
    vecs = sorted((tuple(v) for v in arr.tolist()), key=root_key)
    zero = (0,) * len(x)
    if not vecs or vecs[0] != zero or vecs[-1] != x:
        raise RuntimeError(
            f"internal error: generic summand set of {x} lost a trivial splitting"
        )
    arr = np.array(vecs, dtype=np.int64).reshape(len(vecs), len(x))
    rec = memo.records[x] = _Summands(tuple(vecs), arr, arr @ memo.emat)
    return rec


def _e(memo: _Memo, x: DimVec, y: DimVec) -> int:
    if not any(x) or not any(y):
        return 0
    key = (x, y)
    cached = memo.pairs.get(key)
    if cached is not None:
        memo.hits += 1
        return cached
    memo.misses += 1
    ax = _summands(memo, x)
    ay = _summands(memo, y)
    _check_exact(memo, sum(x), sum(y))
    diff = np.array(y, dtype=np.int64) - ay.arr
    val = -int((ax.earr @ diff.T).min())
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
    _check_exact(memo, sum(top), sum(top))
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
    return _summands(_memo_for(q), x).vecs


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
    ax = _summands(memo, x)
    ay = _summands(memo, y)
    _check_exact(memo, sum(x), sum(y))
    yv = np.array(y, dtype=np.int64)
    xe = np.array(x, dtype=np.int64) @ memo.emat
    ey = memo.emat @ yv
    # <x, y> = x . E . y, read off xe; both vectors are validated above.
    right = -int(xe @ yv) + int((ay.arr @ xe).max())
    left = -int((ax.arr @ ey).min())
    return (right, left)


def derived_seed(q: Quiver, alpha: DimVec, seed: int, salt: str = "") -> int:
    """Stable per-(quiver, vector) seed so probe runs are reproducible."""
    key = repr((q.n, q.arrows, tuple(alpha), int(seed), salt)).encode()
    return int.from_bytes(blake2b(key, digest_size=8).digest(), "big")


class SchurCheck(Record):
    """Outcome of a real Schur root test, with its certificate.

    ``reason`` is one of: root-table, not-a-root (exact mode); tits-filter,
    self-ext-filter, probe-verified, probe-exhausted (probe mode).  A probe
    success carries the seed and the verified exceptional representation.
    Exhaustion is an explicit outcome, never silently folded into False.
    """

    ok: bool
    mode: str
    reason: str
    seed: int | None = None
    rep: object | None = None


def is_real_schur_root(
    q: Quiver, alpha, mode: str = "auto", seed: int = 0, budget: int = 8
) -> SchurCheck:
    """Test whether alpha is the dimension vector of an exceptional module.

    Dynkin quivers admit an exact answer (all positive real roots qualify).
    Otherwise a probe filters by Tits form and self-extension invariant and
    then searches for a verified exceptional representation with seeds
    derived deterministically from (quiver, alpha, seed).
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
    if tits_form(q, alpha) != 1:
        return SchurCheck(False, "probe", "tits-filter")
    if e_invariant(q, alpha, alpha) != 0:
        return SchurCheck(False, "probe", "self-ext-filter")
    from . import reps  # deferred: reps pulls in the cluster machinery

    base = derived_seed(q, alpha, seed)
    try:
        rep = reps.sample_exceptional(q, alpha, seed=base, budget=budget)
    except ProbeExhausted:
        return SchurCheck(False, "probe", "probe-exhausted", seed=base)
    return SchurCheck(True, "probe", "probe-verified", seed=base, rep=rep)


def real_schur_roots(
    q: Quiver, bound: int | None = None, seed: int = 0, budget: int = 8
) -> RootSet:
    """Positive real Schur roots, exactly (Dynkin) or probe-confirmed (bounded).

    In probe mode any vector whose probe budget runs out is reported by
    raising ProbeExhausted rather than being dropped silently.
    """
    if q.is_dynkin:
        return positive_real_roots(q, bound)
    candidates = positive_real_roots(q, bound)
    keep = []
    undecided = []
    for alpha in candidates:
        check = is_real_schur_root(q, alpha, mode="probe", seed=seed, budget=budget)
        if check.ok:
            keep.append(alpha)
        elif check.reason == "probe-exhausted":
            undecided.append(alpha)
    if undecided:
        raise ProbeExhausted(
            f"probe budget {budget} exhausted on {undecided}; raise the budget",
            vectors=undecided,
            budget=budget,
        )
    return RootSet(tuple(sorted(keep, key=root_key)), bound, False)
