"""Generic extension invariant between dimension vectors.

For dimension vectors x, y of an acyclic quiver, ``e_invariant(q, x, y)``
computes the minimal dimension of Ext^1(M, N) over representations M, N of
dimension vectors x, y.  It is defined purely combinatorially:

    e(x, 0) = e(0, y) = 0
    e(x, y) = max { -<x', y - y'> : 0 <= x' <= x with e(x', x - x') = 0,
                                    0 <= y' <= y with e(y', y - y') = 0 }

where <.,.> is the Euler form.  The recursion is well founded: deciding
whether x' is a generic summand of x only ever consults splittings of
vectors of strictly smaller height.  Two cheaper one-sided maxima agree
with the two-sided value: fixing x' = x peels only the right argument
(generic quotients of y), and fixing y' = 0 peels only the left argument
(generic subvectors of x).  ``e_invariant_alt`` computes them
independently so the agreement can be tested.

Everything is memoized per quiver.  The inner maxima run through numpy
int64 when a conservative magnitude guard allows it, and fall back to exact
Python integers otherwise, so no overflow can pass silently.

On a Dynkin quiver the algebra is representation-directed: for
indecomposables X, Y at most one of Hom(X, Y) and Ext^1(X, Y) is nonzero.
So on positive roots the invariant has the closed form
e(a, b) = max(0, -<a, b>) (Ringel, *Tame algebras and integral quadratic
forms*, LNM 1099, 1984; Marsh-Reineke-Zelevinsky, "Generalized
associahedra via quiver representations", 2003).  ``e_nonzero`` uses it to
give E-vanishing on a whole root table as one matrix product.  The
recursion still runs for every other argument: non-root vectors, every
non-Dynkin quiver, and ``e_invariant`` itself, which stays the reference.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import NotDynkin, ProbeExhausted
from .quiver import (
    DimVec,
    Quiver,
    RootSet,
    euler_form,
    positive_real_roots,
    root_key,
    subvectors,
    tits_form,
    vsub,
)

# Entries above this never enter the numpy path; int64 products stay exact
# far beyond desk scale, this is just the explicit guard.
_NP_ENTRY_LIMIT = 2**30


@dataclass(frozen=True)
class _Summands:
    """Generic summands of one vector plus precomputed forms.

    ``vecs`` are the x' with e(x', x - x') = 0, in (height, lex) order.
    ``evecs`` holds the rows x' . euler_matrix as exact Python ints.
    The numpy mirrors are None when entries exceed the int64 guard.
    """

    vecs: tuple[DimVec, ...]
    evecs: tuple[tuple[int, ...], ...]
    arr: np.ndarray | None
    earr: np.ndarray | None
    vmax: int
    emax: int


class _Memo:
    def __init__(self, quiver: Quiver):
        self.quiver = quiver
        self.pairs: dict[tuple[DimVec, DimVec], int] = {}
        self.summands: dict[DimVec, _Summands] = {}
        self.hits = 0
        self.misses = 0


_MEMOS: dict[Quiver, _Memo] = {}


def _memo_for(q: Quiver) -> _Memo:
    memo = _MEMOS.get(q)
    if memo is None:
        memo = _MEMOS[q] = _Memo(q)
    return memo


def e_cache_stats(q: Quiver) -> dict:
    memo = _memo_for(q)
    return {
        "pairs": len(memo.pairs),
        "summand_sets": len(memo.summands),
        "hits": memo.hits,
        "misses": memo.misses,
    }


def _build_summands(memo: _Memo, x: DimVec) -> _Summands:
    rec = memo.summands.get(x)
    if rec is not None:
        return rec
    keep = [xp for xp in subvectors(x) if _e(memo, xp, vsub(x, xp)) == 0]
    if not keep or keep[0] != tuple([0] * len(x)) or keep[-1] != x:
        raise RuntimeError(
            f"internal error: generic summand set of {x} lost a trivial splitting"
        )
    emat = memo.quiver.euler_matrix
    n = memo.quiver.n
    evecs = tuple(
        tuple(sum(v[i] * emat[i][j] for i in range(n)) for j in range(n))
        for v in keep
    )
    vmax = max(max(abs(a) for a in v) for v in keep)
    emax = max(max(abs(a) for a in row) for row in evecs)
    if max(vmax, emax) < _NP_ENTRY_LIMIT:
        arr = np.array(keep, dtype=np.int64)
        earr = np.array(evecs, dtype=np.int64)
    else:
        arr = earr = None
    rec = _Summands(tuple(keep), evecs, arr, earr, vmax, emax)
    memo.summands[x] = rec
    return rec


def _pair_max(memo: _Memo, ax: _Summands, ay: _Summands, y: DimVec) -> int:
    n = memo.quiver.n
    ymax = max(y) if y else 0
    safe = (
        ax.earr is not None
        and ay.arr is not None
        and n * ax.emax * max(ay.vmax + ymax, 1) < 2**62
    )
    if safe:
        diff = np.array(y, dtype=np.int64) - ay.arr
        val = -int((ax.earr @ diff.T).min())
    else:
        best = None
        for ev in ax.evecs:
            for yp in ay.vecs:
                term = -sum(e * (b - c) for e, b, c in zip(ev, y, yp))
                if best is None or term > best:
                    best = term
        val = best
    if val < 0:
        raise RuntimeError(
            "internal error: extension invariant came out negative "
            f"({val}) for quiver {memo.quiver.arrows}"
        )
    return val


def _e(memo: _Memo, x: DimVec, y: DimVec) -> int:
    if not any(x) or not any(y):
        return 0
    key = (x, y)
    cached = memo.pairs.get(key)
    if cached is not None:
        memo.hits += 1
        return cached
    memo.misses += 1
    ax = _build_summands(memo, x)
    ay = _build_summands(memo, y)
    val = _pair_max(memo, ax, ay, y)
    memo.pairs[key] = val
    return val


def e_nonzero(q: Quiver, roots) -> np.ndarray:
    """The boolean matrix of e(a, b) != 0 over ``roots`` (rows a, columns b).

    Precondition: ``roots`` are positive real roots from the quiver's root
    table (for a non-Dynkin quiver, any dimension vectors will do).  On a
    Dynkin quiver e(a, b) != 0 exactly when <a, b> < 0, so the matrix is
    R E R^T < 0 with R holding the roots as rows and E the Euler matrix;
    elsewhere each entry comes from the recursion.
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

    These are the dimension vectors of summands of a generic representation
    of dimension x; they always include 0 and x itself.
    """
    x = q.check_dimvec(x)
    return _build_summands(_memo_for(q), x).vecs


def e_invariant(q: Quiver, x, y) -> int:
    """The two-sided recursion; equals min dim Ext^1 over reps of dims x, y."""
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
    ax = _build_summands(memo, x)
    ay = _build_summands(memo, y)
    exy = euler_form(q, x, y)
    emat = q.euler_matrix
    n = q.n
    xe = tuple(sum(x[i] * emat[i][j] for i in range(n)) for j in range(n))
    ey = tuple(sum(emat[i][j] * y[j] for j in range(n)) for i in range(n))
    xemax = max(map(abs, xe), default=0)
    eymax = max(map(abs, ey), default=0)
    if ay.arr is not None and n * xemax * max(ay.vmax, 1) < 2**62:
        right = -exy + int((ay.arr @ np.array(xe, dtype=np.int64)).max())
    else:
        right = -exy + max(sum(a * b for a, b in zip(xe, yp)) for yp in ay.vecs)
    if ax.arr is not None and n * eymax * max(ax.vmax, 1) < 2**62:
        left = -int((ax.arr @ np.array(ey, dtype=np.int64)).min())
    else:
        left = -min(sum(a * b for a, b in zip(xp, ey)) for xp in ax.vecs)
    return (right, left)


def derived_seed(q: Quiver, alpha: DimVec, seed: int, salt: str = "") -> int:
    """Stable per-(quiver, vector) seed so probe runs are reproducible."""
    key = repr((q.n, q.arrows, tuple(alpha), int(seed), salt)).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class SchurCheck:
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
