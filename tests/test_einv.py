"""Extension invariant: recursion, one-sided forms, Schur root detection."""

import hashlib
import os
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schur_clusters import (
    Quiver,
    clear_caches,
    e_cache_stats,
    e_invariant,
    e_invariant_alt,
    errors,
    euler_form,
    generic_summands,
    hom_basis,
    is_real_schur_root,
    positive_real_roots,
    real_schur_roots,
    sample_exceptional,
)
from schur_clusters import einv
from schur_clusters.einv import (
    _MEMOS,
    BOX_LIMIT,
    _memo_for,
    derived_seed,
    e_nonzero,
)

from oracles import PairRecursionOracle, e_sweep_oracle


class TestBaseCases:
    def test_zero_arguments(self, a2, wild):
        for q in (a2, wild):
            z = (0,) * q.n
            for x in product(range(3), repeat=q.n):
                assert e_invariant(q, x, z) == 0
                assert e_invariant(q, z, x) == 0
                assert e_invariant_alt(q, x, z) == (0, 0)
                assert e_invariant_alt(q, z, x) == (0, 0)

    def test_validation(self, a2):
        with pytest.raises(errors.NegativeEntry):
            e_invariant(a2, (-1, 0), (0, 1))
        with pytest.raises(errors.DimensionMismatch):
            e_invariant(a2, (1, 0, 0), (0, 1))


class TestHandValues:
    def test_simples_a2(self, a2):
        # One arrow 1 -> 2: extensions of S1 by S2 exist, none the other way.
        assert e_invariant(a2, (1, 0), (0, 1)) == 1
        assert e_invariant(a2, (0, 1), (1, 0)) == 0

    def test_simples_follow_arrow_multiplicity(self, kronecker, wild):
        assert e_invariant(kronecker, (1, 0), (0, 1)) == 2
        assert e_invariant(wild, (1, 0, 0), (0, 1, 0)) == 2
        assert e_invariant(wild, (0, 1, 0), (0, 0, 1)) == 1

    def test_projective_dimension_vector_is_left_rigid(self, a2):
        # (1,1) is the dimension of the projective at the source; a generic
        # representation of it extends nothing.
        assert e_invariant(a2, (1, 1), (1, 0)) == 0
        assert e_invariant(a2, (1, 1), (0, 1)) == 0
        assert e_invariant(a2, (1, 0), (1, 1)) == 0

    def test_diagonal_on_real_roots_vanishes(self, a2, a3, d4):
        for q in (a2, a3, d4):
            for alpha in positive_real_roots(q):
                assert e_invariant(q, alpha, alpha) == 0


class TestGenericSummands:
    def test_zero_vector(self, a2):
        assert generic_summands(a2, (0, 0)) == ((0, 0),)

    def test_simple(self, a2):
        assert generic_summands(a2, (1, 0)) == ((0, 0), (1, 0))

    def test_excludes_extending_split(self, a2):
        # (1,0) is not a generic summand of (1,1): the generic representation
        # is indecomposable and only admits the (0,1) subrepresentation.
        assert generic_summands(a2, (1, 1)) == ((0, 0), (0, 1), (1, 1))

    def test_contains_endpoints(self, wild):
        for x in product(range(3), repeat=3):
            subs = generic_summands(wild, x)
            assert subs[0] == (0, 0, 0)
            assert subs[-1] == x


@st.composite
def small_quivers(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=0, max_value=4))
    arrows = []
    for _ in range(m):
        s = draw(st.integers(min_value=1, max_value=n))
        t = draw(st.integers(min_value=1, max_value=n))
        if s != t:
            arrows.append((min(s, t), max(s, t)))
    return Quiver(n, arrows)


class TestFormulaAgreement:
    def test_corpus_box_two(self, a2, a2rev, a3, d4, kronecker, wild):
        for q in (a2, a2rev, a3, d4, kronecker, wild):
            for x in product(range(3), repeat=q.n):
                for y in product(range(3), repeat=q.n):
                    e = e_invariant(q, x, y)
                    assert e_invariant_alt(q, x, y) == (e, e)

    @settings(max_examples=60, deadline=None)
    @given(small_quivers(), st.data())
    def test_random_quivers(self, q, data):
        x = tuple(
            data.draw(st.integers(min_value=0, max_value=3)) for _ in range(q.n)
        )
        y = tuple(
            data.draw(st.integers(min_value=0, max_value=3)) for _ in range(q.n)
        )
        e = e_invariant(q, x, y)
        assert e >= 0
        assert e >= -euler_form(q, x, y)
        assert e_invariant_alt(q, x, y) == (e, e)


def _assert_box_rows_per_pair(q, box):
    """box_rows equals e_invariant and e_invariant_alt on every pair."""
    sweep = list(product(range(box + 1), repeat=q.n))
    rows = list(einv.box_rows(q, box))
    assert [x for x, *_ in rows] == sweep
    for x, e, right, left in rows:
        assert e.dtype == right.dtype == left.dtype == np.int64
        assert e.tolist() == [e_invariant(q, x, y) for y in sweep], (q.arrows, x)
        alt = [e_invariant_alt(q, x, y) for y in sweep]
        assert list(zip(right.tolist(), left.tolist())) == alt, (q.arrows, x)


class TestBoxSweep:
    def test_corpus_box_two(self, a2, a2rev, a3, d4, kronecker, wild):
        for q in (a2, a2rev, a3, d4, kronecker, wild):
            _assert_box_rows_per_pair(q, 2)
            assert einv.box_sweep(q, 2) == ((3 ** q.n) ** 2, None)

    def test_e6_box_one(self, e6):
        _assert_box_rows_per_pair(e6, 1)
        assert einv.box_sweep(e6, 1) == (4096, None)

    @settings(max_examples=40, deadline=None)
    @given(small_quivers(), st.integers(min_value=0, max_value=2))
    def test_random_quivers(self, q, box):
        _assert_box_rows_per_pair(q, box)

    def test_blocked_products(self, monkeypatch, d4, wild):
        # A cap below every set size cuts each product into single columns.
        monkeypatch.setattr(einv, "SWEEP_CELL_LIMIT", 1)
        for q in (d4, wild):
            _assert_box_rows_per_pair(q, 2)

    def test_oversize_box_is_refused_before_any_work(self, monkeypatch, a2):
        monkeypatch.setitem(_MEMOS, a2, einv._Memo(a2))
        with pytest.raises(errors.LimitExceeded) as info:
            einv.box_sweep(a2, 90)
        assert info.value.info == {"box": [90, 90], "cells": 91**2, "limit": BOX_LIMIT}
        assert e_cache_stats(a2)["summand_sets"] == 0

    def test_first_witness_of_a_corrupt_set(self, monkeypatch, a3):
        # Dropping the summand (1, 0, 0) of S((1, 0, 1)) breaks Schofield's
        # agreement on six pairs of the row x = (1, 0, 1); the sweep must
        # stop at the first of them, where the per-pair loop stops.
        memo = einv._Memo(a3)
        monkeypatch.setitem(_MEMOS, a3, memo)
        einv._fill(memo, (2, 2, 2))
        s = memo.sets[(1, 0, 1)]
        keep = (s != (1, 0, 0)).any(axis=1)
        assert keep.sum() == len(s) - 1
        monkeypatch.setitem(memo.sets, (1, 0, 1), s[keep])
        expected = e_sweep_oracle(a3, 2)
        assert expected[1] is not None
        assert einv.box_sweep(a3, 2) == expected


def _edges_a(n):
    return [(i, i + 1) for i in range(1, n)]


def _edges_d(n):
    return [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]


# E_n: a chain 1..n-1 with vertex n hung off vertex 3.
def _edges_e(n):
    return [(i, i + 1) for i in range(1, n - 1)] + [(3, n)]


def _orientations(n, edges, count, seed):
    """The quiver with every edge forward, with every edge reversed, and
    ``count`` seeded random orientations."""
    rng = random.Random(seed)
    flips = [[False] * len(edges), [True] * len(edges)]
    flips += [[rng.random() < 0.5 for _ in edges] for _ in range(count)]
    return [
        Quiver(n, [(t, s) if f else (s, t) for (s, t), f in zip(edges, fs)])
        for fs in flips
    ]


def _assert_closed_form(q):
    roots = positive_real_roots(q).roots
    e = np.array([[e_invariant(q, a, b) for b in roots] for a in roots])
    closed = np.array([[max(0, -euler_form(q, a, b)) for b in roots] for a in roots])
    assert (closed == e).all(), q.arrows
    assert (e_nonzero(q, roots) == (e != 0)).all(), q.arrows


DYNKIN_SHAPES = (
    [(n, _edges_a(n)) for n in range(1, 7)]
    + [(n, _edges_d(n)) for n in range(4, 7)]
    + [(6, _edges_e(6))]
)


class TestClosedForm:
    @pytest.mark.parametrize("n, edges", DYNKIN_SHAPES)
    def test_matches_recursion_on_every_root_pair(self, n, edges):
        for q in _orientations(n, edges, count=2, seed=n * 31 + len(edges)):
            _assert_closed_form(q)

    @pytest.mark.skipif(
        not os.environ.get("SCHUR_CLUSTERS_LARGE"),
        reason="stretch target; set SCHUR_CLUSTERS_LARGE=1 to run",
    )
    def test_matches_recursion_on_e7(self):
        for q in _orientations(7, _edges_e(7), count=1, seed=7):
            _assert_closed_form(q)

    def test_non_dynkin_fills_from_the_recursion(self, kronecker, wild):
        for q, vecs in (
            (kronecker, [(1, 0), (0, 1), (1, 2), (2, 1), (2, 3)]),
            (wild, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 1, 1), (2, 1, 0)]),
        ):
            e = np.array([[e_invariant(q, a, b) for b in vecs] for a in vecs])
            assert (e_nonzero(q, vecs) == (e != 0)).all()

    def test_empty_root_list(self, a2, kronecker):
        for q in (a2, kronecker):
            assert e_nonzero(q, []).shape == (0, 0)


def _box(top):
    return product(*(range(a + 1) for a in top))


def _assert_both_fill_orders(q, first, second):
    """Filling two boxes in either order stores the oracle's set for every
    cell of their union, and for no other vector."""
    oracle = PairRecursionOracle(q.n, q.arrows)
    cells = set(_box(first)) | set(_box(second))
    for order in ((first, second), (second, first)):
        _MEMOS.pop(q, None)
        for top in order:
            generic_summands(q, top)
        assert e_cache_stats(q)["summand_sets"] == len(cells)
        for w in cells:
            assert generic_summands(q, w) == oracle.summands(w), (order, w)


class TestAgainstPairRecursion:
    """The bottom-up fill against the two-sided pair recursion."""

    @settings(max_examples=60, deadline=None)
    @given(small_quivers(), st.data())
    def test_random_quivers(self, q, data):
        entries = st.integers(min_value=0, max_value=3)
        x = tuple(data.draw(entries) for _ in range(q.n))
        y = tuple(data.draw(entries) for _ in range(q.n))
        oracle = PairRecursionOracle(q.n, q.arrows)
        assert generic_summands(q, x) == oracle.summands(x)
        assert generic_summands(q, y) == oracle.summands(y)
        assert e_invariant(q, x, y) == oracle.e(x, y)

    @pytest.mark.parametrize(
        "n, arrows, top",
        [
            (3, [(1, 2), (1, 2), (2, 3)], (5, 5, 5)),
            (2, [(1, 2), (1, 2)], (12, 12)),
            (1, [], (9,)),
            (2, [(1, 2), (1, 2)], (0, 7)),
            (3, [(1, 2), (1, 2), (2, 3)], (2, 0, 3)),
        ],
    )
    def test_every_set_of_a_box(self, n, arrows, top):
        q = Quiver(n, arrows)
        _MEMOS.pop(q, None)
        oracle = PairRecursionOracle(n, arrows)
        generic_summands(q, top)
        assert e_cache_stats(q)["summand_sets"] == len(list(_box(top)))
        for w in _box(top):
            assert generic_summands(q, w) == oracle.summands(w), w

    def test_fill_order_does_not_matter(self, wild):
        _assert_both_fill_orders(wild, (2, 3, 1), (4, 3, 4))

    def test_fill_order_of_incomparable_boxes(self):
        # The second fill finds the overlap's sets stored and reuses them.
        q = Quiver(4, [(1, 2), (1, 2), (2, 3), (4, 3), (1, 4)])
        _assert_both_fill_orders(q, (2, 1, 3, 1), (1, 3, 1, 2))

    @pytest.mark.skipif(
        not os.environ.get("SCHUR_CLUSTERS_LARGE"),
        reason="stretch target; set SCHUR_CLUSTERS_LARGE=1 to run",
    )
    def test_box_at_the_limit(self, kronecker):
        # (63, 127) has exactly BOX_LIMIT cells, so the fill reads the
        # anti-diagonal view at its largest offsets.
        _MEMOS.pop(kronecker, None)
        top = (63, 127)
        e = e_invariant(kronecker, top, top)
        assert e_invariant_alt(kronecker, top, top) == (e, e)
        _MEMOS.pop(kronecker, None)


class TestLimits:
    def test_oversize_box_is_refused(self, wild):
        _MEMOS.pop(wild, None)
        with pytest.raises(errors.LimitExceeded) as info:
            e_invariant(wild, (40, 40, 40), (1, 1, 1))
        assert info.value.info == {
            "box": [40, 40, 40], "cells": 41**3, "limit": BOX_LIMIT
        }
        assert "[40, 40, 40]" in str(info.value) and str(BOX_LIMIT) in str(info.value)
        assert e_cache_stats(wild)["summand_sets"] == 0

    def test_limit_counts_cells(self, monkeypatch, kronecker):
        monkeypatch.setattr(einv, "BOX_LIMIT", 8)
        monkeypatch.delitem(_MEMOS, kronecker, raising=False)
        assert len(generic_summands(kronecker, (1, 3))) > 0  # 2 x 4 cells
        with pytest.raises(errors.LimitExceeded):
            generic_summands(kronecker, (2, 2))  # 3 x 3 cells
        _MEMOS.pop(kronecker, None)

    def test_failed_exactness_bound_is_internal(self, kronecker):
        # No quiver small enough to build can fail the bound, so fake a
        # huge Euler matrix entry on a cold memo.
        _MEMOS.pop(kronecker, None)
        _memo_for(kronecker).emax = 2**53
        try:
            for call in (e_invariant, e_invariant_alt):
                with pytest.raises(RuntimeError, match="internal error"):
                    call(kronecker, (1, 2), (2, 1))
        finally:
            _MEMOS.pop(kronecker, None)


class TestMemo:
    def test_stats_grow_and_hit(self):
        q = Quiver(2, [(1, 2), (1, 2), (1, 2)])
        # The memo is process-global; start cold even if a random example
        # of another test has already filled it for this quiver.
        _MEMOS.pop(q, None)
        before = e_cache_stats(q)["pairs"]
        e_invariant(q, (2, 2), (2, 2))
        mid = e_cache_stats(q)
        assert mid["pairs"] > before
        hits = mid["hits"]
        e_invariant(q, (2, 2), (2, 2))
        assert e_cache_stats(q)["hits"] > hits

    def test_memo_table_is_bounded(self, monkeypatch):
        # One quiver past the cap drops the oldest memo; its values come
        # back unchanged from a fresh one.
        monkeypatch.setattr(einv, "_MEMOS", {})
        quivers = [Quiver(2, [(1, 2)] * k) for k in range(1, einv.MEMO_QUIVERS + 2)]
        x, y = (1, 2), (2, 1)
        first = [e_invariant(q, x, y) for q in quivers]
        assert len(einv._MEMOS) == einv.MEMO_QUIVERS
        assert quivers[0] not in einv._MEMOS and quivers[-1] in einv._MEMOS
        oracle = PairRecursionOracle(2, [(1, 2)])
        assert e_invariant(quivers[0], x, y) == first[0] == oracle.e(x, y)
        assert generic_summands(quivers[0], x) == oracle.summands(x)
        assert len(einv._MEMOS) == einv.MEMO_QUIVERS
        assert quivers[1] not in einv._MEMOS

    def test_clear_caches(self, kronecker):
        e_invariant(kronecker, (2, 3), (3, 2))
        e_invariant(kronecker, (2, 3), (3, 2))
        m = sample_exceptional(kronecker, (1, 2), seed=1)
        hom_basis(kronecker, m, m)
        assert e_cache_stats(kronecker)["hits"] > 0
        assert hom_basis.cache_info().currsize > 0
        clear_caches()
        assert e_cache_stats(kronecker) == {
            "pairs": 0, "summand_sets": 0, "hits": 0, "misses": 0
        }
        assert hom_basis.cache_info().currsize == 0


class TestSchurRootCheck:
    def test_exact_dynkin(self, a2):
        yes = is_real_schur_root(a2, (1, 1))
        assert yes.ok and yes.mode == "exact" and yes.reason == "root-table"
        no = is_real_schur_root(a2, (2, 1))
        assert not no.ok and no.reason == "not-a-root"

    def test_exact_mode_rejects_non_dynkin(self, kronecker):
        with pytest.raises(errors.NotDynkin):
            is_real_schur_root(kronecker, (1, 2), mode="exact")

    def test_probe_confirms_kronecker_root(self, kronecker):
        check = is_real_schur_root(kronecker, (1, 2))
        assert check.ok and check.mode == "probe"
        assert check.reason == "probe-verified"
        assert check.rep is not None and check.rep.dims == (1, 2)

    def test_probe_filters(self, kronecker, wild):
        # (1,1) on the double arrow has Tits form 0: imaginary, filtered.
        check = is_real_schur_root(kronecker, (1, 1))
        assert not check.ok and check.reason == "tits-filter"
        # (1,1,1) on the wild quiver is isotropic too.
        check = is_real_schur_root(wild, (1, 1, 1))
        assert not check.ok and check.reason == "tits-filter"

    def test_probe_on_dynkin_agrees_with_exact(self, a3):
        for alpha in positive_real_roots(a3):
            assert is_real_schur_root(a3, alpha, mode="probe").ok

    def test_bad_mode(self, a2):
        with pytest.raises(ValueError):
            is_real_schur_root(a2, (1, 0), mode="guess")

    def test_derived_seed_stable_and_salted(self, a2):
        s1 = derived_seed(a2, (1, 1), 0)
        assert s1 == derived_seed(a2, (1, 1), 0)
        assert s1 != derived_seed(a2, (1, 1), 1)
        assert s1 != derived_seed(a2, (1, 0), 0)
        assert s1 != derived_seed(a2, (1, 1), 0, salt="x")

    @settings(max_examples=100, deadline=None)
    @given(
        small_quivers(),
        st.data(),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.text(max_size=6),
    )
    def test_derived_seed_is_hashlib_blake2b(self, q, data, seed, salt):
        # The seed stream behind every seeded output (the golden stilt
        # files among them) is hashlib's 8-byte blake2b of this key.
        alpha = data.draw(st.lists(st.integers(-3, 40), min_size=q.n, max_size=q.n))
        key = repr((q.n, q.arrows, tuple(alpha), seed, salt)).encode()
        expected = int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")
        assert derived_seed(q, alpha, seed, salt) == expected


class TestRealSchurRoots:
    def test_dynkin_equals_all_positive_roots(self, a2, a3, d4):
        for q in (a2, a3, d4):
            assert real_schur_roots(q).roots == positive_real_roots(q).roots

    def test_kronecker_bound_5(self, kronecker):
        rs = real_schur_roots(kronecker, bound=5)
        assert rs.roots == ((0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2))
        assert not rs.complete

    def test_requires_bound_when_infinite(self, kronecker):
        with pytest.raises(errors.BoundRequired):
            real_schur_roots(kronecker)

    def test_zero_budget_raises_instead_of_dropping(self, kronecker):
        with pytest.raises(errors.ProbeExhausted) as info:
            real_schur_roots(kronecker, bound=3, budget=0)
        assert info.value.info["vectors"]
