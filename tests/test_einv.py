"""Extension invariant: recursion, one-sided forms, Schur root detection."""

import hashlib
import os
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schur_clusters import (
    Quiver,
    RootSet,
    clear_caches,
    e_cache_stats,
    e_invariant,
    e_invariant_alt,
    errors,
    euler_form,
    generic_summands,
    hom_basis,
    is_precluster,
    is_real_schur_root,
    positive_real_roots,
    real_schur_roots,
    sample_exceptional,
)
from schur_clusters import einv
from schur_clusters.cli import main
from schur_clusters.einv import (
    _MEMOS,
    BOX_LIMIT,
    _memo_for,
    derived_seed,
    e_nonzero,
)
from schur_clusters.fileio import emit_quiver_text

from oracles import (
    PairRecursionOracle,
    box_fill_oracle,
    e_sweep_oracle,
    schur_probe_oracle,
)

# Affine A3 (arrows 1->2->3->4, 1->4), with null root delta = (1, 1, 1, 1).
AFFINE_A3 = Quiver(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
# Its real roots of height at most 9 that are not Schur roots: each has Tits
# form 1 and e(alpha, alpha) = 0, e.g. delta + e3 = delta (+) S3 generically.
AFFINE_A3_NOT_SCHUR = (
    (1, 1, 2, 1), (1, 2, 1, 1), (1, 2, 2, 1), (2, 1, 1, 2),
    (2, 1, 2, 2), (2, 2, 1, 2), (2, 2, 3, 2), (2, 3, 2, 2),
)


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


@st.composite
def non_dynkin_quivers(draw):
    """Quivers whose underlying graph has a cycle, a double edge among them,
    so none is Dynkin; every arrow runs up a random vertex ranking."""
    n = draw(st.integers(min_value=2, max_value=4))
    cycle = draw(st.permutations(range(1, n + 1)))[: draw(st.integers(2, n))]
    edges = list(zip(cycle, cycle[1:] + cycle[:1]))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n))
    pairs = pairs.filter(lambda e: e[0] != e[1])
    edges += draw(st.lists(pairs, max_size=2))
    rank = draw(st.permutations(range(n)))
    arrows = [(s, t) if rank[s - 1] < rank[t - 1] else (t, s) for s, t in edges]
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
        # (63, 127) has exactly BOX_LIMIT cells, so the fill reads Z and
        # NEG at their largest offsets.
        _MEMOS.pop(kronecker, None)
        top = (63, 127)
        e = e_invariant(kronecker, top, top)
        assert e_invariant_alt(kronecker, top, top) == (e, e)
        _MEMOS.pop(kronecker, None)


def _assert_fill_matches_oracle(q, top):
    """A cold fill stores, for every cell of the box, the per-cell
    oracle's S(w): same dtype, same rows in the same order."""
    memo = einv._Memo(q)
    einv._fill(memo, top)
    expected = box_fill_oracle(memo.emat, top)
    assert memo.sets.keys() == expected.keys()
    for w, s in expected.items():
        got = memo.sets[w]
        assert got.dtype == s.dtype == np.int64, w
        assert got.shape == s.shape and (got == s).all(), (q.arrows, top, w)
    return memo


class TestLevelFill:
    """The level fill against the per-cell fill it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(small_quivers(), st.data())
    def test_random_quivers(self, q, data):
        top = tuple(data.draw(st.integers(min_value=0, max_value=5)) for _ in range(q.n))
        _assert_fill_matches_oracle(q, top)

    @pytest.mark.parametrize(
        "n, arrows, top",
        [
            (3, [(1, 2), (1, 2), (2, 3)], (4, 3, 0)),  # an axis of extent zero
            (1, [], (130,)),  # a one-vertex chain: 131 levels of one cell
            (1, [], (62,)),  # cell counts around one and two uint64 words
            (1, [], (63,)),
            (1, [], (64,)),
            (1, [], (127,)),
            (1, [], (128,)),
            (2, [(1, 2), (1, 2)], (9, 6)),
            (4, [(1, 2), (1, 2), (2, 3), (4, 3), (1, 4)], (2, 3, 1, 2)),
        ],
    )
    def test_edge_boxes(self, n, arrows, top):
        _assert_fill_matches_oracle(Quiver(n, arrows), top)

    def test_quiver_without_arrows_keeps_every_subvector(self):
        q = Quiver(3, [])
        memo = _assert_fill_matches_oracle(q, (3, 2, 4))
        for w, s in memo.sets.items():
            assert s.tolist() == [list(a) for a in _box(w)], w

    def test_one_cell_blocks(self, monkeypatch, wild, kronecker):
        # Limits below every cost cut each level into single cells, each
        # OR into single sets and each NEG product into single rows.
        monkeypatch.setattr(einv, "FILL_CELL_LIMIT", 1)
        monkeypatch.setattr(einv, "SWEEP_CELL_LIMIT", 1)
        _assert_fill_matches_oracle(wild, (4, 4, 3))
        _assert_fill_matches_oracle(kronecker, (6, 9))
        _assert_fill_matches_oracle(Quiver(1, []), (70,))

    def test_stored_sets_are_kept(self, wild):
        # A second fill over stored cells leaves their arrays in place.
        memo = einv._Memo(wild)
        einv._fill(memo, (2, 1, 2))
        before = dict(memo.sets)
        einv._fill(memo, (3, 3, 1))
        assert all(memo.sets[w] is s for w, s in before.items())
        expected = box_fill_oracle(memo.emat, (3, 3, 1))
        assert all((memo.sets[w] == s).all() for w, s in expected.items())

    @pytest.mark.skipif(
        not os.environ.get("SCHUR_CLUSTERS_LARGE"),
        reason="stretch target; set SCHUR_CLUSTERS_LARGE=1 to run",
    )
    @pytest.mark.parametrize("n, arrows, top", [
        (3, [(1, 2), (1, 2), (2, 3)], (14, 14, 14)),
        (2, [(1, 2), (1, 2)], (40, 80)),
    ])
    def test_large_boxes(self, n, arrows, top):
        _assert_fill_matches_oracle(Quiver(n, arrows), top)


def _spy_allocations(monkeypatch) -> list:
    """Record every np.zeros and np.empty call from now on."""
    calls = []
    for name in ("zeros", "empty"):
        real = getattr(np, name)

        def spy(*args, _real=real, **kwargs):
            calls.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np, name, spy)
    return calls


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

    @pytest.mark.parametrize(
        "call",
        [
            lambda q: e_invariant(q, (1, 2), (2, 1)),
            lambda q: e_invariant_alt(q, (1, 2), (2, 1)),
            lambda q: generic_summands(q, (1, 2)),
            lambda q: einv.box_sweep(q, 1),
        ],
        ids=["e_invariant", "e_invariant_alt", "generic_summands", "box_sweep"],
    )
    def test_failed_exactness_bound_is_internal(self, monkeypatch, kronecker, call):
        # No quiver small enough to build can fail the bound, so fake a
        # huge Euler matrix entry on a cold memo.  The fill is the one
        # place the bound is checked, and every entry point fills first.
        monkeypatch.setattr(einv, "_MEMOS", {})
        _memo_for(kronecker).emax = 2**53
        with pytest.raises(RuntimeError, match="internal error"):
            call(kronecker)
        assert e_cache_stats(kronecker)["summand_sets"] == 0

    def test_limits_refuse_before_any_table_is_allocated(self, monkeypatch, kronecker):
        # Both guards fire before NEG or Z exists: no zeros or empty call.
        monkeypatch.setattr(einv, "_MEMOS", {})
        monkeypatch.setattr(einv, "BOX_LIMIT", 8)
        calls = _spy_allocations(monkeypatch)
        with pytest.raises(errors.LimitExceeded):
            generic_summands(kronecker, (2, 2))
        assert calls == []
        monkeypatch.setattr(einv, "BOX_LIMIT", 9)
        _memo_for(kronecker).emax = 2**53
        with pytest.raises(RuntimeError, match="exact-product bound"):
            generic_summands(kronecker, (2, 2))
        assert calls == []
        assert e_cache_stats(kronecker)["summand_sets"] == 0

    @pytest.mark.parametrize("cut", [slice(1, None), slice(None, -1)], ids=["zero", "top"])
    def test_lost_trivial_splitting_of_a_level_set(self, monkeypatch, wild, cut):
        # The level fill stores each set as a slice of its level's rows;
        # a slice missing 0 or x is still refused at first use.
        monkeypatch.setattr(einv, "_MEMOS", {})
        memo = _memo_for(wild)
        einv._fill(memo, (3, 3, 3))
        x = (2, 3, 1)
        monkeypatch.setitem(memo.sets, x, memo.sets[x][cut])
        for call in (
            lambda: e_invariant(wild, x, (1, 1, 1)),
            lambda: e_invariant_alt(wild, (1, 0, 1), x),
            lambda: generic_summands(wild, x),
        ):
            with pytest.raises(RuntimeError, match="lost a trivial splitting"):
                call()

    @pytest.mark.parametrize("cut", [slice(1, None), slice(None, -1)], ids=["zero", "top"])
    def test_lost_trivial_splitting_is_internal(
        self, capsys, monkeypatch, tmp_path, kronecker, cut
    ):
        # S(x) always holds 0 and x itself; a set missing either (first or
        # last row in C order) is refused before any value is read from it.
        monkeypatch.setattr(einv, "_MEMOS", {})
        memo = _memo_for(kronecker)
        einv._fill(memo, (2, 2))
        x = (1, 2)
        monkeypatch.setitem(memo.sets, x, memo.sets[x][cut])
        with pytest.raises(RuntimeError, match="lost a trivial splitting"):
            e_invariant(kronecker, x, (2, 1))
        with pytest.raises(RuntimeError, match="lost a trivial splitting"):
            generic_summands(kronecker, x)
        path = tmp_path / "kronecker.quiver"
        path.write_text(emit_quiver_text(kronecker))
        argv = ["einv", "--quiver", str(path), "--x", "1,2", "--y", "2,1"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[internal]: ")


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
        assert hom_basis.cache_info().maxsize == 4096
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

    def test_probe_refuses_a_real_root_that_is_not_schur(self):
        # Sampling can never certify these, so the criterion refuses them
        # before any module is drawn, at any budget.
        for alpha in AFFINE_A3_NOT_SCHUR:
            for budget in (0, 64):
                check = is_real_schur_root(AFFINE_A3, alpha, budget=budget)
                assert (check.ok, check.reason) == (False, "schofield-filter")
                assert check.seed is None and check.rep is None
        check = is_real_schur_root(AFFINE_A3, (1, 1, 1, 2))
        assert check.ok and check.reason == "probe-verified"

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

    def test_zero_budget_still_returns_the_roots(self, kronecker):
        # No module is sampled, so seed and budget change nothing.
        expected = RootSet(((0, 1), (1, 0), (1, 2), (2, 1)), 3, False)
        for seed, budget in ((0, 0), (0, 8), (7, 0), (7, 64)):
            assert real_schur_roots(kronecker, 3, seed, budget) == expected

    def test_affine_a3_bound_9(self):
        # A sampling probe exhausts on the 8 that are not Schur at any budget.
        candidates = positive_real_roots(AFFINE_A3, 9).roots
        rs = real_schur_roots(AFFINE_A3, 9, budget=0)
        assert (len(candidates), len(rs)) == (28, 20)
        assert tuple(a for a in candidates if a not in rs) == AFFINE_A3_NOT_SCHUR
        for alpha in AFFINE_A3_NOT_SCHUR:
            assert e_invariant(AFFINE_A3, alpha, alpha) == 0
        oracle = tuple(a for a in candidates if schur_probe_oracle(AFFINE_A3, a))
        assert rs.roots == oracle

    @pytest.mark.parametrize(
        "q, bound, kept",
        [
            (Quiver(2, [(1, 2), (1, 2)]), 9, 10),
            (Quiver(3, [(1, 2), (1, 2), (2, 3)]), 8, 15),
        ],
        ids=["kronecker-b9", "wild-b8"],
    )
    def test_probe_oracle_agrees(self, q, bound, kept):
        candidates = positive_real_roots(q, bound).roots
        expected = tuple(a for a in candidates if schur_probe_oracle(q, a))
        assert real_schur_roots(q, bound).roots == expected
        assert len(expected) == kept

    @settings(max_examples=60, deadline=None)
    @given(non_dynkin_quivers(), st.integers(min_value=3, max_value=7))
    def test_probe_oracle_agrees_on_small_quivers(self, q, bound):
        assert not q.is_dynkin
        candidates = positive_real_roots(q, bound).roots
        expected = tuple(a for a in candidates if schur_probe_oracle(q, a))
        assert real_schur_roots(q, bound).roots == expected

    @settings(max_examples=40, deadline=None)
    @given(non_dynkin_quivers(), st.integers(min_value=3, max_value=6))
    @example(AFFINE_A3, 9)
    def test_single_member_precluster_is_schur_membership(self, q, bound):
        # is_precluster and real_schur_roots share one test of a root.
        schur = set(real_schur_roots(q, bound).roots)
        for a in positive_real_roots(q, bound).roots:
            assert is_precluster(q, [a])[0] == (a in schur), a

    def test_criterion_with_self_extension_is_internal(
        self, monkeypatch, capsys, tmp_path, kronecker
    ):
        # The criterion and the two-sided E maximum share only S(alpha); a
        # Schur root with e(alpha, alpha) != 0 is an internal error.
        e = einv._e
        monkeypatch.setattr(einv, "_e", lambda memo, x, y: e(memo, x, y) + (x == y))
        monkeypatch.setattr(einv, "_MEMOS", {})
        with pytest.raises(RuntimeError, match=r"Schur root \(2, 1\) has e = 1"):
            real_schur_roots(kronecker, 3)
        path = tmp_path / "kronecker.quiver"
        path.write_text(emit_quiver_text(kronecker))
        assert main(["schur", "--quiver", str(path), "--bound", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error[internal]: internal error: Schur root (2, 1) has e = 1\n"
        )

    @pytest.mark.parametrize(
        "q, bound, roots, fills",
        [
            (Quiver(2, [(1, 2), (1, 2)]), 9, 10, (10, 1)),
            (Quiver(3, [(1, 2), (1, 2), (2, 3)]), 8, 15, (15, 1)),
        ],
    )
    def test_top_down_probe_fills_each_maximal_box_once(
        self, monkeypatch, q, bound, roots, fills
    ):
        # The probe fills the join of the candidates once: (5, 5) in place
        # of (5, 4) and (4, 5), and (4, 4, 3) in place of five boxes.
        tops = _count_fills(monkeypatch)
        # The reference probes every candidate bottom-up, one at a time,
        # and each self-extension check fills its own box.
        monkeypatch.setattr(einv, "_MEMOS", {})
        candidates = positive_real_roots(q, bound).roots
        expected = RootSet(
            tuple(a for a in candidates if is_real_schur_root(q, a, seed=5).ok),
            bound,
            False,
        )
        assert (len(expected), len(tops)) == (roots, fills[0])
        tops.clear()
        monkeypatch.setattr(einv, "_MEMOS", {})
        assert real_schur_roots(q, bound, seed=5) == expected
        assert len(tops) == fills[1]
        nested = [
            (t, u) for t in tops for u in tops
            if t != u and all(a <= b for a, b in zip(t, u))
        ]
        assert nested == []

    @pytest.mark.parametrize(
        "q, bound, limit, fills",
        [
            (Quiver(2, [(1, 2), (1, 2)]), 9, 30, [(5, 4), (4, 5)]),
            (
                Quiver(3, [(1, 2), (1, 2), (2, 3)]),
                8,
                48,
                [(2, 3, 3), (4, 3, 0), (3, 4, 0), (3, 2, 2), (2, 4, 1)],
            ),
        ],
    )
    def test_join_over_the_limit_falls_back_to_maximal_boxes(
        self, monkeypatch, q, bound, limit, fills
    ):
        # With the join's box over BOX_LIMIT, the top-down probe fills each
        # maximal candidate's box once, and the roots do not change.
        monkeypatch.setattr(einv, "_MEMOS", {})
        expected = real_schur_roots(q, bound, seed=5)
        tops = _count_fills(monkeypatch)
        monkeypatch.setattr(einv, "BOX_LIMIT", limit)
        monkeypatch.setattr(einv, "_MEMOS", {})
        assert real_schur_roots(q, bound, seed=5) == expected
        assert tops == fills

    def test_join_larger_than_its_boxes_is_not_filled(self, monkeypatch, kronecker):
        # (5, 0) and (0, 5) have 6 cells each; their join (5, 5) has 36.
        tops = _count_fills(monkeypatch)
        monkeypatch.setattr(einv, "_MEMOS", {})
        memo = _memo_for(kronecker)
        einv._fill_join(memo, [(5, 0), (0, 5)])
        assert tops == [] and memo.sets == {}
        einv._fill_join(memo, [(5, 0), (0, 5), (4, 5)])
        assert tops == [(5, 5)]
        einv._fill_join(memo, [(2, 1), (5, 5)])
        assert tops == [(5, 5)]


def _count_fills(monkeypatch) -> list:
    """Record the top of every ``einv._fill`` call from now on."""
    tops = []
    fill = einv._fill

    def counted(memo, top):
        tops.append(top)
        fill(memo, top)

    monkeypatch.setattr(einv, "_fill", counted)
    return tops
