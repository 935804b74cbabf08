"""Extension invariant: recursion, one-sided forms, Schur root detection."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schur_clusters import (
    Quiver,
    e_cache_stats,
    e_invariant,
    e_invariant_alt,
    errors,
    euler_form,
    generic_summands,
    is_real_schur_root,
    positive_real_roots,
    real_schur_roots,
)
from schur_clusters.einv import _MEMOS, derived_seed


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
    n = draw(st.integers(min_value=1, max_value=3))
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
