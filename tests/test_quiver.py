"""Quiver construction, bilinear forms, reflections and root enumeration."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schur_clusters import (
    FinitePoset,
    ModuleList,
    Quiver,
    SchurCheck,
    build_poset,
    chain,
    cluster_poset,
    cluster_table,
    e_invariant,
    enumerate_clusters,
    errors,
    euler_form,
    positive_real_roots,
    projective_dimension_vectors,
    reflect,
    sym_form,
    tits_form,
    validate_quiver,
)
from schur_clusters.quiver import coxeter_number, dynkin_components, unit
from schur_clusters.reps import make_representation

from oracles import (
    projectives_oracle,
    reflect_oracle,
    roots_by_box_scan,
    tits_oracle,
)


class TestConstruction:
    def test_normalizes_arrow_entries(self):
        q = Quiver(2, [[1, 2]])
        assert q.arrows == ((1, 2),)
        q = Quiver(np.int64(2), [(np.int32(1), np.int64(2))])
        assert q == Quiver(2, [(1, 2)]) and type(q.n) is int

    def test_rejects_vertex_out_of_range(self):
        with pytest.raises(errors.BadIndex):
            Quiver(2, [(1, 3)])
        with pytest.raises(errors.BadIndex):
            Quiver(2, [(0, 1)])

    def test_rejects_loops_and_cycles(self):
        with pytest.raises(errors.CycleDetected):
            Quiver(1, [(1, 1)])
        with pytest.raises(errors.CycleDetected):
            Quiver(3, [(1, 2), (2, 3), (3, 1)])
        with pytest.raises(errors.CycleDetected) as info:
            Quiver(4, [(1, 2), (2, 3), (3, 1), (3, 4)])
        assert info.value.info["vertices"] == [1, 2, 3, 4]
        assert "oriented cycle through vertices [1, 2, 3, 4]" in str(info.value)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(errors.BadIndex):
            Quiver(0, [])

    def test_equal_quivers_hash_equal(self):
        q1 = Quiver(3, [(1, 2), (2, 3)])
        q2 = Quiver(3, [[1, 2], [2, 3]])
        assert q1 == q2 and q1 is not q2
        assert hash(q1) == hash(q2)
        assert q1 != Quiver(3, [(1, 2), (3, 2)])
        table = {q1: "a3"}
        assert table[q2] == "a3"
        assert Quiver(3, [(1, 2), (3, 2)]) not in table

    def test_parallel_arrows_kept(self, kronecker):
        assert len(kronecker.arrows) == 2

    def test_topological_order(self, a3):
        order = a3.topological_order
        pos = {v: k for k, v in enumerate(order)}
        assert all(pos[s] < pos[t] for s, t in a3.arrows)

    def test_check_dimvec(self, a2):
        assert a2.check_dimvec([1, 0]) == (1, 0)
        with pytest.raises(errors.DimensionMismatch):
            a2.check_dimvec((1, 2, 3))
        with pytest.raises(errors.NegativeEntry):
            a2.check_dimvec((-1, 0))
        assert a2.check_dimvec((-1, 0), allow_negative=True) == (-1, 0)
        assert type(a2.check_dimvec(np.array([1, 0]))[0]) is int

    @pytest.mark.parametrize(
        "build",
        [
            lambda: validate_quiver(2.7, [(1, 2)]),
            lambda: Quiver(2.5, [(1, 2)]),
            lambda: Quiver(2, ((1.9, 2),)),
            lambda: Quiver(2, [(1, 2)]).check_dimvec((1.7, 0)),
            lambda: e_invariant(Quiver(2, [(1, 2)]), (0.5, 1), (1, 0.9)),
            lambda: Quiver(2, [("1", 2)]),
        ],
        ids=["validate-n", "n", "arrow", "dimvec", "e-invariant", "string"],
    )
    def test_integers_only(self, build):
        # What int() would truncate or parse is refused.
        with pytest.raises(TypeError):
            build()


def _equal_records(a2):
    """Builders of two equal, distinct instances of each field-wise class."""

    def rep():
        return make_representation(a2, (1, 1), [[[Fraction(2)]]])

    return {
        "Quiver": lambda: Quiver(2, [(1, 2)]),
        "Representation": rep,
        "RootSet": lambda: positive_real_roots(a2),
        "Enumeration": lambda: enumerate_clusters(a2),
        "SchurCheck": lambda: SchurCheck(True, "probe", "probe-verified", 7, rep()),
        "ModuleList": lambda: ModuleList((((1, 1), rep()),)),
    }


class TestRecord:
    """The frozen value classes built on ``quiver.Record``."""

    @pytest.mark.parametrize(
        "name",
        ["Enumeration", "ModuleList", "Quiver", "Representation", "RootSet", "SchurCheck"],
    )
    def test_field_wise_equality_and_hash(self, a2, name):
        build = _equal_records(a2)[name]
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        assert not (a != b)
        assert a != object()

    def test_a_differing_field_breaks_equality(self, a2):
        assert Quiver(2, [(1, 2)]) != Quiver(2, [(2, 1)])
        assert SchurCheck(True, "exact", "root-table") != SchurCheck(
            True, "exact", "root-table", seed=0
        )
        z = make_representation(a2, (1, 1), [[[0]]])
        assert z != make_representation(a2, (1, 1), [[[1]]])
        assert len({Quiver(2, [(1, 2)]), Quiver(2, [(1, 2)]), Quiver(2, [])}) == 2

    def test_identity_equality(self, a2):
        pairs = [
            (cluster_table(a2), cluster_table(a2)),
            (cluster_poset(cluster_table(a2)), cluster_poset(cluster_table(a2))),
            (chain(2), chain(2)),
        ]
        for a, b in pairs:
            assert a == a and a != b
            assert hash(a) == object.__hash__(a)

    def test_fields_are_frozen(self, a2):
        table = cluster_table(a2)
        for obj, field in [(a2, "n"), (table, "compat"), (chain(2), "elements"),
                           (SchurCheck(True, "exact", "root-table"), "seed")]:
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
            with pytest.raises(AttributeError):
                delattr(obj, field)
        with pytest.raises(AttributeError):
            a2.extra = 1
        assert a2.n == 2

    def test_keywords_and_defaults(self):
        check = SchurCheck(reason="root-table", ok=True, mode="exact")
        assert check == SchurCheck(True, "exact", "root-table")
        assert check.seed is None and check.rep is None
        leq = np.eye(2, dtype=bool)
        named = FinitePoset(("a", "b"), leq, hasse=(), top=None, bottom=None)
        assert named.complete is True and named.height_bound is None
        assert named.elements == ("a", "b") and named.n == 2 and named.leq is leq
        assert build_poset(1, covers=[]).elements == (0,)

    @pytest.mark.parametrize(
        "args, kwargs",
        [((2,), {}), ((), {"arrows": []}), ((2, [], 3), {}),
         ((2, []), {"extra": 1}), ((2, []), {"n": 2}), ((2,), {"arrows": [], "n": 2})],
    )
    def test_bad_fields_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            Quiver(*args, **kwargs)

    def test_post_init_normalizes_arrows(self):
        assert Quiver(2, [(1, 2)]).arrows == ((1, 2),)
        assert Quiver(arrows=[[1, 2]], n=2).arrows == ((1, 2),)
        assert repr(Quiver(2, [(1, 2)])) == "Quiver(n=2, arrows=((1, 2),))"

    def test_cached_properties(self, a2):
        # Quiver's derived tables are set at construction and frozen like
        # its fields; ClusterTable's stay lazy cached properties.
        q = Quiver(2, [(1, 2)])
        assert vars(q)["euler_matrix"] == ((1, -1), (0, 1))
        assert q.euler_matrix is q.euler_matrix and q == a2
        assert q.sym_matrix == ((2, -1), (-1, 2))
        assert q.topological_order == (1, 2) and q.is_dynkin
        with pytest.raises(AttributeError):
            q.is_dynkin = False
        table = cluster_table(a2)
        assert "clusters" not in vars(table)
        assert table.clusters is table.clusters and len(table.clusters) == 5
        assert table.members is table.members


class TestForms:
    def test_euler_matrix_a2(self, a2):
        assert a2.euler_matrix == ((1, -1), (0, 1))

    def test_euler_counts_parallel_arrows(self, kronecker):
        assert euler_form(kronecker, (1, 0), (0, 1)) == -2

    def test_sym_is_symmetrization(self, a3):
        for x in [(1, 0, 2), (0, 1, 1)]:
            for y in [(1, 1, 0), (2, 0, 1)]:
                assert sym_form(a3, x, y) == euler_form(a3, x, y) + euler_form(
                    a3, y, x
                )

    def test_tits_matches_oracle(self, d4, wild):
        for q, oracle_args in [(d4, (4, d4.arrows)), (wild, (3, wild.arrows))]:
            for x in [(1, 1, 1, 1)[: q.n], (2, 1, 0, 1)[: q.n], (0, 2, 1, 1)[: q.n]]:
                assert tits_form(q, x) == tits_oracle(*oracle_args, x)

    def test_orientation_free_forms(self, a2, a2rev):
        # The symmetrized and quadratic forms only see the underlying graph.
        for x in [(1, 0), (0, 1), (2, 3)]:
            assert tits_form(a2, x) == tits_form(a2rev, x)
            for y in [(1, 1), (1, 2)]:
                assert sym_form(a2, x, y) == sym_form(a2rev, x, y)


class TestDynkin:
    def test_corpus_classification(self, a1, a2, a3, a3alt, a4, d4, e6):
        for q in (a1, a2, a3, a3alt, a4, d4, e6):
            assert q.is_dynkin

    def test_non_dynkin(self, kronecker, wild):
        assert not kronecker.is_dynkin
        assert not wild.is_dynkin

    def test_affine_a3_cycle_free_orientation(self):
        # 4-cycle graph oriented acyclically: affine A_3, not Dynkin.
        q = Quiver(4, [(1, 2), (2, 3), (1, 4), (4, 3)])
        assert not q.is_dynkin

    def test_e8_is_dynkin_t337_is_not(self):
        e8 = Quiver(8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)])
        assert e8.is_dynkin
        # Same shape with the branch one step further out is affine E_7.
        t337 = Quiver(8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (4, 8)])
        assert not t337.is_dynkin

    @pytest.mark.parametrize(
        "n, arrows, expected",
        [
            (1, [], (("A1", (1,)),)),
            (3, [(2, 1), (2, 3)], (("A3", (1, 2, 3)),)),
            (4, [(1, 2), (1, 3), (1, 4)], (("D4", (1, 2, 3, 4)),)),
            (5, [(1, 2), (2, 3), (3, 4), (5, 3)], (("D5", (1, 2, 3, 4, 5)),)),
            (6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)], (("E6", tuple(range(1, 7))),)),
            (7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)], (("E7", tuple(range(1, 8))),)),
            (8, [(8, 3), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)],
             (("E8", tuple(range(1, 9))),)),
            (5, [(4, 2), (3, 5)], (("A1", (1,)), ("A2", (2, 4)), ("A2", (3, 5)))),
        ],
    )
    def test_dynkin_components(self, n, arrows, expected):
        q = Quiver(n, arrows)
        assert dynkin_components(q) == expected
        roots = len(positive_real_roots(q))
        assert roots == sum(len(v) * coxeter_number(kind) // 2 for kind, v in expected)

    @pytest.mark.parametrize(
        "n, arrows",
        [
            (2, [(1, 2), (1, 2)]),  # Kronecker: a double edge
            (4, [(1, 2), (2, 3), (1, 4), (4, 3)]),  # affine A3: a cycle
            (5, [(1, 2), (1, 3), (1, 4), (1, 5)]),  # affine D4: degree 4
            (6, [(1, 2), (2, 3), (3, 4), (2, 5), (3, 6)]),  # affine D5: two branch points
            (7, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 7)]),  # affine E6
            (8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (4, 8)]),  # affine E7
            (9, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (3, 9)]),  # affine E8
            (3, [(1, 2)] * 3),
        ],
    )
    def test_non_dynkin_components(self, n, arrows):
        q = Quiver(n, arrows)
        assert not q.is_dynkin
        assert dynkin_components(q) is None

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_components_agree_with_the_tits_form(self, data):
        # A random forest, some extra edges, random orientations.
        n = data.draw(st.integers(min_value=1, max_value=8))
        edges = [
            (data.draw(st.integers(min_value=1, max_value=v - 1)), v)
            for v in range(2, n + 1)
            if data.draw(st.booleans())
        ]
        edges += data.draw(
            st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=2)
        )
        arrows = [(min(s, t), max(s, t)) for s, t in edges if s != t]
        arrows = [(t, s) if data.draw(st.booleans()) else (s, t) for s, t in arrows]
        try:
            q = Quiver(n, arrows)
        except errors.CycleDetected:
            return
        found = dynkin_components(q)
        assert (found is not None) == q.is_dynkin
        if found is not None:
            count = sum(len(v) * coxeter_number(kind) // 2 for kind, v in found)
            assert count == len(positive_real_roots(q))


@st.composite
def quiver_and_vector(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=0, max_value=5))
    arrows = []
    for _ in range(m):
        s = draw(st.integers(min_value=1, max_value=n))
        t = draw(st.integers(min_value=1, max_value=n))
        if s == t:
            continue
        arrows.append((min(s, t), max(s, t)))
    q = Quiver(n, arrows)
    x = tuple(draw(st.integers(min_value=-3, max_value=3)) for _ in range(n))
    return q, x


class TestReflections:
    @settings(max_examples=80, deadline=None)
    @given(quiver_and_vector(), st.integers(min_value=1, max_value=4))
    def test_involution_and_oracle(self, qx, i):
        q, x = qx
        i = (i - 1) % q.n + 1
        rx = reflect(q, i, x)
        assert rx == reflect_oracle(q.n, q.arrows, i, x)
        assert reflect(q, i, rx) == x
        assert tits_form(q, rx) == tits_form(q, x)

    def test_simple_reflection_negates_simple(self, a2):
        assert reflect(a2, 1, (1, 0)) == (-1, 0)
        assert reflect(a2, 1, (0, 1)) == (1, 1)

    def test_bad_vertex(self, a2):
        with pytest.raises(errors.BadIndex):
            reflect(a2, 3, (1, 0))


class TestPositiveRealRoots:
    def test_a2_roots(self, a2):
        assert positive_real_roots(a2).roots == ((0, 1), (1, 0), (1, 1))

    def test_counts_type_a(self, a1, a2, a3, a4):
        for q, n in [(a1, 1), (a2, 2), (a3, 3), (a4, 4)]:
            rs = positive_real_roots(q)
            assert len(rs) == n * (n + 1) // 2
            assert rs.complete

    def test_d4_count(self, d4):
        assert len(positive_real_roots(d4)) == 12

    def test_matches_box_scan(self, a3alt, d4):
        for q in (a3alt, d4):
            rs = positive_real_roots(q)
            box = max(max(r) for r in rs.roots)
            assert set(rs.roots) == roots_by_box_scan(q.n, q.arrows, box)

    def test_orientation_independent(self, a2, a2rev):
        assert positive_real_roots(a2).roots == positive_real_roots(a2rev).roots

    def test_non_dynkin_requires_bound(self, kronecker):
        with pytest.raises(errors.BoundRequired):
            positive_real_roots(kronecker)

    def test_kronecker_bound_7(self, kronecker):
        rs = positive_real_roots(kronecker, bound=7)
        assert rs.roots == (
            (0, 1),
            (1, 0),
            (1, 2),
            (2, 1),
            (2, 3),
            (3, 2),
            (3, 4),
            (4, 3),
        )
        assert not rs.complete
        assert rs.height_bound == 7

    def test_dynkin_bound_truncates_but_stays_complete_if_all_fit(self, a2):
        rs = positive_real_roots(a2, bound=1)
        assert rs.roots == ((0, 1), (1, 0))
        assert not rs.complete
        full = positive_real_roots(a2, bound=10)
        assert full.complete

    def test_membership(self, a2):
        rs = positive_real_roots(a2)
        assert (1, 1) in rs
        assert (2, 1) not in rs


class TestProjectives:
    def test_matches_path_counts(self, a2, a3, a3alt, d4, kronecker, wild):
        for q in (a2, a3, a3alt, d4, kronecker, wild):
            assert list(projective_dimension_vectors(q)) == projectives_oracle(
                q.n, q.arrows
            )

    def test_a2_values(self, a2):
        assert projective_dimension_vectors(a2) == ((1, 1), (0, 1))


class TestHelpers:
    def test_unit(self):
        assert unit(3, 2) == (0, 1, 0)
