"""Preclusters, clusters, completion and the cluster order."""

import os
import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schur_clusters import (
    Quiver,
    cluster_geq,
    cluster_leq,
    cluster_poset,
    cluster_table,
    cluster_variables,
    compatible,
    complete_to_cluster,
    e_invariant,
    enumerate_clusters,
    enumerate_clusters_naive,
    enumerate_preclusters,
    errors,
    format_variable,
    is_positive_precluster,
    is_precluster,
    negative_simple,
    positive_real_roots,
    projective_dimension_vectors,
)
from schur_clusters.cli import main
from schur_clusters.clusters import (
    ClusterTable,
    _cliques,
    _compat_matrix,
    assemble_poset,
    var_key,
)
from schur_clusters.fileio import emit_quiver_text
from schur_clusters.posets import bool_square

from oracles import containing, cover_pairs, random_poset_matrix

E7 = Quiver(7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)])
E8 = Quiver(8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)])


PENTAGON = [
    ((-1, 0), (0, -1)),
    ((-1, 0), (0, 1)),
    ((0, -1), (1, 0)),
    ((0, 1), (1, 1)),
    ((1, 0), (1, 1)),
]


class TestVariables:
    def test_negative_simple(self, a3):
        assert negative_simple(a3, 2) == (0, -1, 0)
        with pytest.raises(errors.BadIndex):
            negative_simple(a3, 4)

    def test_variable_pool(self, a2):
        assert cluster_variables(a2) == (
            (-1, 0),
            (0, -1),
            (0, 1),
            (1, 0),
            (1, 1),
        )

    def test_format(self):
        assert format_variable((-1, 0)) == "-e1"
        assert format_variable((1, 1)) == "(1,1)"

    def test_canonical_order_negatives_first(self):
        vs = [(1, 1), (0, -1), (1, 0), (-1, 0)]
        assert sorted(vs, key=var_key) == [(-1, 0), (0, -1), (1, 0), (1, 1)]


class TestPrecluster:
    def test_empty_and_singletons(self, a2):
        assert is_precluster(a2, [])[0]
        for v in cluster_variables(a2):
            assert is_precluster(a2, [v])[0]

    def test_extension_pair_rejected(self, a2):
        ok, why = is_precluster(a2, [(1, 0), (0, 1)])
        assert not ok
        assert "e(" in why

    def test_support_clash_rejected(self, a2):
        ok, why = is_precluster(a2, [(0, -1), (1, 1)])
        assert not ok
        assert "support" in why

    def test_two_negatives_fine(self, a2):
        assert is_precluster(a2, [(-1, 0), (0, -1)])[0]

    def test_imaginary_root_rejected(self, kronecker):
        # (1,1) on the double arrow is isotropic: not a cluster variable.
        ok, why = is_precluster(kronecker, [(1, 1)])
        assert not ok
        assert "tits" in why

    def test_mixed_sign_vector_rejected(self, a2):
        ok, why = is_precluster(a2, [(1, -1)])
        assert not ok
        assert "neither" in why

    def test_positive_only(self, a2):
        assert is_positive_precluster(a2, [(1, 1), (1, 0)])
        assert not is_positive_precluster(a2, [(-1, 0)])

    def test_compatible_is_pairwise(self, a2):
        assert compatible(a2, (1, 1), (1, 0))
        assert not compatible(a2, (1, 0), (0, 1))
        assert compatible(a2, (-1, 0), (0, 1))
        assert not compatible(a2, (-1, 0), (1, 1))


class TestCompatMatrix:
    def test_matches_pairwise_predicates(self, a3, d4, kronecker, wild):
        for q, bound in ((a3, None), (d4, None), (kronecker, 7), (wild, 4)):
            variables = cluster_variables(q, bound=bound)
            compat, nz = _compat_matrix(q, variables)
            for i, u in enumerate(variables):
                for j, v in enumerate(variables):
                    want = i != j and compatible(q, u, v)
                    assert bool(compat[i, j]) == want, (q.arrows, u, v)
                    positive = min(u) >= 0 and min(v) >= 0
                    want = positive and e_invariant(q, u, v) != 0
                    assert bool(nz[i, j]) == want, (q.arrows, u, v)


class TestEnumeration:
    def test_pentagon_clusters(self, a2):
        enum = enumerate_clusters(a2)
        assert [tuple(c) for c in enum.items] == PENTAGON
        assert enum.complete

    def test_counts_match_naive(self, a1, a2, a3, a3alt, a4, d4):
        expected = {1: 2, 2: 5, 3: 14, 4: None}
        for q in (a1, a2, a3, a3alt, a4, d4):
            fast = enumerate_clusters(q)
            naive = enumerate_clusters_naive(q)
            assert tuple(fast.items) == tuple(naive)
            if q.n in (1, 2, 3) and expected[q.n]:
                assert len(fast.items) == expected[q.n]

    def test_type_a4_and_d4_counts(self, a4, d4):
        assert len(enumerate_clusters(a4).items) == 42
        assert len(enumerate_clusters(d4).items) == 50

    def test_e7_count(self):
        # Fomin-Zelevinsky: E7 has 4160 clusters.
        assert len(enumerate_clusters(E7).items) == 4160

    @pytest.mark.skipif(
        not os.environ.get("SCHUR_CLUSTERS_LARGE"),
        reason="stretch target; set SCHUR_CLUSTERS_LARGE=1 to run",
    )
    def test_e8_count(self):
        assert len(enumerate_clusters(E8).items) == 25080

    def test_every_cluster_has_n_elements(self, a3, d4):
        for q in (a3, d4):
            for c in enumerate_clusters(q).items:
                assert len(c) == q.n

    def test_kronecker_bounded(self, kronecker):
        enum = enumerate_clusters(kronecker, bound=7)
        assert len(enum.items) == 9
        assert not enum.complete
        assert all(len(c) == 2 for c in enum.items)

    def test_preclusters_a2(self, a2):
        enum = enumerate_preclusters(a2)
        assert len(enum.items) == 11  # 1 empty + 5 singletons + 5 clusters
        sizes = sorted(len(c) for c in enum.items)
        assert sizes == [0] + [1] * 5 + [2] * 5
        assert enum.items[0] == ()

    def test_positive_preclusters_a2(self, a2):
        enum = enumerate_preclusters(a2, positive_only=True)
        assert len(enum.items) == 6
        assert all(
            all(a >= 0 for v in c for a in v) for c in enum.items
        )

    def test_all_preclusters_are_preclusters(self, a3):
        for c in enumerate_preclusters(a3).items:
            assert is_precluster(a3, c)[0]

    def test_preclusters_are_subsets_of_clusters(self, a3):
        clusters = [set(c) for c in enumerate_clusters(a3).items]
        for pc in enumerate_preclusters(a3).items:
            assert any(set(pc) <= c for c in clusters)


def _graph_table(n: int, compat, complete: bool) -> ClusterTable:
    """A cluster table on a quiver with n vertices and no arrows whose
    compatibility graph is ``compat``; only ``clusters`` reads it."""
    m = len(compat)
    compat = np.array(compat, dtype=bool).reshape(m, m)
    nz, negative = np.zeros((m, m), dtype=bool), np.zeros(m, dtype=bool)
    return ClusterTable(
        Quiver(n, []), tuple(range(m)), complete, None, compat, nz, negative
    )


def _clique_graph(m: int) -> list[list[bool]]:
    return [[i != j for j in range(m)] for i in range(m)]


class TestCliqueWalk:
    """``ClusterTable.clusters`` walks to depth n and asserts both bounds."""

    @pytest.mark.parametrize("complete", [True, False])
    def test_n_plus_one_compatible_variables_are_internal(self, complete):
        table = _graph_table(2, _clique_graph(3), complete)
        with pytest.raises(RuntimeError, match="internal error: 3 pairwise"):
            table.clusters

    def test_short_maximal_clique_on_a_complete_table_is_internal(self):
        # Vertices 0-1 and 2 alone: {2} is maximal with 1 < 2 members.
        compat = _clique_graph(2)
        compat = [row + [False] for row in compat] + [[False] * 3]
        with pytest.raises(RuntimeError, match="maximal compatible set of size 1"):
            _graph_table(2, compat, True).clusters
        assert _graph_table(2, compat, False).clusters == ((0, 1),)

    def test_cli_reports_an_internal_error(self, capsys, monkeypatch, tmp_path, a2):
        bad = _graph_table(2, _clique_graph(3), True)
        monkeypatch.setattr(
            "schur_clusters.clusters.cluster_table", lambda *args: bad
        )
        path = tmp_path / "a2.quiver"
        path.write_text(emit_quiver_text(a2))
        assert main(["clusters", "--quiver", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[internal]: ")


_graphs = st.integers(min_value=0, max_value=11).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(st.booleans(), min_size=m * (m - 1) // 2, max_size=m * (m - 1) // 2),
    )
)


def _adjacency(graph) -> np.ndarray:
    """The symmetric bool matrix of ``(m, upper-triangle edge flags)``."""
    m, edges = graph
    compat = np.zeros((m, m), dtype=bool)
    compat[np.triu_indices(m, 1)] = edges
    return compat | compat.T


@given(st.integers(min_value=1, max_value=5), _graphs)
@settings(max_examples=200, deadline=None)
def test_depth_n_walk_keeps_the_maximal_n_cliques(n, graph):
    compat = _adjacency(graph)
    cliques = list(_cliques(compat))
    table = _graph_table(n, compat, False)
    if any(len(c) > n for c, _ in cliques):
        with pytest.raises(RuntimeError, match="internal error"):
            table.clusters
    else:
        expected = tuple(c for c, maximal in cliques if maximal and len(c) == n)
        assert table.clusters == expected


@given(_graphs, st.integers(min_value=0, max_value=1))
@settings(max_examples=200, deadline=None)
def test_no_short_maximal_clique_is_every_clique_in_a_cluster(graph, extra):
    # verify's precluster-extension walk against the membership product,
    # with n at or above the largest clique so that ``clusters`` is defined.
    compat = _adjacency(graph)
    cliques = list(_cliques(compat))
    n = max(1, *(len(c) for c, _ in cliques)) + extra
    table = _graph_table(n, compat, False)
    pure = not any(maximal and len(c) < n for c, maximal in cliques)
    assert pure == containing(table, [c for c, _ in cliques]).any(axis=1).all()


class TestCompletion:
    def test_extends_and_keeps_given(self, a2):
        c = complete_to_cluster(a2, [(1, 1)])
        assert (1, 1) in c
        assert len(c) == 2
        assert is_precluster(a2, c)[0]

    def test_empty_input_gives_lex_least_cluster(self, a2):
        c = complete_to_cluster(a2, [])
        assert tuple(c) == ((-1, 0), (0, -1))

    def test_deterministic(self, d4):
        pcs = [c[:2] for c in enumerate_clusters(d4).items[:5]]
        for pc in pcs:
            assert complete_to_cluster(d4, pc) == complete_to_cluster(d4, pc)

    def test_every_precluster_completes(self, a3, d4):
        for q in (a3, d4):
            for pc in enumerate_preclusters(q).items:
                c = complete_to_cluster(q, pc)
                assert set(pc) <= set(c)
                assert len(c) == q.n

    def test_rejects_non_precluster(self, a2):
        with pytest.raises(errors.NotAPrecluster):
            complete_to_cluster(a2, [(1, 0), (0, 1)])

    def test_rejects_a_real_root_that_is_not_schur(self):
        # Affine A3: delta + e3 has Tits form 1 and e = 0, but generically
        # splits off S3, so Schofield's criterion fails at e3.
        q = Quiver(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        with pytest.raises(errors.NotAPrecluster, match=r"not a Schur root: <\(0, 0, 1, 0\)"):
            complete_to_cluster(q, [(1, 1, 2, 1)], bound=9)

    def test_impossible_completion(self, kronecker):
        # The only partners of (2,3) are (1,2) and (3,4), both taller than
        # the bound, so the bounded pool offers no completion.
        with pytest.raises(errors.CompletionNotFound):
            complete_to_cluster(kronecker, [(2, 3)], bound=2)


class TestOrder:
    def test_pentagon_relations(self, a2):
        bottom = ((-1, 0), (0, -1))
        top = ((0, 1), (1, 1))
        for c in PENTAGON:
            assert cluster_leq(a2, bottom, c)
            assert cluster_leq(a2, c, top)
            assert cluster_leq(a2, c, c)

    def test_orientation(self, a2):
        s = ((0, -1), (1, 0))
        t = ((1, 0), (1, 1))
        assert cluster_leq(a2, s, t)
        assert not cluster_leq(a2, t, s)
        assert cluster_geq(a2, t, s)

    def test_incomparable_pair(self, a2):
        left = ((-1, 0), (0, 1))
        right = ((0, -1), (1, 0))
        assert not cluster_leq(a2, left, right)
        assert not cluster_leq(a2, right, left)


class TestClusterPoset:
    def test_pentagon_statistics(self, a2):
        cp = cluster_poset(cluster_table(a2))
        assert len(cp.elements) == 5
        assert int(cp.leq.sum()) == 13
        assert len(cp.hasse) == 5
        assert cp.complete

    def test_top_is_projectives_bottom_is_negatives(self, a2, a3, a3alt, d4):
        for q in (a2, a3, a3alt, d4):
            cp = cluster_poset(cluster_table(q))
            top = cp.elements[cp.top]
            assert set(top) == set(projective_dimension_vectors(q))
            bottom = cp.elements[cp.bottom]
            assert all(any(a < 0 for a in v) for v in bottom)

    def test_leq_matrix_is_read_only(self, a2):
        cp = cluster_poset(cluster_table(a2))
        with pytest.raises(ValueError):
            cp.leq[0, 0] = False

    def test_hasse_edges_are_covers(self, a3):
        cp = cluster_poset(cluster_table(a3))
        leq = cp.leq
        for i, j in cp.hasse:
            assert leq[i, j] and i != j
            between = [
                k
                for k in range(len(cp.elements))
                if k not in (i, j) and leq[i, k] and leq[k, j]
            ]
            assert not between

    def test_transitive_and_antisymmetric(self, d4):
        cp = cluster_poset(cluster_table(d4))
        leq = np.asarray(cp.leq)
        assert (leq & leq.T).sum() == len(cp.elements)  # antisymmetry
        closure = leq @ leq
        assert not (closure & ~leq).any()  # transitivity

    def test_matrix_order_matches_pairwise_definition(self, a3, a3alt, d4, kronecker):
        for q, bound in ((a3, None), (a3alt, None), (d4, None), (kronecker, 7)):
            cp = cluster_poset(cluster_table(q, bound=bound))
            els = cp.elements
            for i, s in enumerate(els):
                for j, t in enumerate(els):
                    assert bool(cp.leq[i, j]) == cluster_leq(q, s, t), (q.arrows, s, t)

    def test_kronecker_bounded_poset(self, kronecker):
        cp = cluster_poset(cluster_table(kronecker, bound=7))
        assert len(cp.elements) == 9
        assert not cp.complete
        assert cp.bottom is not None
        assert all(any(a < 0 for a in v) for v in cp.elements[cp.bottom])
        # The projective pair generates everything, so it tops even a
        # truncated enumeration.
        assert set(cp.elements[cp.top]) == {(0, 1), (1, 2)}
        assert int(cp.leq.sum()) == 39
        assert len(cp.hasse) == 9

    def test_e6_hasse_matches_the_dense_square(self, e6):
        cp = cluster_poset(cluster_table(e6))
        assert len(cp.hasse) == 833 * 6 // 2
        assert cp.hasse == cover_pairs(cp.leq)

    @pytest.mark.skipif(
        not os.environ.get("SCHUR_CLUSTERS_LARGE"),
        reason="stretch target; set SCHUR_CLUSTERS_LARGE=1 to run",
    )
    def test_e7_poset(self):
        cp = cluster_poset(cluster_table(E7))
        assert len(cp.elements) == 4160
        # The Hasse diagram is the exchange graph: 7 neighbours per cluster.
        assert len(cp.hasse) == 4160 * 7 // 2
        assert set(cp.elements[cp.top]) == set(projective_dimension_vectors(E7))
        assert all(any(a < 0 for a in v) for v in cp.elements[cp.bottom])


def _first_failure(leq):
    """The first order-axiom failure of a square bool list matrix, scanning
    row-major: reflexivity, then antisymmetry, then transitivity.  Returns
    (error class, info key, witness)."""
    n = len(leq)
    for i in range(n):
        if not leq[i][i]:
            return errors.NotAPartialOrder, "index", i
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for i, j in pairs:
        if leq[i][j] and leq[j][i]:
            return errors.NotAntisymmetric, "pair", (i, j)
    for i, j in pairs:
        if not leq[i][j] and any(leq[i][k] and leq[k][j] for k in range(n)):
            return errors.NotTransitiveClosure, "pair", (i, j)
    raise AssertionError("a partial order")


class TestAssembleGuards:
    def test_bitset_square_equals_the_dense_product(self):
        rng = np.random.default_rng(2024)
        # 7..9 and 63..65 rows put the packed rows on both sides of a byte.
        for m in (0, 1, 7, 8, 9, 63, 64, 65):
            for density in (0.05, 0.3, 0.9):
                mat = rng.random((m, m)) < density
                square = bool_square(mat)
                assert square.dtype == bool
                assert np.array_equal(square, mat @ mat)

    def test_bad_relation_rejected(self, a2):
        leq = np.zeros((2, 2), dtype=bool)  # not reflexive
        with pytest.raises(errors.NotAPartialOrder):
            assemble_poset([("a",), ("b",)], leq, complete=True, height_bound=None)

    def test_cyclic_relation_rejected(self):
        leq = np.ones((2, 2), dtype=bool)  # a <= b and b <= a
        with pytest.raises(errors.NotAPartialOrder):
            assemble_poset([("a",), ("b",)], leq, complete=True, height_bound=None)

    def test_intransitive_relation_with_many_paths_rejected(self):
        # 0 <= k <= 257 for all 256 middle elements, but not 0 <= 257.
        m = 258
        leq = np.eye(m, dtype=bool)
        leq[0, 1:-1] = True
        leq[1:-1, -1] = True
        with pytest.raises(errors.NotAPartialOrder) as info:
            assemble_poset(
                [(k,) for k in range(m)], leq, complete=True, height_bound=None
            )
        assert info.value.info["pair"] == (0, m - 1)

    def test_hasse_equals_cover_pairs_on_random_posets(self):
        rng = random.Random(2014)
        # 7..9 and 63..65 elements put the rows on both sides of a byte.
        for n in [rng.randint(0, 12) for _ in range(200)] + [7, 8, 9, 63, 64, 65]:
            perm = np.array(rng.sample(range(n), n), dtype=np.intp)
            leq = np.array(random_poset_matrix(rng, n), dtype=bool).reshape(n, n)
            leq = leq[np.ix_(perm, perm)]
            poset = assemble_poset(list(range(n)), leq, True, None)
            assert poset.hasse == cover_pairs(leq)
            lt = leq & ~np.eye(n, dtype=bool)
            covers = {
                (i, j)
                for i in range(n)
                for j in range(n)
                if lt[i, j] and not any(lt[i, k] and lt[k, j] for k in range(n))
            }
            assert set(poset.hasse) == covers
            # Break the order once per axiom: the validator must name the
            # first failure that a row-major scan finds.
            strict = [(int(i), int(j)) for i, j in np.argwhere(lt)]
            implied = [pair for pair in strict if pair not in covers]
            broken = []
            if n:
                k = rng.randrange(n)
                broken.append(((k, k), False))
            if strict:
                i, j = rng.choice(strict)
                broken.append(((j, i), True))
            if implied:
                broken.append((rng.choice(implied), False))
            for (i, j), value in broken:
                bad = leq.copy()
                bad[i, j] = value
                cls, key, witness = _first_failure(bad.tolist())
                with pytest.raises(errors.NotAPartialOrder) as info:
                    assemble_poset(list(range(n)), bad, True, None)
                assert type(info.value) is cls
                assert info.value.info[key] == witness


class TestOrientationCovariance:
    def test_reversed_a2_mirrors_projectives(self, a2rev):
        cp = cluster_poset(cluster_table(a2rev))
        assert len(cp.elements) == 5
        top = set(cp.elements[cp.top])
        assert top == set(projective_dimension_vectors(a2rev)) == {(1, 0), (1, 1)}

    def test_isolated_vertex_quiver(self):
        q = Quiver(3, [(1, 2)])
        enum = enumerate_clusters(q)
        # A2 x A1: 5 * 2 clusters.
        assert len(enum.items) == 10
        roots = positive_real_roots(q)
        assert len(roots) == 4


A5_ZIGZAG = Quiver(5, [(1, 2), (3, 2), (3, 4), (5, 4)])


class TestClusterTable:
    def test_public_enumerations_read_the_table(self, a3, kronecker):
        for q, bound in ((a3, None), (kronecker, 7)):
            table = cluster_table(q, bound=bound)
            assert table.variables == cluster_variables(q, bound=bound)
            enum = enumerate_clusters(q, bound=bound)
            assert table.enumeration(table.clusters) == enum
            assert table.members.sum(axis=1).tolist() == [q.n] * len(enum)
            for row, c in zip(table.members, enum.items):
                assert {table.variables[i] for i in np.flatnonzero(row)} == set(c)
            pcs = table.enumeration(table.preclusters())
            assert pcs == enumerate_preclusters(q, bound=bound)

    def test_clusters_wait_for_first_use(self, e6):
        # The CLI refuses a large table between these two steps.
        table = cluster_table(e6)
        assert len(table.variables) == 42
        assert "clusters" not in vars(table)
        assert len(table.clusters) == 833

    def test_arrays_are_read_only(self, a2):
        table = cluster_table(a2)
        for a in (table.compat, table.nz, table.negative, table.members):
            with pytest.raises(ValueError):
                a[0] = True

    def test_first_containing_cluster_is_the_completion(self, a3, d4):
        # complete_to_cluster's own search is the reference: the least
        # completion is the first table cluster that holds the precluster.
        for q in (a3, d4, A5_ZIGZAG):
            table = cluster_table(q)
            pcs = table.enumeration(table.preclusters()).items
            first = containing(table, pcs).argmax(axis=1)
            clusters = table.enumeration(table.clusters).items
            for pc, c in zip(pcs, first):
                assert complete_to_cluster(q, pc) == clusters[c], pc

    def test_containing_finds_no_cluster_for_a_non_precluster(self, a2):
        table = cluster_table(a2)
        hits = containing(table, [((1, 0), (0, 1)), ((1, 0),)])
        assert hits.any(axis=1).tolist() == [False, True]


def _dynkin_orientation(kind: str, n: int, flips) -> Quiver:
    """A_n as the path 1-...-n, D_n as the path 1-...-(n-1) plus n-2 -- n,
    with the edges whose flip is set pointing backwards."""
    edges = [(i, i + 1) for i in range(1, n - (kind == "D"))]
    if kind == "D":
        edges.append((n - 2, n))
    return Quiver(n, [(t, s) if f else (s, t) for (s, t), f in zip(edges, flips)])


_ORIENTATIONS = st.sampled_from(
    [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5)]
).flatmap(
    lambda kn: st.tuples(
        st.just(kn), st.lists(st.booleans(), min_size=kn[1] - 1, max_size=kn[1] - 1)
    )
)


@given(_ORIENTATIONS)
@settings(max_examples=20, deadline=None)
def test_cluster_counts_hold_on_every_orientation(case):
    (kind, n), flips = case
    q = _dynkin_orientation(kind, n, flips)
    if kind == "A":
        expected = comb(2 * n + 2, n + 1) // (n + 2)  # Catalan(n + 1)
    else:
        expected = (3 * n - 2) * comb(2 * n - 2, n - 1) // n  # Fomin-Zelevinsky
    table = cluster_table(q)
    cp = cluster_poset(table)
    assert len(table.clusters) == len(cp.elements) == expected
    # The Hasse diagram is the exchange graph: n neighbours per cluster.
    assert len(cp.hasse) == n * expected // 2
    if len(table.variables) <= 22:  # verify's subset-scan limit: not D5
        assert table.enumeration(table.clusters).items == enumerate_clusters_naive(q)
