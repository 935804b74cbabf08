"""Exact rational representation oracle: hom, ext, sampling, gen-order."""

import ast
import importlib
import inspect
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schur_clusters
from schur_clusters import linalg, reps
from schur_clusters import (
    Quiver,
    cluster_poset,
    cluster_table,
    compare_posets,
    e_invariant,
    enumerate_clusters,
    errors,
    euler_form,
    ext_dim,
    gen_leq,
    hom_basis,
    hom_dim,
    is_support_tilting,
    make_representation,
    positive_real_roots,
    real_schur_roots,
    realize_cluster,
    sample_exceptional,
    stilt_poset,
    zero_representation,
)

from oracles import hom_dim_oracle

D4_CENTRE = Quiver(4, [(1, 2), (2, 3), (2, 4)])
D4_SOURCE = Quiver(4, [(1, 2), (1, 3), (1, 4)])
A5 = Quiver(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
SMALL_QUIVERS = (
    Quiver(1, []),
    Quiver(2, [(1, 2)]),
    Quiver(3, [(1, 2), (3, 2)]),
    Quiver(2, [(1, 2), (1, 2)]),
    Quiver(3, [(1, 2), (1, 2), (2, 3)]),
)


def simple_rep(q, i):
    dims = tuple(1 if v == i else 0 for v in range(1, q.n + 1))
    return zero_representation(q, dims)


class TestConstruction:
    def test_shapes_checked(self, a2):
        with pytest.raises(errors.DimensionMismatch):
            make_representation(a2, (1, 1), [((1,), (2,))])  # 2x1, want 1x1
        with pytest.raises(errors.DimensionMismatch):
            make_representation(a2, (1, 1), [])  # one matrix per arrow

    def test_zero_representation(self, a2):
        rep = zero_representation(a2, (2, 1))
        assert rep.dims == (2, 1)
        assert rep.matrices[0] == ((Fraction(0), Fraction(0)),)

    def test_entries_become_fractions(self, a2):
        rep = make_representation(a2, (1, 1), [((2,),)])
        assert rep.matrices[0][0][0] == Fraction(2)

    def test_hashable_for_caching(self, a2):
        rep = make_representation(a2, (1, 1), [((1,),)])
        assert hash(rep) == hash(make_representation(a2, (1, 1), [((1,),)]))


class TestHomExt:
    def test_simples_a2(self, a2):
        s1, s2 = simple_rep(a2, 1), simple_rep(a2, 2)
        assert hom_dim(a2, s1, s2) == 0
        assert hom_dim(a2, s1, s1) == 1
        assert ext_dim(a2, s1, s2) == 1
        assert ext_dim(a2, s2, s1) == 0

    def test_identity_rep_of_projective(self, a2):
        p1 = make_representation(a2, (1, 1), [((1,),)])
        s2 = simple_rep(a2, 2)
        assert hom_dim(a2, p1, p1) == 1
        assert ext_dim(a2, p1, p1) == 0
        assert ext_dim(a2, p1, s2) == 0
        # Maps out of the vertex-1 projective see the fibre at vertex 1.
        assert hom_dim(a2, p1, s2) == 0
        assert hom_dim(a2, s2, p1) == 1

    def test_hom_from_projective_counts_dimension(self, a3, d4):
        # Maps out of the projective at vertex i are the fibre at i.
        for q in (a3, d4):
            for i in range(1, q.n + 1):
                p = sample_exceptional(q, proj_dim(q, i))
                for alpha in positive_real_roots(q):
                    m = sample_exceptional(q, alpha)
                    assert hom_dim(q, p, m) == alpha[i - 1]

    def test_decomposable_has_bigger_end(self, a2):
        s1s2 = zero_representation(a2, (1, 1))
        assert hom_dim(a2, s1s2, s1s2) == 2

    def test_hom_basis_elements_are_matrices(self, a2):
        p1 = make_representation(a2, (1, 1), [((1,),)])
        basis = hom_basis(a2, p1, p1)
        assert len(basis) == 1
        phi = basis[0]
        assert len(phi) == 2 and phi[0] == ((Fraction(1),),)

    def test_kronecker_regular(self, kronecker):
        # Two independent dimension-(1,1) representations on the double
        # arrow: no maps, no extensions in either direction between
        # non-proportional ones.
        m = make_representation(kronecker, (1, 1), [((1,),), ((0,),)])
        n = make_representation(kronecker, (1, 1), [((0,),), ((1,),)])
        assert hom_dim(kronecker, m, n) == 0
        assert ext_dim(kronecker, m, n) == 0
        assert hom_dim(kronecker, m, m) == 1
        assert ext_dim(kronecker, m, m) == 1


@st.composite
def representation_pairs(draw):
    """A small quiver (Kronecker and the wild 1 2; 1 2; 2 3 among them) and
    two representations with entries in -2..2, zero-heavy so that
    decomposable and degenerate modules are common."""
    q = draw(st.sampled_from(SMALL_QUIVERS))
    entries = st.sampled_from((0, 0, 0, 1, -1, 2, -2))

    def rep():
        dims = draw(st.lists(st.integers(0, 2), min_size=q.n, max_size=q.n))
        mats = [
            [draw(st.lists(entries, min_size=dims[s - 1], max_size=dims[s - 1]))
             for _ in range(dims[t - 1])]
            for s, t in q.arrows
        ]
        return make_representation(q, dims, mats)

    return q, rep(), rep()


class TestHomDimByRank:
    @settings(max_examples=60, deadline=None)
    @given(representation_pairs())
    def test_hom_dim_is_basis_length(self, case):
        q, m, n = case
        assert hom_dim(q, m, n) == len(hom_basis(q, m, n))
        assert hom_dim(q, n, m) == len(hom_basis(q, n, m))


KRONECKER = Quiver(2, [(1, 2), (1, 2)])
WILD = Quiver(3, [(1, 2), (1, 2), (2, 3)])


def _scaled(q, rep, k):
    return make_representation(
        q, rep.dims, [[[k * v for v in row] for row in mat] for mat in rep.matrices]
    )


def _certificate_cases():
    """(quiver, m, n) over Kronecker, wild and D4: sampled exceptional
    modules, zero modules, and modules that are not generic mod p or at
    all (every matrix times p or 1/p, two equal Kronecker arrows, a zero
    arrow, a direct sum)."""
    p = linalg.PRIME
    for q, roots in (
        (KRONECKER, real_schur_roots(KRONECKER, bound=7).roots),
        (WILD, real_schur_roots(WILD, bound=6).roots),
        (D4_SOURCE, positive_real_roots(D4_SOURCE).roots),
    ):
        samples = [sample_exceptional(q, a, seed=3) for a in roots]
        mods = samples + [zero_representation(q, a) for a in roots[::3]]
        mods += [_scaled(q, m, p) for m in samples[::2]]
        mods.append(_scaled(q, samples[-1], Fraction(1, p)))
        for m in mods:
            for n in mods:
                yield q, m, n
    kron = [sample_exceptional(KRONECKER, a, seed=1) for a in ((2, 3), (3, 4))]
    for m in kron:
        a, _ = m.matrices
        yield KRONECKER, make_representation(KRONECKER, m.dims, [a, a]), m
        yield KRONECKER, m, make_representation(KRONECKER, m.dims, [a, a])
        zero = [[0] * len(a[0]) for _ in a]
        one_arrow = make_representation(KRONECKER, m.dims, [a, zero])
        yield KRONECKER, one_arrow, one_arrow
    p1, p2 = (sample_exceptional(WILD, a, seed=2) for a in ((1, 2, 2), (0, 1, 1)))
    dims = tuple(x + y for x, y in zip(p1.dims, p2.dims))
    block = []
    for (s, _), a, b in zip(WILD.arrows, p1.matrices, p2.matrices):
        ca, cb = p1.dims[s - 1], p2.dims[s - 1]
        block.append([list(r) + [0] * cb for r in a] + [[0] * ca + list(r) for r in b])
    split = make_representation(WILD, dims, block)
    yield WILD, split, split
    yield WILD, split, p1
    yield WILD, p2, split


class TestCertifiedHomDim:
    def _count_fallbacks(self, monkeypatch):
        calls = []

        def counted(rows, ncols):
            calls.append(ncols)
            return linalg.rank(rows, ncols)

        monkeypatch.setattr(reps, "rank", counted)
        return calls

    def test_equals_bareiss_reference(self, monkeypatch):
        calls = self._count_fallbacks(monkeypatch)
        cases = list(_certificate_cases())
        for q, m, n in cases:
            assert hom_dim(q, m, n) == hom_dim_oracle(q.arrows, m, n)
        # Every non-generic case is certified or falls back, never wrong:
        # some counts above the bound need the exact rank.
        assert 0 < len(calls) < len(cases)

    def test_multiples_of_p_fall_back(self, monkeypatch):
        p = linalg.PRIME
        m = sample_exceptional(KRONECKER, (3, 4), seed=0)
        calls = self._count_fallbacks(monkeypatch)
        assert hom_dim(KRONECKER, m, m) == 1
        assert calls == []
        big = _scaled(KRONECKER, m, p)
        assert hom_dim(KRONECKER, big, big) == 1
        assert len(calls) == 1

    @pytest.mark.parametrize("prime", [2, 3])
    def test_tiny_prime_changes_no_value(self, monkeypatch, prime):
        cases = list(_certificate_cases())
        expected = [hom_dim_oracle(q.arrows, m, n) for q, m, n in cases]
        roots = ((1, 2, 2), (2, 3, 3))
        samples = [sample_exceptional(WILD, a, seed=4) for a in roots]
        monkeypatch.setattr(linalg, "PRIME", prime)
        calls = self._count_fallbacks(monkeypatch)
        assert [hom_dim(q, m, n) for q, m, n in cases] == expected
        assert len(calls) > len(cases) // 10
        # Every accept/reject decision is exact, so the samples are the same.
        assert [sample_exceptional(WILD, a, seed=4) for a in roots] == samples
        assert [ext_dim(WILD, m, n) for m in samples for n in samples] == [
            hom_dim_oracle(WILD.arrows, m, n) - euler_form(WILD, m.dims, n.dims)
            for m in samples
            for n in samples
        ]


def proj_dim(q, i):
    from schur_clusters import projective_dimension_vectors

    return projective_dimension_vectors(q)[i - 1]


class TestSampling:
    def test_deterministic(self, a3):
        a = sample_exceptional(a3, (1, 1, 0), seed=5)
        b = sample_exceptional(a3, (1, 1, 0), seed=5)
        assert a == b
        c = sample_exceptional(a3, (1, 1, 0), seed=6)
        assert c.dims == (1, 1, 0)

    def test_verified_exceptional(self, d4):
        for alpha in positive_real_roots(d4):
            rep = sample_exceptional(d4, alpha)
            assert rep.dims == alpha
            assert hom_dim(d4, rep, rep) == 1
            assert ext_dim(d4, rep, rep) == 0

    def test_ext_matches_invariant(self, a3):
        roots = positive_real_roots(a3).roots
        for a in roots:
            for b in roots:
                ma, mb = sample_exceptional(a3, a), sample_exceptional(a3, b)
                assert ext_dim(a3, ma, mb) == e_invariant(a3, a, b)

    def test_non_root_filtered(self, a2):
        with pytest.raises(errors.ProbeExhausted) as info:
            sample_exceptional(a2, (2, 1))
        assert info.value.info.get("filtered")

    def test_isotropic_filtered(self, kronecker):
        with pytest.raises(errors.ProbeExhausted):
            sample_exceptional(kronecker, (2, 2))

    def test_zero_budget(self, a2):
        with pytest.raises(errors.ProbeExhausted) as info:
            sample_exceptional(a2, (1, 1), budget=0)
        assert not info.value.info.get("filtered")


class TestRealize:
    def test_pentagon_cluster(self, a2):
        ml = realize_cluster(a2, [(1, 1), (1, 0)])
        labels = ml.labels()
        assert labels == ((1, 0), (1, 1))
        for v, rep in ml.items:
            if v == (1, 0):
                assert rep.dims == (1, 0)

    def test_negatives_carry_zero_reps(self, a2):
        ml = realize_cluster(a2, [(-1, 0), (0, 1)])
        by_label = dict(ml.items)
        assert by_label[(-1, 0)].dims == (0, 0)
        assert by_label[(0, 1)].dims == (0, 1)

    def test_rejects_non_precluster(self, a2):
        with pytest.raises(errors.NotAPrecluster):
            realize_cluster(a2, [(1, 0), (0, 1)])  # E((1,0),(0,1)) = 1

    def test_rejects_support_clash(self, a2):
        with pytest.raises(errors.NotAPrecluster):
            realize_cluster(a2, [(0, -1), (1, 1)])

    def test_positives_of_clusters_are_support_tilting(self, a3):
        for c in enumerate_clusters(a3).items:
            ml = realize_cluster(a3, c)
            assert is_support_tilting(a3, ml)


class TestGenOrder:
    def test_projective_generates_all(self, a2):
        p1 = make_representation(a2, (1, 1), [((1,),)])
        p2 = simple_rep(a2, 2)
        proj = (p1, p2)
        s1 = simple_rep(a2, 1)
        assert gen_leq(a2, (s1,), proj)
        assert gen_leq(a2, (p1,), proj)
        assert not gen_leq(a2, (p2,), (s1,))

    def test_zero_generated_by_anything(self, a2):
        z = zero_representation(a2, (0, 0))
        s1 = simple_rep(a2, 1)
        assert gen_leq(a2, (z,), (s1,))
        assert not gen_leq(a2, (s1,), (z,))

    def test_quotient_is_generated(self, a2):
        p1 = make_representation(a2, (1, 1), [((1,),)])
        s1 = simple_rep(a2, 1)
        s2 = simple_rep(a2, 2)
        assert gen_leq(a2, (s1,), (p1,))  # top of p1
        assert not gen_leq(a2, (s2,), (p1,))  # submodule, not a quotient


class TestStiltPoset:
    def test_matches_cluster_order(self, a2, a2rev, a3, d4):
        # Under a bound both posets hold exactly the table's clusters.
        for q, bound in ((a2, None), (a2rev, None), (a3, None), (d4, None), (d4, 3)):
            table = cluster_table(q, bound=bound)
            cp, sp = cluster_poset(table), stilt_poset(table)
            assert [ml.labels() for ml in sp.elements] == list(cp.elements)
            assert sp.complete == cp.complete == (bound is None)
            same, witness = compare_posets(cp, sp)
            assert same, witness

    def test_requires_dynkin(self, kronecker):
        with pytest.raises(errors.NotDynkin):
            stilt_poset(cluster_table(kronecker, bound=5))

    def test_leq_equals_gen_leq_on_every_pair(self, a3, d4):
        # d4 is the source orientation; D4_CENTRE has vertex 2 in the middle.
        for q in (a3, d4, D4_CENTRE):
            sp = stilt_poset(cluster_table(q))
            m = len(sp.elements)
            expected = [
                [gen_leq(q, sp.elements[i], sp.elements[j]) for j in range(m)]
                for i in range(m)
            ]
            assert sp.leq.tolist() == expected

    def test_elements_equal_per_cluster_realization(self):
        # Sampling each variable once gives the modules realize_cluster
        # gives for each cluster on its own.
        for q in (D4_SOURCE, D4_CENTRE, A5):
            sp = stilt_poset(cluster_table(q), seed=3)
            clusters = enumerate_clusters(q).items
            assert len(sp.elements) == len(clusters)
            for ml, c in zip(sp.elements, clusters):
                assert ml == realize_cluster(q, c, seed=3)

    def test_element_labels_align_with_clusters(self, a2):
        sp = stilt_poset(cluster_table(a2))
        cp = cluster_poset(cluster_table(a2))
        assert [ml.labels() for ml in sp.elements] == [
            tuple(c) for c in cp.elements
        ]


class TestComparePosets:
    def test_detects_difference(self, a2):
        cp = cluster_poset(cluster_table(a2))
        sp = stilt_poset(cluster_table(a2))
        same, witness = compare_posets(cp, sp)
        assert same and witness is None
        flipped = [[bool(cp.leq[i][j]) for j in range(5)] for i in range(5)]
        flipped[3][0] = not flipped[3][0]
        flipped[1][4] = not flipped[1][4]

        class Fake:
            leq = flipped
            elements = cp.elements

        ok, w = compare_posets(cp, Fake())
        assert not ok
        # Both flips differ; the witness is the first in row-major order.
        assert w == (1, 4, bool(cp.leq[1][4]), not cp.leq[1][4])

    def test_witness_under_mapping(self, a3):
        cp = cluster_poset(cluster_table(a3))
        m = len(cp.elements)
        mapping = [(5 * i + 3) % m for i in range(m)]
        assert sorted(mapping) == list(range(m))
        relabelled = [[False] * m for _ in range(m)]
        for i in range(m):
            for j in range(m):
                relabelled[mapping[i]][mapping[j]] = bool(cp.leq[i][j])

        class Fake:
            leq = relabelled
            elements = cp.elements

        assert compare_posets(cp, Fake(), mapping=mapping) == (True, None)
        assert not compare_posets(cp, Fake())[0]
        # Flip (i, j) = (2, 7) and (5, 1) of cp's indexing.  Under the
        # mapping the second sits earlier in Fake's own row-major order, so
        # this pins that the witness is ordered by p1's indices.
        assert (mapping[5], mapping[1]) < (mapping[2], mapping[7])
        for i, j in ((2, 7), (5, 1)):
            relabelled[mapping[i]][mapping[j]] ^= True
        ok, w = compare_posets(cp, Fake(), mapping=mapping)
        assert not ok
        assert w == (2, 7, bool(cp.leq[2][7]), not cp.leq[2][7])

    def test_size_mismatch(self, a2, a3):
        with pytest.raises(errors.SizeMismatch):
            compare_posets(cluster_poset(cluster_table(a2)), cluster_poset(cluster_table(a3)))

    def test_explicit_mapping_permutation(self, a2):
        cp = cluster_poset(cluster_table(a2))
        same, _ = compare_posets(cp, cp, mapping=list(range(5)))
        assert same
        with pytest.raises(errors.SizeMismatch):
            compare_posets(cp, cp, mapping=[0, 0, 1, 2, 3])


class TestCounterSources:
    def test_traced_benchmark_counters_exist(self, a3):
        # The traced benchmark run reads these two sources by name through
        # the package namespace; dropping one leaves its counters absent.
        schur_clusters.e_invariant(a3, (1, 0, 0), (0, 1, 0))
        stats = schur_clusters.e_cache_stats(a3)
        assert {"pairs", "hits", "misses", "summand_sets"} <= set(stats)
        info = schur_clusters.hom_basis.cache_info()._asdict()
        assert {"hits", "misses"} <= set(info)

    def test_traced_benchmark_names_resolve(self):
        # The traced benchmark script is read, not run: every package name
        # it uses must exist, and assemble_poset must take its four
        # positional arguments.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "traced_job.py"
        tree = ast.parse(path.read_text())
        read = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "sc"
        }
        assert "realize_cluster" in read
        assert sorted(name for name in read if not hasattr(schur_clusters, name)) == []
        imports = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module.split(".")[0] == "schur_clusters"
        ]
        assert len(imports) == 2
        for node in imports:
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):  # a submodule not yet imported
                    importlib.import_module(f"{node.module}.{alias.name}")
        inspect.signature(schur_clusters.clusters.assemble_poset).bind(1, 2, 3, 4)
