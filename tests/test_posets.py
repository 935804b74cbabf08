"""Finite posets, monotone map counting, torsion class counts."""

import os
import random
from collections import Counter
from itertools import product
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schur_clusters import (
    Quiver,
    antichain,
    as_finite_poset,
    build_poset,
    chain,
    cluster_poset,
    cluster_table,
    count_monotone_maps,
    enumerate_monotone_maps,
    errors,
    is_monotone,
    map_poset_leq,
    posets,
    torsion_class_count,
)

from oracles import (
    diamonds_oracle,
    frontier_dp_oracle,
    monotone_maps_bruteforce,
    multichains_oracle,
    random_poset_matrix,
)


def brute(p, l):
    return monotone_maps_bruteforce(
        np.asarray(p.leq).tolist(), np.asarray(l.leq).tolist()
    )


def rand_poset(rng, n):
    return build_poset(n, relation=np.array(random_poset_matrix(rng, n)))


def rand_shuffled_poset(rng, sizes):
    """Disjoint union of random posets of the given sizes, relabelled by a
    random permutation, so that 0, 1, ... need not be a linear extension."""
    n = sum(sizes)
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = []
    base = 0
    for k in sizes:
        leq = random_poset_matrix(rng, k)
        pairs += [
            (perm[base + i], perm[base + j])
            for i in range(k)
            for j in range(k)
            if leq[i][j]
        ]
        base += k
    return build_poset(n, relation=pairs)


def source_poset(rng, shape, n):
    """A random source of n elements, relabelled by a random permutation.

    ``diamond`` is a bottom below n - 2 pairwise incomparable middles below
    a top (a chain when n < 3); ``forest`` hangs each element under a random
    earlier one or makes it a root; ``random`` is two random components.
    """
    if shape == "random":
        split = rng.randint(0, n)
        return rand_shuffled_poset(rng, (split, n - split))
    if shape == "antichain":
        covers = []
    elif shape == "diamond" and n > 2:
        mids = range(1, n - 1)
        covers = [(0, m) for m in mids] + [(m, n - 1) for m in mids]
    elif shape == "diamond":
        covers = [(i, i + 1) for i in range(n - 1)]
    else:
        covers = [(rng.randrange(j), j) for j in range(1, n) if rng.random() < 0.7]
    perm = list(range(n))
    rng.shuffle(perm)
    return build_poset(n, covers=[(perm[i], perm[j]) for i, j in covers])


def zeta(l):
    return np.asarray(l.leq).tolist()


def tamari_intervals(k):
    """Chapoton's count of intervals in the Tamari lattice on Catalan(k) trees."""
    return 2 * factorial(4 * k + 1) // (factorial(k + 1) * factorial(3 * k + 2))


class TestBuild:
    def test_from_covers(self):
        p = build_poset(3, covers=[(0, 1), (1, 2)])
        assert bool(p.leq[0, 2])
        assert not p.leq[2, 0]

    def test_from_relation_requires_closure(self):
        rel = [(0, 1), (1, 2)]  # missing (0, 2)
        with pytest.raises(errors.NotTransitiveClosure):
            build_poset(3, relation=rel)

    def test_antisymmetry_enforced(self):
        with pytest.raises(errors.NotAntisymmetric):
            build_poset(2, covers=[(0, 1), (1, 0)])

    def test_exactly_one_source(self):
        with pytest.raises(ValueError):
            build_poset(2)
        with pytest.raises(ValueError):
            build_poset(2, relation=[(0, 1)], covers=[(0, 1)])

    def test_reflexive_added(self):
        p = build_poset(2, relation=[(0, 1)])
        assert bool(p.leq[0, 0]) and bool(p.leq[1, 1])

    def test_index_range_checked(self):
        with pytest.raises(errors.BadIndex):
            build_poset(2, covers=[(0, 2)])

    def test_names_length(self):
        with pytest.raises(errors.SizeMismatch):
            build_poset(2, covers=[(0, 1)], names=["only-one"])

    def test_chain_antichain(self):
        c = chain(3)
        assert bool(c.leq[0, 2]) and not c.leq[2, 0]
        a = antichain(3)
        assert int(np.asarray(a.leq).sum()) == 3

    def test_hasse_recovers_input(self):
        p = build_poset(4, covers=[(1, 3), (0, 1), (1, 2)])
        assert p.hasse == ((0, 1), (1, 2), (1, 3))
        assert p.elements == (0, 1, 2, 3) and (p.bottom, p.top) == (0, None)

    def test_hasse_long_chain(self):
        # 256 elements lie strictly between the ends: a path count kept in
        # uint8 wraps to 0 there and would report the ends as a cover.
        assert chain(258).hasse == tuple((i, i + 1) for i in range(257))


class TestMonotone:
    def test_is_monotone(self):
        c2 = chain(2)
        assert is_monotone((0, 1), c2, c2)
        assert not is_monotone((1, 0), c2, c2)

    def test_map_validation(self):
        c2 = chain(2)
        with pytest.raises(errors.SizeMismatch):
            is_monotone((0,), c2, c2)
        with pytest.raises(errors.BadIndex):
            is_monotone((0, 5), c2, c2)

    def test_chain_to_chain_count(self):
        # Monotone maps chain(2) -> chain(2): 00, 01, 11.
        assert count_monotone_maps(chain(2), chain(2)) == 3

    def test_antichain_counts_functions(self):
        assert count_monotone_maps(antichain(3), chain(2)) == 8
        assert count_monotone_maps(chain(3), antichain(2)) == 2
        assert count_monotone_maps(antichain(0), antichain(0)) == 1
        assert count_monotone_maps(chain(2), antichain(0)) == 0

    def test_methods_agree_with_bruteforce(self):
        rng = random.Random(20260815)
        for trial in range(12):
            np_ = rng.randint(1, 5)
            nl = rng.randint(1, 4)
            p = rand_poset(rng, np_)
            l = rand_poset(rng, nl)
            expected = brute(p, l)
            assert count_monotone_maps(p, l, method="dp") == expected
            assert count_monotone_maps(p, l, method="backtrack") == expected
            assert count_monotone_maps(p, l) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**30),
        st.sampled_from(["random", "antichain", "diamond", "forest"]),
        st.integers(0, 7),
        st.integers(0, 7),
    )
    @example(0, "antichain", 0, 3)
    @example(1, "antichain", 7, 4)
    @example(2, "diamond", 7, 4)
    @example(3, "forest", 7, 4)
    @example(4, "random", 7, 4)
    @example(5, "antichain", 7, 7)
    def test_dp_equals_backtracking(self, seed, shape, size, codomain):
        # The contraction against the frontier-dict DP and the backtracking
        # walk; every example also tries the codomains of sizes 0 and 1.
        rng = random.Random(seed)
        p = source_poset(rng, shape, size)
        for l in (rand_shuffled_poset(rng, (codomain,)), antichain(0), chain(1)):
            expected = frontier_dp_oracle(zeta(p), zeta(l))
            assert count_monotone_maps(p, l, method="dp") == expected
            assert count_monotone_maps(p, l, method="backtrack") == expected

    def test_exact_past_float64(self):
        # Each count is odd and above 2^53, so no float64 holds it; t holds
        # 2 or 3 digits.
        c101 = chain(101)
        four_tail = [(5, 6), (5, 7), (6, 8), (7, 8)]  # a diamond placed last
        diamond_maps = sum((d - a + 1) ** 2 for d in range(101) for a in range(d + 1))
        cases = [
            (antichain(8), 101**8),
            (build_poset(9, covers=[(7, 8)]), 101**7 * comb(102, 2)),
            (build_poset(9, covers=four_tail), 101**5 * diamond_maps),
            (chain(16), comb(116, 16)),
        ]
        for p, expected in cases:
            got = count_monotone_maps(p, c101)
            assert got > 2**53 and expected % 2 == 1
            assert type(got) is int and got == expected
        assert frontier_dp_oracle(zeta(cases[2][0]), zeta(c101)) == cases[2][1]

    def test_wide_frontier_refused_before_counting(self):
        # k minimal elements under one top need a 5^k-cell array: 5^10 cells
        # are over the limit, 5^9 are not.
        wide = build_poset(11, covers=[(i, 10) for i in range(10)])
        with pytest.raises(errors.LimitExceeded) as info:
            count_monotone_maps(wide, antichain(5))
        assert info.value.info["cells"] == 5**10 > posets.CELL_LIMIT
        narrower = build_poset(10, covers=[(i, 9) for i in range(9)])
        assert count_monotone_maps(narrower, antichain(5)) == 5

    def test_limit_counts_every_digit(self):
        # A chain of c more elements leaves the 5^9-cell frontier alone but
        # raises the bound 5^(10 + c) on the count: 2 digits of 2^49 for
        # c = 12, 5 digits (over the limit) for c = 75.
        def wide_and_chain(c):
            tail = [(j, j + 1) for j in range(10, 9 + c)]
            return build_poset(10 + c, covers=[(i, 9) for i in range(9)] + tail)

        assert count_monotone_maps(wide_and_chain(12), antichain(5)) == 25
        with pytest.raises(errors.LimitExceeded) as info:
            count_monotone_maps(wide_and_chain(75), antichain(5))
        assert info.value.info["cells"] == 5 * 5**9 > posets.CELL_LIMIT

    def test_enumerate_matches_count(self):
        p = chain(3)
        l = chain(3)
        maps = enumerate_monotone_maps(p, l)
        assert len(maps) == count_monotone_maps(p, l) == 10
        assert maps == sorted(maps)
        assert all(is_monotone(f, p, l) for f in maps)

    def test_enumerate_limit(self):
        with pytest.raises(errors.LimitExceeded):
            enumerate_monotone_maps(antichain(8), chain(6), limit=10)

    def test_pointwise_order(self):
        c3 = chain(3)
        assert map_poset_leq((0, 0, 1), (0, 1, 2), c3, c3)
        assert not map_poset_leq((0, 1, 2), (0, 0, 1), c3, c3)


class TestClosedForms:
    """Counts checked against closed forms that run no counting search."""

    def test_chains_count_multichains(self, a4, d4):
        for q in (a4, d4):
            target = as_finite_poset(cluster_poset(cluster_table(q)))
            for k in range(9):
                expected = multichains_oracle(zeta(target), k)
                assert count_monotone_maps(chain(k), target) == expected
        a4_target = as_finite_poset(cluster_poset(cluster_table(a4)))
        assert count_monotone_maps(chain(8), a4_target) == 429478

    def test_linear_a_chain2_counts_tamari_intervals(self):
        counts = []
        for n in range(1, 6):
            q = Quiver(n, [(i, i + 1) for i in range(1, n)])
            target = as_finite_poset(cluster_poset(cluster_table(q)))
            counts.append(count_monotone_maps(chain(2), target))
            assert counts[-1] == tamari_intervals(n + 1)
        assert counts == [3, 13, 68, 399, 2530]

    @pytest.mark.parametrize(
        "n, edges, expected",
        [
            (3, [(1, 2), (2, 3)], {68: 2, 70: 2}),
            (4, [(1, 2), (2, 3), (3, 4)], {399: 2, 422: 4, 433: 2}),
            (4, [(1, 2), (1, 3), (1, 4)], {578: 6, 622: 2}),
        ],
        ids=["A3", "A4", "D4"],
    )
    def test_chain2_counts_depend_on_orientation(self, n, edges, expected):
        # Data, not an invariant: the multiset of counts over all 2^|edges|
        # orientations of the underlying tree.
        counts = Counter()
        for flips in product([False, True], repeat=len(edges)):
            q = Quiver(n, [(b, a) if f else (a, b) for (a, b), f in zip(edges, flips)])
            auto = torsion_class_count(q, chain(2))
            assert torsion_class_count(q, chain(2), method="backtrack") == auto
            counts[auto] += 1
        assert counts == expected

    def test_antichains_count_all_functions(self, a4, d4):
        for q in (a4, d4):
            target = as_finite_poset(cluster_poset(cluster_table(q)))
            for k in range(4):
                assert count_monotone_maps(antichain(k), target) == target.n**k

    @pytest.mark.skipif(
        not os.environ.get("SCHUR_CLUSTERS_LARGE"),
        reason="stretch target; set SCHUR_CLUSTERS_LARGE=1 to run",
    )
    def test_e6_chain3_stretch(self, e6):
        target = as_finite_poset(cluster_poset(cluster_table(e6)))
        assert torsion_class_count(e6, chain(3)) == 3532853
        assert multichains_oracle(zeta(target), 3) == 3532853

    @pytest.mark.skipif(
        not os.environ.get("SCHUR_CLUSTERS_LARGE"),
        reason="stretch target; set SCHUR_CLUSTERS_LARGE=1 to run",
    )
    def test_e6_diamond_stretch(self, e6):
        diamond = build_poset(4, covers=[(0, 1), (0, 2), (1, 3), (2, 3)])
        target = as_finite_poset(cluster_poset(cluster_table(e6)))
        assert torsion_class_count(e6, diamond) == 424974105
        assert diamonds_oracle(zeta(target)) == 424974105


class TestTorsionCounts:
    def test_point_counts_clusters(self, a2):
        assert torsion_class_count(a2, chain(1)) == 5

    def test_two_chain_counts_leq_pairs(self, a2):
        assert torsion_class_count(a2, chain(2)) == 13

    def test_rank_one_chains(self, a1):
        # Target order is a 2-chain; maps from a k-chain: k + 1.
        for k in range(1, 8):
            assert torsion_class_count(a1, chain(k)) == k + 1

    def test_methods_agree(self, a3):
        p = build_poset(4, covers=[(0, 1), (0, 2), (1, 3), (2, 3)])
        dp = torsion_class_count(a3, p, method="dp")
        bt = torsion_class_count(a3, p, method="backtrack")
        assert dp == bt

    def test_requires_dynkin(self, kronecker):
        with pytest.raises(errors.NotDynkin):
            torsion_class_count(kronecker, chain(1))

    def test_matches_bruteforce_into_pentagon(self, a2):
        target = as_finite_poset(cluster_poset(cluster_table(a2)))
        rng = random.Random(7)
        for _ in range(6):
            n = rng.randint(1, 4)
            p = rand_poset(rng, n)
            assert torsion_class_count(a2, p) == brute(p, target)


class TestAsFinitePoset:
    def test_names_and_order_preserved(self, a2):
        cp = cluster_poset(cluster_table(a2))
        fp = as_finite_poset(cp)
        assert fp.n == 5
        assert np.array_equal(np.asarray(fp.leq), np.asarray(cp.leq))
        assert fp.hasse == cp.hasse and (fp.top, fp.bottom) == (cp.top, cp.bottom)
        assert all(isinstance(name, str) for name in fp.elements)
        assert any("-e1" in name for name in fp.elements)
