"""Fraction-free elimination in ``linalg`` against Fraction Gauss–Jordan,
and the rank mod p against the exact rank."""

from fractions import Fraction
from math import lcm, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from schur_clusters import linalg
from schur_clusters.linalg import echelon_basis, null_vectors, nullspace, rank, rank_mod_p

from oracles import nullspace_oracle, rank_oracle, rref_oracle

_ENTRIES = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def matrices(draw):
    """Rows of ints and Fractions, with zero, repeated and combined rows
    mixed in so that rank-deficient inputs are common."""
    ncols = draw(st.integers(min_value=0, max_value=8))
    nrows = draw(st.integers(min_value=0, max_value=8))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "repeat", "combine")))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combine" and rows:
            x = draw(st.sampled_from(rows))
            y = draw(st.sampled_from(rows))
            s = draw(_ENTRIES)
            rows.append([a + s * b for a, b in zip(x, y)])
        else:
            rows.append(draw(st.lists(_ENTRIES, min_size=ncols, max_size=ncols)))
    return rows, ncols


class TestAgainstFractionElimination:
    @settings(max_examples=80, deadline=None)
    @given(matrices())
    def test_rank_and_nullspace_equal_oracle(self, case):
        rows, ncols = case
        r = rank(rows, ncols)
        basis = nullspace(rows, ncols)
        assert r == rank_oracle(rows, ncols)
        assert basis == nullspace_oracle(rows, ncols)
        assert r + len(basis) == ncols
        # The forward-only basis spans the row space: as many rows as the
        # rank, and adding them to the input does not raise it.
        rows_basis = echelon_basis(rows, ncols)
        assert len(rows_basis) == r
        assert all(type(v) is int for row in rows_basis for v in row)
        assert rank_oracle(rows + rows_basis, ncols) == r
        for vec in basis:
            assert len(vec) == ncols
            assert all(type(v) is Fraction for v in vec)
            for row in rows:
                assert sum(a * x for a, x in zip(row, vec)) == 0


class TestIntegerNullVectors:
    @settings(max_examples=80, deadline=None)
    @given(matrices())
    def test_integral_exact_and_equal_to_oracle_over_free_entry(self, case):
        rows, ncols = case
        vectors, den = null_vectors(rows, ncols)
        expected = nullspace_oracle(rows, ncols)
        _, pivots = rref_oracle(rows, ncols)
        free = [c for c in range(ncols) if c not in pivots]
        assert len(vectors) == len(expected) == len(free)
        for vec, f, ref in zip(vectors, free, expected):
            assert len(vec) == ncols
            assert all(type(v) is int for v in vec)
            for row in rows:
                assert sum(a * x for a, x in zip(row, vec)) == 0
            assert vec[f] == den != 0
            assert tuple(Fraction(v, vec[f]) for v in vec) == ref


class TestExamples:
    def test_hilbert_rows_are_scaled_exactly(self):
        n = 6
        hilbert = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
        assert rank(hilbert, n) == n
        assert nullspace(hilbert, n) == []
        # Appending the sum of all columns as a seventh column leaves one
        # null vector, (-1, ..., -1, 1).
        rows = [row + [sum(row)] for row in hilbert]
        assert nullspace(rows, n + 1) == [(Fraction(-1),) * n + (Fraction(1),)]

    def test_tall_rank_deficient_block(self):
        # Twelve rows in three columns, all combinations of two rows with
        # Fraction coefficients: rank 2, whichever row comes first.
        x = [2, -1, 3]
        y = [Fraction(1, 2), 4, 0]
        rows = [[0, 0, 0]] + [
            [Fraction(a) * u + Fraction(b, 3) * v for u, v in zip(x, y)]
            for a, b in ((0, 1), (1, 0), (2, -3), (-1, 1), (5, 5), (0, 0),
                         (3, 0), (1, 1), (-4, 2), (0, -6), (7, 1))
        ]
        assert len(rows) == 12
        assert rank(rows, 3) == rank_oracle(rows, 3) == 2
        assert rank(rows[::-1], 3) == 2
        assert len(echelon_basis(rows, 3)) == 2
        assert nullspace(rows, 3) == nullspace_oracle(rows, 3)

    def test_empty_inputs(self):
        assert rank([], 0) == 0
        assert rank([], 3) == 0
        assert nullspace([], 2) == [
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
        ]
        assert nullspace([[], []], 0) == []


def _hadamard_square(rows) -> int:
    """Product of the squared lengths of the rows scaled to integers (1 for
    a zero row): it bounds the square of every minor of the scaled matrix."""
    out = 1
    for row in rows:
        vals = [Fraction(v) for v in row]
        scale = lcm(*(v.denominator for v in vals)) if vals else 1
        out *= max(1, sum(int(v * scale) ** 2 for v in vals))
    return out


class TestRankModP:
    @settings(max_examples=200, deadline=None)
    @given(matrices())
    def test_never_above_rank_and_equal_below_the_hadamard_bound(self, case):
        rows, ncols = case
        r = rank(rows, ncols)
        rp = rank_mod_p(rows, ncols)
        assert rp <= r
        # Every minor is smaller than p in absolute value, so a nonzero
        # minor stays nonzero mod p and the two ranks are equal.
        if _hadamard_square(rows) < linalg.PRIME**2:
            assert rp == r
        # Full rank mod p is full rank over Q.
        if rp == min(len(rows), ncols):
            assert r == rp

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                    min_size=0, max_size=4))
    def test_equal_on_small_int_rows(self, rows):
        # Four rows in -3..3: every minor is at most 4! * 3^4 = 1944 < p.
        assert rank_mod_p(rows, 4) == rank(rows, 4) == rank_oracle(rows, 4)

    def test_empty_and_zero_inputs(self):
        assert rank_mod_p([], 0) == rank_mod_p([], 3) == 0
        assert rank_mod_p([[], []], 0) == 0
        assert rank_mod_p([[0, 0, 0]] * 4, 3) == 0
        assert rank_mod_p([[0, Fraction(0)], [Fraction(1, 3), 2]], 2) == 1

    def test_multiples_of_p_drop_the_rank(self):
        p = linalg.PRIME
        assert rank_mod_p([[p, 0], [0, 1]], 2) == 1 < rank([[p, 0], [0, 1]], 2)
        # Scaling clears denominators, so 1/p is a unit row, not a zero one.
        assert rank_mod_p([[Fraction(1, p), 1]], 2) == 1
        assert rank_mod_p([[Fraction(p, 2), p]], 2) == 0

    def test_products_stay_below_one_digit(self):
        # CPython ints hold 30 bits per digit; residues below 2^15 multiply
        # inside one digit.
        assert (linalg.PRIME - 1) ** 2 < 2**30
