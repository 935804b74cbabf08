"""Fraction-free elimination in ``linalg`` against Fraction Gauss–Jordan."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from schur_clusters.linalg import echelon_basis, nullspace, rank

from oracles import nullspace_oracle, rank_oracle

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
