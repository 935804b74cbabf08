"""Small exact linear algebra over the rationals.

Just enough for intertwiner spaces: rank, a row echelon basis and a right
null space basis.  Rows may hold ints or Fractions; null vectors are
Fractions.

Both eliminations are fraction-free over Python ints (Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math.
Comp. 22, 1968).  Each row is first scaled to integers by the lcm of its
denominators, which changes neither its span nor the reduced row echelon
form.  With ``den`` the previous pivot (initially 1) and ``a`` the new pivot
in column c, a row x with entry b in column c becomes
``(a*x - b*pivot_row) // den``.  By Sylvester's identity every entry is then
a minor of the scaled input, so the division is exact.

- ``rank`` and ``echelon_basis`` need only the forward half: each pivot
  updates the rows below it, and only from its own column on, since every
  earlier column of those rows is already zero.  The rows stay an invertible
  recombination of the input, so the nonzero ones are an exact basis of the
  row space and their count is the rank.
- ``nullspace`` needs the reduced form, so ``_reduce`` also eliminates
  above each pivot (Gauss–Jordan).  Then every pivot row carries ``den`` on
  its pivot and the reduced form is ``mat / den``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _integer_row(row) -> list[int]:
    if all(type(v) is int for v in row):
        return list(row)
    vals =[v if type(v) is int else Fraction(v) for v in row]
    scale = lcm(*(v.denominator for v in vals))
    return [v.numerator * (scale // v.denominator) for v in vals]


def echelon_basis(rows, ncols: int) -> list[list[int]]:
    """Integer rows in row echelon form spanning the same space as ``rows``
    (forward fraction-free elimination)."""
    mat = [_integer_row(row) for row in rows]
    den = 1
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        prow = mat[r]
        a = prow[c]
        tail = prow[c:]
        for i in range(r + 1, len(mat)):
            row = mat[i]
            b = row[c]
            if b:
                row[c:] = [(a * x - b * y) // den for x, y in zip(row[c:], tail)]
            elif a != den:
                row[c:] = [a * x // den for x in row[c:]]
        den = a
        r += 1
    return mat[:r]


def rank(rows, ncols: int) -> int:
    return len(echelon_basis(rows, ncols))


def _reduce(rows, ncols):
    """Fraction-free Gauss–Jordan: (mat, pivots, den) with the reduced row
    echelon form of ``rows`` equal to ``mat / den``."""
    mat = [_integer_row(row) for row in rows]
    pivots = []
    den = 1
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        prow = mat[r]
        a = prow[c]
        for i, row in enumerate(mat):
            if i == r:
                continue
            b = row[c]
            if b:
                mat[i] = [(a * x - b * y) // den for x, y in zip(row, prow)]
            elif a != den:
                mat[i] = [a * x // den for x in row]
        den = a
        pivots.append(c)
        r += 1
    return mat, pivots, den


def nullspace(rows, ncols: int):
    """Basis of {x : rows . x = 0} as tuples of Fractions."""
    mat, pivots, den = _reduce(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = Fraction(-mat[r][f], den)
        basis.append(tuple(vec))
    return basis
