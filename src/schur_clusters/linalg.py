"""Small exact linear algebra over the rationals.

Just enough for intertwiner spaces: rank, a row echelon basis, a right
null space basis and a rank mod p.  Rows may hold ints or Fractions; null
vectors are ints (``null_vectors``) or Fractions (``nullspace``).

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
- ``null_vectors`` needs the reduced form, so ``_reduce`` also eliminates
  above each pivot (Gauss–Jordan).  Then every pivot row carries ``den`` on
  its pivot and the reduced form is ``mat / den``: with ``den`` on their
  free column, the null vectors are integers.

``rank_mod_p`` is the cheap certificate beside ``rank``: forward
elimination over F_p, p = ``PRIME``, of the integer-scaled rows reduced
mod p.  Since p < 2^15, every product of two residues is below 2^30 and
stays a one-digit Python int.  Its value is never larger than the rank:
if the integer matrix A has rank r over Q, every (r+1)-minor of A is the
integer 0, so it is 0 mod p too, and the rank of A mod p is at most r.
So a rank mod p equal to min(rows, columns) is the rank over Q as well,
and only a smaller value needs ``rank``.

``reps.hom_dim`` turns this into a certificate for dim Hom(M, N).  Its
intertwining equations have dim Hom = unknowns − rank, and unknowns −
equations = <dim M, dim N>, the Euler form.  The rank is at most the
number of equations, so dim Hom ≥ max(0, <dim M, dim N>); over a
hereditary algebra this is dim Hom − dim Ext^1 = <dim M, dim N>.  The
count mod p, unknowns − rank mod p, is at least the count over Q.  So a
count mod p equal to max(0, <dim M, dim N>) is pinched between the two
and exact: it is the case of full rank mod p.  With at least as many
equations as unknowns, full column rank mod p proves Hom = 0.
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


# Below 2^15, so products of residues stay one CPython digit (30 bits).
PRIME = 32749


def rank_mod_p(rows, ncols: int) -> int:
    """Rank over F_p, p = ``PRIME``, of the integer-scaled rows: never more
    than ``rank(rows, ncols)``, and equal to it whenever it reaches
    min(len(rows), ncols).

    The intertwining equations are sparse, so each row is kept as
    {column: nonzero residue}.  Each step takes the last row as pivot row,
    pivots on its lowest column and clears that column from the rows left;
    a row that becomes empty is dropped.
    """
    p = PRIME
    mat = []
    for row in rows:
        entries = {j: x for j, v in enumerate(_integer_row(row)) if (x := v % p)}
        if entries:
            mat.append(entries)
    r = 0
    while mat:
        prow = mat.pop()
        c = min(prow)
        scale = p - pow(prow.pop(c), -1, p)
        tail = [(j, x * scale % p) for j, x in prow.items()]
        rest = []
        for row in mat:
            b = row.pop(c, 0)
            if b:
                # b * y is nonzero mod p, so a zero sum means j was in row.
                for j, y in tail:
                    x = (row.get(j, 0) + b * y) % p
                    if x:
                        row[j] = x
                    else:
                        del row[j]
            if row:
                rest.append(row)
        mat = rest
        r += 1
    return r


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


def null_vectors(rows, ncols: int):
    """(basis, den): integer basis of {x : rows . x = 0}, ``den`` on each
    vector's free column."""
    mat, pivots, den = _reduce(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [0] * ncols
        vec[f] = den
        for row, c in zip(mat, pivots):
            vec[c] = -row[f]
        basis.append(vec)
    return basis, den


def nullspace(rows, ncols: int):
    """Basis of {x : rows . x = 0} as tuples of Fractions."""
    basis, den = null_vectors(rows, ncols)
    return [tuple(Fraction(v, den) for v in vec) for vec in basis]
