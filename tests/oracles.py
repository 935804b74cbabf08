"""Independent oracles for the test suite.

Everything here recomputes expected values from first principles with
deliberately different algorithms than the package: box scans instead of
reflection orbits, exhaustive function enumeration instead of dynamic
programming, direct path counting instead of linear recursions, Fraction
Gauss–Jordan instead of fraction-free integer elimination, a sparse dict
frontier instead of a dense zeta-matrix contraction.  Test modules
freeze values produced by these oracles and compare the package against
them.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import product

import numpy as np


def euler_matrix_oracle(n: int, arrows) -> list[list[int]]:
    """Euler form matrix rebuilt directly from the arrow list."""
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for s, t in arrows:
        mat[s - 1][t - 1] -= 1
    return mat


def tits_oracle(n: int, arrows, x) -> int:
    mat = euler_matrix_oracle(n, arrows)
    return sum(x[i] * mat[i][j] * x[j] for i in range(n) for j in range(n))


def roots_by_box_scan(n: int, arrows, box: int) -> set[tuple[int, ...]]:
    """All nonzero vectors in [0, box]^n with Tits form 1.

    For a Dynkin quiver with box at least the largest root entry this is
    exactly the set of positive real roots (positive definiteness makes
    every q=1 lattice vector a root).
    """
    return {
        x
        for x in product(range(box + 1), repeat=n)
        if any(x) and tits_oracle(n, arrows, x) == 1
    }


def reflect_oracle(n: int, arrows, i: int, x) -> tuple[int, ...]:
    """Simple reflection at vertex i (1-based), from raw arrow counts."""
    pairing = 2 * x[i - 1]
    for s, t in arrows:
        if s == i and t != i:
            pairing -= x[t - 1]
        elif t == i and s != i:
            pairing -= x[s - 1]
    out = list(x)
    out[i - 1] -= pairing
    return tuple(out)


def path_count_oracle(n: int, arrows, src: int, dst: int) -> int:
    """Number of directed paths src -> dst, by memoized DFS."""
    seen: dict[int, int] = {}

    def go(v: int) -> int:
        if v == dst:
            return 1
        if v in seen:
            return seen[v]
        total = sum(go(t) for s, t in arrows if s == v)
        seen[v] = total
        return total

    return go(src)


def projectives_oracle(n: int, arrows) -> list[tuple[int, ...]]:
    """Dimension vector of each indecomposable projective: paths from i."""
    return [
        tuple(path_count_oracle(n, arrows, i, j) for j in range(1, n + 1))
        for i in range(1, n + 1)
    ]


def monotone_maps_bruteforce(p_leq, l_leq) -> int:
    """Count order-preserving maps by scanning every function."""
    np_, nl = len(p_leq), len(l_leq)
    count = 0
    for f in product(range(nl), repeat=np_):
        if all(
            l_leq[f[i]][f[j]]
            for i in range(np_)
            for j in range(np_)
            if p_leq[i][j]
        ):
            count += 1
    return count


def multichains_oracle(l_leq, k: int) -> int:
    """Monotone maps chain(k) -> L, i.e. multichains x1 <= ... <= xk in L.

    Closed form 1^T Z^(k-1) 1 with Z the zeta matrix of L, evaluated as
    repeated exact-int matrix-vector products; uses no counting search.
    """
    if k == 0:
        return 1
    n = len(l_leq)
    vec = [1] * n
    for _ in range(k - 1):
        vec = [sum(vec[j] for j in range(n) if l_leq[i][j]) for i in range(n)]
    return sum(vec)


def frontier_dp_oracle(p_leq, l_leq) -> int:
    """Count monotone maps by a dynamic program over a dict of frontier states.

    The reference for ``posets``' dense zeta-matrix contraction, which
    walks the same frontier.  Elements are placed by increasing down-set
    size, a linear extension.  A map is monotone once it is monotone on
    every cover, because l is transitive, so an element only constrains
    its upper covers and leaves the frontier once the last of them has
    been placed; states are the value tuples on that frontier.  The values
    allowed for the next element are the AND of the up-sets of its lower
    covers' values, each an int bitset over l.  An element that does not
    stay on the frontier multiplies a state's count by the number of
    allowed values instead of branching on them.  Counts are exact ints.
    """
    n, m = len(p_leq), len(l_leq)

    def less(i, j):
        return i != j and p_leq[i][j]

    order = sorted(range(n), key=lambda j: sum(p_leq[i][j] for i in range(n)))
    step = {e: k for k, e in enumerate(order)}
    lower = [
        [i for i in range(n)
         if less(i, j) and not any(less(i, c) and less(c, j) for c in range(n))]
        for j in range(n)
    ]
    last_upper = [-1] * n
    for j in range(n):
        for i in lower[j]:
            last_upper[i] = max(last_upper[i], step[j])
    up = [sum(1 << b for b in range(m) if l_leq[a][b]) for a in range(m)]
    everything = (1 << m) - 1
    frontier: list[int] = []
    states = {(): 1}
    for k, e in enumerate(order):
        slots = [frontier.index(c) for c in lower[e]]
        kept = [s for s, c in enumerate(frontier) if last_upper[c] > k]
        stays = last_upper[e] > k
        new_states: dict[tuple, int] = defaultdict(int)
        for state, cnt in states.items():
            allowed = everything
            for s in slots:
                allowed &= up[state[s]]
            rest = tuple(state[s] for s in kept)
            if not stays:
                if allowed:
                    new_states[rest] += cnt * allowed.bit_count()
                continue
            while allowed:
                low = allowed & -allowed
                new_states[rest + (low.bit_length() - 1,)] += cnt
                allowed ^= low
        states = new_states
        frontier = [frontier[s] for s in kept] + ([e] if stays else [])
    return sum(states.values())


def diamonds_oracle(l_leq) -> int:
    """Monotone maps from the diamond a < b, c < d into L: sum((Z Z) o (Z Z)).

    (Z Z)[a, d] counts the b with a <= b <= d, and b and c are chosen
    independently.  Z Z is an int64 product whose entries are at most |L|;
    the squares are summed as Python ints, so no step can wrap.
    """
    zeta = np.array(l_leq, dtype=np.int64)
    return sum(v * v for v in (zeta @ zeta).ravel().tolist())


def random_poset_matrix(rng, n: int) -> list[list[bool]]:
    """Random poset on 0..n-1 as a reflexive-transitive leq matrix.

    Seeds a random relation only from lower to higher index (hence acyclic)
    and takes the reflexive-transitive closure.
    """
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                leq[i][j] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    return leq


def cover_pairs(leq) -> tuple[tuple[int, int], ...]:
    """Cover pairs (i, j), i covered by j, of an order matrix, in row-major
    order: i < j with nothing strictly between, from numpy's dense bool
    product.  The reference for ``assemble_poset``'s bitset square."""
    lt = np.asarray(leq, dtype=bool) & ~np.eye(len(leq), dtype=bool)
    return tuple(map(tuple, np.argwhere(lt & ~(lt @ lt)).tolist()))


def containing(table, groups) -> np.ndarray:
    """contains[g, c]: cluster c of ``table`` holds every variable of group
    g, a collection of the table's variables, so g has no member outside c.
    One dense bool product with the membership matrix: the reference for
    ``verify``'s precluster-extension walk, with ``complete_to_cluster``'s
    own search as its reference in turn."""
    index = {v: i for i, v in enumerate(table.variables)}
    rows = np.zeros((len(groups), len(table.variables)), dtype=bool)
    for row, g in zip(rows, groups):
        row[[index[v] for v in g]] = True
    return ~(rows @ ~table.members.T)


def dense_cluster_order(table) -> np.ndarray:
    """leq[t, s]: cluster t lies below cluster s, from two dense bool
    products over the membership matrix M and its negative columns N:
    s >= t exactly when (M nz M^T)[s, t] and (N (not N)^T)[s, t] are both
    false.  The reference for ``cluster_poset``'s packed member rows."""
    members = table.members
    neg = members[:, table.negative]
    geq = ~(members @ table.nz @ members.T) & ~(neg @ ~neg.T)
    return geq.T


def rref_oracle(rows, ncols):
    """Reduced row echelon form by textbook Gauss–Jordan over ``Fraction``.

    Returns (mat, pivots).  The reference for ``linalg``'s fraction-free
    integer elimination: every pivot is normalised to 1 as it is chosen.
    """
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        p = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def rank_oracle(rows, ncols: int) -> int:
    return len(rref_oracle(rows, ncols)[1])


def nullspace_oracle(rows, ncols: int):
    """Basis of {x : rows . x = 0}: one vector per free column of the RREF."""
    mat, pivots = rref_oracle(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -mat[r][f]
        basis.append(tuple(vec))
    return basis


def hom_dim_oracle(arrows, m, n) -> int:
    """dim Hom(m, n) for representations with ``dims`` and ``matrices``,
    ranked by Bareiss alone: ``linalg.rank``, the exact path with no
    certificate mod p (``rank`` itself is checked against ``rank_oracle``).

    The equations are rebuilt here with the unknowns phi_i[r][c] numbered
    column-major, one block per vertex: for each arrow a = s -> t, entry
    (r, c) of phi_t . m_a - n_a . phi_s.
    """
    from schur_clusters.linalg import rank

    index = {}
    for i, (dm, dn) in enumerate(zip(m.dims, n.dims)):
        for c in range(dm):
            for r in range(dn):
                index[i, r, c] = len(index)
    rows = []
    for a, (s, t) in enumerate(arrows):
        s, t = s - 1, t - 1
        for r in range(n.dims[t]):
            for c in range(m.dims[s]):
                row = [0] * len(index)
                for j in range(m.dims[t]):
                    row[index[t, r, j]] += m.matrices[a][j][c]
                for k in range(n.dims[s]):
                    row[index[s, k, c]] -= n.matrices[a][r][k]
                rows.append(row)
    return len(index) - rank(rows, len(index))


class PairRecursionOracle:
    """The two-sided E-invariant recursion over exact Python integers.

        e(x, 0) = e(0, y) = 0
        e(x, y) = max { -<x', y - y'> : x' in S(x), y' in S(y) }
        S(x) = { x' : 0 <= x' <= x, e(x', x - x') = 0 }

    Every pair and every summand set is memoized on the instance, so one
    oracle serves one quiver.  It is the reference for ``einv``, which
    fills the summand sets bottom-up from the one-sided form instead.
    """

    def __init__(self, n: int, arrows):
        self.mat = euler_matrix_oracle(n, arrows)
        self.pairs: dict = {}
        self.sets: dict = {}

    def summands(self, x) -> tuple[tuple[int, ...], ...]:
        """S(x) in (height, lex) order."""
        x = tuple(x)
        found = self.sets.get(x)
        if found is None:
            subs = product(*(range(a + 1) for a in x))
            found = tuple(
                xp
                for xp in sorted(subs, key=lambda v: (sum(v), v))
                if self.e(xp, tuple(a - b for a, b in zip(x, xp))) == 0
            )
            self.sets[x] = found
        return found

    def e(self, x, y) -> int:
        x, y = tuple(x), tuple(y)
        if not any(x) or not any(y):
            return 0
        found = self.pairs.get((x, y))
        if found is None:
            n = len(x)
            rows = [
                [sum(xp[i] * self.mat[i][j] for i in range(n)) for j in range(n)]
                for xp in self.summands(x)
            ]
            found = max(
                -sum(r[j] * (y[j] - yp[j]) for j in range(n))
                for r in rows
                for yp in self.summands(y)
            )
            self.pairs[(x, y)] = found
        return found


def e_sweep_oracle(q, box: int):
    """The E-formula sweep as one package call per pair: (pairs, mismatch).

    For every x, then every y, of the box 0 <= x, y <= (box, ..., box) in C
    order, compare ``e_invariant`` with both values of ``e_invariant_alt``
    and stop at the first pair where they differ.  ``mismatch`` is that
    (x, y, e, right, left) or None; ``pairs`` counts the pairs up to it.
    It is the per-pair reference for ``einv.box_sweep``.
    """
    from schur_clusters import e_invariant, e_invariant_alt

    sweep = list(product(range(box + 1), repeat=q.n))
    pairs = 0
    for x in sweep:
        for y in sweep:
            pairs += 1
            e = e_invariant(q, x, y)
            right, left = e_invariant_alt(q, x, y)
            if not (e == right == left):
                return pairs, (x, y, e, right, left)
    return pairs, None


def generation_table_oracle(q, modules, members) -> np.ndarray:
    """G[x, c]: module x is generated by the modules of cluster c (the
    columns set in row c of ``members``), one ``reps._generated`` trace
    check per (module, cluster) from fresh Hom bases.  The reference for
    ``stilt_poset``'s table, which reads ranks of reduced image bases and
    settles most entries by rank bounds."""
    from schur_clusters.reps import _generated

    return np.array(
        [
            [_generated(q, x, tuple(modules[k] for k in np.flatnonzero(row))) for row in members]
            for x in modules
        ],
        dtype=bool,
    )


def box_fill_oracle(emat, top) -> dict:
    """S(w) for every w of the box 0 <= w <= top, one cell at a time.

    The per-cell fill ``einv`` ran before its level fill: cells in C order,
    a dense bool table Z[a, b] = (e(a, b) == 0), each S(w) the sub-box
    a <= w masked by one strided anti-diagonal view of Z, and each row
    Z[w] one product of S(w) . E with the sub-box b <= top - w.  Returns
    {w: S(w)} with each set as int64 rows in C order, the layout of
    ``einv``'s stored sets.  The reference for ``einv._fill``.
    """
    shape = tuple(t + 1 for t in top)
    cells = int(np.prod(shape))
    grid = np.indices(shape, dtype=np.int64)
    box = np.moveaxis(grid, 0, -1)
    ebt = np.tensordot(np.asarray(emat, dtype=np.float64), grid, 1)
    z = np.zeros((cells, cells), dtype=bool)
    z[:, 0] = True  # e(a, 0) = 0: S(w) keeps w itself
    rows = z.reshape((cells,) + shape)
    # anti[w_idx][a] = Z[a, w - a], at w_idx + idx(a) * (cells - 1) in z.
    steps = tuple(st * (cells - 1) for st in rows.strides[1:])
    anti = np.lib.stride_tricks.as_strided(z, rows.shape, (1,) + steps, writeable=False)
    belows = product(*([slice(a + 1) for a in range(m)] for m in shape))
    rests = product(*([slice(m - a) for a in range(m)] for m in shape))
    sets = {}
    cuts = zip(product(*map(range, shape)), belows, rests)
    for w_idx, (w, below, rest) in enumerate(cuts):
        s = sets[w] = box[below][anti[(w_idx,) + below]]
        cols = ebt[(slice(None),) + rest]
        low = np.minimum.reduce(s @ cols.reshape(len(cols), -1))
        rows[(w_idx,) + rest] = low.reshape(cols.shape[1:]) >= 0
    return sets


def schur_probe_oracle(q, alpha, budget: int = 64, seed: int = 0) -> bool:
    """Whether ``alpha`` is a Schur root, read off sampled modules alone.

    True when ``reps.sample_exceptional`` finds a module of dimension
    ``alpha`` with End = Q within ``budget`` attempts (``hom_dim`` checks it
    again).  Otherwise ``budget`` further modules are drawn here, with wider
    entries, and each must have dim End >= 2: dim End is upper
    semicontinuous, so if one module of dimension ``alpha`` has End = Q so
    does a general one, and a non-Schur ``alpha`` has no such module at all.
    A draw with End = Q after the search failed is a sampling miss on a
    Schur root, and fails the assertion rather than answering.  Meant for
    vectors of Tits form 1, where End = Q is also Ext^1 = 0.
    """
    import random

    from schur_clusters.errors import ProbeExhausted
    from schur_clusters.reps import Representation, hom_dim, sample_exceptional

    try:
        rep = sample_exceptional(q, alpha, seed=seed, budget=budget)
    except ProbeExhausted:
        pass
    else:
        assert hom_dim(q, rep, rep) == 1, alpha
        return True
    rng = random.Random(repr((q.arrows, alpha, seed)))
    for _ in range(budget):
        mats = tuple(
            tuple(tuple(rng.randint(-9, 9) for _ in range(alpha[s - 1]))
                  for _ in range(alpha[t - 1]))
            for s, t in q.arrows
        )
        rep = Representation(tuple(alpha), mats)
        assert hom_dim(q, rep, rep) >= 2, (alpha, mats)
    return False
