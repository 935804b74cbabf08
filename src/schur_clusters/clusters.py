"""Cluster combinatorics on the variables Phi(real Schur roots) + negative simples.

A cluster variable is stored as a plain integer vector: either a positive
real Schur root, or minus a simple root (exactly one entry -1).  A set of
variables is a precluster when the extension invariant vanishes on every
ordered pair of positive members and no negative simple touches the support
of a positive member.  Clusters are the maximal preclusters; they all have
exactly as many elements as the quiver has vertices, which the enumeration
asserts rather than assumes.

One ``ClusterTable`` per (quiver, bound, seed, budget), passed to every
consumer, holds the variables, the compatibility graph on their indices,
its cliques (preclusters) and maximal cliques (clusters).  The graph and
the cluster order come from one matrix of nonvanishing extension
invariants, ``einv.e_nonzero``: on a Dynkin quiver the closed form
<a, b> < 0 on positive roots (Ringel 1984; Marsh-Reineke-Zelevinsky 2003),
elsewhere filled from ``einv.e_invariant``.  The per-pair predicates
(``compatible``, ``is_precluster``, ``cluster_geq``), the subset scan and
``complete_to_cluster``'s own search are kept as references.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

import numpy as np

from .einv import e_invariant, e_nonzero, real_schur_roots
from .errors import BadIndex, CompletionNotFound, NotAPartialOrder, NotAPrecluster
from .quiver import DimVec, Quiver, Record, support, tits_form, unit


def negative_simple(q: Quiver, i: int) -> DimVec:
    """Minus the i-th simple root (1-based vertex index)."""
    if not 1 <= i <= q.n:
        raise BadIndex(f"vertex {i} outside 1..{q.n}")
    return tuple(-a for a in unit(q.n, i))


def classify_variable(v: DimVec) -> str | None:
    """'pos' for a nonzero nonnegative vector, 'neg' for minus a simple root,
    None for anything else."""
    if any(a > 0 for a in v):
        return "pos" if all(a >= 0 for a in v) else None
    if sum(1 for a in v if a == -1) == 1 and all(a in (0, -1) for a in v):
        return "neg"
    return None


def neg_vertex(v: DimVec) -> int:
    """The (1-based) vertex of a negative simple variable."""
    return next(i + 1 for i, a in enumerate(v) if a < 0)


def var_key(v: DimVec) -> tuple:
    """Canonical order: negative simples by vertex, then roots by (height, lex)."""
    if any(a < 0 for a in v):
        return (0, neg_vertex(v), v)
    return (1, sum(v), v)


def cluster_key(s) -> tuple:
    return tuple(var_key(v) for v in s)


def format_variable(v: DimVec) -> str:
    if any(a < 0 for a in v):
        return f"-e{neg_vertex(v)}"
    return "(" + ",".join(str(a) for a in v) + ")"


def split_variables(s):
    """Split into (positive roots, negative simples), each canonically sorted."""
    pos = sorted((v for v in s if any(a > 0 for a in v)), key=var_key)
    neg = sorted((v for v in s if any(a < 0 for a in v)), key=var_key)
    return tuple(pos), tuple(neg)


def is_precluster(q: Quiver, s) -> tuple[bool, str | None]:
    """Check the precluster conditions; reports the first violation.

    Positive members must be plausible cluster variables: unit Tits form
    plus vanishing self-extension invariant, which together pin down exactly
    the real Schur roots.  The vanishing is then tested on every ordered
    pair (the diagonal is covered by the membership check).
    """
    svars = []
    for v in s:
        v = q.check_dimvec(v, allow_negative=True)
        if v not in svars:
            svars.append(v)
    for v in svars:
        if classify_variable(v) is None:
            return (False, f"{v} is neither a positive vector nor a negative simple")
    pos, neg = split_variables(svars)
    for a in pos:
        tf = tits_form(q, a)
        if tf != 1:
            return (False, f"tits form of {a} is {tf}, not 1")
    for a in pos:
        for b in pos:
            val = e_invariant(q, a, b)
            if val != 0:
                return (False, f"e({a}, {b}) = {val} != 0")
    for v in neg:
        i = neg_vertex(v)
        for a in pos:
            if i in support(a):
                return (False, f"-e{i} meets the support of {a}")
    return (True, None)


def is_positive_precluster(q: Quiver, s) -> bool:
    """A precluster with no negative members."""
    if any(any(a < 0 for a in q.check_dimvec(v, allow_negative=True)) for v in s):
        return False
    return is_precluster(q, s)[0]


def compatible(q: Quiver, u: DimVec, v: DimVec) -> bool:
    """Pairwise compatibility of two distinct, well-formed variables."""
    u_neg = any(a < 0 for a in u)
    v_neg = any(a < 0 for a in v)
    if u_neg and v_neg:
        return True
    if u_neg:
        return neg_vertex(u) not in support(v)
    if v_neg:
        return neg_vertex(v) not in support(u)
    return e_invariant(q, u, v) == 0 and e_invariant(q, v, u) == 0


class Enumeration(Record):
    """A canonically sorted enumeration result.

    ``complete`` is False when a height bound truncated the variable set, in
    which case items are exactly the answers within the bound.
    """

    items: tuple
    complete: bool
    height_bound: int | None

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        return self.items[i]

    def __contains__(self, x):
        return x in self.items


def _compat_matrix(q: Quiver, variables):
    """The compatibility matrix of ``variables`` and its E matrix.

    Returns ``(compat, nz)``, both V x V boolean.  ``nz[a, b]`` says
    e(a, b) != 0 for positive a and b and is False wherever a negative
    simple takes part.  ``compat`` agrees with ``compatible`` off the
    diagonal and is False on it: positive pairs need nz false both ways, a
    negative simple -e_i and a positive v need v_i = 0, and two negative
    simples always go together.
    """
    m = len(variables)
    vecs = np.array(variables, dtype=np.int64).reshape(m, q.n)
    positive = (vecs >= 0).all(axis=1)
    nz = np.zeros((m, m), dtype=bool)
    nz[np.ix_(positive, positive)] = e_nonzero(q, vecs[positive])
    # meets[u, v]: u is some -e_i and v is positive with v_i != 0.
    meets = np.maximum(-vecs, 0) @ np.maximum(vecs, 0).T != 0
    compat = ~(nz | nz.T | meets | meets.T)
    np.fill_diagonal(compat, False)
    return compat, nz


def _cliques(compat):
    """Every clique of the graph with adjacency matrix ``compat``, empty one
    first.

    Yields ``(indices, maximal)`` with ``indices`` an increasing index tuple.
    The search is a depth-first walk over int-bitset neighbour rows built
    once from the matrix; extending only by larger indices makes the walk
    visit cliques in lexicographic order.  A clique is maximal when no
    vertex is adjacent to all of its members.
    """
    rows = [
        int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
        for row in compat
    ]

    def walk(clique, common, ahead):
        # common: variables compatible with every member; ahead: those of
        # them past the last member, taken lowest index first.
        yield clique, common == 0
        while ahead:
            low = ahead & -ahead
            ahead ^= low
            j = low.bit_length() - 1
            yield from walk(clique + (j,), common & rows[j], ahead & rows[j])

    everyone = (1 << len(rows)) - 1
    yield from walk((), everyone, everyone)


class ClusterTable(Record, eq=False):
    """The cluster variables of one quiver, built by ``cluster_table``.

    ``variables`` are in canonical order; ``compat`` and ``nz`` are their
    ``_compat_matrix`` and ``negative`` marks the negative simples.
    ``clusters`` (index tuples, in lexicographic order) and their membership
    matrix ``members`` are found on first use, so a caller can refuse a
    large table between its variables and the clique search.  The arrays
    are read-only, since consumers share the table.
    """

    quiver: Quiver
    variables: tuple[DimVec, ...]
    complete: bool
    height_bound: int | None
    compat: np.ndarray
    nz: np.ndarray
    negative: np.ndarray

    @cached_property
    def clusters(self) -> tuple[tuple[int, ...], ...]:
        """The maximal cliques of ``compat`` with n members, asserting that
        no clique is larger and, on a complete set, none maximal smaller."""
        n = self.quiver.n
        found = []
        for clique, maximal in _cliques(self.compat):
            if len(clique) > n:
                raise RuntimeError(
                    f"internal error: {len(clique)} pairwise compatible variables "
                    f"on a quiver with {n} vertices"
                )
            if maximal and self.complete and len(clique) != n:
                raise RuntimeError(
                    "internal error: a maximal compatible set of size "
                    f"{len(clique)} != {n} on a Dynkin quiver"
                )
            if maximal and len(clique) == n:
                found.append(clique)
        return tuple(found)

    @cached_property
    def members(self) -> np.ndarray:
        """M[c, v]: cluster c holds variable v."""
        m = np.zeros((len(self.clusters), len(self.variables)), dtype=bool)
        for row, c in zip(m, self.clusters):
            row[list(c)] = True
        m.setflags(write=False)
        return m

    def preclusters(self, positive_only: bool = False) -> tuple[tuple[int, ...], ...]:
        """Every clique of ``compat``, the empty one included, ordered by
        size and then lexicographically; ``positive_only`` leaves out the
        negative simples."""
        keep = np.flatnonzero(~self.negative | (not positive_only))
        sub = self.compat[np.ix_(keep, keep)]
        found = [tuple(keep[list(c)].tolist()) for c, _ in _cliques(sub)]
        return tuple(sorted(found, key=lambda c: (len(c), c)))

    def enumeration(self, cliques) -> Enumeration:
        """Index tuples as an ``Enumeration`` of variable tuples."""
        v = self.variables
        items = tuple(tuple(v[i] for i in c) for c in cliques)
        return Enumeration(items, self.complete, self.height_bound)

    def containing(self, groups) -> np.ndarray:
        """contains[g, c]: cluster c holds every variable of group g, a
        collection of this table's variables; g has no member outside c."""
        index = {v: i for i, v in enumerate(self.variables)}
        rows = np.zeros((len(groups), len(self.variables)), dtype=bool)
        for row, g in zip(rows, groups):
            row[[index[v] for v in g]] = True
        return ~(rows @ ~self.members.T)


def cluster_table(
    q: Quiver, bound: int | None = None, seed: int = 0, budget: int = 8
) -> ClusterTable:
    """The ``ClusterTable`` of ``q``: negative simples and the real Schur
    roots of ``einv.real_schur_roots(q, bound, seed, budget)``."""
    roots = real_schur_roots(q, bound=bound, seed=seed, budget=budget)
    negs = [negative_simple(q, i) for i in range(1, q.n + 1)]
    variables = tuple(sorted(negs + list(roots.roots), key=var_key))
    compat, nz = _compat_matrix(q, variables)
    negative = np.array([any(a < 0 for a in v) for v in variables], dtype=bool)
    for a in (compat, nz, negative):
        a.setflags(write=False)
    return ClusterTable(q, variables, roots.complete, bound, compat, nz, negative)


def cluster_variables(
    q: Quiver, bound: int | None = None, seed: int = 0, budget: int = 8
) -> tuple[DimVec, ...]:
    """All cluster variables: negative simples then real Schur roots."""
    return cluster_table(q, bound, seed, budget).variables


def enumerate_clusters(
    q: Quiver, bound: int | None = None, seed: int = 0, budget: int = 8
) -> Enumeration:
    """All clusters: size-n subsets of pairwise compatible variables.

    These are the maximal cliques of the compatibility graph.  On a complete
    variable set every maximal clique must have exactly n members (maximal
    preclusters are clusters); that fact is asserted at runtime.
    """
    table = cluster_table(q, bound, seed, budget)
    return table.enumeration(table.clusters)


def subset_scan(q: Quiver, variables) -> tuple:
    """The size-n subsets of ``variables`` that pass ``is_precluster``, as
    canonically sorted variable tuples: the clique search's oracle."""
    found = []
    for combo in combinations(variables, q.n):
        if is_precluster(q, combo)[0]:
            found.append(tuple(sorted(combo, key=var_key)))
    found.sort(key=cluster_key)
    return tuple(found)


def enumerate_clusters_naive(
    q: Quiver, bound: int | None = None, seed: int = 0, budget: int = 8
) -> tuple:
    """Subset-scan oracle for cluster enumeration (no clique search)."""
    return subset_scan(q, cluster_table(q, bound, seed, budget).variables)


def enumerate_preclusters(
    q: Quiver,
    positive_only: bool = False,
    bound: int | None = None,
    seed: int = 0,
    budget: int = 8,
) -> Enumeration:
    """All preclusters (cliques of the compatibility graph, plus the empty set)."""
    table = cluster_table(q, bound, seed, budget)
    return table.enumeration(table.preclusters(positive_only))


def complete_to_cluster(
    q: Quiver, s, bound: int | None = None, seed: int = 0, budget: int = 8
) -> tuple:
    """Extend a precluster to a cluster, returning the lexicographically least
    extension in canonical variable order (negative simples first).

    Candidates pass ``compatible`` with every member; this search is the
    reference for ``ClusterTable.containing``.  Dynkin quivers always admit
    a completion.  With a height bound the search may legitimately fail,
    which raises CompletionNotFound.
    """
    svars = sorted({q.check_dimvec(v, allow_negative=True) for v in s}, key=var_key)
    ok, why = is_precluster(q, svars)
    if not ok:
        raise NotAPrecluster(f"not a precluster: {why}", reason=why)
    if len(svars) == q.n:
        return tuple(svars)
    table = cluster_table(q, bound, seed, budget)
    variables = table.variables
    chosen_set = set(svars)
    cands = [
        i
        for i, v in enumerate(variables)
        if v not in chosen_set and all(compatible(q, v, w) for w in svars)
    ]
    need = q.n - len(svars)
    # Lexicographic order on the extensions is that on the completed
    # clusters, so the first clique of the right size is the least one.
    compat = table.compat[np.ix_(cands, cands)]
    extra = next((c for c, _ in _cliques(compat) if len(c) == need), None)
    if extra is None:
        raise CompletionNotFound(
            f"no cluster contains {svars}"
            + ("" if bound is None else f" within height bound {bound}")
        )
    return tuple(sorted(svars + [variables[cands[i]] for i in extra], key=var_key))


def cluster_geq(q: Quiver, s, t) -> bool:
    """The cluster order: s >= t iff e(a, b) = 0 for every positive a of s
    and positive b of t, and the negatives of s are contained in those of t."""
    pos_s, neg_s = split_variables(s)
    pos_t, neg_t = split_variables(t)
    if not set(neg_s) <= set(neg_t):
        return False
    return all(e_invariant(q, a, b) == 0 for a in pos_s for b in pos_t)


def cluster_leq(q: Quiver, s, t) -> bool:
    """s <= t in the cluster order."""
    return cluster_geq(q, t, s)


class ClusterPoset(Record, eq=False):
    """A finite poset of enumerated elements.

    ``leq[i, j]`` says element i <= element j; ``hasse`` lists cover pairs
    (i, j) with i covered by j.  ``top``/``bottom`` are element indices, or
    None when the (possibly truncated) set has no greatest/least element.
    """

    elements: tuple
    leq: np.ndarray
    hasse: tuple[tuple[int, int], ...]
    top: int | None
    bottom: int | None
    complete: bool
    height_bound: int | None

    def __len__(self):
        return len(self.elements)


def _covers(lt, lt2) -> tuple[tuple[int, int], ...]:
    """Cover pairs from the strict order ``lt`` and its square ``lt2``."""
    return tuple((int(i), int(j)) for i, j in np.argwhere(lt & ~lt2))


def cover_pairs(leq) -> tuple[tuple[int, int], ...]:
    """Cover pairs (i, j), i covered by j, of an order matrix: i < j with
    nothing strictly between.  Boolean products are exact at any size."""
    lt = np.asarray(leq, dtype=bool) & ~np.eye(len(leq), dtype=bool)
    return _covers(lt, lt @ lt)


def assemble_poset(elements, leq, complete: bool, height_bound) -> ClusterPoset:
    """Verify the order axioms on a relation matrix and package the poset.

    Raises NotAPartialOrder with a concrete witness if reflexivity,
    antisymmetry or transitivity fails.  For a reflexive ``leq``,
    ``leq @ leq`` is ``leq | (lt @ lt)`` with ``lt`` the strict part, so one
    square ``lt @ lt`` serves the transitivity check and the covers.
    """
    leq = np.asarray(leq, dtype=bool)
    m = len(elements)
    if leq.shape != (m, m):
        raise NotAPartialOrder(f"relation shape {leq.shape} for {m} elements")
    diag = np.diagonal(leq)
    if not diag.all():
        i = int(np.flatnonzero(~diag)[0])
        raise NotAPartialOrder(f"not reflexive at element {i}", index=i)
    lt = leq & ~np.eye(m, dtype=bool)
    sym = lt & lt.T
    if sym.any():
        i, j = map(int, np.argwhere(sym)[0])
        raise NotAPartialOrder(
            f"antisymmetry fails: elements {i} and {j} compare both ways",
            pair=(i, j),
        )
    lt2 = lt @ lt
    gap = lt2 & ~leq
    if gap.any():
        i, j = map(int, np.argwhere(gap)[0])
        raise NotAPartialOrder(
            f"transitivity fails: a path joins {i} to {j} but leq does not",
            pair=(i, j),
        )
    bottoms = np.flatnonzero(leq.all(axis=1))
    tops = np.flatnonzero(leq.all(axis=0))
    leq = leq.copy()
    leq.setflags(write=False)
    return ClusterPoset(
        elements=tuple(elements),
        leq=leq,
        hasse=_covers(lt, lt2),
        top=int(tops[0]) if len(tops) else None,
        bottom=int(bottoms[0]) if len(bottoms) else None,
        complete=complete,
        height_bound=height_bound,
    )


def cluster_poset(table: ClusterTable) -> ClusterPoset:
    """The clusters of ``table`` under the cluster order, with verified axioms.

    The order of ``cluster_geq`` for every pair at once: with ``nz[a, b]``
    saying e(a, b) != 0 on positive variables (and false elsewhere), M the
    membership matrix of clusters in the variables and N its negative
    columns, s >= t exactly when (M nz M^T)[s, t] and (N (not N)^T)[s, t]
    are both false.
    """
    members = table.members
    neg = members[:, table.negative]
    geq = ~(members @ table.nz @ members.T) & ~(neg @ ~neg.T)
    items = table.enumeration(table.clusters).items
    return assemble_poset(items, geq.T, table.complete, table.height_bound)
