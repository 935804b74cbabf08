"""Cluster combinatorics on the variables Phi(real Schur roots) + negative simples.

A cluster variable is stored as a plain integer vector: either a positive
real Schur root, or minus a simple root (exactly one entry -1).  A set of
variables is a precluster when the extension invariant vanishes on every
ordered pair of positive members and no negative simple touches the support
of a positive member.  Clusters are the maximal preclusters; they all have
exactly as many elements as the quiver has vertices, which the enumeration
asserts rather than assumes.

One ``ClusterTable`` per (quiver, bound), passed to every consumer, holds
the variables, the compatibility graph on their indices, its cliques
(preclusters) and maximal cliques (clusters).  The graph and the cluster
order come from one matrix of nonvanishing extension invariants,
``einv.e_nonzero``: on a Dynkin quiver the closed form
<a, b> < 0 on positive roots (Ringel 1984; Marsh-Reineke-Zelevinsky 2003),
elsewhere filled from ``einv.e_invariant``.  The per-pair predicates
(``compatible``, ``is_precluster``, ``cluster_geq``), the subset scan and
``complete_to_cluster``'s own search are kept as references.  The
``seed`` and ``budget`` parameters below are accepted and not consulted:
``real_schur_roots`` samples no module.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

import numpy as np

from .einv import _schur_failure, e_invariant, e_nonzero, real_schur_roots
from .errors import BadIndex, CompletionNotFound, NotAPrecluster, NotDynkin
from .posets import FinitePoset, assemble_poset, bit_rows, count_monotone_maps
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

    Positive members must be real Schur roots.  Unit Tits form, then the
    vanishing extension invariant on every ordered pair (the diagonal
    among them), are tested first; on a Dynkin quiver they decide.  Off
    Dynkin a real root need not be Schur, so after the other conditions
    each positive member must pass Schofield's criterion
    (``einv._schur_failure``), and the reason names its failing generic
    subvector.
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
    if not q.is_dynkin:
        for a in pos:
            failure = _schur_failure(q, a)  # only Schofield's test is left
            if failure is not None:
                b = failure[1]
                return (False, f"{a} is not a Schur root: <{b}, {a}> - <{a}, {b}> <= 0")
    return (True, None)


def _checked_precluster(q: Quiver, s) -> list[DimVec]:
    """The distinct members of ``s`` in canonical order; raises NotAPrecluster
    with the first violation when they are not a precluster."""
    svars = sorted({q.check_dimvec(v, allow_negative=True) for v in s}, key=var_key)
    ok, why = is_precluster(q, svars)
    if not ok:
        raise NotAPrecluster(f"not a precluster: {why}", reason=why)
    return svars


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
    rows = bit_rows(compat)

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
        no clique is larger and, on a complete set, none maximal smaller.

        ``_cliques``' walk, stopped at depth n: an n-clique that some
        variable extends starts a larger clique.  At depth n, ``ahead`` is
        part of ``common``, which must be empty, so the walk goes no deeper.
        """
        n = self.quiver.n
        rows = bit_rows(self.compat)
        found = []

        def walk(clique, common, ahead):
            if len(clique) == n:
                if common:
                    raise RuntimeError(
                        f"internal error: {n + 1} pairwise compatible variables "
                        f"on a quiver with {n} vertices"
                    )
                found.append(clique)
            elif not common and self.complete:
                raise RuntimeError(
                    "internal error: a maximal compatible set of size "
                    f"{len(clique)} != {n} on a Dynkin quiver"
                )
            while ahead:
                low = ahead & -ahead
                ahead ^= low
                j = low.bit_length() - 1
                walk(clique + (j,), common & rows[j], ahead & rows[j])

        everyone = (1 << len(rows)) - 1
        walk((), everyone, everyone)
        return tuple(found)

    @cached_property
    def members(self) -> np.ndarray:
        """M[c, v]: cluster c holds variable v, scattered from the
        (clusters x n) index array of ``clusters``."""
        index = np.array(self.clusters, dtype=np.intp).reshape(-1, self.quiver.n)
        m = np.zeros((len(self.clusters), len(self.variables)), dtype=bool)
        np.put_along_axis(m, index, True, axis=1)
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


def cluster_table(
    q: Quiver, bound: int | None = None, seed: int = 0, budget: int = 8
) -> ClusterTable:
    """The ``ClusterTable`` of ``q``: negative simples and the real Schur
    roots of ``einv.real_schur_roots(q, bound)``; ``seed`` and ``budget``
    are accepted and not consulted."""
    roots = real_schur_roots(q, bound)
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
    """All cluster variables: negative simples then real Schur roots
    (``seed`` and ``budget`` are not consulted)."""
    return cluster_table(q, bound).variables


def enumerate_clusters(
    q: Quiver, bound: int | None = None, seed: int = 0, budget: int = 8
) -> Enumeration:
    """All clusters: size-n subsets of pairwise compatible variables.

    These are the maximal cliques of the compatibility graph.  On a complete
    variable set every maximal clique must have exactly n members (maximal
    preclusters are clusters); that fact is asserted at runtime.  ``seed``
    and ``budget`` are not consulted.
    """
    table = cluster_table(q, bound)
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
    """Subset-scan oracle for cluster enumeration (no clique search);
    ``seed`` and ``budget`` are not consulted."""
    return subset_scan(q, cluster_table(q, bound).variables)


def enumerate_preclusters(
    q: Quiver,
    positive_only: bool = False,
    bound: int | None = None,
    seed: int = 0,
    budget: int = 8,
) -> Enumeration:
    """All preclusters (cliques of the compatibility graph, plus the empty
    set); ``seed`` and ``budget`` are not consulted."""
    table = cluster_table(q, bound)
    return table.enumeration(table.preclusters(positive_only))


def complete_to_cluster(
    q: Quiver, s, bound: int | None = None, seed: int = 0, budget: int = 8
) -> tuple:
    """Extend a precluster to a cluster, returning the lexicographically least
    extension in canonical variable order (negative simples first).

    Candidates pass ``compatible`` with every member.  Dynkin quivers always
    admit a completion.  With a height bound the search may legitimately
    fail, which raises CompletionNotFound.
    """
    svars = _checked_precluster(q, s)
    if len(svars) == q.n:
        return tuple(svars)
    table = cluster_table(q, bound)
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


def _cluster_geq(table: ClusterTable) -> np.ndarray:
    """geq[s, t]: cluster s >= cluster t, the order of ``cluster_geq`` for
    every pair at once.

    One row over the clusters per variable a, packed into bits: for a
    positive root a the clusters t holding some b with e(a, b) != 0
    (``nz`` M^T, M the ``members`` matrix), for -e_i the clusters without
    -e_i.  Cluster s is above
    t exactly when no member of s has t in its row, so the rows of the
    order are the complements of n ORs of member rows, gathered by the
    cluster index array, and they are unpacked once.  The index array is
    read back off M, whose row c holds cluster c's n indices in increasing
    order; it and the packed arrays die with this call, before the
    caller's dense work.
    """
    index = np.nonzero(table.members)[1].reshape(len(table.clusters), -1)
    hit = table.nz @ table.members.T  # the rows of -e_i are set below
    hit[table.negative] = ~table.members[:, table.negative].T
    rows = np.packbits(hit, axis=1, bitorder="little")
    below = rows[index[:, 0]]
    for k in range(1, index.shape[1]):
        below |= rows[index[:, k]]
    np.invert(below, out=below)
    return np.unpackbits(below, axis=1, count=len(index), bitorder="little").view(bool)


def cluster_poset(table: ClusterTable) -> FinitePoset:
    """The clusters of ``table`` under the cluster order (``_cluster_geq``),
    with verified axioms."""
    items = table.enumeration(table.clusters).items
    return assemble_poset(items, _cluster_geq(table).T, table.complete, table.height_bound)


def as_finite_poset(cp: FinitePoset) -> FinitePoset:
    """The poset ``cp`` with each element relabelled by a string: a cluster
    as its comma-joined variables, anything else by ``str``."""
    names = [
        ", ".join(map(format_variable, el)) if isinstance(el, tuple) else str(el)
        for el in cp.elements
    ]
    return assemble_poset(names, cp.leq, cp.complete, cp.height_bound)


def torsion_class_count(q: Quiver, p: FinitePoset, method: str = "auto") -> int:
    """Number of monotone maps from p into the cluster poset of q.

    For a base ring whose spectrum is the finite poset p, this counts the
    torsion classes of the quiver algebra over that ring.  Needs a Dynkin
    quiver (the cluster poset must be finite and complete).
    """
    if not q.is_dynkin:
        raise NotDynkin("torsion class counting needs a Dynkin quiver")
    return count_monotone_maps(p, cluster_poset(cluster_table(q)), method)
