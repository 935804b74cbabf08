"""Representation oracle over the rationals.

Representations assign a dimension to each vertex and an exact integer or
rational matrix to each arrow.  Hom spaces are solved from the intertwining
equations: ``hom_basis`` takes their null space, while ``hom_dim`` needs
only their rank (mod p first, see ``linalg``).  Ext^1 dimensions follow
from the Euler form, Ext^1(a, b) = dim Hom(a, b) - <a, b>, and generation
(Gen M membership) is decided by a trace criterion on actual matrices.
This gives an independent route to the combinatorial invariants: sampled
exceptional modules realize cluster variables, and the generation order on
realized clusters must reproduce the combinatorial cluster order.

``stilt_poset`` does each piece of exact work once.  It samples each
distinct variable once and solves Hom(g, x) once per ordered pair of the
sampled modules as integer null vectors (``_hom_stage``).  That gives
the Ext^1 = 0 check on every pair of variables sharing a cluster, and
the image of Hom(g, x) at each vertex i, reduced once to an echelon
basis of rank r[x, g, i] (none when Hom(g, x) = 0).  Module x is generated
by cluster c when the stacked bases of c's members have rank dim x_i at
every vertex i.  That stacked rank is at least the largest member's rank,
since the stack holds each member's rows, and at most the sum of the
members' ranks, since it has no more rows than they have together.  So the
largest rank reaching dim x_i at every vertex settles "generated", a sum
below dim x_i at some vertex settles "not generated", and only the entries
left open take the exact rank (``_fills``).  ``gen_leq`` and
``_generated`` stay the per-pair reference.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .clusters import ClusterTable, _checked_precluster
from .einv import derived_seed
from .errors import (
    DimensionMismatch,
    NegativeExt,
    NotDynkin,
    ProbeExhausted,
    SizeMismatch,
)
from .linalg import echelon_basis, null_vectors, nullspace, rank, rank_mod_p
from .posets import assemble_poset
from .quiver import DimVec, Quiver, Record, euler_form, support, tits_form

Matrix = tuple[tuple, ...]


class Representation(Record):
    """Matrices over Q for each arrow; matrices[a] has shape dims[t] x dims[s].

    Equality is field-wise.  The hash is computed once per instance: the
    ``hom_basis`` cache of ``gen_leq`` looks representations up far more
    often than it builds them, and each fresh hash walks every matrix entry.
    """

    dims: DimVec
    matrices: tuple[Matrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.dims, self.matrices)))

    def __hash__(self):
        return self._hash


def _check_shapes(q: Quiver, *reps: Representation):
    for rep in reps:
        if len(rep.dims) != q.n:
            raise DimensionMismatch(
                f"representation has {len(rep.dims)} vertex spaces, quiver has {q.n}"
            )
        if len(rep.matrices) != len(q.arrows):
            raise DimensionMismatch(
                f"representation has {len(rep.matrices)} matrices for {len(q.arrows)} arrows"
            )
        for a, (s, t) in enumerate(q.arrows):
            mat = rep.matrices[a]
            rows, cols = rep.dims[t - 1], rep.dims[s - 1]
            if len(mat) != rows or any(len(r) != cols for r in mat):
                raise DimensionMismatch(
                    f"matrix for arrow {a} ({s}->{t}) is not {rows} x {cols}"
                )


def make_representation(q: Quiver, dims, matrices) -> Representation:
    rep = Representation(
        tuple(int(d) for d in dims),
        tuple(tuple(tuple(row) for row in mat) for mat in matrices),
    )
    _check_shapes(q, rep)
    return rep


def zero_representation(q: Quiver, dims=None) -> Representation:
    """Representation with all-zero maps (the semisimple one for its dims).

    Without ``dims`` this is the zero module.
    """
    if dims is None:
        dims = (0,) * q.n
    dims = q.check_dimvec(dims)
    zero = Fraction(0)
    mats = []
    for s, t in q.arrows:
        rows, cols = dims[t - 1], dims[s - 1]
        mats.append(tuple(tuple(zero for _ in range(cols)) for _ in range(rows)))
    return Representation(dims, tuple(mats))


def _hom_equations(q: Quiver, m: Representation, n: Representation):
    """The intertwining equations of Hom(m, n) as (rows, total, off), for
    m and n whose shapes are checked.

    The unknowns are the entries of the per-vertex matrices phi_i (n.dims[i]
    x m.dims[i], row-major, phi_i starting at column off[i]), and each row
    is one entry of phi_target . m_a - n_a . phi_source = 0.
    """
    nv = q.n
    sizes = [n.dims[i] * m.dims[i] for i in range(nv)]
    off = [0] * nv
    for i in range(1, nv):
        off[i] = off[i - 1] + sizes[i - 1]
    total = off[-1] + sizes[-1] if nv else 0
    rows = []
    for a, (s, t) in enumerate(q.arrows):
        s0, t0 = s - 1, t - 1
        ma, na = m.matrices[a], n.matrices[a]
        for r in range(n.dims[t0]):
            for c in range(m.dims[s0]):
                row = [0] * total
                for j in range(m.dims[t0]):
                    row[off[t0] + r * m.dims[t0] + j] += ma[j][c]
                for k in range(n.dims[s0]):
                    row[off[s0] + k * m.dims[s0] + c] -= na[r][k]
                rows.append(row)
    return rows, total, off


# Bounded so a long process cannot grow it without end.  Only the
# per-pair reference ``gen_leq`` reads it; ``stilt_poset`` solves each of
# its m^2 pairs once in ``_hom_stage`` (E8 has 120^2).
@lru_cache(maxsize=4096)
def hom_basis(q: Quiver, m: Representation, n: Representation):
    """Basis of Hom(m, n): tuples of per-vertex matrices phi_i with
    phi_target . m_a = n_a . phi_source for every arrow a."""
    _check_shapes(q, m, n)
    rows, total, off = _hom_equations(q, m, n)
    basis = nullspace(rows, total)
    morphisms = []
    for vec in basis:
        mats = []
        for i in range(q.n):
            rct, cct = n.dims[i], m.dims[i]
            mats.append(
                tuple(
                    tuple(vec[off[i] + r * cct + c] for c in range(cct))
                    for r in range(rct)
                )
            )
        morphisms.append(tuple(mats))
    return tuple(morphisms)


def _hom_vectors(q: Quiver, m: Representation, n: Representation):
    """Hom(m, n) as ``linalg.null_vectors`` of ``_hom_equations``, with no
    exact elimination where a full column rank mod p proves Hom = 0."""
    rows, total, _ = _hom_equations(q, m, n)
    if len(rows) >= total and rank_mod_p(rows, total) == total:
        return []
    return null_vectors(rows, total)[0]


def hom_dim(q: Quiver, m: Representation, n: Representation) -> int:
    """dim Hom(m, n): the unknowns of the intertwining equations minus their
    rank.  Only the rank is computed, so no basis is built.

    The rank mod p comes first.  When it is full, min(equations, unknowns),
    the count is max(0, <dim m, dim n>), the least it can be, and exact
    (see ``linalg``).  That is the End = Q test of an exceptional module and
    every Ext^1 = 0 check.  Any other count is taken from the exact rank.
    """
    _check_shapes(q, m, n)
    rows, total, _ = _hom_equations(q, m, n)
    r = rank_mod_p(rows, total)
    if r < min(len(rows), total):
        r = rank(rows, total)
    return total - r


def ext_dim(q: Quiver, m: Representation, n: Representation) -> int:
    """dim Ext^1(m, n) = dim Hom(m, n) - <dim m, dim n> (hereditary)."""
    return _ext_from_hom(q, m, n, hom_dim(q, m, n))


def _ext_from_hom(q: Quiver, m: Representation, n: Representation, hom: int) -> int:
    """dim Ext^1(m, n) from hom = dim Hom(m, n), raising NegativeExt when
    the hereditary count goes below zero."""
    val = hom - euler_form(q, m.dims, n.dims)
    if val < 0:
        raise NegativeExt(
            f"hom - euler = {val} < 0 for dims {m.dims}, {n.dims}; "
            "this breaks the hereditary dimension count",
            dims=(m.dims, n.dims),
        )
    return val


def sample_exceptional(
    q: Quiver, alpha, seed: int = 0, budget: int = 8
) -> Representation:
    """Search for an exceptional representation of dimension vector alpha.

    Matrices get small random integer entries from a generator seeded
    deterministically by (quiver, alpha, seed, attempt); a candidate is
    accepted only after verifying End = Q and Ext^1 = 0.  Both come from one
    count: dim End is ``hom_dim(rep, rep)``, and dim Ext^1 is that minus the
    Tits form <alpha, alpha>, as in ``ext_dim``.  Vectors with Tits form != 1
    are rejected before sampling, since no exceptional module can exist
    there.  With Tits form 1, End = Q is the least count ``hom_dim`` allows,
    so an accepted sample is certified by its rank mod p alone; a rejected
    one pays the exact rank as well.
    """
    alpha = q.check_dimvec(alpha)
    tf = tits_form(q, alpha)
    if tf != 1:
        raise ProbeExhausted(
            f"tits form of {alpha} is {tf}, not 1; filtered before sampling",
            filtered=True,
            alpha=alpha,
        )
    seeds_tried = []
    for attempt in range(budget):
        s = derived_seed(q, alpha, seed, f"sample-{attempt}")
        seeds_tried.append(s)
        rng = random.Random(s)
        mats = []
        for src, tgt in q.arrows:
            rct, cct = alpha[tgt - 1], alpha[src - 1]
            mats.append(
                tuple(
                    tuple(rng.randint(-3, 3) for _ in range(cct)) for _ in range(rct)
                )
            )
        rep = Representation(alpha, tuple(mats))
        end = hom_dim(q, rep, rep)
        ext = end - tf
        if end == 1 and ext == 0:
            return rep
    raise ProbeExhausted(
        f"no exceptional representation of dimension {alpha} found in "
        f"{budget} attempts",
        alpha=alpha,
        budget=budget,
        seeds=seeds_tried,
    )


def _positive(v) -> bool:
    return any(a > 0 for a in v)


class ModuleList(Record):
    """Labeled modules realizing a precluster, in canonical label order.

    Negative simple labels carry the zero module (they mark vertices removed
    from the support); positive labels carry a verified exceptional module
    of that dimension vector.
    """

    items: tuple[tuple[DimVec, Representation], ...]

    def positives(self):
        return tuple((v, rep) for v, rep in self.items if _positive(v))

    def labels(self):
        return tuple(v for v, _ in self.items)


def _sample(q: Quiver, clusters, seed: int, budget: int) -> dict:
    """Each distinct positive variable of the label tuples ``clusters``,
    sampled once, in order of first appearance."""
    sampled = {}
    for c in clusters:
        for v in c:
            if _positive(v) and v not in sampled:
                sampled[v] = sample_exceptional(q, v, seed=seed, budget=budget)
    return sampled


def _check_ext(q: Quiver, clusters, sampled: dict, hom_count) -> None:
    """Verify Ext^1 = 0 on the sampled matrices, once for each ordered pair
    of distinct positive variables that share a precluster (each sample
    already has Ext^1(rep, rep) = 0).  ``hom_count(va, vb)`` gives dim
    Hom(sampled[va], sampled[vb]).  Any failure is raised loudly."""
    pairs = {}
    for c in clusters:
        pos = [v for v in c if _positive(v)]
        pairs.update(((va, vb), None) for va in pos for vb in pos if va != vb)
    for va, vb in pairs:
        e = _ext_from_hom(q, sampled[va], sampled[vb], hom_count(va, vb))
        if e != 0:
            raise RuntimeError(
                f"internal error: sampled modules for {va}, {vb} have "
                f"Ext^1 of dimension {e}, contradicting the precluster"
            )


def _module_lists(q: Quiver, clusters, sampled: dict) -> tuple[ModuleList, ...]:
    """ModuleLists for preclusters given as label tuples in canonical order."""
    zero = zero_representation(q)
    return tuple(
        ModuleList(tuple((v, sampled[v] if _positive(v) else zero) for v in c))
        for c in clusters
    )


def realize_cluster(q: Quiver, s, seed: int = 0, budget: int = 8) -> ModuleList:
    """Attach modules to every variable of a precluster.

    The precluster check is the only test of the positive members: unit
    Tits form and e(a, a) = 0, which pick out the real Schur roots of a
    Dynkin quiver, and off Dynkin Schofield's criterion as well, so a real
    root that is not Schur raises NotAPrecluster.  The sampled exceptional
    module is each one's certificate, raising ProbeExhausted when the
    budget runs out, which then means sampling missed on a real Schur root.  The sample for a positive
    root depends only on (quiver, root, seed), so shared variables get
    identical modules across different clusters.  The pairwise Ext
    vanishing promised by the precluster is verified on the sampled
    matrices (each count ``hom_dim``'s, mod p first) and any failure is
    raised loudly.
    """
    clusters = [tuple(_checked_precluster(q, s))]
    sampled = _sample(q, clusters, seed, budget)
    _check_ext(
        q, clusters, sampled, lambda va, vb: hom_dim(q, sampled[va], sampled[vb])
    )
    return _module_lists(q, clusters, sampled)[0]


def is_support_tilting(q: Quiver, modules: ModuleList) -> bool:
    """Do the positive summands form a tilting module over the support
    subquiver cut out by the negative labels?

    Checks: supports avoid the removed vertices, all Ext^1 between summands
    (including self) vanish, and the number of summands equals the number of
    surviving vertices.
    """
    removed = set()
    pos = []
    for v, rep in modules.items:
        if any(a < 0 for a in v):
            removed.add(next(i + 1 for i, a in enumerate(v) if a < 0))
        else:
            pos.append((v, rep))
    allowed = set(range(1, q.n + 1)) - removed
    if len(pos) != len(allowed):
        return False
    for v, rep in pos:
        if not support(v) <= allowed:
            return False
    for _, ra in pos:
        for _, rb in pos:
            if ext_dim(q, ra, rb) != 0:
                return False
    return True


def _generated(q: Quiver, x: Representation, generators: tuple) -> bool:
    """Trace criterion: x is a quotient of a finite sum of the generators
    iff the images of all homomorphisms into x fill every vertex space."""
    for i in range(q.n):
        d = x.dims[i]
        if d == 0:
            continue
        cols = []
        for g in generators:
            for phi in hom_basis(q, g, x):
                mat = phi[i]
                for c in range(g.dims[i]):
                    cols.append(tuple(mat[r][c] for r in range(d)))
        if rank(cols, d) < d:
            return False
    return True


def _reps_of(obj) -> tuple:
    if isinstance(obj, ModuleList):
        return tuple(rep for _, rep in obj.positives())
    return tuple(obj)


def gen_leq(q: Quiver, n, m) -> bool:
    """Generation order: every module of n is a quotient of a finite direct
    sum of modules of m.  Arguments are ModuleLists or plain collections of
    representations."""
    gens = _reps_of(m)
    return all(_generated(q, rep, gens) for rep in _reps_of(n))


def _images(g: Representation, x: Representation, vecs) -> list[list[list[int]]]:
    """Integer echelon rows spanning the image at each vertex i of the maps
    ``vecs`` (null vectors of ``_hom_equations(q, g, x)``): the columns of
    each phi_i."""
    bases, o = [], 0
    for gd, d in zip(g.dims, x.dims):
        size = gd * d
        # Column c of phi_i holds the entries o + r * gd + c, r < d.
        bases.append(echelon_basis([v[o + c : o + size : gd] for v in vecs for c in range(gd)], d))
        o += size
    return bases


def _hom_stage(q: Quiver, modules):
    """(homs, bases) over ordered pairs of ``modules``: homs[x][g] = dim
    Hom(g, x), and bases[x][g] = ``_images`` of Hom(g, x), empty at every
    vertex when Hom(g, x) = 0."""
    _check_shapes(q, *modules)
    homs, bases = [], []
    for x in modules:
        vecs = [_hom_vectors(q, g, x) for g in modules]
        homs.append([len(v) for v in vecs])
        bases.append([_images(g, x, v) for g, v in zip(modules, vecs)])
    return homs, bases


def _fills(x: Representation, per_g, gens) -> bool:
    """Trace criterion on image bases: the images of all maps from the
    modules ``gens`` (indices into ``per_g = bases[x]``) into x have full
    rank at every vertex."""
    return all(
        rank([row for k in gens for row in per_g[k][i]], d) == d
        for i, d in enumerate(x.dims)
        if d
    )


def _generation_table(q: Quiver, modules, bases, members) -> np.ndarray:
    """G[x, c]: module x is generated by the modules of cluster c, the
    columns set in row c of ``members`` (``_fills``'s trace criterion).

    With r[x, g, i] the rank of bases[x][g][i], the largest and the sum of
    r[x, g, i] over c's members bound the stacked rank (module docstring).
    The bounds are gathered one vertex and one member slot at a time, so
    no temporary is larger than the m x (clusters) table itself, and only
    the entries they leave open call ``_fills``.
    """
    m, n = len(modules), q.n
    # Stored vertex first, r[i, x, g].  Index m stands for no module: its
    # ranks are zero, and it fills the slots of clusters with fewer than n
    # positive members.
    r = np.zeros((n, m, m + 1), dtype=np.int16)
    for x, per_g in enumerate(bases):
        for g, per_i in enumerate(per_g):
            r[:, x, g] = [len(b) for b in per_i]
    slots = np.full((n, len(members)), m, dtype=np.intp)
    for c, row in enumerate(members):
        gens = np.flatnonzero(row)
        slots[: len(gens), c] = gens
    dims = np.array([x.dims for x in modules], dtype=np.int16)
    generated = np.ones((m, len(members)), dtype=bool)
    open_ = np.ones_like(generated)
    for i in range(n):
        largest = r[i][:, slots[0]]
        total = largest.copy()
        for k in range(1, n):
            ranks = r[i][:, slots[k]]
            np.maximum(largest, ranks, out=largest)
            total += ranks
        generated &= largest >= dims[:, i, None]
        open_ &= total >= dims[:, i, None]
    open_ &= ~generated
    for x, c in zip(*np.nonzero(open_)):
        generated[x, c] = _fills(modules[x], bases[x], np.flatnonzero(members[c]))
    return generated


def stilt_poset(table: ClusterTable, seed: int = 0, budget: int = 8):
    """The clusters of ``table``, realized, under the generation order.

    Element i is the table's cluster i, as in ``clusters.cluster_poset``,
    with or without a height bound.  The order is built entirely from
    matrices (hom spaces and traces); the combinatorial cluster order never
    enters, so comparing the two posets is a genuine cross-check.  Gen T
    membership depends only on the module and on T's summands.  So with P
    the table's membership matrix on the positive variables in use (one
    module each) and G[x, c] the trace criterion for module x against
    cluster c, s <= t exactly when ``not (P @ not G)[s, t]``.

    Every piece of exact work is done once:

    - each positive variable is sampled once (``_sample``);
    - Hom(g, x) is solved once per ordered pair of the m modules
      (``_hom_stage``), each module's shapes checked once.  The Ext^1 = 0
      check on variables sharing a cluster reads dim Hom from it,
      Ext^1(a, b) = dim Hom(a, b) - <a, b>, with ``ext_dim``'s
      ``NegativeExt`` guard;
    - the image of Hom(g, x) at each vertex is reduced to an integer
      echelon basis once per (g, x, vertex), from the columns of the
      integer null vectors, with no Fraction built.

    G[x, c] holds when the stacked bases of c's summands have full rank at
    every vertex of x, which is ``_generated``'s trace criterion.  The
    stacked rank lies between the largest and the sum of the members'
    ranks (the stack holds each member's rows, and no more rows than all
    of them), so these two bounds settle most entries, and only the rest
    take the exact rank in ``_fills`` (``_generation_table``).  Every entry
    of the order equals ``gen_leq`` on that pair.
    """
    q = table.quiver
    if not q.is_dynkin:
        raise NotDynkin("the support tilting poset needs a Dynkin quiver")
    enum = table.enumeration(table.clusters)
    sampled = _sample(q, enum.items, seed, budget)
    cols = np.flatnonzero(table.members.any(axis=0) & ~table.negative)
    members = table.members[:, cols]
    variables = [table.variables[i] for i in cols]
    modules = [sampled[v] for v in variables]
    homs, bases = _hom_stage(q, modules)
    index = {v: k for k, v in enumerate(variables)}
    _check_ext(q, enum.items, sampled, lambda va, vb: homs[index[vb]][index[va]])
    generated = _generation_table(q, modules, bases, members)
    leq = ~(members @ ~generated)
    realized = _module_lists(q, enum.items, sampled)
    return assemble_poset(realized, leq, enum.complete, enum.height_bound)


def compare_posets(p1, p2, mapping=None):
    """Compare two posets under an index bijection (default: identity).

    Returns (True, None) on agreement, else (False, witness) where witness
    is (i, j, leq1, leq2) for the first mismatching pair.
    """
    n1, n2 = len(p1.elements), len(p2.elements)
    if n1 != n2:
        raise SizeMismatch(f"posets have {n1} and {n2} elements")
    if mapping is None:
        mapping = tuple(range(n1))
    mapping = tuple(int(i) for i in mapping)
    if sorted(mapping) != list(range(n1)):
        raise SizeMismatch(f"mapping {mapping} is not a bijection on 0..{n1 - 1}")
    l1 = np.asarray(p1.leq, dtype=bool)
    idx = np.array(mapping, dtype=np.intp)
    l2 = np.asarray(p2.leq, dtype=bool)[np.ix_(idx, idx)]
    diff = np.argwhere(l1 != l2)
    if len(diff) == 0:
        return (True, None)
    i, j = (int(k) for k in diff[0])
    return (False, (i, j, bool(l1[i, j]), bool(l2[i, j])))
