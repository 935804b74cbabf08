"""Representation oracle over the rationals.

Representations assign a dimension to each vertex and an exact integer or
rational matrix to each arrow.  Hom spaces are solved from the intertwining
equations, Ext^1 dimensions follow from the Euler form, and generation
(Gen M membership) is decided by a trace criterion on actual matrices.
This gives an independent route to the combinatorial invariants: sampled
exceptional modules realize cluster variables, and the generation order on
realized clusters must reproduce the combinatorial cluster order.  That
order is one product over a module x cluster table of trace checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .einv import derived_seed
from .errors import (
    DimensionMismatch,
    NegativeExt,
    NotAPrecluster,
    NotDynkin,
    ProbeExhausted,
    SizeMismatch,
)
from .linalg import nullspace, rank
from .quiver import DimVec, Quiver, euler_form, support, tits_form

Matrix = tuple[tuple, ...]


@dataclass(frozen=True)
class Representation:
    """Matrices over Q for each arrow; matrices[a] has shape dims[t] x dims[s].

    Equality is field-wise.  The hash is computed once per instance: the
    ``hom_basis`` cache looks representations up far more often than it
    builds them, and each fresh hash walks every matrix entry.
    """

    dims: DimVec
    matrices: tuple[Matrix, ...]

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.dims, self.matrices)))

    def __hash__(self):
        return self._hash


def _check_shapes(q: Quiver, rep: Representation):
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


@lru_cache(maxsize=None)
def hom_basis(q: Quiver, m: Representation, n: Representation):
    """Basis of Hom(m, n): tuples of per-vertex matrices phi_i with
    phi_target . m_a = n_a . phi_source for every arrow a."""
    _check_shapes(q, m)
    _check_shapes(q, n)
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
    basis = nullspace(rows, total)
    morphisms = []
    for vec in basis:
        mats = []
        for i in range(nv):
            rct, cct = n.dims[i], m.dims[i]
            mats.append(
                tuple(
                    tuple(vec[off[i] + r * cct + c] for c in range(cct))
                    for r in range(rct)
                )
            )
        morphisms.append(tuple(mats))
    return tuple(morphisms)


def hom_dim(q: Quiver, m: Representation, n: Representation) -> int:
    return len(hom_basis(q, m, n))


def ext_dim(q: Quiver, m: Representation, n: Representation) -> int:
    """dim Ext^1(m, n) = dim Hom(m, n) - <dim m, dim n> (hereditary)."""
    val = hom_dim(q, m, n) - euler_form(q, m.dims, n.dims)
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
    accepted only after verifying End = Q and Ext^1 = 0.  Vectors with Tits
    form != 1 are rejected before sampling, since no exceptional module can
    exist there.
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
        if hom_dim(q, rep, rep) == 1 and ext_dim(q, rep, rep) == 0:
            return rep
    raise ProbeExhausted(
        f"no exceptional representation of dimension {alpha} found in "
        f"{budget} attempts",
        alpha=alpha,
        budget=budget,
        seeds=seeds_tried,
    )


@dataclass(frozen=True)
class ModuleList:
    """Labeled modules realizing a precluster, in canonical label order.

    Negative simple labels carry the zero module (they mark vertices removed
    from the support); positive labels carry a verified exceptional module
    of that dimension vector.
    """

    items: tuple[tuple[DimVec, Representation], ...]

    def positives(self):
        return tuple((v, rep) for v, rep in self.items if any(a > 0 for a in v))

    def labels(self):
        return tuple(v for v, _ in self.items)


def realize_cluster(q: Quiver, s, seed: int = 0, budget: int = 8) -> ModuleList:
    """Attach modules to every variable of a precluster.

    The sample for a positive root depends only on (quiver, root, seed), so
    shared variables get identical modules across different clusters.  The
    pairwise Ext vanishing promised by the precluster certificate is
    verified on the sampled matrices and any failure is raised loudly.
    """
    from .clusters import is_precluster, var_key

    svars = sorted({q.check_dimvec(v, allow_negative=True) for v in s}, key=var_key)
    ok, why = is_precluster(q, svars)
    if not ok:
        raise NotAPrecluster(f"not a precluster: {why}", reason=why)
    items = []
    for v in svars:
        if any(a < 0 for a in v):
            items.append((v, zero_representation(q)))
        else:
            items.append((v, sample_exceptional(q, v, seed=seed, budget=budget)))
    pos = [(v, rep) for v, rep in items if any(a > 0 for a in v)]
    for va, ra in pos:
        for vb, rb in pos:
            e = ext_dim(q, ra, rb)
            if e != 0:
                raise RuntimeError(
                    f"internal error: sampled modules for {va}, {vb} have "
                    f"Ext^1 of dimension {e}, contradicting the precluster"
                )
    return ModuleList(tuple(items))


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


def stilt_poset(q: Quiver, seed: int = 0, budget: int = 8):
    """Poset of realized clusters under the generation order.

    Built entirely from matrices (hom spaces and traces); the combinatorial
    cluster order never enters, so comparing the two posets is a genuine
    cross-check.  Gen T membership depends only on the module and on T's
    summands, so with P the cluster x module membership matrix over the
    distinct positive modules and G[v, c] the trace criterion for module v
    against cluster c, s <= t exactly when ``not (P @ not G)[s, t]``: each
    (module, cluster) pair is checked once, and every entry equals
    ``gen_leq`` on that pair.
    """
    if not q.is_dynkin:
        raise NotDynkin("the full support tilting poset needs a Dynkin quiver")
    from .clusters import assemble_poset, enumerate_clusters

    enum = enumerate_clusters(q)
    realized = tuple(realize_cluster(q, c, seed=seed, budget=budget) for c in enum)
    gens = [_reps_of(ml) for ml in realized]
    modules = list(dict.fromkeys(rep for g in gens for rep in g))
    column = {rep: v for v, rep in enumerate(modules)}
    members = np.zeros((len(gens), len(modules)), dtype=bool)
    for row, g in zip(members, gens):
        row[[column[rep] for rep in g]] = True
    generated = np.array([[_generated(q, rep, g) for g in gens] for rep in modules])
    leq = ~(members @ ~generated)
    return assemble_poset(realized, leq, complete=True, height_bound=None)


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
