"""Re-run one benchmark job as public library calls, one span per layer.

Usage: python3 traced_job.py <job name> <cli arguments...>

The calls follow the CLI command's pipeline order.  Each span is named
`<module>.<what>_s` and kept in memory with its start, end, parent span and
job name; counters are read at the same boundaries.  The spans, counters
and the names of counter sources this version of the package lacks are
printed as one JSON object on stdout when the job ends.

Only public names are used: the package `__all__`, `clusters.assemble_poset`
and the two `fileio` parsers the CLI itself calls.  Private caches are never
read or reset, so every job starts cold because the process is new.
"""

import argparse
import sys
import time
from contextlib import contextmanager
from itertools import combinations, product

import schur_clusters as sc
from schur_clusters import fileio
from schur_clusters.clusters import assemble_poset


class Tracer:
    def __init__(self, job: str):
        self.job = job
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = {"name": name, "job": self.job, "parent": parent,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)


# The CLI's defaults for flags that no benchmark job passes.
PROBE_BUDGET = 8
VERIFY_BOX = 2
COUNT_METHOD = "auto"


def _parse(argv):
    """The subset of CLI flags the benchmark's jobs use."""
    ap = argparse.ArgumentParser(prog="traced_job")
    ap.add_argument("command")
    ap.add_argument("--quiver", required=True)
    ap.add_argument("--poset")
    ap.add_argument("--bound", type=int)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--x")
    ap.add_argument("--y")
    ap.add_argument("--allow-large", action="store_true")
    return ap.parse_args(argv)


def _vec(text):
    return tuple(int(p) for p in text.split(","))


def _is_positive(v) -> bool:
    return all(a >= 0 for a in v)


def _clusters_prefix(t: Tracer, q, args):
    """Roots, Schur roots, E on every ordered pair of positive variables,
    compatibility over all pairs, then clique enumeration."""
    with t.span("quiver.roots_s"):
        roots = sc.positive_real_roots(q, args.bound)
    t.count("quiver.roots", len(roots.roots))
    with t.span("einv.schur_s"):
        variables = sc.cluster_variables(q, args.bound, args.seed, PROBE_BUDGET)
    positives = [v for v in variables if _is_positive(v)]
    t.count("einv.schur_candidates", len(roots.roots))
    t.count("einv.schur_kept", len(positives))
    with t.span("einv.e_s"):
        for a in positives:
            for b in positives:
                sc.e_invariant(q, a, b)
    t.count("einv.e_calls", len(positives) ** 2)
    with t.span("clusters.compat_s"):
        edges = sum(1 for u, v in combinations(variables, 2) if sc.compatible(q, u, v))
    t.count("clusters.variables", len(variables))
    t.count("clusters.compat_edges", edges)
    with t.span("clusters.enumerate_s"):
        enum = sc.enumerate_clusters(q, bound=args.bound, seed=args.seed,
                                     budget=PROBE_BUDGET)
    t.count("clusters.clusters", len(enum.items))
    return variables, enum


def _assemble(t: Tracer, elements, leq, complete, height_bound):
    with t.span("clusters.assemble_s"):
        poset = assemble_poset(elements, leq, complete, height_bound)
    t.count("clusters.hasse_edges", len(poset.hasse))
    return poset


def _cluster_order(t: Tracer, q, enum):
    items = enum.items
    m = len(items)
    with t.span("clusters.order_s"):
        leq = [[sc.cluster_geq(q, items[j], items[i]) for j in range(m)] for i in range(m)]
    t.count("clusters.order_pairs", m * m)
    t.count("clusters.order_true", sum(map(sum, leq)))
    return _assemble(t, items, leq, enum.complete, enum.height_bound)


def _stilt(t: Tracer, q, enum, args):
    with t.span("reps.realize_s"):
        realized = [sc.realize_cluster(q, c, seed=args.seed, budget=PROBE_BUDGET)
                    for c in enum.items]
    t.count("reps.modules", sum(len(ml.items) for ml in realized))
    m = len(realized)
    with t.span("reps.gen_order_s"):
        leq = [[sc.gen_leq(q, realized[i], realized[j]) for j in range(m)]
               for i in range(m)]
    t.count("reps.gen_pairs", m * m)
    return _assemble(t, realized, leq, True, None)


def run_poset(t, q, args):
    _, enum = _clusters_prefix(t, q, args)
    _cluster_order(t, q, enum)


def run_clusters(t, q, args):
    _clusters_prefix(t, q, args)


def run_einv(t, q, args):
    x, y = _vec(args.x), _vec(args.y)
    with t.span("einv.e_s"):
        sc.e_invariant(q, x, y)
    t.count("einv.e_calls", 1)
    with t.span("einv.alt_s"):
        sc.e_invariant_alt(q, x, y)


def run_schur(t, q, args):
    with t.span("quiver.roots_s"):
        roots = sc.positive_real_roots(q, args.bound)
    t.count("quiver.roots", len(roots.roots))
    # The probe's module sampling (reps/linalg) runs inside this span.
    with t.span("einv.schur_s"):
        kept = sc.real_schur_roots(q, bound=args.bound, seed=args.seed, budget=PROBE_BUDGET)
    t.count("einv.schur_candidates", len(roots.roots))
    t.count("einv.schur_kept", len(kept.roots))


def run_stilt(t, q, args):
    _, enum = _clusters_prefix(t, q, args)
    _stilt(t, q, enum, args)


def run_verify(t, q, args):
    """The checks of `verify`, in its order, each through public calls."""
    sweep = list(product(range(VERIFY_BOX + 1), repeat=q.n))
    with t.span("einv.e_s"):
        for x in sweep:
            for y in sweep:
                sc.e_invariant(q, x, y)
    t.count("einv.e_calls", len(sweep) ** 2)
    with t.span("einv.alt_s"):
        for x in sweep:
            for y in sweep:
                sc.e_invariant_alt(q, x, y)
    with t.span("quiver.roots_s"):
        roots = sc.positive_real_roots(q)
        top = max(max(r) for r in roots.roots)
        _ = {x for x in product(range(top + 1), repeat=q.n)
             if any(x) and sc.tits_form(q, x) == 1}
    variables, enum = _clusters_prefix(t, q, args)
    small = len(variables) <= 22
    if small:
        with t.span("clusters.naive_s"):
            sc.enumerate_clusters_naive(q, args.bound, args.seed, PROBE_BUDGET)
    poset = _cluster_order(t, q, enum)
    stilt = _stilt(t, q, enum, args)
    with t.span("reps.compare_s"):
        sc.compare_posets(poset, stilt)
    if small:
        with t.span("clusters.preclusters_s"):
            pre = sc.enumerate_preclusters(q, bound=args.bound, seed=args.seed,
                                           budget=PROBE_BUDGET)
        with t.span("clusters.complete_s"):
            for s in pre.items:
                sc.complete_to_cluster(q, s)


def run_torsion_count(t, q, args):
    with t.span("fileio.parse_s"):
        source = fileio.parse_poset_file(args.poset)
    _, enum = _clusters_prefix(t, q, args)
    poset = _cluster_order(t, q, enum)
    with t.span("posets.count_s"):
        target = sc.as_finite_poset(poset)
        maps = sc.count_monotone_maps(source, target, COUNT_METHOD)
    t.count("posets.maps", maps)
    t.count("posets.source_size", source.n)
    t.count("posets.codomain_size", target.n)


PIPELINES = {
    "poset": run_poset,
    "clusters": run_clusters,
    "einv": run_einv,
    "schur": run_schur,
    "stilt": run_stilt,
    "verify": run_verify,
    "torsion-count": run_torsion_count,
}

# Counter sources outside the spans; a later version of the package may
# drop one (the pair memo behind e_cache_stats, say), which is then
# reported as absent rather than crashing the run.
MEMO_COUNTERS = {"pairs": "einv.memo_pairs", "hits": "einv.memo_hits",
                 "misses": "einv.memo_misses", "summand_sets": "einv.summand_sets"}
HOM_COUNTERS = {"hits": "reps.hom_hits", "misses": "reps.hom_misses"}


def _read_sources(t: Tracer, q) -> None:
    stats_fn = getattr(sc, "e_cache_stats", None)
    stats = stats_fn(q) if stats_fn is not None else {}
    for key, name in MEMO_COUNTERS.items():
        if key in stats:
            t.count(name, stats[key])
        else:
            t.absent.append(name)
    info_fn = getattr(getattr(sc, "hom_basis", None), "cache_info", None)
    info = info_fn()._asdict() if info_fn is not None else {}
    for key, name in HOM_COUNTERS.items():
        if key in info:
            t.count(name, info[key])
        else:
            t.absent.append(name)


def main() -> int:
    import json

    job, argv = sys.argv[1], sys.argv[2:]
    args = _parse(argv)
    t = Tracer(job)
    with t.span("job"):
        with t.span("fileio.parse_s"):
            q = fileio.parse_quiver_file(args.quiver)
        PIPELINES[args.command](t, q, args)
    _read_sources(t, q)
    root = t.spans[0]
    json.dump({"job_s": root["end"] - root["start"], "spans": t.spans,
               "counts": t.counts, "absent": t.absent}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
