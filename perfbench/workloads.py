"""Workload inputs, job lists and output checks for the CLI benchmark.

Every job is one `schur-clusters` command line.  Its stdout is checked
against closed forms or values the harness computes itself, never against
the program's own helpers, so a faster wrong answer counts as a failure.

Cluster counts are those of Fomin-Zelevinsky, "Cluster algebras II" (2003):
Catalan(n+1) clusters for A_n, (3n-2)/n * C(2n-2, n-1) for D_n, 833 for E6.
Each cluster poset of a Dynkin quiver is n-regular in its Hasse diagram
(every cluster has n mutations), so it has m*n/2 cover pairs.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("dynkin-poset", "wild-einv", "probe-certify", "torsion-count")

WILD = (3, ((1, 2), (1, 2), (2, 3)))
KRONECKER = (2, ((1, 2), (1, 2)))

# Orientation shapes of the dynkin-poset quivers.  The workload seed gives
# each one a random vertex labelling.  The seed does not pick the shape
# itself: over the 32 orientations of A6 the shape alone moved the cold
# cluster_poset time from 10.2 s to 17.8 s (D5: 1.6 s to 2.4 s), which
# would make pass_s measure the seed rather than the program.
_DYNKIN_SHAPES = {
    "A2": (2, ((1, 2),)),
    "A3": (3, ((1, 2), (2, 3))),
    "A3zigzag": (3, ((2, 1), (2, 3))),
    "A5": (5, ((1, 2), (2, 3), (3, 4), (4, 5))),
    "A5zigzag": (5, ((2, 1), (2, 3), (4, 3), (4, 5))),
    "D4": (4, ((1, 2), (2, 3), (2, 4))),
    "E6": (6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6))),
}

# Fixed orientations: a torsion count depends on the orientation, and the
# probe-certify quivers stay put so only its --seed varies.
A2_LINEAR = (2, ((1, 2),))
A3_LINEAR = (3, ((1, 2), (2, 3)))
A4_LINEAR = (4, ((1, 2), (2, 3), (3, 4)))
D4_SOURCE = (4, ((1, 2), (1, 3), (1, 4)))

# Source posets as (size, cover pairs), 1-based like the poset file format.
CHAIN2 = (2, ((1, 2),))
CHAIN4 = (4, ((1, 2), (2, 3), (3, 4)))
CHAIN5 = (5, ((1, 2), (2, 3), (3, 4), (4, 5)))
DIAMOND = (4, ((1, 2), (1, 3), (2, 4), (3, 4)))
FOREST5 = (5, ((1, 2), (1, 3), (4, 5)))

# Torsion counts for the fixed orientations above.  Each was computed once
# with both `--method dp` and `--method backtrack`, which agreed.
TORSION_COUNTS = {
    ("A4", "chain4"): 8401,
    ("A4", "chain5"): 26947,
    ("D4", "diamond"): 62346,
    ("D4", "forest5"): 8374608,
}

# Real Schur roots of the wild quiver up to a height bound, as counted by
# `schur --bound b`; every one is also checked to have Tits form 1.
WILD_SCHUR_COUNTS = {4: 7, 8: 15}

# The seeded wild einv pairs keep this work proxy in a narrow band, so the
# pass time does not swing with the seed (see _work_proxy).
_PAIR_ENTRIES = (2, 6)
_PAIR_PROXY_BAND = (6_000, 10_000)


class CheckFailed(Exception):
    """A job's output disagrees with the expected answer."""


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    check: Callable[[str], None]


@dataclass(frozen=True)
class Workload:
    name: str
    largest: str
    jobs: tuple[Job, ...]


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------- closed forms


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def dynkin_cluster_count(kind: str, n: int) -> int:
    if kind == "A":
        return catalan(n + 1)
    if kind == "D":
        return (3 * n - 2) * math.comb(2 * n - 2, n - 1) // n
    if (kind, n) == ("E", 6):
        return 833
    raise ValueError(f"no closed form for {kind}{n}")


def tamari_intervals(k: int) -> int:
    """Intervals of the Tamari lattice on Catalan(k) elements (Chapoton).

    The cluster poset of a linearly oriented A_{k-1} is that lattice, so
    this counts monotone maps from a 2-chain into it."""
    return 2 * math.factorial(4 * k + 1) // (
        math.factorial(k + 1) * math.factorial(3 * k + 2)
    )


def pentagon_multichains(length: int) -> int:
    """Monotone maps from a chain of `length` points into the pentagon,
    the cluster poset of A2 (0 < a < b < 1 and 0 < c < 1)."""
    leq = {(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (0, 1), (0, 2), (0, 3),
           (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)}
    ways = [1] * 5
    for _ in range(length - 1):
        ways = [sum(ways[i] for i in range(5) if (i, j) in leq) for j in range(5)]
    return sum(ways)


def path_counts(n: int, arrows) -> list[tuple[int, ...]]:
    """Dimension vectors of the indecomposable projectives: entry j of row i
    counts the paths from i to j (the quiver is acyclic)."""
    out_arrows = {i: [t for s, t in arrows if s == i] for i in range(1, n + 1)}
    rows: dict[int, tuple[int, ...]] = {}

    def row(i: int) -> tuple[int, ...]:
        if i not in rows:
            acc = [0] * n
            acc[i - 1] = 1
            for t in out_arrows[i]:
                acc = [a + b for a, b in zip(acc, row(t))]
            rows[i] = tuple(acc)
        return rows[i]

    return [row(i) for i in range(1, n + 1)]


def tits_form(n: int, arrows, x) -> int:
    return sum(a * a for a in x) - sum(x[s - 1] * x[t - 1] for s, t in arrows)


# ---------------------------------------------------------------- checkers


def _variable_key(obj) -> tuple:
    if obj["type"] == "neg_simple":
        return ("neg", obj["vertex"])
    return ("root", tuple(obj["dim"]))


def check_cluster_poset(text: str, quiver, expected: int, modules: bool = False):
    """A `poset` (or, with modules=True, a `stilt`) JSON payload."""
    n, arrows = quiver
    data = json.loads(text)
    if modules:
        for cluster in data["elements"]:
            for item in cluster:
                label = item["label"]
                dims = [0] * n if label["type"] == "neg_simple" else label["dim"]
                _expect(item["dims"] == dims, f"module dims {item['dims']} for {label}")
        clusters = [[item["label"] for item in c] for c in data["elements"]]
    else:
        clusters = data["elements"]
    m = len(clusters)
    _expect(m == expected, f"{m} clusters, expected {expected}")
    _expect(all(len(c) == n for c in clusters), "a cluster without n members")
    keys = {frozenset(map(_variable_key, c)) for c in clusters}
    _expect(len(keys) == m, "repeated cluster")
    hasse = len(data["hasse"])
    _expect(hasse == m * n // 2, f"{hasse} Hasse edges, expected {m * n // 2}")
    top, bottom = data["top"], data["bottom"]
    _expect(top is not None and bottom is not None, "missing top or bottom")
    positives = sorted(tuple(v["dim"]) for v in clusters[top] if v["type"] == "root")
    projectives = sorted(path_counts(n, arrows))
    _expect(positives == projectives,
            f"top cluster {positives} is not the projectives {projectives}")
    _expect(all(v["type"] == "neg_simple" for v in clusters[bottom]),
            "bottom cluster has a positive member")


def check_clusters(text: str, quiver, expected: int):
    n, _ = quiver
    data = json.loads(text)
    clusters = data["clusters"]
    _expect(data["count"] == len(clusters) == expected,
            f"{data['count']} clusters ({len(clusters)} listed), expected {expected}")
    _expect(all(len(c) == n for c in clusters), "a cluster without n members")
    keys = {frozenset(map(_variable_key, c)) for c in clusters}
    _expect(len(keys) == len(clusters), "repeated cluster")


def check_einv(text: str, x, y):
    data = json.loads(text)
    _expect(tuple(data["x"]) == tuple(x) and tuple(data["y"]) == tuple(y),
            "echoed pair differs from the request")
    e, (right, left) = data["e"], data["one_sided"]
    _expect(e == right == left, f"e = {e} but one-sided values are {right}, {left}")
    _expect(e >= 0, f"negative e = {e}")


def check_kronecker_schur(text: str, bound: int):
    roots = [tuple(r) for r in json.loads(text)["roots"]]
    expected = {p for k in range((bound - 1) // 2 + 1) for p in ((k, k + 1), (k + 1, k))}
    _expect(len(roots) == len(set(roots)), "repeated root")
    _expect(set(roots) == expected, f"Kronecker Schur roots {sorted(roots)}")


def check_wild_schur(text: str, bound: int):
    n, arrows = WILD
    roots = [tuple(r) for r in json.loads(text)["roots"]]
    _expect(len(roots) == len(set(roots)), "repeated root")
    for r in roots:
        _expect(len(r) == n and min(r) >= 0 and 0 < sum(r) <= bound,
                f"root {r} outside the height bound {bound}")
        _expect(tits_form(n, arrows, r) == 1, f"root {r} has Tits form != 1")
    expected = WILD_SCHUR_COUNTS[bound]
    _expect(len(roots) == expected, f"{len(roots)} wild roots, expected {expected}")


def check_verify(text: str):
    lines = text.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    _expect(not failed, f"verify reported {failed}")
    _expect(bool(lines) and lines[-1] == "ok", "verify did not end with 'ok'")


def check_count(text: str, expected: int):
    _expect(text.strip() == str(expected), f"count {text.strip()!r}, expected {expected}")


# ---------------------------------------------------------------- inputs


def relabel(rng: random.Random, quiver):
    """The same quiver with its vertices renumbered by a random permutation."""
    n, arrows = quiver
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return n, tuple((perm[s - 1], perm[t - 1]) for s, t in arrows)


def _work_proxy(x, y) -> int:
    """Rough cost of a cold `einv` call: the summand sets of every vector
    below x or y are built, each by scanning its own subvectors."""
    below = set(itertools.product(*(range(a + 1) for a in x)))
    below |= set(itertools.product(*(range(a + 1) for a in y)))
    return sum(math.prod(a + 1 for a in v) for v in below)


def seeded_pairs(rng: random.Random, count: int, entries, band=None):
    pairs = []
    lo, hi = entries
    while len(pairs) < count:
        x = tuple(rng.randint(lo, hi) for _ in range(3))
        y = tuple(rng.randint(lo, hi) for _ in range(3))
        if band is None or band[0] <= _work_proxy(x, y) <= band[1]:
            pairs.append((x, y))
    return pairs


class _Inputs:
    """Writes quiver and poset files into one directory."""

    def __init__(self, directory: Path):
        self.directory = directory

    def _write(self, stem: str, size: int, pairs) -> str:
        path = self.directory / stem
        text = f"n {size}\n" + "".join(f"{a} {b}\n" for a, b in pairs)
        path.write_text(text, encoding="utf-8")
        return str(path)

    def quiver(self, stem: str, quiver) -> str:
        return self._write(f"{stem}.q", *quiver)

    def poset(self, stem: str, poset) -> str:
        return self._write(f"{stem}.p", *poset)


def _vec(v) -> str:
    return ",".join(map(str, v))


# ---------------------------------------------------------------- workloads


def _dynkin_poset(rng, files, smoke):
    def poset_job(label, shape, expected):
        quiver = relabel(rng, _DYNKIN_SHAPES[shape])
        path = files.quiver(label, quiver)
        return Job(f"poset {label}", ("poset", "--quiver", path, "--allow-large"),
                   lambda t: check_cluster_poset(t, quiver, expected))

    if smoke:
        plan = [("A2", "A2", "A", 2), ("A3", "A3zigzag", "A", 3)]
        clusters_shape, clusters_expected = "A3", dynkin_cluster_count("A", 3)
        largest = "poset A3"
    else:
        plan = [("A5", "A5", "A", 5), ("A5zigzag", "A5zigzag", "A", 5),
                ("D4", "D4", "D", 4)]
        clusters_shape, clusters_expected = "E6", 833
        largest = "poset A5"
    jobs = [poset_job(label, shape, dynkin_cluster_count(kind, n))
            for label, shape, kind, n in plan]
    quiver = relabel(rng, _DYNKIN_SHAPES[clusters_shape])
    path = files.quiver(f"clusters-{clusters_shape}", quiver)
    jobs.append(Job(f"clusters {clusters_shape}",
                    ("clusters", "--quiver", path, "--allow-large"),
                    lambda t: check_clusters(t, quiver, clusters_expected)))
    return largest, jobs


def _wild_einv(rng, files, smoke):
    wild = files.quiver("wild", WILD)
    kron = files.quiver("kronecker", KRONECKER)
    if smoke:
        fixed, seeded, kron_pair = (2, 2, 2), seeded_pairs(rng, 1, (1, 3)), (3, 3)
    else:
        fixed = (7, 7, 7)
        seeded = seeded_pairs(rng, 3, _PAIR_ENTRIES, _PAIR_PROXY_BAND)
        kron_pair = (16, 16)

    def einv_job(label, path, x, y):
        return Job(f"einv {label} {_vec(x)}x{_vec(y)}",
                   ("einv", "--quiver", path, "--x", _vec(x), "--y", _vec(y)),
                   lambda t: check_einv(t, x, y))

    jobs = [einv_job("wild", wild, fixed, fixed)]
    jobs += [einv_job("wild", wild, x, y) for x, y in seeded]
    jobs.append(einv_job("kronecker", kron, kron_pair, kron_pair))
    return jobs[0].name, jobs


def _probe_certify(seed, files, smoke):
    kron_bound, wild_bound = (5, 4) if smoke else (9, 8)
    stilt_quiver = A3_LINEAR if smoke else D4_SOURCE
    stilt_expected = dynkin_cluster_count("A", 3) if smoke else dynkin_cluster_count("D", 4)
    verify_quiver = ("A2", A2_LINEAR) if smoke else ("A3", A3_LINEAR)
    s = ("--seed", str(seed))
    kron = files.quiver("kronecker", KRONECKER)
    wild = files.quiver("wild", WILD)
    stilt = files.quiver("stilt", stilt_quiver)
    jobs = [
        Job("schur kronecker", ("schur", "--quiver", kron, "--bound", str(kron_bound)) + s,
            lambda t: check_kronecker_schur(t, kron_bound)),
        Job("schur wild", ("schur", "--quiver", wild, "--bound", str(wild_bound)) + s,
            lambda t: check_wild_schur(t, wild_bound)),
        Job("stilt", ("stilt", "--quiver", stilt) + s,
            lambda t: check_cluster_poset(t, stilt_quiver, stilt_expected, modules=True)),
    ]
    label, quiver = verify_quiver
    path = files.quiver(f"verify-{label}", quiver)
    jobs.append(Job(f"verify {label}", ("verify", "--quiver", path) + s, check_verify))
    return jobs[0].name, jobs


def _torsion_count(files, smoke):
    if smoke:
        plan = [("A2", A2_LINEAR, "chain5", CHAIN5, pentagon_multichains(5)),
                ("A3", A3_LINEAR, "chain2", CHAIN2, tamari_intervals(4))]
        largest = "torsion-count A3 chain2"
    else:
        plan = [("A4", A4_LINEAR, "chain5", CHAIN5, None),
                ("D4", D4_SOURCE, "forest5", FOREST5, None),
                ("A4", A4_LINEAR, "chain4", CHAIN4, None),
                ("D4", D4_SOURCE, "diamond", DIAMOND, None)]
        largest = "torsion-count D4 diamond"
    jobs = []
    for qname, quiver, pname, poset, expected in plan:
        if expected is None:
            expected = TORSION_COUNTS[(qname, pname)]
        argv = ("torsion-count", "--quiver", files.quiver(qname, quiver),
                "--poset", files.poset(pname, poset))
        jobs.append(Job(f"torsion-count {qname} {pname}", argv,
                        lambda t, e=expected: check_count(t, e)))
    return largest, jobs


def build(name: str, seed: int, directory: Path, smoke: bool = False) -> Workload:
    """The job list of one workload, with its input files in `directory`.

    The seed picks the dynkin-poset vertex labellings, the seeded wild einv
    pairs and the probe --seed; the torsion-count inputs are fixed.
    """
    files = _Inputs(directory)
    rng = random.Random(f"{name}/{seed}")
    if name == "dynkin-poset":
        largest, jobs = _dynkin_poset(rng, files, smoke)
    elif name == "wild-einv":
        largest, jobs = _wild_einv(rng, files, smoke)
    elif name == "probe-certify":
        largest, jobs = _probe_certify(seed, files, smoke)
    elif name == "torsion-count":
        largest, jobs = _torsion_count(files, smoke)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, largest, tuple(jobs))
