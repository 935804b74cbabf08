"""Command line front end.

Commands read quivers (and posets) from small text files and write
deterministic JSON, TSV or DOT to stdout.  Exit codes: 0 on success, 1 when
a well-formed request cannot be satisfied (domain errors such as a missing
height bound, non-Dynkin input to an exact-only command, probe exhaustion,
a non-precluster given to ``realize``, or a failed verification), 2 on
unusable input (bad flags, malformed files or inline JSON), 3 when an
internal invariant check fails (one ``error[internal]`` line, no traceback).

``_COMMANDS`` describes each command once: its handler, its help string and
its arguments.  ``main`` first reads a plain argv (a command and its exact
long flags, each once, with well-formed values) straight from that table,
so such a call never imports argparse, gettext or locale, whose setup
would cost a small job more than its work.  Everything else goes to one
argparse parser of every command, the only source of help, usage and
error text.

A handler returns its text, or its JSON payload without ``meta``; ``main``
puts every payload in the one envelope, ``{"meta": ..., **payload}``.
``verify`` runs ``_CHECKS``, one small function per check in output order,
over one ``_VerifyInputs``: the quiver, the args, and the roots, cluster
table and cluster poset, each built when a check first reads it, so a
refusal early in the table (E8's ``e-closed-form``) comes before any
clique search or poset.
"""

from __future__ import annotations

import json
import sys
from functools import cached_property
from types import SimpleNamespace

from . import clusters as cl
from . import einv, fileio, output, reps
from .errors import (
    LimitExceeded,
    NotDynkin,
    ParseError,
    SchurClustersError,
    UnsupportedFormat,
)
from .quiver import (
    coxeter_number,
    dynkin_components,
    euler_form,
    positive_real_roots,
    projective_dimension_vectors,
    root_key,
    tits_form,
    unit,
)

# Variable sets beyond this need --allow-large (rank E6 and up).
_LARGE_VARS = 24


def _vec(text: str):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        import argparse

        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        import argparse

        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return value


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        message = f"invalid int value: {text!r}"  # argparse's words for type=int
    else:
        if value >= 1:
            return value
        message = f"expected a positive integer, got {text!r}"
    import argparse

    raise argparse.ArgumentTypeError(message)


def _meta(args) -> dict:
    meta = {"command": args.command, "threads": 1}
    for key in ("seed", "bound", "probe_budget", "box", "method", "positive_only"):
        if hasattr(args, key):
            meta[key] = getattr(args, key)
    return meta


def _arg(*flags, **kwargs):
    """One ``add_argument`` call, kept as data for the command table."""
    return flags, kwargs


def _format(*choices):
    return _arg("--format", choices=list(choices), default=choices[0])


_QUIVER = _arg("--quiver", required=True, metavar="FILE", help="quiver text file")
_BOUND = _arg("--bound", type=_positive, default=None, help="height bound for roots")
_SEED = _arg("--seed", type=int, default=0, help="base seed (default 0)")
_BUDGET = _arg(
    "--probe-budget",
    dest="probe_budget",
    type=_nonnegative,
    default=8,
    help="module sampling attempts per vector, for stilt, realize and "
    "verify's stilt-match (default 8)",
)
_LARGE = _arg(
    "--allow-large",
    dest="allow_large",
    action="store_true",
    help="permit enumerations beyond the desk-scale guard",
)


def build_parser():
    """The argparse parser for every command in ``_COMMANDS``."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="schur-clusters",
        description="Real Schur roots, clusters and support tilting posets "
        "of acyclic quivers.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_, *specs) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flags, kwargs in specs:
            p.add_argument(*flags, **kwargs)
    return ap


def _table(args) -> cl.ClusterTable:
    """The quiver's cluster table under the command's bound, refused past
    the desk-scale guard without --allow-large: after the variables, before
    the table's clique search."""
    q = fileio.parse_quiver_file(args.quiver)
    table = cl.cluster_table(q, args.bound)
    size = len(table.variables)
    if size > _LARGE_VARS and not args.allow_large:
        raise LimitExceeded(
            f"{size} cluster variables exceed the desk-scale guard "
            f"({_LARGE_VARS}); pass --allow-large to proceed",
            variables=size,
        )
    return table


def _roots_payload(args, rs):
    if args.format == "tsv":
        return output.emit_tsv(rs.roots), 0
    return {
        "complete": rs.complete,
        "height_bound": rs.height_bound,
        "roots": [list(r) for r in rs.roots],
    }, 0


def cmd_roots(args):
    q = fileio.parse_quiver_file(args.quiver)
    return _roots_payload(args, positive_real_roots(q, args.bound))


def cmd_schur(args):
    q = fileio.parse_quiver_file(args.quiver)
    return _roots_payload(args, einv.real_schur_roots(q, args.bound))


def cmd_einv(args):
    q = fileio.parse_quiver_file(args.quiver)
    x = q.check_dimvec(args.x)
    y = q.check_dimvec(args.y)
    value = einv.e_invariant(q, x, y)
    right, left = einv.e_invariant_alt(q, x, y)
    payload = {
        "x": list(x),
        "y": list(y),
        "e": value,
        "one_sided": [right, left],
    }
    if args.stats:
        payload["stats"] = einv.e_cache_stats(q)
    return payload, 0


def _enumeration_payload(args, key, table, groups):
    """``groups``: index tuples into the table's variables."""
    if args.format == "tsv":
        labels = [cl.format_variable(v) for v in table.variables]
        return output.emit_tsv([[labels[i] for i in g] for g in groups]), 0
    return {
        "complete": table.complete,
        "height_bound": table.height_bound,
        "count": len(groups),
        key: output.variable_groups(table.variables, groups),
    }, 0


def cmd_preclusters(args):
    table = _table(args)
    pcs = table.preclusters(args.positive_only)
    return _enumeration_payload(args, "preclusters", table, pcs)


def cmd_clusters(args):
    table = _table(args)
    return _enumeration_payload(args, "clusters", table, table.clusters)


def _poset_payload(args, p, table, records):
    """Element k of ``p`` is the table's cluster k; ``records`` holds each
    table variable's JSON record."""
    if args.format == "dot":
        names = [cl.format_variable(v) for v in table.variables]
        labels = [", ".join(names[i] for i in c) for c in table.clusters]
        return output.emit_dot(labels, p.hasse), 0
    if args.format == "tsv":
        return output.emit_tsv(p.hasse), 0
    return {
        "complete": p.complete,
        "height_bound": p.height_bound,
        "elements": output.IndexedGroups(records, table.clusters),
        "hasse": p.hasse,
        "top": p.top,
        "bottom": p.bottom,
    }, 0


def cmd_poset(args):
    table = _table(args)
    records = [output.variable_to_json(v) for v in table.variables]
    return _poset_payload(args, cl.cluster_poset(table), table, records)


def cmd_stilt(args):
    q = fileio.parse_quiver_file(args.quiver)
    if not q.is_dynkin:  # before the table, which would ask for a bound
        raise NotDynkin("the support tilting poset needs a Dynkin quiver")
    table = cl.cluster_table(q)
    sp = reps.stilt_poset(table, seed=args.seed, budget=args.probe_budget)
    # Every variable lies in a cluster: ``table.clusters`` asserts no maximal clique is short.
    modules = {
        i: rep
        for c, ml in zip(table.clusters, sp.elements)
        for i, (_, rep) in zip(c, ml.items)
    }
    records = [
        {"label": output.variable_to_json(v), "dims": list(modules[i].dims)}
        for i, v in enumerate(table.variables)
    ]
    return _poset_payload(args, sp, table, records)


def cmd_torsion_count(args):
    q = fileio.parse_quiver_file(args.quiver)
    p = fileio.parse_poset_file(args.poset)
    count = cl.torsion_class_count(q, p, method=args.method)
    if args.format == "text":
        return f"{count}\n", 0
    return {"count": count}, 0


def cmd_realize(args):
    q = fileio.parse_quiver_file(args.quiver)
    try:
        raw = json.loads(args.vars)
    except json.JSONDecodeError as exc:
        raise ParseError(0, f"--vars is not valid JSON: {exc}")
    if not isinstance(raw, list):
        raise ParseError(0, "--vars must be a JSON list of cluster variables")
    svars = [output.variable_from_json(obj, q.n) for obj in raw]
    ml = reps.realize_cluster(q, svars, seed=args.seed, budget=args.probe_budget)
    modules = [
        {"label": output.variable_to_json(v), **output.representation_to_json(rep)}
        for v, rep in ml.items
    ]
    return {"modules": modules}, 0


class _VerifyInputs(SimpleNamespace):
    """``q`` and ``args``, and what the checks build from them on first use.
    The roots are every positive root of a Dynkin quiver, under ``--bound``
    too; ``poset`` is the error message when ``cluster_poset`` refuses."""

    @cached_property
    def roots(self):
        return positive_real_roots(self.q, None if self.q.is_dynkin else self.args.bound).roots

    @cached_property
    def table(self):
        return cl.cluster_table(self.q, self.args.bound)

    @cached_property
    def poset(self):
        try:
            return cl.cluster_poset(self.table)
        except SchurClustersError as exc:
            return str(exc)


def _e_invariant_formulas(v):
    pairs, bad = einv.box_sweep(v.q, v.args.box)
    return bad is None, f"mismatch at {bad}" if bad else f"{pairs} pairs in box {v.args.box}"


def _roots_closure(v):
    q, roots = v.q, v.roots
    if not q.is_dynkin:
        for r in roots:
            if (t := tits_form(q, r)) != 1:
                return False, f"tits form of {r} is {t}, not 1"
        return True, f"{len(roots)} bounded roots all have Tits form 1"
    # Every non-simple positive root is a positive root plus a simple one
    # (Humphreys, 10.2): climb from the simples while the Tits form stays 1.
    ladder = [unit(q.n, i) for i in range(1, q.n + 1)]
    found = set(ladder)
    for x in ladder:  # grows while it is read
        for y in (x[:i] + (x[i] + 1,) + x[i + 1 :] for i in range(q.n)):
            if y not in found and tits_form(q, y) == 1:
                found.add(y)
                ladder.append(y)
    if differ := found.symmetric_difference(roots):
        return False, f"mismatch at {min(differ, key=root_key)}"
    # A root's support is connected, so it lies on one component, which
    # holds k h / 2 of them: k vertices, h the Coxeter number of its type.
    for kind, vertices in dynkin_components(q):
        count = sum(1 for r in roots if any(r[v - 1] for v in vertices))
        expected = len(vertices) * coxeter_number(kind) // 2
        if count != expected:
            return False, (
                f"{count} roots on the {kind} component {vertices}, not n h / 2 = {expected}"
            )
    return True, f"{len(roots)} roots match the unit Tits locus"


def _e_closed_form(v):
    # e(a, b) = max(0, -<a, b>) on positive roots of a Dynkin quiver is
    # what einv.e_nonzero and the cluster layer rely on.  The highest
    # root's box covers every root, so one fill serves all the pairs.
    q, roots = v.q, v.roots
    if not q.is_dynkin:
        return None
    einv._fill_join(einv._memo_for(q), roots)
    for a in roots:
        for b in roots:
            if max(0, -euler_form(q, a, b)) != einv.e_invariant(q, a, b):
                return False, f"mismatch at {(a, b)}"
    return True, f"max(0, -<a, b>) equals e(a, b) on {len(roots) ** 2} root pairs"


def _cluster_count(v):
    table, size = v.table, len(v.table.variables)
    if size > 22:
        skip = f"{len(table.clusters)} clusters; subset scan not run on {size} > 22 variables"
        return None, skip
    found = {tuple(table.variables[i] for i in c) for c in table.clusters}
    naive = cl.subset_scan(v.q, table.variables)
    if differ := found.symmetric_difference(naive):
        return False, f"mismatch at {min(differ, key=cl.cluster_key)}"
    return True, f"clique search and subset scan both give {len(naive)}"


def _cluster_poset(v):
    q, cp = v.q, v.poset
    if isinstance(cp, str):
        return False, cp
    detail = f"axioms hold on {len(cp.elements)} clusters"
    if not q.is_dynkin:
        return True, detail
    # Top = projectives and bottom = negatives hold only for the full set.
    if not cp.complete:
        return True, f"{detail}; top and bottom not checked under height bound {v.args.bound}"
    if cp.top is None or cp.bottom is None:
        return False, "missing top or bottom"
    projs = tuple(sorted(projective_dimension_vectors(q), key=cl.var_key))
    if cl.split_variables(cp.elements[cp.top])[0] != projs:
        return False, "top cluster is not the projectives"
    if cl.split_variables(cp.elements[cp.bottom])[0]:
        return False, "bottom cluster has a positive member"
    return True, f"{detail}; top = projectives, bottom = negatives"


def _stilt_match(v):
    if not v.q.is_dynkin or isinstance(v.poset, str):
        return None
    sp = reps.stilt_poset(v.table, seed=v.args.seed, budget=v.args.probe_budget)
    same, witness = reps.compare_posets(v.poset, sp)
    detail = "generation order matches the cluster order" if same else f"mismatch at {witness}"
    return same, detail


def _precluster_extension(v):
    # Every precluster extends to a cluster exactly when no maximal clique
    # of the full graph is short; a bounded precluster may need a taller
    # partner.  The count is the table's cliques, the empty one included.
    q, table = v.q, v.table
    if not q.is_dynkin or isinstance(v.poset, str):
        return None
    full = table if table.complete else cl.cluster_table(q)
    count, short = 0, None
    for c, maximal in cl._cliques(full.compat):
        count += 1
        if short is None and maximal and len(c) < q.n:
            short = c
    if full is not table:
        count = sum(1 for _ in cl._cliques(table.compat))
    if short is not None:
        return False, f"no completion for {tuple(full.variables[i] for i in short)}"
    return True, f"all {count} preclusters extend to clusters"


# verify's checks in output order: name -> check(inputs), which returns
# (ok, detail) with ok None for SKIP, or None when the check does not apply.
_CHECKS = {
    "e-invariant-formulas": _e_invariant_formulas,
    "roots-closure": _roots_closure,
    "e-closed-form": _e_closed_form,
    "cluster-count": _cluster_count,
    "cluster-poset": _cluster_poset,
    "stilt-match": _stilt_match,
    "precluster-extension": _precluster_extension,
}


def cmd_verify(args):
    inputs = _VerifyInputs(q=fileio.parse_quiver_file(args.quiver), args=args)
    checks = [
        (name, *result) for name, check in _CHECKS.items() if (result := check(inputs))
    ]
    all_ok = all(ok is not False for _, ok, _ in checks)
    code = 0 if all_ok else 1
    if args.format == "json":
        entries = []
        for name, ok, detail in checks:
            entry = {"name": name, "ok": ok, "detail": detail}
            if ok is None:
                entry["skipped"] = True
            entries.append(entry)
        return {"ok": all_ok, "checks": entries}, code
    status = {True: "PASS", False: "FAIL", None: "SKIP"}
    lines = [f"{status[ok]} {name}: {detail}" for name, ok, detail in checks]
    lines.append("ok" if all_ok else "FAILED")
    return "\n".join(lines) + "\n", code


# Each command once: name -> (handler, help, *add_argument calls).
_COMMANDS = {
    "roots": (
        cmd_roots, "positive real roots",
        _QUIVER, _BOUND, _format("json", "tsv"),
    ),
    "schur": (
        cmd_schur, "real Schur roots",
        _QUIVER, _BOUND, _SEED, _BUDGET, _format("json", "tsv"),
    ),
    "einv": (
        cmd_einv, "extension invariant of a vector pair",
        _QUIVER,
        _arg("--x", type=_vec, required=True, help="comma-separated entries"),
        _arg("--y", type=_vec, required=True, help="comma-separated entries"),
        _arg("--stats", action="store_true", help="include memo statistics"),
        _format("json"),
    ),
    "preclusters": (
        cmd_preclusters, "enumerate preclusters",
        _QUIVER, _BOUND, _SEED, _BUDGET, _LARGE,
        _arg("--positive-only", dest="positive_only", action="store_true"),
        _format("json", "tsv"),
    ),
    "clusters": (
        cmd_clusters, "enumerate clusters",
        _QUIVER, _BOUND, _SEED, _BUDGET, _LARGE, _format("json", "tsv"),
    ),
    "poset": (
        cmd_poset, "cluster poset with Hasse diagram",
        _QUIVER, _BOUND, _SEED, _BUDGET, _LARGE, _format("json", "dot", "tsv"),
    ),
    "stilt": (
        cmd_stilt, "support tilting poset from realized modules",
        _QUIVER, _SEED, _BUDGET, _format("json", "dot"),
    ),
    "verify": (
        cmd_verify, "cross-oracle self checks",
        _QUIVER, _BOUND, _SEED, _BUDGET,
        _arg("--box", type=_nonnegative, default=2, help="entry bound for form sweeps"),
        _format("text", "json"),
    ),
    "torsion-count": (
        cmd_torsion_count, "monotone maps into the cluster poset",
        _QUIVER,
        _arg("--poset", required=True, metavar="FILE", help="poset text file"),
        _arg(
            "--method",
            choices=["auto", "dp", "backtrack"],
            default="auto",
            help="auto and dp contract the cluster poset's zeta matrix along the "
            "source's covers in exact float64 digits, refused with limit-exceeded "
            "when an array would pass 2^23 cells; backtrack runs the plain search "
            "kept as its cross-check (default auto)",
        ),
        _format("text", "json"),
    ),
    "realize": (
        cmd_realize, "attach verified modules to a precluster",
        _QUIVER, _SEED, _BUDGET,
        _arg(
            "--vars",
            required=True,
            help='JSON list of cluster variables, e.g. '
            '\'[{"type":"root","dim":[1,1]},{"type":"neg_simple","vertex":2}]\'',
        ),
        _format("json"),
    ),
}


def _read_args(argv):
    """The Namespace argparse gives a plain argv, read from ``_COMMANDS``;
    None for any other argv.

    Plain: a command, then only its exact long flags, each at most once,
    each value one token that does not start with "-" and passes the
    flag's type and choices, and every required flag present.  Defaults,
    ``store_true`` and ``dest`` follow argparse.  Help, abbreviations,
    ``--flag=value``, repeats, negative numbers and every error are left
    to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    ns = {"command": argv[0]}
    options, required = {}, set()
    for flags, kwargs in _COMMANDS[argv[0]][2:]:
        long = [f for f in flags if f.startswith("--")]
        dest = kwargs.get("dest")
        if dest is None:
            dest = (long or flags)[0].lstrip("-").replace("-", "_")
        switch = kwargs.get("action") == "store_true"
        ns[dest] = kwargs.get("default", False if switch else None)
        options.update((f, (dest, switch, kwargs)) for f in long)
        if kwargs.get("required"):
            required.add(dest)
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in options or options[token][0] in seen:
            return None
        dest, switch, kwargs = options[token]
        seen.add(dest)
        if switch:
            ns[dest] = True
            continue
        text = next(tokens, None)
        if text is None or text.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(text)
        except Exception:  # argparse reports it, or raises what it does not catch
            return None
        if value not in kwargs.get("choices", [value]):
            return None
        ns[dest] = value
    return SimpleNamespace(**ns) if required <= seen else None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        out, code = _COMMANDS[args.command][0](args)
        # A handler returns its text, or its JSON payload without the meta.
        if isinstance(out, dict):
            out = output.emit_json({"meta": _meta(args), **out})
    except (ParseError, UnsupportedFormat) as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error[invalid-input]: {exc}", file=sys.stderr)
        return 2
    except SchurClustersError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error[internal]: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
