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
"""

from __future__ import annotations

import json
import sys
from itertools import product
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
    euler_form,
    positive_real_roots,
    projective_dimension_vectors,
    tits_form,
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
    payload = {
        "meta": _meta(args),
        "complete": rs.complete,
        "height_bound": rs.height_bound,
        "roots": [list(r) for r in rs.roots],
    }
    return output.emit_json(payload), 0


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
        "meta": _meta(args),
        "x": list(x),
        "y": list(y),
        "e": value,
        "one_sided": [right, left],
    }
    if args.stats:
        payload["stats"] = einv.e_cache_stats(q)
    return output.emit_json(payload), 0


def _enumeration_payload(args, key, table, groups):
    """``groups``: index tuples into the table's variables."""
    if args.format == "tsv":
        labels = [cl.format_variable(v) for v in table.variables]
        return output.emit_tsv([[labels[i] for i in g] for g in groups]), 0
    payload = {
        "meta": _meta(args),
        "complete": table.complete,
        "height_bound": table.height_bound,
        "count": len(groups),
        key: output.variable_groups(table.variables, groups),
    }
    return output.emit_json(payload), 0


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
    payload = {
        "meta": _meta(args),
        "complete": p.complete,
        "height_bound": p.height_bound,
        "elements": output.IndexedGroups(records, table.clusters),
        "hasse": [list(e) for e in p.hasse],
        "top": p.top,
        "bottom": p.bottom,
    }
    return output.emit_json(payload), 0


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
    return output.emit_json({"meta": _meta(args), "count": count}), 0


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
    payload = {
        "meta": _meta(args),
        "modules": [
            {
                "label": output.variable_to_json(v),
                **output.representation_to_json(rep),
            }
            for v, rep in ml.items
        ],
    }
    return output.emit_json(payload), 0


def _verification_checks(q, args):
    """The checks as (name, ok, detail) triples; ok is None for a check
    skipped because its input is too large."""
    checks = []

    pairs, bad = einv.box_sweep(q, args.box)
    detail = f"{pairs} pairs in box {args.box}" if bad is None else f"mismatch at {bad}"
    checks.append(("e-invariant-formulas", bad is None, detail))

    if q.is_dynkin:
        rs = positive_real_roots(q)
        maxent = max(max(r) for r in rs.roots)
        space = (maxent + 1) ** q.n
        if space <= 300000:
            grid = {
                x
                for x in product(range(maxent + 1), repeat=q.n)
                if any(x) and tits_form(q, x) == 1
            }
            ok = grid == set(rs.roots)
            detail = f"{len(rs.roots)} roots match the unit Tits locus"
        else:
            ok, detail = None, f"grid of {space} vectors exceeds 300000"
    else:
        rs = positive_real_roots(q, args.bound)
        ok = all(tits_form(q, r) == 1 for r in rs.roots)
        detail = f"{len(rs.roots)} bounded roots all have Tits form 1"
    checks.append(("roots-closure", ok, detail))

    if q.is_dynkin:
        # e(a, b) = max(0, -<a, b>) on positive roots of a Dynkin quiver is
        # what einv.e_nonzero and the cluster layer rely on.  The highest
        # root's box covers every root, so one fill serves all the pairs.
        einv._fill_join(einv._memo_for(q), rs.roots)
        bad = next(
            (
                (a, b)
                for a in rs.roots
                for b in rs.roots
                if max(0, -euler_form(q, a, b)) != einv.e_invariant(q, a, b)
            ),
            None,
        )
        detail = f"max(0, -<a, b>) equals e(a, b) on {len(rs.roots) ** 2} root pairs"
        if bad is not None:
            detail = f"mismatch at {bad}"
        checks.append(("e-closed-form", bad is None, detail))

    table = cl.cluster_table(q, args.bound)
    clusters, v = table.clusters, table.variables
    size = len(v)
    if size <= 22:
        naive = cl.subset_scan(q, v)
        ok = tuple(tuple(v[i] for i in c) for c in clusters) == naive
        detail = f"clique search and subset scan both give {len(naive)}"
    else:
        ok = None
        detail = (
            f"{len(clusters)} clusters; subset scan not run on {size} > 22 variables"
        )
    checks.append(("cluster-count", ok, detail))

    try:
        cp = cl.cluster_poset(table)
        ok, detail = True, f"axioms hold on {len(cp.elements)} clusters"
        # Top = projectives and bottom = negatives hold only for the full set.
        if q.is_dynkin and cp.complete:
            if cp.top is None or cp.bottom is None:
                ok, detail = False, "missing top or bottom"
            else:
                top_pos = cl.split_variables(cp.elements[cp.top])[0]
                projs = tuple(sorted(projective_dimension_vectors(q), key=cl.var_key))
                if top_pos != projs:
                    ok, detail = False, "top cluster is not the projectives"
                elif cl.split_variables(cp.elements[cp.bottom])[0]:
                    ok, detail = False, "bottom cluster has a positive member"
                else:
                    detail += "; top = projectives, bottom = negatives"
        elif q.is_dynkin:
            detail += f"; top and bottom not checked under height bound {args.bound}"
    except SchurClustersError as exc:
        ok, detail = False, str(exc)
        cp = None
    checks.append(("cluster-poset", ok, detail))

    if q.is_dynkin and cp is not None:
        sp = reps.stilt_poset(table, seed=args.seed, budget=args.probe_budget)
        same, witness = reps.compare_posets(cp, sp)
        detail = "generation order matches the cluster order"
        if not same:
            detail = f"mismatch at {witness}"
        checks.append(("stilt-match", same, detail))
        # Every precluster extends to a cluster exactly when no maximal clique
        # of the full graph is short; a bounded precluster may need a taller
        # partner.  The count is the table's cliques, the empty one included.
        full = table
        if not table.complete:
            full = cl.cluster_table(q)
        count, short = 0, None
        for c, maximal in cl._cliques(full.compat):
            count += 1
            if short is None and maximal and len(c) < q.n:
                short = c
        if full is not table:
            count = sum(1 for _ in cl._cliques(table.compat))
        detail = f"all {count} preclusters extend to clusters"
        if short is not None:
            detail = f"no completion for {tuple(full.variables[i] for i in short)}"
        checks.append(("precluster-extension", short is None, detail))
    return checks


def cmd_verify(args):
    q = fileio.parse_quiver_file(args.quiver)
    checks = _verification_checks(q, args)
    all_ok = all(ok is not False for _, ok, _ in checks)
    code = 0 if all_ok else 1
    if args.format == "json":
        entries = []
        for name, ok, detail in checks:
            entry = {"name": name, "ok": ok, "detail": detail}
            if ok is None:
                entry["skipped"] = True
            entries.append(entry)
        payload = {"meta": _meta(args), "ok": all_ok, "checks": entries}
        return output.emit_json(payload), code
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
        text, code = _COMMANDS[args.command][0](args)
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
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
