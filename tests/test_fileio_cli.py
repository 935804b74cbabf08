"""Text formats, JSON emission, and the command line front end."""

import argparse
import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schur_clusters import Quiver, build_poset, cli, einv, errors, negative_simple, reps
from schur_clusters import clusters as cl
from schur_clusters.cli import main
from schur_clusters.fileio import (
    emit_poset_text,
    emit_quiver_text,
    parse_poset_text,
    parse_quiver_text,
)
from schur_clusters.output import (
    emit_dot,
    emit_json,
    emit_tsv,
    fraction_str,
    representation_to_json,
    variable_from_json,
    variable_to_json,
)
from schur_clusters.quiver import RootSet, coxeter_number
from schur_clusters.reps import make_representation

from oracles import e_sweep_oracle, random_poset_matrix


class TestQuiverText:
    def test_parse_basic(self):
        q = parse_quiver_text("n 3\n1 2\n2 3\n")
        assert q.n == 3 and q.arrows == ((1, 2), (2, 3))

    def test_comments_and_blanks(self):
        q = parse_quiver_text("# title\n\nn 2  # two vertices\n1 2 # arrow\n")
        assert q.n == 2 and q.arrows == ((1, 2),)

    def test_round_trip(self, d4, kronecker):
        for q in (d4, kronecker):
            assert parse_quiver_text(emit_quiver_text(q)) == q

    def test_error_carries_line_number(self):
        with pytest.raises(errors.ParseError) as info:
            parse_quiver_text("n 2\n1 2 3\n")
        assert "line 2" in str(info.value)

    def test_missing_header(self):
        with pytest.raises(errors.ParseError):
            parse_quiver_text("1 2\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(errors.ParseError):
            parse_quiver_text("n 2\n1 5\n")


class TestPosetText:
    def test_parse_and_round_trip(self):
        p = parse_poset_text("n 4\n1 2\n2 3\n2 4\n")
        assert p.n == 4
        assert bool(p.leq[0, 3])
        rng = random.Random(41)
        orders = [np.array(random_poset_matrix(rng, rng.randint(1, 9))) for _ in range(40)]
        for p in [p] + [build_poset(len(leq), relation=leq) for leq in orders]:
            again = parse_poset_text(emit_poset_text(p))
            assert np.array_equal(again.leq, p.leq)
            assert again.hasse == p.hasse

    def test_self_cover_rejected(self):
        with pytest.raises(errors.ParseError):
            parse_poset_text("n 2\n1 1\n")

    def test_cycle_rejected(self):
        with pytest.raises(errors.NotAntisymmetric) as info:
            parse_poset_text("n 3\n1 2\n2 3\n3 2\n")
        assert info.value.info["pair"] == (2, 3)  # the file's own numbering


class TestOutputHelpers:
    def test_variable_json_round_trip(self):
        for v in [(1, 1), (-1, 0)]:
            assert variable_from_json(variable_to_json(v), 2) == v

    def test_variable_from_json_validates(self):
        with pytest.raises(errors.ParseError):
            variable_from_json({"type": "root"}, 2)
        with pytest.raises(errors.ParseError):
            variable_from_json({"type": "neg_simple", "vertex": 9}, 2)
        with pytest.raises(errors.ParseError):
            variable_from_json(["nope"], 2)

    def test_fraction_str(self):
        from fractions import Fraction

        assert fraction_str(Fraction(3, 2)) == "3/2"
        assert fraction_str(Fraction(2)) == "2/1"

    def test_representation_json(self, a2):
        rep = make_representation(a2, (1, 1), [((2,),)])
        js = representation_to_json(rep)
        assert js["dims"] == [1, 1]
        assert js["matrices"] == [[["2/1"]]]

    def test_emit_json_deterministic_bytes(self):
        payload = {"b": 1, "a": [1, 2]}
        assert emit_json(payload) == emit_json({"a": [1, 2], "b": 1})
        assert emit_json(payload).endswith("\n")

    def test_emit_tsv(self):
        assert emit_tsv([(1, 2), ("x", "y")]) == "1\t2\nx\ty\n"

    def test_emit_dot_escapes_quotes(self):
        out = emit_dot(['say "hi"'], [])
        assert '\\"hi\\"' in out


# verify's lines on A2 and on Kronecker under --bound 3, by check name.
_A2_VERIFY = {
    "e-invariant-formulas": "PASS e-invariant-formulas: 81 pairs in box 2",
    "roots-closure": "PASS roots-closure: 3 roots match the unit Tits locus",
    "e-closed-form": "PASS e-closed-form: max(0, -<a, b>) equals e(a, b) on 9 root pairs",
    "cluster-count": "PASS cluster-count: clique search and subset scan both give 5",
    "cluster-poset": "PASS cluster-poset: axioms hold on 5 clusters; "
    "top = projectives, bottom = negatives",
    "stilt-match": "PASS stilt-match: generation order matches the cluster order",
    "precluster-extension": "PASS precluster-extension: all 11 preclusters extend to clusters",
}
_KRON_B3_VERIFY = {
    "e-invariant-formulas": "PASS e-invariant-formulas: 81 pairs in box 2",
    "roots-closure": "PASS roots-closure: 4 bounded roots all have Tits form 1",
    "cluster-count": "PASS cluster-count: clique search and subset scan both give 5",
    "cluster-poset": "PASS cluster-poset: axioms hold on 5 clusters",
}


def _one_e_off(mp):
    e = einv.e_invariant
    mp.setattr(einv, "e_invariant", lambda q, x, y: e(q, x, y) + ((x, y) == ((0, 1), (1, 1))))


def _poset_not_antisymmetric(mp):
    def refuse(table):
        raise errors.NotAntisymmetric(0, 1)

    mp.setattr(cl, "cluster_poset", refuse)


def _simples_as_projectives(mp):
    mp.setattr(cli, "projective_dimension_vectors", lambda q: [(1, 0), (0, 1)])


def _orders_differ(mp):
    mp.setattr(reps, "compare_posets", lambda p1, p2: (False, (0, 1)))


def _scan_drops_first_and_last_clusters(mp):
    scan = cl.subset_scan
    mp.setattr(cl, "subset_scan", lambda q, variables: scan(q, variables)[1:-1])


def _highest_root_dropped(mp):
    roots = cli.positive_real_roots

    def dropped(q, bound=None):
        rs = roots(q, bound)
        return RootSet(rs.roots[:-1], rs.height_bound, rs.complete)

    mp.setattr(cli, "positive_real_roots", dropped)


def _tits_form_two(mp):
    mp.setattr(cli, "tits_form", lambda q, x: 2)


def _coxeter_number_off(mp):
    mp.setattr(cli, "coxeter_number", lambda kind: 4)


_VERIFY_FAILURES = {
    "e-closed-form": (
        "a2", [], _one_e_off, _A2_VERIFY,
        {"e-closed-form": "FAIL e-closed-form: mismatch at ((0, 1), (1, 1))"},
    ),
    # The two checks that read the poset are left out, as on any poset error.
    "cluster-poset-axioms": (
        "a2", [], _poset_not_antisymmetric, _A2_VERIFY,
        {
            "cluster-poset": "FAIL cluster-poset: elements 0 and 1 compare both ways",
            "stilt-match": None,
            "precluster-extension": None,
        },
    ),
    "cluster-poset-top": (
        "a2", [], _simples_as_projectives, _A2_VERIFY,
        {"cluster-poset": "FAIL cluster-poset: top cluster is not the projectives"},
    ),
    "stilt-match": (
        "a2", [], _orders_differ, _A2_VERIFY,
        {"stilt-match": "FAIL stilt-match: mismatch at (0, 1)"},
    ),
    "cluster-count": (
        "a2", [], _scan_drops_first_and_last_clusters, _A2_VERIFY,
        {"cluster-count": "FAIL cluster-count: mismatch at ((-1, 0), (0, -1))"},
    ),
    # e-closed-form reads the same root set, so it runs on 2 x 2 pairs.
    "roots-closure-dynkin": (
        "a2", [], _highest_root_dropped, _A2_VERIFY,
        {
            "roots-closure": "FAIL roots-closure: mismatch at (1, 1)",
            "e-closed-form": "PASS e-closed-form: max(0, -<a, b>) equals e(a, b) "
            "on 4 root pairs",
        },
    ),
    # A2 has 2 * 3 / 2 positive roots; a wrong h names the component.
    "roots-closure-count": (
        "a2", [], _coxeter_number_off, _A2_VERIFY,
        {"roots-closure": "FAIL roots-closure: 3 roots on the A2 component (1, 2), "
         "not n h / 2 = 4"},
    ),
    "roots-closure-bounded": (
        "kronecker", ["--bound", "3"], _tits_form_two, _KRON_B3_VERIFY,
        {"roots-closure": "FAIL roots-closure: tits form of (0, 1) is 2, not 1"},
    ),
}


@pytest.fixture
def quiver_file(tmp_path):
    def write(name, q):
        path = tmp_path / name
        path.write_text(emit_quiver_text(q))
        return str(path)

    return write


class TestCli:
    def test_roots_json(self, capsys, quiver_file, a2):
        path = quiver_file("a2.quiver", a2)
        assert main(["roots", "--quiver", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["roots"] == [[0, 1], [1, 0], [1, 1]]
        assert payload["complete"] is True
        assert payload["meta"]["threads"] == 1

    def test_einv_command(self, capsys, quiver_file, a2):
        path = quiver_file("a2.quiver", a2)
        assert main(["einv", "--quiver", path, "--x", "1,0", "--y", "0,1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["e"] == 1
        assert payload["one_sided"] == [1, 1]

    def test_einv_oversize_box_exits_1(self, capsys, quiver_file, wild):
        path = quiver_file("wild.quiver", wild)
        argv = ["einv", "--quiver", path, "--x", "40,40,40", "--y", "1,1,1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[limit-exceeded]: ")

    def test_einv_stats_count_top_level_queries(self, quiver_file, wild):
        # A fresh process, so the per-quiver memo starts cold.  One query
        # misses once; its fill stores the set of every cell of the 8^3 box.
        path = quiver_file("wild.quiver", wild)
        argv = ["einv", "--quiver", path, "--x", "7,7,7", "--y", "7,7,7", "--stats"]
        proc = subprocess.run(
            [sys.executable, "-m", "schur_clusters", *argv],
            capture_output=True, text=True, check=True,
        )
        payload = json.loads(proc.stdout)
        assert proc.stdout == emit_json(payload)
        assert payload["stats"] == {
            "pairs": 1, "summand_sets": 512, "hits": 0, "misses": 1
        }
        assert proc.stderr == ""

    def test_einv_failed_exactness_bound_exits_3(
        self, capsys, monkeypatch, quiver_file, wild
    ):
        monkeypatch.setattr(einv, "_EXACT_LIMIT", 1)
        monkeypatch.delitem(einv._MEMOS, wild, raising=False)
        path = quiver_file("wild.quiver", wild)
        assert main(["einv", "--quiver", path, "--x", "1,2,0", "--y", "2,0,1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[internal]: ")

    def test_clusters_tsv(self, capsys, quiver_file, a2):
        path = quiver_file("a2.quiver", a2)
        assert main(["clusters", "--quiver", path, "--format", "tsv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        assert lines[0] == "-e1\t-e2"

    def test_poset_dot(self, capsys, quiver_file, a2):
        path = quiver_file("a2.quiver", a2)
        assert main(["poset", "--quiver", path, "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph poset {")
        assert out.count("->") == 5

    def test_verify_ok(self, capsys, quiver_file, a2):
        path = quiver_file("a2.quiver", a2)
        assert main(["verify", "--quiver", path]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.strip().endswith("ok")

    def test_verify_negative_box_exits_2(self, capsys, quiver_file, a2):
        # A negative box sweeps no pair, so it must not pass as a check.
        path = quiver_file("a2.quiver", a2)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--quiver", path, "--box", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: schur-clusters verify ")
        assert "argument --box: expected a non-negative integer, got '-1'" in captured.err

    def test_verify_oversize_box_is_refused_at_once(self, capsys, monkeypatch, quiver_file, a2):
        # 91^2 = 8281 cells: the top box is filled first, so nothing is swept.
        monkeypatch.setitem(einv._MEMOS, a2, einv._Memo(a2))
        path = quiver_file("a2.quiver", a2)
        assert main(["verify", "--quiver", path, "--box", "90"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[limit-exceeded]: ")
        assert "[90, 90]" in lines[0]
        assert einv.e_cache_stats(a2)["summand_sets"] == 0

    def test_verify_reports_the_first_sweep_witness(
        self, capsys, monkeypatch, quiver_file, a3
    ):
        # A corrupt stored set: verify's FAIL line names the pair where the
        # per-pair loop over e_invariant and e_invariant_alt stops.
        memo = einv._Memo(a3)
        monkeypatch.setitem(einv._MEMOS, a3, memo)
        einv._fill(memo, (2, 2, 2))
        s = memo.sets[(1, 0, 1)]
        monkeypatch.setitem(memo.sets, (1, 0, 1), s[(s != (1, 0, 0)).any(axis=1)])
        _, bad = e_sweep_oracle(a3, 2)
        assert bad is not None
        path = quiver_file("a3.quiver", a3)
        assert main(["verify", "--quiver", path]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"FAIL e-invariant-formulas: mismatch at {bad}"
        assert lines[-1] == "FAILED"

    @pytest.mark.parametrize(
        "name, extra", [("a3", []), ("d4", ["--bound", "3", "--box", "0"])]
    )
    def test_verify_names_a_short_maximal_clique(
        self, capsys, monkeypatch, quiver_file, request, name, extra
    ):
        # A real clique, {-e1, -e2}, marked maximal: precluster-extension
        # fails and names it, while the clusters (their own walk) stay.
        cliques = cl._cliques

        def one_short(compat):
            for c, maximal in cliques(compat):
                yield c, maximal or c == (0, 1)

        monkeypatch.setattr(cl, "_cliques", one_short)
        q = request.getfixturevalue(name)
        path = quiver_file(f"{name}.quiver", q)
        assert main(["verify", "--quiver", path] + extra) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        short = (negative_simple(q, 1), negative_simple(q, 2))
        assert lines[-2] == f"FAIL precluster-extension: no completion for {short}"
        assert lines[-1] == "FAILED"
        assert all(line.startswith(("PASS ", "SKIP ")) for line in lines[:-2])

    def test_verify_calls_e_invariant_only_on_root_pairs(
        self, capsys, monkeypatch, quiver_file, a3
    ):
        # The box sweep makes no per-pair call; e-closed-form makes one for
        # each of A3's 6 x 6 root pairs.
        calls = []
        pair_e = einv.e_invariant

        def counted(q, x, y):
            calls.append((x, y))
            return pair_e(q, x, y)

        monkeypatch.setattr(einv, "e_invariant", counted)
        path = quiver_file("a3.quiver", a3)
        assert main(["verify", "--quiver", path]) == 0
        assert "PASS e-invariant-formulas: 729 pairs in box 2" in capsys.readouterr().out
        assert len(calls) == 36

    def test_verify_negative_sweep_value_exits_3(self, capsys, monkeypatch, quiver_file, a2):
        # Shifting every block minimum up by one makes e(0, 0) = -1 at the
        # first pair: a negative value is an internal error before a mismatch.
        colmin = einv._colmin
        monkeypatch.setattr(einv, "_colmin", lambda a, rows: colmin(a, rows) + 1)
        path = quiver_file("a2.quiver", a2)
        assert main(["verify", "--quiver", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[internal]: ")
        assert "negative (-1)" in lines[0]

    @pytest.mark.parametrize("command", ["schur", "realize"])
    def test_negative_probe_budget_exits_2(self, capsys, quiver_file, a2, command):
        # A negative budget is a usage error (exit 2), refused before any work.
        path = quiver_file("a2.quiver", a2)
        argv = [command, "--quiver", path, "--probe-budget", "-1"]
        if command == "realize":
            argv += ["--vars", '[{"type":"root","dim":[1,1]}]']
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: schur-clusters {command} ")
        assert "argument --probe-budget: expected a non-negative integer, got '-1'" in (
            captured.err
        )

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize(
        "command", [c for c, entry in cli._COMMANDS.items() if cli._BOUND in entry]
    )
    def test_bound_below_one_exits_2(self, capsys, quiver_file, a2, command, value):
        # A usage error, not the library's bound-required refusal (exit 1).
        path = quiver_file("a2.quiver", a2)
        with pytest.raises(SystemExit) as exc:
            main([command, "--quiver", path, "--bound", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: schur-clusters {command} ")
        lines = captured.err.splitlines()
        assert sum("error" in line for line in lines) == 1
        assert lines[-1] == (
            f"schur-clusters {command}: error: argument --bound: "
            f"expected a positive integer, got '{value}'"
        )

    def test_torsion_count_text(self, capsys, quiver_file, a2, tmp_path):
        qpath = quiver_file("a2.quiver", a2)
        ppath = tmp_path / "p.poset"
        ppath.write_text("n 1\n")
        assert main(["torsion-count", "--quiver", qpath, "--poset", str(ppath)]) == 0
        assert capsys.readouterr().out == "5\n"

    def test_torsion_count_wide_source_exits_1(self, capsys, quiver_file, a2, tmp_path):
        # Eleven minimal elements under one top: the count would hold an
        # array of 5^11 cells over A2's five clusters, so it is refused.
        qpath = quiver_file("a2.quiver", a2)
        ppath = tmp_path / "wide.poset"
        ppath.write_text("n 12\n" + "".join(f"{i} 12\n" for i in range(1, 12)))
        argv = ["torsion-count", "--quiver", qpath, "--poset", str(ppath)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[limit-exceeded]: ")

    def test_missing_file_exits_2(self, capsys):
        assert main(["roots", "--quiver", "/nonexistent.quiver"]) == 2
        assert "error[io]" in capsys.readouterr().err

    def test_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.quiver"
        bad.write_text("nonsense\n")
        assert main(["roots", "--quiver", str(bad)]) == 2
        assert "error[parse-error]" in capsys.readouterr().err

    def test_domain_error_exits_1(self, capsys, quiver_file, kronecker):
        path = quiver_file("k.quiver", kronecker)
        assert main(["roots", "--quiver", path]) == 1
        assert "error[bound-required]" in capsys.readouterr().err

    def test_stilt_rejects_non_dynkin(self, capsys, quiver_file, kronecker):
        path = quiver_file("k.quiver", kronecker)
        assert main(["stilt", "--quiver", path]) == 1
        assert "error[not-dynkin]" in capsys.readouterr().err

    def test_large_guard(self, capsys, quiver_file, e6):
        path = quiver_file("e6.quiver", e6)
        assert main(["clusters", "--quiver", path]) == 1
        assert "error[limit-exceeded]" in capsys.readouterr().err

    def test_realize_round_trip(self, capsys, quiver_file, a2):
        path = quiver_file("a2.quiver", a2)
        vars_json = json.dumps(
            [
                {"type": "neg_simple", "vertex": 1},
                {"type": "root", "dim": [0, 1]},
            ]
        )
        assert main(["realize", "--quiver", path, "--vars", vars_json]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["modules"]) == 2
        dims = [m["dims"] for m in payload["modules"]]
        assert dims == [[0, 0], [0, 1]]

    def test_realize_non_precluster_exits_1(self, capsys, quiver_file, a2):
        path = quiver_file("a2.quiver", a2)
        vars_json = json.dumps(
            [{"type": "root", "dim": [1, 0]}, {"type": "root", "dim": [0, 1]}]
        )
        assert main(["realize", "--quiver", path, "--vars", vars_json]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[not-a-precluster]: ")

    def test_realize_non_root_exits_1(self, capsys, quiver_file, a2):
        path = quiver_file("a2.quiver", a2)
        vars_json = json.dumps([{"type": "root", "dim": [2, 0]}])
        assert main(["realize", "--quiver", path, "--vars", vars_json]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error[not-a-precluster]: ")

    @pytest.mark.parametrize(
        "name, dim, flags, code",
        [
            ("wild", [1, 1, 1], [], "not-a-precluster"),  # Tits form 0
            ("kronecker", [2, 3], ["--probe-budget", "0"], "probe-exhausted"),
        ],
        ids=["wild-non-root", "kronecker-no-budget"],
    )
    def test_realize_refusal_off_dynkin(
        self, capsys, quiver_file, request, name, dim, flags, code
    ):
        path = quiver_file(f"{name}.quiver", request.getfixturevalue(name))
        vars_json = json.dumps([{"type": "root", "dim": dim}])
        assert main(["realize", "--quiver", path, "--vars", vars_json, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error[{code}]: ")

    def test_verify_reports_skipped_checks_as_skip(self, capsys, quiver_file):
        d5 = Quiver(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
        path = quiver_file("d5.quiver", d5)
        assert main(["verify", "--quiver", path, "--box", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "ok"
        assert any(line.startswith("SKIP cluster-count: ") for line in lines)
        assert "PASS precluster-extension: all 1233 preclusters extend to clusters" in lines
        assert not any(line.startswith("FAIL") for line in lines)
        assert "PASS e-closed-form: max(0, -<a, b>) equals e(a, b) on 400 root pairs" in lines

    def test_verify_json_marks_only_skipped_checks(self, capsys, quiver_file):
        d5 = Quiver(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
        path = quiver_file("d5.quiver", d5)
        argv = ["verify", "--quiver", path, "--box", "0", "--format", "json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        skipped = {c["name"] for c in payload["checks"] if c.get("skipped")}
        assert skipped == {"cluster-count"}
        for check in payload["checks"]:
            assert check["ok"] is (None if check["name"] in skipped else True)
            assert ("skipped" in check) == (check["name"] in skipped)

    def test_verify_under_height_bound_runs_stilt_match(self, capsys, quiver_file, a3):
        # The bound leaves 5 of A3's 14 clusters; both orders are built on
        # exactly those 5, so they are compared element by element.
        path = quiver_file("a3.quiver", a3)
        assert main(["verify", "--quiver", path, "--bound", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[-1] == "ok"
        assert any(line.startswith("PASS cluster-poset: axioms hold on 5 clusters")
                   for line in lines)
        assert "PASS stilt-match: generation order matches the cluster order" in lines
        assert not any(line.startswith(("FAIL", "SKIP")) for line in lines)

    def test_verify_json_under_height_bound(self, capsys, quiver_file, a3):
        path = quiver_file("a3.quiver", a3)
        argv = ["verify", "--quiver", path, "--bound", "1", "--format", "json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        checks = {c["name"]: c for c in payload["checks"]}
        assert checks["stilt-match"]["ok"] is True
        assert "skipped" not in checks["stilt-match"]
        assert checks["cluster-poset"]["ok"] is True

    def test_bounded_verify_extends_preclusters_past_the_bound(self, capsys):
        # Under --bound 3 the golden D4 precluster {(1,0,1,1), (1,1,0,1),
        # (1,1,1,0)} completes only with (1,1,1,1), of height 4: extension
        # is judged against every cluster, not the 34 within the bound.
        d4 = str(Path(__file__).parent / "golden" / "d4.quiver")
        argv = ["verify", "--quiver", d4, "--bound", "3", "--box", "0"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "PASS cluster-count: clique search and subset scan both give 34" in lines
        assert "PASS precluster-extension: all 179 preclusters extend to clusters" in lines
        assert lines[-1] == "ok"

    def test_roots_closure_climbs_to_every_e8_root(self):
        # E8 has n * h / 2 = 8 * 30 / 2 positive roots (h the Coxeter number).
        e8 = Quiver(8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)])
        inputs = cli._VerifyInputs(q=e8, args=argparse.Namespace(bound=None))
        assert cli._roots_closure(inputs) == (True, "120 roots match the unit Tits locus")

    def test_roots_closure_counts_each_component(self, monkeypatch):
        # A2 + A1 + D4: 3 + 1 + 12 roots, one component at a time.
        q = Quiver(7, [(2, 1), (4, 5), (4, 6), (4, 7)])
        inputs = cli._VerifyInputs(q=q, args=argparse.Namespace(bound=None))
        assert cli._roots_closure(inputs) == (True, "16 roots match the unit Tits locus")
        # h(D4) = 6 read as 5: only that component is named.
        wrong = {"D4": 5}
        monkeypatch.setattr(cli, "coxeter_number", lambda k: wrong.get(k) or coxeter_number(k))
        assert cli._roots_closure(inputs) == (
            False, "12 roots on the D4 component (4, 5, 6, 7), not n h / 2 = 10"
        )

    @pytest.mark.parametrize("case", sorted(_VERIFY_FAILURES))
    def test_verify_fail_line_names_its_witness(
        self, capsys, monkeypatch, quiver_file, request, case
    ):
        name, extra, patch, lines, changed = _VERIFY_FAILURES[case]
        patch(monkeypatch)
        path = quiver_file(f"{name}.quiver", request.getfixturevalue(name))
        assert main(["verify", "--quiver", path] + extra) == 1
        out = [changed.get(check, line) for check, line in lines.items()]
        expected = "\n".join([line for line in out if line is not None] + ["FAILED"])
        assert capsys.readouterr() == (expected + "\n", "")

    def test_internal_error_exits_3_on_one_line(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("internal error: invariant broken")

        monkeypatch.setitem(cli._COMMANDS, "roots", (broken, *cli._COMMANDS["roots"][1:]))
        assert main(["roots", "--quiver", "unused.quiver"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error[internal]: internal error: invariant broken\n"

    @pytest.mark.parametrize(
        "vars_json",
        ['[{"type":"neg_simple","vertex":true}]', '[{"type":"root","dim":[true,false]}]'],
    )
    def test_json_booleans_are_not_integers(self, capsys, quiver_file, a2, vars_json):
        # json reads true as True, an int equal to 1: -e1 and (1,0) otherwise.
        path = quiver_file("a2.quiver", a2)
        assert main(["realize", "--quiver", path, "--vars", vars_json]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error[parse-error]: ")

    def test_bad_vars_json_exits_2(self, capsys, quiver_file, a2):
        path = quiver_file("a2.quiver", a2)
        assert main(["realize", "--quiver", path, "--vars", "{oops"]) == 2
        assert "error[parse-error]" in capsys.readouterr().err

    def test_schur_kronecker(self, capsys, quiver_file, kronecker):
        path = quiver_file("k.quiver", kronecker)
        assert main(["schur", "--quiver", path, "--bound", "5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["complete"] is False
        assert [1, 2] in payload["roots"]

    def test_cli_import_does_not_load_networkx(self):
        code = "import schur_clusters.cli, sys; assert 'networkx' not in sys.modules"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()

    def test_plain_calls_load_no_argparse(self, quiver_file, a2, tmp_path):
        # A plain argv is read from the command table; help and bad flags
        # still go through argparse.
        probe = (
            "import json, sys\n"
            "from schur_clusters.cli import main\n"
            "try:\n"
            "    code = main(json.loads(sys.argv[1]))\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "mods = [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules]\n"
            "print(json.dumps([code, mods]))\n"
        )

        def run(*argv):
            proc = subprocess.run(
                [sys.executable, "-c", probe, json.dumps(argv)],
                capture_output=True, text=True,
            )
            return json.loads(proc.stdout.splitlines()[-1])

        qpath = quiver_file("a2.quiver", a2)
        ppath = tmp_path / "p.poset"
        ppath.write_text("n 1\n")
        plain_count = ("torsion-count", "--quiver", qpath, "--poset", str(ppath))
        assert run(*plain_count) == [0, []]
        assert run("einv", "--quiver", qpath, "--x", "1,0", "--y", "0,1") == [0, []]
        code, mods = run(*plain_count, "--help")
        assert code == 0 and "argparse" in mods
        code, mods = run(*plain_count, "--bogus")
        assert code == 2 and "argparse" in mods

    def test_plain_calls_load_no_openssl_or_dataclasses(self, quiver_file, a2, wild):
        # Probe seeds come from _blake2 and the value classes from
        # quiver.Record, so no call loads hashlib (OpenSSL) or dataclasses.
        wpath = quiver_file("wild.quiver", wild)
        apath = quiver_file("a2.quiver", a2)
        calls = [
            ["schur", "--quiver", wpath, "--bound", "4"],
            ["stilt", "--quiver", apath],
            ["einv", "--quiver", wpath, "--x", "1,1,1", "--y", "1,2,1"],
        ]
        probe = (
            "import contextlib, io, json, sys\n"
            "from schur_clusters.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "mods = [m for m in ('_hashlib', 'hashlib', 'dataclasses') if m in sys.modules]\n"
            "print(json.dumps([codes, mods]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe, json.dumps(calls)], capture_output=True, text=True
        )
        assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0, 0], []], proc.stderr

    def test_module_entry_point_help(self):
        # main(None) reads sys.argv, which the in-process tests never reach.
        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "schur_clusters", *argv],
                capture_output=True, text=True,
            )

        top = run("--help")
        assert top.returncode == 0, top.stderr
        assert all(f"    {name} " in top.stdout for name in cli._COMMANDS)
        sub = run("torsion-count", "--help")
        assert sub.returncode == 0, sub.stderr
        assert sub.stdout.startswith("usage: schur-clusters torsion-count ")

    def test_same_process_determinism(self, capsys, quiver_file, d4):
        path = quiver_file("d4.quiver", d4)
        outs = []
        for _ in range(2):
            assert main(["poset", "--quiver", path]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


# A valid argv for each command; the fallback parser is run on it and on six
# malformed tails.
_VALID_ARGV = {
    "roots": ["--quiver", "q", "--bound", "3", "--format", "tsv"],
    "schur": ["--quiver", "q", "--seed", "2", "--probe-budget", "4"],
    "einv": ["--quiver", "q", "--x", "1,0", "--y", "0,1", "--stats"],
    "preclusters": ["--quiver", "q", "--positive-only", "--allow-large"],
    "clusters": ["--quiver", "q", "--bound", "2"],
    "poset": ["--quiver", "q", "--format", "dot"],
    "stilt": ["--quiver", "q", "--format", "dot"],
    "verify": ["--quiver", "q", "--box", "1", "--format", "json"],
    "torsion-count": ["--quiver", "q", "--poset", "p", "--method", "dp"],
    "realize": ["--quiver", "q", "--vars", "[]"],
}


def _parse(argv, capsys):
    """The fallback parser's Namespace, or the exit code, stdout and stderr
    of its exit."""
    try:
        return cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


class TestOneCommandParser:
    """The fallback parser, one command at a time."""

    def test_table_covers_every_command(self):
        assert set(_VALID_ARGV) == set(cli._COMMANDS)
        assert len(cli._COMMANDS) == 10

    @pytest.mark.parametrize("cmd", list(_VALID_ARGV))
    @pytest.mark.parametrize(
        "tail",
        [
            ["--help"],
            [],
            ["--bogus"],
            ["--format", "xml"],
            ["--quiver"],
            ["--seed", "x"],
            ["extra"],
        ],
        ids=["help", "valid", "unknown-flag", "bad-choice", "no-value", "bad-int",
             "extra-positional"],
    )
    @pytest.mark.parametrize("columns", ["80", "47"])
    def test_same_as_full_parser(self, cmd, tail, columns, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", columns)
        argv = [cmd, *_VALID_ARGV[cmd], *tail]
        parsed = _parse(argv, capsys)
        if tail == []:
            assert parsed.command == cmd
        else:
            assert parsed[0] == (0 if tail == ["--help"] else 2)

    @pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["-x"]])
    def test_top_level_lists_every_command(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == (0 if argv == ["--help"] else 2)
        assert "{" + ",".join(cli._COMMANDS) + "}" in captured.out + captured.err


def _good_value(kwargs):
    """Values that pass an argument's type and choices."""
    if "choices" in kwargs:
        return st.sampled_from(kwargs["choices"])
    kind = kwargs.get("type")
    if kind is None:
        return st.text(max_size=6).filter(lambda t: not t.startswith("-"))
    if kind is cli._vec:
        return st.lists(st.integers(0, 9), min_size=1, max_size=3).map(
            lambda v: ",".join(map(str, v))
        )
    return st.integers(1, 99).map(str)


_ODD = ["-3", "-1", "0", "-", "--", "-h", "--help", "", "a b", "x", "1,x", "xml", "1.5"]
_EDITS = ["abbreviate", "equals", "repeat", "odd-token", "odd-value", "drop"]


@st.composite
def _argvs(draw):
    """(argv, plain) for a command drawn from the table.  A plain argv has
    exact flags, each once, good values and every required flag; the
    others have one to three edits."""
    cmd = draw(st.sampled_from(list(cli._COMMANDS)))
    pieces = []
    for (flag,), kwargs in cli._COMMANDS[cmd][2:]:
        if kwargs.get("required") or draw(st.booleans()):
            value = [] if kwargs.get("action") else [draw(_good_value(kwargs))]
            pieces.append([flag, *value])
    pieces = draw(st.permutations(pieces))
    edits = draw(st.lists(st.sampled_from(_EDITS), max_size=3))
    for edit in edits:
        at = draw(st.integers(0, len(pieces)))
        if edit == "odd-token":
            pieces.insert(at, [draw(st.sampled_from(_ODD))])
            continue
        if not pieces:
            continue
        i = at % len(pieces)
        flag = pieces[i][0]
        if edit == "abbreviate" and len(flag) > 3:
            pieces[i][0] = flag[: draw(st.integers(3, len(flag) - 1))]
        elif edit == "equals":
            pieces[i] = ["=".join(pieces[i])]
        elif edit == "repeat":
            pieces.insert(at, list(pieces[i]))
        elif edit == "odd-value":
            pieces[i] = [flag, draw(st.sampled_from(_ODD))]
        elif edit == "drop":
            del pieces[i]
    return [cmd, *(t for piece in pieces for t in piece)], not edits


class TestPlainReader:
    """``cli._read_args`` against the parser it stands in for."""

    @given(_argvs())
    @settings(max_examples=400, deadline=None)
    def test_same_namespace_as_argparse_or_none(self, case):
        argv, plain = case
        ours = cli._read_args(argv)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                theirs = cli.build_parser().parse_args(argv)
        except SystemExit:
            assert not plain and ours is None
            return
        if plain:
            assert ours is not None
        if ours is not None:
            assert vars(ours) == vars(theirs)

    @pytest.mark.parametrize("cmd", list(_VALID_ARGV))
    def test_reads_every_valid_argv(self, cmd):
        argv = [cmd, *_VALID_ARGV[cmd]]
        assert vars(cli._read_args(argv)) == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("cmd", list(_VALID_ARGV))
    @pytest.mark.parametrize(
        "edit",
        [
            lambda a: a + a[1:3],
            lambda a: [*a[:2], "-3", *a[3:]],
            lambda a: [*a[:2], "-", *a[3:]],
            lambda a: [*a[:2], "--", *a[3:]],
            lambda a: [a[0], "--quiv", *a[2:]],
            lambda a: [a[0], "--quiver=q", *a[3:]],
            lambda a: a + ["-h"],
            lambda a: a + ["--help"],
            lambda a: a + ["extra"],
            lambda a: a + [""],
            lambda a: [a[0], *a[3:]],
        ],
        ids=["repeat", "negative", "dash", "double-dash", "abbreviated", "equals",
             "h", "help", "extra", "empty", "no-quiver"],
    )
    def test_leaves_the_rest_to_argparse(self, cmd, edit):
        argv = [cmd, *_VALID_ARGV[cmd]]
        assert argv[1:3] == ["--quiver", "q"]
        assert cli._read_args(edit(argv)) is None

    @pytest.mark.parametrize("cmd", list(_VALID_ARGV))
    def test_bad_values_are_left_to_argparse(self, cmd):
        # "x" is no choice, no integer and no vector.
        for (flag,), kwargs in cli._COMMANDS[cmd][2:]:
            if "choices" in kwargs or "type" in kwargs:
                argv = [cmd, *_VALID_ARGV[cmd]]
                if flag in argv:
                    argv[argv.index(flag) + 1] = "x"
                else:
                    argv += [flag, "x"]
                assert cli._read_args(argv) is None
                with pytest.raises(SystemExit), redirect_stderr(io.StringIO()):
                    cli.build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["-x", "roots"]])
    def test_no_command_is_left_to_argparse(self, argv):
        assert cli._read_args(argv) is None
