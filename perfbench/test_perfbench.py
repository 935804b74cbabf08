"""Self-tests for the benchmark: python3 -m pytest perfbench/test_perfbench.py

The negative tests take real CLI output on small quivers, corrupt it the
way a wrong program would, and check that the job is counted as failed.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def cli(tmp_path, *argv, quiver=None, poset=None):
    """Real CLI output; quiver/poset are (size, pairs) written to files."""
    files = wl._Inputs(tmp_path)
    args = list(argv)
    if quiver is not None:
        args += ["--quiver", files.quiver("q", quiver)]
    if poset is not None:
        args += ["--poset", files.poset("p", poset)]
    proc = subprocess.run([sys.executable, "-m", "schur_clusters", *args],
                          capture_output=True, text=True, env=run.child_env(), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def failed(check, text, rc=0):
    ok, reason = run.evaluate(wl.Job("job", (), check), rc, text, ["error[x]: boom"])
    return (not ok) and bool(reason)


A3_ZIGZAG = (3, ((2, 1), (2, 3)))


def test_closed_forms():
    assert [wl.dynkin_cluster_count("A", n) for n in (2, 3, 5, 6)] == [5, 14, 132, 429]
    assert [wl.dynkin_cluster_count("D", n) for n in (4, 5)] == [50, 182]
    assert wl.tamari_intervals(3) == wl.pentagon_multichains(2) == 13
    assert wl.tamari_intervals(4) == 68
    assert wl.path_counts(*A3_ZIGZAG) == [(1, 0, 0), (1, 1, 1), (0, 0, 1)]
    assert wl.tits_form(*wl.WILD, (1, 1, 1)) == 0


def test_speed_correction_rescales_by_the_reference_loop():
    r = run.JobResult("job", job_s=2.0, import_s=0.4, ref_s=(0.1, 0.1, 0.1))
    assert r.norm_job_s == pytest.approx(2.0 * run.REF_NOMINAL_S / 0.1)
    assert r.norm_import_s == pytest.approx(0.4 * run.REF_NOMINAL_S / 0.1)
    timed_out = run.JobResult("job", ok=False, job_s=60.0)
    assert timed_out.norm_job_s == 60.0 and timed_out.norm_import_s is None


def test_poset_check_rejects_wrong_answers(tmp_path):
    quiver, expected = A3_ZIGZAG, 14
    good = cli(tmp_path, "poset", quiver=quiver)
    check = lambda t: wl.check_cluster_poset(t, quiver, expected)  # noqa: E731
    assert not failed(check, good)
    data = json.loads(good)

    def corrupt(edit):
        bad = json.loads(good)
        edit(bad)
        return json.dumps(bad)

    assert failed(check, corrupt(lambda d: d["elements"].pop()))  # wrong count
    assert failed(check, corrupt(lambda d: d["hasse"].pop()))  # wrong Hasse size
    assert failed(check, corrupt(lambda d: d.update(top=d["bottom"])))
    assert failed(check, corrupt(lambda d: d.update(bottom=d["top"])))
    duplicate = data["elements"][0]
    assert failed(check, corrupt(lambda d: d["elements"].__setitem__(1, duplicate)))
    assert failed(check, good, rc=1)
    assert failed(check, good[: len(good) // 2])  # truncated JSON


def test_stilt_check_rejects_wrong_modules(tmp_path):
    quiver = A3_ZIGZAG
    good = cli(tmp_path, "stilt", quiver=quiver)
    check = lambda t: wl.check_cluster_poset(t, quiver, 14, modules=True)  # noqa: E731
    assert not failed(check, good)
    bad = json.loads(good)
    bad["elements"][0][0]["dims"] = [9, 9, 9]
    assert failed(check, json.dumps(bad))


def test_clusters_check_rejects_wrong_count(tmp_path):
    good = cli(tmp_path, "clusters", quiver=A3_ZIGZAG)
    check = lambda t: wl.check_clusters(t, A3_ZIGZAG, 14)  # noqa: E731
    assert not failed(check, good)
    bad = json.loads(good)
    bad["count"] = 15
    assert failed(check, json.dumps(bad))


def test_einv_check_rejects_disagreeing_one_sided_values(tmp_path):
    x, y = (2, 1, 1), (1, 2, 0)
    good = cli(tmp_path, "einv", "--x", "2,1,1", "--y", "1,2,0", quiver=wl.WILD)
    check = lambda t: wl.check_einv(t, x, y)  # noqa: E731
    assert not failed(check, good)
    bad = json.loads(good)
    bad["one_sided"][1] += 1
    assert failed(check, json.dumps(bad))
    bad = json.loads(good)
    bad["e"], bad["one_sided"] = -1, [-1, -1]
    assert failed(check, json.dumps(bad))


def test_schur_checks_reject_wrong_roots(tmp_path):
    kron = cli(tmp_path, "schur", "--bound", "5", quiver=wl.KRONECKER)
    check = lambda t: wl.check_kronecker_schur(t, 5)  # noqa: E731
    assert not failed(check, kron)
    bad = json.loads(kron)
    bad["roots"].append([3, 3])
    assert failed(check, json.dumps(bad))

    wild = cli(tmp_path, "schur", "--bound", "4", quiver=wl.WILD)
    check = lambda t: wl.check_wild_schur(t, 4)  # noqa: E731
    assert not failed(check, wild)
    bad = json.loads(wild)
    bad["roots"][0] = [1, 1, 1]  # Tits form 0
    assert failed(check, json.dumps(bad))
    bad = json.loads(wild)
    bad["roots"].pop()
    assert failed(check, json.dumps(bad))


def test_verify_check_needs_no_fail_line_and_final_ok():
    good = "PASS a: x\nPASS b: y\nok\n"
    assert not failed(wl.check_verify, good)
    assert failed(wl.check_verify, "PASS a: x\nFAIL b: y\nok\n")
    assert failed(wl.check_verify, "PASS a: x\n")


def test_torsion_check_rejects_wrong_count(tmp_path):
    good = cli(tmp_path, "torsion-count", quiver=wl.A2_LINEAR, poset=wl.CHAIN2)
    check = lambda t: wl.check_count(t, 13)  # noqa: E731
    assert not failed(check, good)
    assert failed(check, "12\n")


def test_seed_picks_inputs_and_torsion_inputs_stay_fixed(tmp_path):
    def inputs(name, seed):
        d = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}"
        d.mkdir()
        w = wl.build(name, seed, d)
        flags = [[a for a in j.argv if not a.startswith(str(d))] for j in w.jobs]
        return flags, sorted(p.read_text() for p in d.iterdir())

    for name in wl.WORKLOADS:
        assert inputs(name, 3) == inputs(name, 3)
    assert inputs("dynkin-poset", 1)[1] != inputs("dynkin-poset", 2)[1]
    assert inputs("wild-einv", 1)[0] != inputs("wild-einv", 2)[0]
    assert inputs("probe-certify", 1)[0] != inputs("probe-certify", 2)[0]
    assert inputs("torsion-count", 1) == inputs("torsion-count", 2)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_smoke_runs_every_workload_in_both_modes():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    for name in wl.WORKLOADS:
        assert f"{name}/pass_s" in result["metrics"]
        assert f"{name}.traced/trace.coverage" in result["metrics"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "torsion-count", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
