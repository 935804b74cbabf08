"""Golden CLI outputs: stdout must stay byte-identical across refactors.

The fixtures under ``tests/golden/`` hold the stdout of the invocations
below: criterion 8's determinism set plus the all-preclusters path on D4,
the incomplete (height-bounded) poset on the Kronecker quiver, the A3
``stilt`` DOT labels, and ``verify`` off Dynkin (Kronecker, bound 5) and
on a height-bounded Dynkin quiver (D4, bound 3, box 0).  Outputs too large to keep as files (E6, E8, A5
DOT, D4, E6 and E7 ``stilt``, E6 and E7 ``verify``, E7 ``poset`` and E7
``torsion-count`` on a 2-chain) and affine A3 ``schur`` are pinned by
the sha256 of their stdout in ``digests.json``; E7 ``stilt``, ``poset``,
``verify`` and ``torsion-count`` and E6 ``verify`` run only under
``SCHUR_CLUSTERS_LARGE=1``.
``REFUSALS`` pins the one stderr line and the exit status of refused
calls, among them ``realize`` on a real root of affine A3 that is not a
Schur root, E8 ``verify --box 0`` (a root box over the cell limit) and
Kronecker ``verify`` with no height bound.  After an intended output change,
regenerate the files and digests with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"


def _in(name: str) -> str:
    return str(GOLDEN / name)


A2_VARS = '[{"type":"root","dim":[1,1]},{"type":"root","dim":[0,1]}]'
ATILDE3_VARS = '[{"type":"root","dim":[1,1,2,1]}]'

INVOCATIONS = {
    "roots-d4.json": ["roots", "--quiver", _in("d4.quiver")],
    "roots-kron-b7.tsv": [
        "roots", "--quiver", _in("kron.quiver"), "--bound", "7", "--format", "tsv"
    ],
    "schur-kron-b7-s3.json": [
        "schur", "--quiver", _in("kron.quiver"), "--bound", "7", "--seed", "3"
    ],
    "einv-wild.json": [
        "einv", "--quiver", _in("wild.quiver"), "--x", "1,1,1", "--y", "2,1,0"
    ],
    "preclusters-a2-positive.json": [
        "preclusters", "--quiver", _in("a2.quiver"), "--positive-only"
    ],
    "clusters-a3.json": ["clusters", "--quiver", _in("a3.quiver")],
    "poset-d4.json": ["poset", "--quiver", _in("d4.quiver")],
    "poset-a2.dot": ["poset", "--quiver", _in("a2.quiver"), "--format", "dot"],
    "stilt-a3-s11.json": ["stilt", "--quiver", _in("a3.quiver"), "--seed", "11"],
    "stilt-a3-s11.dot": [
        "stilt", "--quiver", _in("a3.quiver"), "--seed", "11", "--format", "dot"
    ],
    "verify-a2.json": ["verify", "--quiver", _in("a2.quiver"), "--format", "json"],
    "verify-kron-b5.txt": ["verify", "--quiver", _in("kron.quiver"), "--bound", "5"],
    "verify-d4-b3-box0.txt": [
        "verify", "--quiver", _in("d4.quiver"), "--bound", "3", "--box", "0"
    ],
    "torsion-count-a2.txt": [
        "torsion-count", "--quiver", _in("a2.quiver"), "--poset", _in("p.poset")
    ],
    "realize-a2.json": ["realize", "--quiver", _in("a2.quiver"), "--vars", A2_VARS],
    "preclusters-d4.json": ["preclusters", "--quiver", _in("d4.quiver")],
    "poset-kron-b7.json": ["poset", "--quiver", _in("kron.quiver"), "--bound", "7"],
}

DIGEST_INVOCATIONS = {
    "clusters-e6.json": ["clusters", "--quiver", _in("e6.quiver"), "--allow-large"],
    "poset-e6.json": ["poset", "--quiver", _in("e6.quiver"), "--allow-large"],
    "stilt-d4-s5.json": ["stilt", "--quiver", _in("d4.quiver"), "--seed", "5"],
    "poset-a5.dot": ["poset", "--quiver", _in("a5.quiver"), "--format", "dot"],
    "clusters-e8.json": ["clusters", "--quiver", _in("e8.quiver"), "--allow-large"],
    "stilt-e6-s5.json": ["stilt", "--quiver", _in("e6.quiver"), "--seed", "5"],
    "stilt-e7-s5.json": ["stilt", "--quiver", _in("e7.quiver"), "--seed", "5"],
    "verify-e6.txt": ["verify", "--quiver", _in("e6.quiver")],
    # Its stilt-match builds the support tilting poset of all 4160 clusters.
    "verify-e7-box0.txt": ["verify", "--quiver", _in("e7.quiver"), "--box", "0"],
    "poset-e7.json": ["poset", "--quiver", _in("e7.quiver"), "--allow-large"],
    # The chain(2) count is the number of order pairs: 1571276 on E7.
    "torsion-count-e7-chain2.txt": [
        "torsion-count", "--quiver", _in("e7.quiver"), "--poset", _in("chain2.poset")
    ],
    # Affine A3: 20 of its 28 real roots up to height 9 are Schur roots.
    "schur-atilde3-b9.json": [
        "schur", "--quiver", _in("atilde3.quiver"), "--bound", "9"
    ],
}
REFUSALS = {
    "torsion-count-cycle": (
        ["torsion-count", "--quiver", _in("a2.quiver"), "--poset", _in("cycle.poset")],
        "error[not-antisymmetric]: elements 1 and 2 compare both ways",
        1,
    ),
    "torsion-count-kron": (
        ["torsion-count", "--quiver", _in("kron.quiver"), "--poset", _in("p.poset")],
        "error[not-dynkin]: torsion class counting needs a Dynkin quiver",
        1,
    ),
    "stilt-kron": (
        ["stilt", "--quiver", _in("kron.quiver")],
        "error[not-dynkin]: the support tilting poset needs a Dynkin quiver",
        1,
    ),
    # Affine A3: delta + e3 is a real root but not a Schur root.
    "realize-atilde3-not-schur": (
        ["realize", "--quiver", _in("atilde3.quiver"), "--vars", ATILDE3_VARS],
        "error[not-a-precluster]: not a precluster: (1, 1, 2, 1) is not a Schur "
        "root: <(0, 0, 1, 0), (1, 1, 2, 1)> - <(1, 1, 2, 1), (0, 0, 1, 0)> <= 0",
        1,
    ),
    # E8: e-closed-form reaches a root whose box is over the limit.  The
    # cluster poset, built only when a check asks for it, is never built.
    "verify-e8-box0": (
        ["verify", "--quiver", _in("e8.quiver"), "--box", "0"],
        "error[limit-exceeded]: the box below [1, 2, 4, 3, 3, 2, 1, 2] has 8640 "
        "cells, over the limit of 8192",
        1,
    ),
    "verify-kron": (
        ["verify", "--quiver", _in("kron.quiver")],
        "error[bound-required]: non-Dynkin quivers have infinitely many real "
        "roots; pass a height bound",
        1,
    ),
}
LARGE_DIGESTS = {
    "stilt-e7-s5.json",
    "verify-e6.txt",
    "verify-e7-box0.txt",
    "poset-e7.json",
    "torsion-count-e7-chain2.txt",
}
DIGESTS = GOLDEN / "digests.json"


def _run(argv) -> subprocess.CompletedProcess:
    """One CLI call in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "schur_clusters", *argv],
        capture_output=True,
        timeout=120,
    )


def run_cli(argv) -> bytes:
    """Stdout of one CLI call that must succeed."""
    proc = _run(argv)
    assert proc.returncode == 0, (argv, proc.stderr.decode())
    return proc.stdout


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_cli_stdout_matches_golden(name):
    expected = (GOLDEN / name).read_bytes()
    assert run_cli(INVOCATIONS[name]) == expected, name


@pytest.mark.parametrize("name", sorted(DIGEST_INVOCATIONS))
def test_cli_stdout_matches_digest(name):
    if name in LARGE_DIGESTS and not os.environ.get("SCHUR_CLUSTERS_LARGE"):
        pytest.skip("stretch target; set SCHUR_CLUSTERS_LARGE=1 to run")
    expected = json.loads(DIGESTS.read_text())[name]
    digest = hashlib.sha256(run_cli(DIGEST_INVOCATIONS[name])).hexdigest()
    assert digest == expected, name


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_cli_refusal_matches_golden(name):
    argv, line, status = REFUSALS[name]
    proc = _run(argv)
    assert (proc.stdout, proc.stderr.decode(), proc.returncode) == (b"", line + "\n", status)


if __name__ == "__main__":
    for name, argv in INVOCATIONS.items():
        (GOLDEN / name).write_bytes(run_cli(argv))
    digests = {
        name: hashlib.sha256(run_cli(argv)).hexdigest()
        for name, argv in sorted(DIGEST_INVOCATIONS.items())
    }
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
