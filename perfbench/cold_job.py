"""Run one `schur-clusters` command in this fresh interpreter and time it.

Usage: python3 cold_job.py <cli arguments...>

The CLI's own stdout and stderr pass through unchanged.  After the command
returns, one line starting with MARK is appended to stderr.  It holds the
import time, the command's wall time, its exit code, the process's peak
resident set size, and three timings of a fixed reference loop: before the
import, between the import and the command, and after the command.  The
benchmark uses those to correct each timing for how fast the machine ran
just then.  Nothing else is imported before the import clock stops, so
`import_s` is what a user pays to start the CLI.
"""

import gc
import sys
import time

MARK = "@@perfbench "


def reference_work() -> float:
    """Seconds taken by a fixed pure-Python loop, a gauge of machine speed.

    The collector is off while it runs, so objects the program left behind
    cannot slow the loop down."""
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(150_000):
            key = (i % 509, i % 7)
            table[key] = table.get(key, 0) + i * i
        return time.perf_counter() - start
    finally:
        gc.enable()


def main() -> int:
    argv = sys.argv[1:]
    ref_start = reference_work()
    start = time.perf_counter()
    import schur_clusters.cli as cli

    imported = time.perf_counter()
    ref_imported = reference_work()
    began = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code if isinstance(exc.code, int) else 2
    done = time.perf_counter()
    sys.stdout.flush()
    ref_done = reference_work()

    import json
    import resource

    import schur_clusters

    record = {
        "import_s": imported - start,
        "job_s": done - began,
        "ref_s": [ref_start, ref_imported, ref_done],
        "rc": code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "package_file": schur_clusters.__file__,
        "versions": {
            "schur_clusters": schur_clusters.__version__,
            "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
            "networkx": getattr(sys.modules.get("networkx"), "__version__", None),
        },
    }
    sys.stderr.write(MARK + json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
