#!/usr/bin/env python3
"""Build and run the served end-to-end audit benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload audit_wide --seed 1 --seconds 30 --trace 0

Builds serverd and the benchmark from source with dune, then runs
perfbench/main.ml, which prints a report and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. Workloads:
audit_wide and tpch_audit, the two declared in BENCHMARK.json; also
oltp_paced, which fails its correctness gate (ACCESSED marks are shared
between sessions) and so is not declared, and oltp_capacity, the
closed-loop run behind oltp_paced's fixed rate.
"""

import os
import subprocess
import sys

NEEDED = ["dune-project", "bin/serverd.ml", "lib/server/daemon.ml", "perfbench/dune"]


def main():
    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        sys.stderr.write(
            "perfbench: run from the repository root; missing %s\n" % ", ".join(missing)
        )
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/serverd.exe", "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
        ).stdout.strip()
    except OSError:
        commit = ""
    cmd = [
        "_build/default/perfbench/main.exe",
        "--serverd",
        "_build/default/bin/serverd.exe",
        "--commit",
        commit or "unknown (not a git checkout)",
    ] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
