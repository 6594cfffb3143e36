"""Record Tier-1 wall time and its ten slowest tests; not a gated metric.

Run from the repository root:

    python3 perfbench/tier1_timing.py [--out PATH]

Runs the Tier-1 command (PYTHONPATH=src python -m pytest -q
--continue-on-collection-errors) with --durations=10 and writes one JSON
record: wall time, pytest's summary line, the slowest tests and the
environment block. The suite takes over a minute, too long to repeat for
every benchmark check, so this record sits outside the gated metrics.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

from run import environment, pin_threads

_DURATION = re.compile(r"^(\d+\.\d+)s\s+(setup|call|teardown)\s+(\S+)")
_SUMMARY = re.compile(r"^=*\s*(\d+ (passed|failed).*) in [\d.]+s")


def parse_pytest(output: str) -> tuple[str, list[dict]]:
    """pytest's summary line and its --durations entries, slowest first."""
    summary = ""
    slowest = []
    for line in output.splitlines():
        found = _DURATION.match(line)
        if found:
            seconds, phase, test = found.groups()
            slowest.append({"seconds": float(seconds), "phase": phase, "test": test})
        elif _SUMMARY.match(line):
            summary = line.strip("= ")
    return summary, slowest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=".perfbench-work/tier1_timing.json")
    args = parser.parse_args(argv)
    load = os.getloadavg()
    nproc = len(os.sched_getaffinity(0))
    threads = pin_threads(nproc)
    root = Path.cwd()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
        "--durations=10",
    ]
    start = time.perf_counter()
    proc = subprocess.run(
        command, cwd=root, env=env, capture_output=True, text=True, timeout=3600
    )
    wall = time.perf_counter() - start
    summary, slowest = parse_pytest(proc.stdout)
    record = {
        "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors --durations=10",
        "wall_s": wall,
        "exit_code": proc.returncode,
        "summary": summary,
        "slowest": slowest,
        "environment": environment(root, nproc, threads, load),
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
