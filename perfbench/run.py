"""Benchmark of irsfleet's sweeps and oracle checks, end to end and per layer.

Run from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload acceptance-sweep --seed 1 --seconds 30 --trace 0

Workloads: acceptance-sweep, wide-grid-sweep, validate-oracles (see
NOTES.md for why each exists). Every input is generated from --seed in
this one process and the program is driven through `irsfleet.cli.main`
in process; sweep outputs go to a temporary directory under
.perfbench-work/, removed at exit.

A workload pass runs a fixed list of CLI invocations ("parts"); a run
repeats passes in rounds. --trace 0 times the rounds with tracing off and
reports the end-to-end metrics. --trace 1 alternates untraced and traced
rounds and reports the per-layer metrics. Either way every part's output
is checked (see workloads.py). Standard output ends with an information
line (environment block, workload, seed, each part's output digest, the
rounds run and, untraced, the raw median and slowest pass time) and then
the result: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, make_workload, run_part

# layers.py and tracer.py import numpy, so run.py imports them only after
# pin_threads has set the thread pools' sizes.

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 9
SETUP_KERNEL_CALLS = 3  # reference-kernel runs before each set-up probe
MIN_ROUNDS = 3
# Reference-kernel runs per untraced pass of several parts, spread evenly
# over the parts.
KERNEL_CALLS = 8
# Untraced and traced rounds (workload passes) of a --trace 1 run; fixed,
# so its counts repeat exactly from run to run.
TRACE_ROUNDS = {"acceptance-sweep": 3, "wide-grid-sweep": 3, "validate-oracles": 1}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="one trial per sigma, few oracle draws, one set-up probe (the benchmark's own tests)",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_threads(nproc: int) -> dict:
    """Cap the native thread pools at nproc before numpy is imported."""
    settings = {}
    for var in THREAD_VARS:
        raw = os.environ.get(var)
        try:
            value = int(raw) if raw is not None else nproc
        except ValueError:
            value = nproc
        pinned = min(max(value, 1), nproc)
        os.environ[var] = str(pinned)
        settings[var] = {"given": raw, "pinned": pinned}
    return settings


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: Path, nproc: int, threads: dict, load: tuple) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "threads": threads,
        "loadavg_at_start": list(load),
    }


def probe_setup(src: Path, workload, probes: int) -> dict:
    """Median set-up timings over `probes` fresh interpreters.

    setup_s runs from spawning the interpreter to its ready line, so it
    covers interpreter start, `import irsfleet`, argument parsing,
    scenario loading and the layout and distance tables. Like wall_s, each
    probe's setup_s is scaled to the reference host speed by the reference
    kernel, run just before it; the step timings in ms are raw.
    """
    from speed import REFERENCE_S, kernel_s

    argv = list(workload.parts[0]) + (["--out", "unused"] if workload.sweep else [])
    command = [sys.executable, str(HERE / "setup_probe.py"), str(src), *argv]
    samples = []
    for _ in range(probes):
        kernel = statistics.median(kernel_s() for _ in range(SETUP_KERNEL_CALLS))
        start = time.perf_counter()
        proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        sample = json.loads(line)
        sample["setup_s"] = (ready - start) * REFERENCE_S / kernel
        samples.append(sample)
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def _run_round(workload, tmp: Path, index: int, after_part=None):
    """One workload pass: every part once, each into a fresh directory,
    calling `after_part()` after each part."""
    results = []
    for part in range(len(workload.parts)):
        out_dir = tmp / f"round{index}-part{part}"
        try:
            results.append(run_part(workload, part, out_dir))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if after_part is not None:
            after_part()
    return results


def _round_wall(results) -> float:
    return sum(r.wall_s for r in results)


@dataclass
class Gate:
    attempted: int
    failed: int
    problems: list[str]
    digests: list[str | None]  # per part, from the first round


def gate(rounds) -> Gate:
    """Operations attempted and failed over all rounds, with the problems.

    Every round must reproduce the first round's output digest of each
    part; a part that does not counts all its operations as failed.
    """
    digests = [r.digest for r in rounds[0]]
    attempted = failed = 0
    problems = []
    for i, results in enumerate(rounds):
        for part, r in enumerate(results):
            attempted += r.attempted
            problems += [f"round {i} part {part}: {p}" for p in r.problems]
            if r.digest != digests[part]:
                problems.append(
                    f"round {i} part {part}: output digest {r.digest} != {digests[part]}"
                )
                failed += r.attempted
            else:
                failed += r.failed
    return Gate(attempted, failed, problems, digests)


def untraced_run(workload, tmp: Path, seconds: float):
    """Rounds until the next one would overrun `seconds` (at least three).

    wall_s is the median pass time over the rounds. On a shared 2-vCPU
    host the CPU's speed swings by up to 2x for seconds to minutes as
    other tenants load it, and raw pass times follow those swings. A pass
    of several parts (the sweeps) is therefore scaled to the reference
    host speed by the reference kernel run between its parts (speed.py),
    whose time follows the swings too. A pass of one part (validate) is
    one long call that the kernel could only bracket, which tracked it
    worse than no scaling, so it is timed raw (measurements in NOTES.md).
    """
    from speed import REFERENCE_S, kernel_s

    scale = len(workload.parts) > 1
    calls = max(1, KERNEL_CALLS // len(workload.parts))
    rounds, walls = [], []
    start = time.perf_counter()
    while True:
        kernel = []
        results = _run_round(
            workload, tmp, len(rounds),
            after_part=(lambda: kernel.extend(kernel_s() for _ in range(calls)))
            if scale else None,
        )
        rounds.append(results)
        pass_s = _round_wall(results)
        walls.append(pass_s * REFERENCE_S / statistics.median(kernel) if scale else pass_s)
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked = gate(rounds)
    wall = statistics.median(walls)
    ops_per_pass = sum(r.attempted for r in rounds[0])
    ok_share = 1.0 - checked.failed / checked.attempted
    metrics = {
        "wall_s": (wall, "s"),
        "trials_per_s": (ops_per_pass * ok_share / wall, "1/s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "ok_share": (ok_share, "share"),
    }
    # Raw pass times, not scaled, for the record.
    raw = [_round_wall(r) for r in rounds]
    passes = {
        "rounds": len(rounds),
        "pass_s_median": statistics.median(raw),
        "pass_s_max": max(raw),
    }
    return metrics, checked, passes


def traced_run(workload, tmp: Path):
    """Untraced and traced rounds in turn; per-layer metrics.

    Alternating the two keeps drift in the machine's speed out of the
    tracing overhead, the median traced/untraced wall ratio of a round.
    """
    from layers import TARGETS, layer_metrics
    from tracer import Tracer, installed

    count = TRACE_ROUNDS[workload.name]
    tracer = Tracer()
    untraced, traced = [], []
    for i in range(count):
        untraced.append(_run_round(workload, tmp, 2 * i))
        with installed(tracer, TARGETS) as unresolved:
            traced.append(_run_round(workload, tmp, 2 * i + 1))
    for target in unresolved:
        print(
            f"perfbench: {target.module}.{target.attr} no longer resolves; "
            f"its span reports zero calls",
            file=sys.stderr,
        )
    ratios = [_round_wall(t) / _round_wall(u) for u, t in zip(untraced, traced)]
    untraced_wall = statistics.median(_round_wall(u) for u in untraced)
    traced_wall = statistics.median(_round_wall(t) for t in traced)
    checked = gate(untraced + traced)
    first = traced[0]
    metrics = layer_metrics(tracer, count, traced_wall)
    metrics["harness.csv_bytes"] = (sum(r.csv_bytes for r in first), "bytes")
    metrics["cli.validate.checks"] = (sum(r.checks for r in first), "count")
    metrics["cli.validate.failed_checks"] = (sum(r.failed_checks for r in first), "count")
    metrics["trace.overhead_share"] = (statistics.median(ratios) - 1.0, "share")
    metrics["failed_share"] = (checked.failed / checked.attempted, "share")
    metrics["pass.untraced_s_p50"] = (untraced_wall, "s")
    return metrics, checked, {"rounds": 2 * count}


def measure(args, root: Path, tmp: Path) -> tuple[dict, list, dict]:
    """Set-up probes and the rounds of one run: the result object, the
    output digest of each part and the pass counts and times."""
    src = root / "src"
    workload = make_workload(args.workload, args.seed, tmp, tiny=args.tiny)
    setup = probe_setup(src, workload, 1 if args.tiny else SETUP_PROBES)
    if args.trace:
        from layers import SETUP_LAYERS

        metrics, checked, passes = traced_run(workload, tmp)
        for name in SETUP_LAYERS:
            metrics[name] = (setup[name], "ms")
    else:
        metrics, checked, passes = untraced_run(workload, tmp, args.seconds)
        metrics["setup_s"] = (setup["setup_s"], "s")
    for problem in checked.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {
        "correct": checked.failed == 0 and not checked.problems,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }
    return result, checked.digests, passes


def main(argv=None) -> int:
    load = os.getloadavg()
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    threads = pin_threads(nproc)
    root = Path.cwd()
    package = root / "src" / "irsfleet"
    if not (package / "__init__.py").is_file():
        print(
            f"perfbench: no irsfleet sources at {package}; run from the root "
            f"of a checkout",
            file=sys.stderr,
        )
        return 1
    sys.path.insert(0, str(root / "src"))
    import irsfleet

    if Path(irsfleet.__file__).resolve().parent != package.resolve():
        print(f"perfbench: irsfleet imported from {irsfleet.__file__}", file=sys.stderr)
        return 1
    work = root / ".perfbench-work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        result, digests, passes = measure(args, root, Path(tmp))
    info = {
        "environment": environment(root, nproc, threads, load),
        "workload": args.workload,
        "seed": args.seed,
        "output_digests": digests,
        **passes,
    }
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
