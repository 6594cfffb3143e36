"""Workload inputs, one run of `irsfleet.cli.main`, and the checks of its output.

A workload pass is a fixed list of CLI invocations ("parts") generated
from the benchmark seed; the wide grid adds a scenario file. Each part is
run in process into a fresh output directory and then checked:

* sweeps: a sha256 over trials.csv, summary.csv, every
  trajectories_sigma_*.csv and run_metadata.json, and the paired
  invariants of every (sigma, trial) read back from trials.csv;
* validate: exit code 0 and every check line `PASS`, with a sha256 over
  the printed report.

Operations are trials on the sweeps and checks on validate; every
violated invariant, missing row or failed check counts its operations as
failed.
"""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import re
import time
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("acceptance-sweep", "wide-grid-sweep", "validate-oracles")

STRATEGIES = ("robotic", "terrestrial", "random")
SIGMAS = ("1.8", "2.8", "3.6")
# (parts, trials per sigma in each part) of a sweep pass. A pass covers
# 48 paired (sigma, trial) units, enough that the work per pass varies
# little from seed to seed, split into parts short enough (a quarter to
# half a second on a 2-core Xeon) that a run measures each part many
# times; see NOTES.md for why that matters on a shared host.
SWEEP_SIZE = {"acceptance-sweep": (8, 2), "wide-grid-sweep": (8, 2)}
WIDE_GRID = 17
WIDE_FLEET = 4
# Tiny sizes for the benchmark's own tests.
TINY_DRAWS = 20_000
REL_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    parts: tuple[tuple[str, ...], ...]  # CLI arguments; sweeps get --out per run
    sweep: bool
    trials: int = 0                     # trials per sigma in each sweep part

    @property
    def units_per_part(self) -> int:
        """Operations of one sweep part: (strategy, sigma, trial) units."""
        return len(STRATEGIES) * len(SIGMAS) * self.trials


@dataclass
class PartResult:
    wall_s: float
    attempted: int
    failed: int
    digest: str | None
    csv_bytes: int = 0
    checks: int = 0
    failed_checks: int = 0
    problems: tuple[str, ...] = ()


def make_workload(name: str, seed: int, work_dir: Path, tiny: bool = False) -> Workload:
    """Generate a workload's CLI arguments (and scenario file) from the seed."""
    if name == "validate-oracles":
        # The command fixes its own generator seed, so `seed` cannot apply.
        argv = ("validate",) + (("--draws", str(TINY_DRAWS)) if tiny else ())
        return Workload(name, (argv,), sweep=False)
    if name not in SWEEP_SIZE:
        raise ValueError(f"unknown workload {name!r}")
    parts, trials = (2, 1) if tiny else SWEEP_SIZE[name]
    common = ["--trials", str(trials), "--sigma", *SIGMAS, "--strategy", *STRATEGIES]
    if name == "wide-grid-sweep":
        from irsfleet.scenario import default_scenario, write_scenario

        base = default_scenario()
        scenario = dataclasses.replace(
            base,
            geometry=dataclasses.replace(
                base.geometry, grid_rows=WIDE_GRID, grid_cols=WIDE_GRID
            ),
            solver=dataclasses.replace(base.solver, fleet_size=WIDE_FLEET),
        )
        config = work_dir / "wide_grid.ini"
        write_scenario(scenario, config)
        common += ["--config", str(config)]
    argvs = tuple(
        ("sweep", "--seed", str((parts * seed + j) % 2**64), *common)
        for j in range(parts)
    )
    return Workload(name, argvs, sweep=True, trials=trials)


def run_part(workload: Workload, part: int, out_dir: Path) -> PartResult:
    """Run one part of the workload through the CLI and check its output."""
    from irsfleet.cli import main

    argv = list(workload.parts[part])
    if workload.sweep:
        argv += ["--out", str(out_dir)]
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    wall = time.perf_counter() - start
    if workload.sweep:
        return _check_sweep(workload, out_dir, code, stderr.getvalue(), wall)
    return _check_validate(code, stdout.getvalue(), stderr.getvalue(), wall)


def sweep_artifacts(out_dir: Path) -> list[Path]:
    names = ["trials.csv", "summary.csv"]
    names += sorted(p.name for p in out_dir.glob("trajectories_sigma_*.csv"))
    names.append("run_metadata.json")
    return [out_dir / name for name in names]


def digest_files(paths) -> str:
    sha = hashlib.sha256()
    for path in paths:
        sha.update(path.name.encode() + b"\0")
        sha.update(path.read_bytes())
    return sha.hexdigest()


_ERROR_AT = re.compile(r"strategy=(\S+) sigma=(\S+) trial=(\d+):")


def _finished_before_abort(stderr: str, trials: int) -> int:
    """Units completed before a TrialError, read from the JSON error line.

    The sweep runs strategies, then sigmas, then trials, in argument
    order. An error that names no unit leaves every unit unfinished.
    """
    for line in reversed(stderr.splitlines()):
        try:
            message = str(json.loads(line)["error"])
        except (ValueError, KeyError, TypeError):
            continue
        found = _ERROR_AT.match(message)
        if found is None:
            return 0
        strategy, sigma, trial = found.groups()
        if strategy not in STRATEGIES or sigma not in SIGMAS:
            return 0
        index = STRATEGIES.index(strategy) * len(SIGMAS) + SIGMAS.index(sigma)
        return index * trials + int(trial)
    return 0


def _check_sweep(workload, out_dir, code, stderr, wall) -> PartResult:
    units = workload.units_per_part
    if code != 0:
        done = _finished_before_abort(stderr, workload.trials)
        return PartResult(
            wall, units, units - done, None,
            problems=(f"sweep exited {code}: {stderr.strip()}",),
        )
    paths = sweep_artifacts(out_dir)
    missing = [p.name for p in paths if not p.is_file()]
    if len(paths) != len(SIGMAS) + 3:  # one trajectories file per sigma
        missing.append("trajectories_sigma_*.csv")
    if missing:
        return PartResult(
            wall, units, units, None, problems=(f"missing sweep outputs {missing}",)
        )
    groups: dict[tuple[str, str], dict[str, float]] = {}
    with (out_dir / "trials.csv").open(newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["sigma"], row["trial"])
            groups.setdefault(key, {})[row["strategy"]] = float(row["mean_gain"])
    problems = []
    good = 0
    for (sigma, trial), gains in sorted(groups.items()):
        broken = _paired_violations(gains)
        if broken:
            problems.append(f"sigma={sigma} trial={trial}: {broken}")
        else:
            good += len(STRATEGIES)
    csv_bytes = sum(p.stat().st_size for p in paths if p.suffix == ".csv")
    return PartResult(
        wall, units, units - min(good, units), digest_files(paths),
        csv_bytes=csv_bytes, problems=tuple(problems),
    )


def _at_least(a: float, b: float) -> bool:
    return a >= b - REL_TOL * abs(b)


def _paired_violations(gains: dict[str, float]) -> str:
    """Paired invariants of one (sigma, trial): '' when they all hold."""
    if sorted(gains) != sorted(STRATEGIES):
        return f"strategies present {sorted(gains)}"
    broken = [f"{s} mean_gain {g!r} < 1" for s, g in gains.items() if not _at_least(g, 1.0)]
    for other in ("terrestrial", "random"):
        if not _at_least(gains["robotic"], gains[other]):
            broken.append(f"robotic {gains['robotic']!r} < {other} {gains[other]!r}")
    return "; ".join(broken)


def _check_validate(code, stdout, stderr, wall) -> PartResult:
    lines = stdout.splitlines()
    checks = [line for line in lines if line.startswith(("PASS ", "FAIL "))]
    failed = sum(1 for line in checks if line.startswith("FAIL "))
    problems = [line for line in checks if line.startswith("FAIL ")]
    attempted = len(checks)
    if failed == 0 and (code != 0 or attempted == 0):
        # Aborted by an exception: the check that raised never printed.
        attempted += 1
        failed += 1
    if code != 0:
        problems.append(f"validate exited {code}: {stderr.strip()}")
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    return PartResult(
        wall, attempted, failed, digest,
        checks=len(checks), failed_checks=failed, problems=tuple(problems),
    )
