"""Run the benchmark over several seeds and write one BENCH record.

Run from the repository root:

    python3 perfbench/collect.py --seeds 101-110 --out perfbench/baseline/BENCH_1.json

For each workload, runs `run.py --trace 0` once per seed and then one
`run.py --trace 1` on the first seed. The record keeps every run's
values and output digests, and for each end-to-end metric the median and
the quartile spread (distance between the first and third quartile as a
share of the median, from statistics.quantiles(values, n=4)), the same
for the median pass time of each run (reported, not gated), plus the
traced per-layer metrics and the environment block.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (result object, information line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="101-110", help="first-last, inclusive")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)

    record = {"seeds": seeds, "run_seconds": seconds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            result, info = run_once(workload, seed, seconds, trace=0)
            runs.append({
                "seed": seed, **result, "output_digests": info["output_digests"],
                "rounds": info["rounds"], "pass_s_median": info["pass_s_median"],
                "pass_s_max": info["pass_s_max"],
            })
            print(f"{workload} seed {seed}: correct={result['correct']}", file=sys.stderr)
        values = {
            name: [r["metrics"][name]["value"] for r in runs]
            for name in runs[0]["metrics"]
        }
        summary = {
            name: {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": statistics.median(vals),
                "quartile_spread": spread(vals) if len(vals) > 1 else 0.0,
            }
            for name, vals in values.items()
        }
        typical = [r["pass_s_median"] for r in runs]
        summary["pass_s_median (not gated)"] = {
            "unit": "s",
            "median": statistics.median(typical),
            "quartile_spread": spread(typical) if len(typical) > 1 else 0.0,
        }
        traced, traced_info = run_once(workload, seeds[0], seconds, trace=1)
        record["workloads"][workload] = {
            "end_to_end": summary,
            "runs": runs,
            "per_layer": {
                "seed": seeds[0], **traced, "output_digests": traced_info["output_digests"]
            },
        }
        record["environment"] = info["environment"]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, data in record["workloads"].items():
        for name, s in data["end_to_end"].items():
            print(f"{workload:18s} {name:14s} median {s['median']:.6g} {s['unit']:6s} "
                  f"spread {s['quartile_spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
