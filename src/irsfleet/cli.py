"""Command-line interface: plan, sweep, energy and validate subcommands."""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, matching
from .channel import (
    cascade_amplification,
    los_probability,
    rician_amplitude_mean,
)
from .energy import (
    SizingError,
    flight_range,
    fraunhofer_distance,
    grasp_energy,
    mission_ledger,
    reflect_energy,
    size_irs,
)
from .harness import (
    ExperimentConfig,
    KNOWN_STRATEGIES,
    RNG_NAME,
    placement_rows,
    run_experiment,
    run_trial,
    traffic_rows,
    trajectory_rows,
    write_metadata,
    PLACEMENT_HEADER,
    TRAFFIC_HEADER,
    TRAJECTORY_HEADER,
    _write_rows,
)
from .oracles import (
    best_exact_size_cost,
    empirical_cascade_amplification,
    empirical_mean_amplitude,
    sample_rician_fading,
)
from .scenario import Scenario, default_scenario, load_scenario


def _load(args) -> Scenario:
    if args.config is None:
        return default_scenario()
    return load_scenario(args.config)


def _cmd_plan(args) -> int:
    scenario = _load(args)
    sigma = args.sigma if args.sigma is not None else scenario.traffic.sigma_log
    # Built first so a bad seed, sigma or layout fails before any output.
    config = ExperimentConfig(
        scenario=scenario,
        strategies=(args.strategy,),
        sigma_list=(float(sigma),),
        trials=1,
        master_seed=args.seed,
    )
    # The trial runs before --out exists, so an infeasible one leaves none.
    result = run_trial(scenario, sigma, args.trial, args.strategy, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_metadata(config, out / "run_metadata.json")
    _write_rows(
        out / "placement.csv",
        PLACEMENT_HEADER,
        placement_rows(args.trial, result, scenario.layout()),
    )
    if result.trajectory is not None:
        _write_rows(
            out / "trajectory.csv",
            TRAJECTORY_HEADER,
            trajectory_rows(args.trial, result.trajectory),
        )
    _write_rows(out / "traffic.csv", TRAFFIC_HEADER, traffic_rows(result.traffic))

    m = result.metrics
    print(
        f"strategy={m.strategy} sigma={m.sigma} trial={m.trial} "
        f"mean_gain={m.mean_gain:.6g} served_traffic={m.served_traffic:.6g} "
        f"total_distance_m={m.total_distance_m:.6g} "
        f"energy_feasible={str(m.energy_feasible).lower()}"
    )
    print(f"wrote {out}")
    return 0


def _cmd_sweep(args) -> int:
    scenario = _load(args)
    config = ExperimentConfig(
        scenario=scenario,
        strategies=tuple(args.strategy),
        sigma_list=tuple(args.sigma),
        trials=args.trials,
        master_seed=args.seed,
        output_dir=Path(args.out),
    )
    result = run_experiment(config)
    width = max(len(s) for s in config.strategies)
    print(f"{'strategy':<{width}}  sigma  trials  mean_gain        served_traffic")
    for row in result.summaries:
        print(
            f"{row['strategy']:<{width}}  {row['sigma']:<5}  {row['trials']:<6}  "
            f"{row['mean_gain_mean']:.4f} +/- {row['mean_gain_std']:.4f}  "
            f"{row['served_traffic_mean']:.1f} +/- {row['served_traffic_std']:.1f}"
        )
    print(f"wrote {config.output_dir} (generator={RNG_NAME}, seed={config.master_seed})")
    return 0


def _cmd_energy(args) -> int:
    scenario = _load(args)
    platform = scenario.platform
    radio = scenario.radio
    d_min = args.min_distance if args.min_distance is not None else scenario.geometry.h3_m

    # Everything that can refuse the input runs before the first line prints.
    ledger = mission_ledger(args.distance, platform)
    try:
        sizing = size_irs(d_min, radio.wavelength_m)
        sizing_line = (
            f"sizing rule @ clearance {d_min} m: n_r = {sizing.n_r} "
            f"(n_elements = {sizing.n_elements}, fraunhofer_m = "
            f"{sizing.fraunhofer_m:.3f})"
        )
    except SizingError as err:
        sizing_line = f"sizing rule @ clearance {d_min} m: infeasible ({err})"

    print(f"service_hours = {platform.service_hours}")
    print(f"grasp_energy_j = {grasp_energy(platform):.1f}")
    print(f"reflect_energy_j = {reflect_energy(platform):.1f}")
    print(f"battery_j = {platform.battery_j:.1f}")
    print(f"flight_range_m = {flight_range(platform):.1f}")
    print(
        f"mission @ {args.distance:.1f} m: e_fly_j = {ledger.e_fly_j:.1f} "
        f"residual_j = {ledger.residual_j:.1f} feasible = "
        f"{str(ledger.feasible).lower()}"
    )
    side = int(round(radio.n_elements**0.5))
    print(
        f"configured surface: {side}x{side} elements, fraunhofer_m = "
        f"{fraunhofer_distance(side, radio.wavelength_m):.3f}"
    )
    print(sizing_line)
    return 0


def _check(name: str, ok: bool, detail: str, failures: list[str]) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}: {detail}")
    if not ok:
        failures.append(name)


def _cmd_validate(args) -> int:
    failures: list[str] = []
    rng = np.random.Generator(np.random.Philox(20260810))
    draws = args.draws

    p10, p18, p36 = los_probability([10.0, 18.0, 36.0])
    expect36 = 0.5 + np.exp(-1.0) * 0.5
    gap18 = abs(p18 - (18.0 / 18.0 + np.exp(-0.5) * (1 - 18.0 / 18.0)))
    _check(
        "los-probability",
        p10 == 1.0 and abs(p36 - expect36) < 1e-12 and gap18 < 1e-12,
        f"p(36)={p36:.6f}, breakpoint gap={gap18:.1e}",
        failures,
    )

    for k in (0.0, 10.0):
        power = float(np.mean(np.abs(sample_rician_fading(k, draws, rng)) ** 2))
        _check(
            f"fading-unit-power-k{k:g}",
            abs(power - 1.0) < 0.01,
            f"E|h|^2 = {power:.4f}",
            failures,
        )
        mean_amp = empirical_mean_amplitude(k, draws, rng)
        closed = np.sqrt(np.pi) / 2.0 * rician_amplitude_mean(k)
        _check(
            f"mean-amplitude-k{k:g}",
            abs(mean_amp - closed) / closed < 0.01,
            f"sampled {mean_amp:.5f} vs closed form {closed:.5f}",
            failures,
        )

    for n in (16, 64, 256):
        for k in (0.0, 10.0):
            closed = cascade_amplification(n, k)
            sampled = empirical_cascade_amplification(n, k, draws, rng)
            rel = abs(sampled - closed) / closed
            _check(
                f"cascade-amplification-n{n}-k{k:g}",
                rel < 0.02,
                f"sampled {sampled:.4g} vs closed form {closed:.4g} "
                f"(rel err {rel:.3%})",
                failures,
            )

    unbounded = cascade_amplification(2304, 10.0, mean_in_denominator=True)
    _check(
        "denominator-variant-exceeds-ceiling",
        unbounded > 2304.0**2,
        f"{unbounded:.3g} > N^2 = {2304.0**2:.3g} (expected violation)",
        failures,
    )

    # Solved as a sweep solves a round: stacked by column count, tallest first.
    match_rng = np.random.Generator(np.random.Philox(7))
    requests = []
    for _ in range(20):
        rows = int(match_rng.integers(1, 6))
        cols = int(match_rng.integers(1, 6))
        size = int(match_rng.integers(0, min(rows, cols) + 1))
        cost = match_rng.integers(-32, 32, size=(rows, cols)) / 4.0
        requests.append((cost, None, size))
    solved = matching.solve(requests)
    ok = all(
        total == best_exact_size_cost(cost, size)
        for (cost, _, size), (_, total, _, _) in zip(requests, solved)
    )
    _check("matching-vs-brute-force", ok, "20 random instances", failures)

    platform = default_scenario().platform
    rng_m = flight_range(platform)
    _check(
        "flight-range-window",
        12_900.0 < rng_m < 13_000.0,
        f"{rng_m:.1f} m",
        failures,
    )

    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}")
        return 1
    print("all checks passed")
    return 0


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low`."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsfleet",
        description="Anchored aerial reflector fleet planning and simulation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="run a single trial and emit its artifacts")
    plan.add_argument("--config", help="scenario file (defaults built in)")
    plan.add_argument("--seed", type=int, default=1, help="master seed")
    plan.add_argument("--sigma", type=float, default=None, help="traffic sigma")
    plan.add_argument(
        "--strategy", default="robotic", choices=KNOWN_STRATEGIES
    )
    plan.add_argument("--trial", type=_int_at_least(0), default=0, help="trial index")
    plan.add_argument("--out", required=True, help="output directory")
    plan.set_defaults(func=_cmd_plan)

    sweep = sub.add_parser("sweep", help="full strategy x sigma x trial experiment")
    sweep.add_argument("--config", help="scenario file (defaults built in)")
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--trials", type=int, default=100)
    sweep.add_argument(
        "--sigma", type=float, nargs="+", default=[1.8, 2.8, 3.6]
    )
    sweep.add_argument(
        "--strategy", nargs="+", default=list(KNOWN_STRATEGIES),
        choices=KNOWN_STRATEGIES,
    )
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=_cmd_sweep)

    energy = sub.add_parser("energy", help="battery and sizing report")
    energy.add_argument("--config")
    energy.add_argument(
        "--distance", type=float, default=1000.0,
        help="mission flight distance for the ledger line (m)",
    )
    energy.add_argument(
        "--min-distance", type=float, default=None,
        help="transceiver clearance for the sizing rule (default: h3)",
    )
    energy.set_defaults(func=_cmd_energy)

    validate = sub.add_parser(
        "validate", help="run the Monte Carlo and solver oracle checks"
    )
    validate.add_argument(
        "--draws", type=_int_at_least(1), default=100_000,
        help="Monte Carlo draw count per check",
    )
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # surface one machine-readable line, exit nonzero
        print(json.dumps({"error": str(err)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
