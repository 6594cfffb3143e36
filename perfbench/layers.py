"""The layer boundaries the traced run wraps, and the per-layer metrics.

Each target is a module-level name through which the program calls a
layer, so a span measures the call exactly as the program makes it:
`irsfleet.harness.realize_channel` is the channel layer as the trial
engine calls it, `irsfleet.planner.min_cost_matching` the matching solver
as placement calls it and `irsfleet.routing.min_cost_matching` the same
solver as routing calls it. `irsfleet.planner.validate_plan` is wrapped as
well as the harness binding because `evaluate_plan` validates again
through it.
"""

import numpy as np

from tracer import Target, Tracer

MIB = float(2**20)

# Spans reported with .calls, .self_ms_p50, .self_ms_p98 and .self_s_total.
TIMED_SPANS = (
    "harness.trial.robotic",
    "harness.trial.terrestrial",
    "harness.trial.random",
    "harness.trial_rng",
    "channel.realize_channel",
    "traffic.sample_traffic",
    "planner.build_gain_tensor",
    "planner.solve_adaptive_plan",
    "planner.solve_fixed_plan",
    "planner.solve_random_plan",
    "planner.validate_plan",
    "planner.evaluate_plan",
    "matching.placement.min_cost_matching",
    "matching.routing.min_cost_matching",
    "routing.plan_trajectories",
    "routing.min_cost_assignment",
    "routing.validate_trajectory",
    "oracles.empirical_cascade_amplification",
    "oracles.sample_rician_fading",
    "oracles.empirical_mean_amplitude",
)

# Metrics of the set-up probe, reported as the median over probes.
SETUP_LAYERS = (
    "cli.import_ms",
    "scenario.load_scenario_ms",
    "geometry.build_layout_ms",
    "geometry.compute_distances_ms",
)


def _trial_span(args, kwargs):
    # _TrialEngine.run(self, sigma, trial_index, strategy, master_seed)
    call = dict(zip(("self", "sigma", "trial_index", "strategy"), args))
    call.update(kwargs)
    strategy = call["strategy"]
    return (
        f"harness.trial.{strategy}",
        f"{strategy}/{call['sigma']!r}/{call['trial_index']}",
    )


def _observe_channel(counters, realization, args, kwargs):
    counters["channel.realizations"] += 1
    counters["channel.weak_cells"] += len(realization.weak_set)


def _observe_tensor(counters, tensor, args, kwargs):
    counters["planner.tensors"] += 1
    counters["planner.tensor_bytes"] += tensor.gains.nbytes  # shape x itemsize
    # Demand gating happens while the tensor is built: an (epoch, weak
    # cell) entry is gated when its demand meets the epoch threshold.
    demand = np.asarray(tensor.demand)
    counters["traffic.gated"] += int(
        (demand >= np.asarray(tensor.thresholds)[:, None]).sum()
    )
    counters["traffic.entries"] += demand.size


def _observe_cascade(counters, result, args, kwargs):
    # empirical_cascade_amplification(n_elements, k_linear, n_draws, rng, ...)
    call = dict(zip(("n_elements", "k_linear", "n_draws"), args))
    call.update(kwargs)
    draws = 2 * int(call["n_elements"]) * int(call["n_draws"])
    counters["oracles.amplitude_draws"] += draws
    counters["oracles.bytes"] += draws * np.dtype(np.float32).itemsize


def _observe_fading(counters, samples, args, kwargs):
    counters["oracles.bytes"] += samples.nbytes


TARGETS = (
    Target("irsfleet.harness", "_TrialEngine.run", _trial_span),
    Target("irsfleet.harness", "trial_rng", "harness.trial_rng"),
    Target("irsfleet.harness", "realize_channel", "channel.realize_channel", _observe_channel),
    Target("irsfleet.harness", "sample_traffic", "traffic.sample_traffic"),
    Target("irsfleet.harness", "build_gain_tensor", "planner.build_gain_tensor", _observe_tensor),
    Target("irsfleet.harness", "solve_adaptive_plan", "planner.solve_adaptive_plan"),
    Target("irsfleet.harness", "solve_fixed_plan", "planner.solve_fixed_plan"),
    Target("irsfleet.harness", "solve_random_plan", "planner.solve_random_plan"),
    Target("irsfleet.harness", "validate_plan", "planner.validate_plan"),
    Target("irsfleet.planner", "validate_plan", "planner.validate_plan"),
    Target("irsfleet.harness", "evaluate_plan", "planner.evaluate_plan"),
    Target("irsfleet.planner", "min_cost_matching", "matching.placement.min_cost_matching"),
    Target("irsfleet.routing", "min_cost_matching", "matching.routing.min_cost_matching"),
    Target("irsfleet.harness", "plan_trajectories", "routing.plan_trajectories"),
    Target("irsfleet.routing", "min_cost_assignment", "routing.min_cost_assignment"),
    Target("irsfleet.harness", "validate_trajectory", "routing.validate_trajectory"),
    Target("irsfleet.harness", "summarize", "harness.summarize"),
    Target("irsfleet.harness", "write_trials_csv", "harness.write_csv"),
    Target("irsfleet.harness", "write_summary_csv", "harness.write_csv"),
    Target("irsfleet.harness", "_write_rows", "harness.write_csv"),
    Target(
        "irsfleet.cli",
        "empirical_cascade_amplification",
        "oracles.empirical_cascade_amplification",
        _observe_cascade,
    ),
    Target("irsfleet.cli", "sample_rician_fading", "oracles.sample_rician_fading", _observe_fading),
    Target("irsfleet.oracles", "sample_rician_fading", "oracles.sample_rician_fading", _observe_fading),
    Target("irsfleet.cli", "empirical_mean_amplitude", "oracles.empirical_mean_amplitude"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, traced_wall_s: float) -> dict:
    """Per-layer metrics of `passes` identical traced passes, as (value, unit).

    Calls and totals are per pass. A span that never occurred, because the
    workload does not reach it or the program no longer resolves its
    name, reports zero.
    """
    selfs: dict[str, list[float]] = {}
    inclusive: dict[str, float] = {}
    # Program time inside trial spans: their duration less the tracer's
    # own time. The trial shares below are of this.
    trial_s = 0.0
    for span, own in zip(tracer.spans, tracer.self_times()):
        selfs.setdefault(span.name, []).append(own)
        inclusive[span.name] = inclusive.get(span.name, 0.0) + span.duration
        if span.trial is not None:
            trial_s += own

    out = {}
    for name in TIMED_SPANS:
        own_ms = np.asarray(selfs.get(name, []), dtype=float) * 1e3
        out[f"{name}.calls"] = (own_ms.size / passes, "count")
        p50, p98 = np.percentile(own_ms, [50, 98]) if own_ms.size else (0.0, 0.0)
        out[f"{name}.self_ms_p50"] = (float(p50), "ms")
        out[f"{name}.self_ms_p98"] = (float(p98), "ms")
        out[f"{name}.self_s_total"] = (float(own_ms.sum()) / 1e3 / passes, "s")

    def self_sum(*prefixes: str) -> float:
        return sum(sum(v) for k, v in selfs.items() if k.startswith(prefixes))

    def calls(name: str) -> int:
        return len(selfs.get(name, []))

    trial_names = [k for k in selfs if k.startswith("harness.trial.")]
    trials = sum(calls(k) for k in trial_names)
    counters = tracer.counters
    out["harness.glue_share"] = (_ratio(self_sum("harness.trial."), trial_s), "share")
    out["routing.trial_share"] = (
        _ratio(self_sum("routing.", "matching.routing."), trial_s), "share"
    )
    out["planner.trial_share"] = (
        _ratio(self_sum("planner.", "matching.placement."), trial_s), "share"
    )
    out["oracles.wall_share"] = (
        _ratio(self_sum("oracles.") / passes, traced_wall_s), "share"
    )
    out["channel.weak_cells_mean"] = (
        _ratio(counters["channel.weak_cells"], counters["channel.realizations"]),
        "count",
    )
    out["traffic.gated_share"] = (
        _ratio(counters["traffic.gated"], counters["traffic.entries"]), "share"
    )
    out["planner.gain_tensor_mib_computed"] = (
        _ratio(counters["planner.tensor_bytes"], counters["planner.tensors"]) / MIB,
        "MiB",
    )
    for name in (
        "planner.validate_plan",
        "matching.placement.min_cost_matching",
        "matching.routing.min_cost_matching",
    ):
        out[f"{name}.calls_per_trial"] = (_ratio(calls(name), trials), "count")
    out["routing.resolves_per_transition"] = (
        _ratio(calls("matching.routing.min_cost_matching"), calls("routing.min_cost_assignment")),
        "count",
    )
    out["harness.summarize_ms"] = (inclusive.get("harness.summarize", 0.0) * 1e3 / passes, "ms")
    out["harness.write_csv_ms"] = (inclusive.get("harness.write_csv", 0.0) * 1e3 / passes, "ms")
    out["oracles.amplitude_draws_per_s"] = (
        _ratio(
            counters["oracles.amplitude_draws"],
            inclusive.get("oracles.empirical_cascade_amplification", 0.0),
        ),
        "1/s",
    )
    out["oracles.bytes_mib_computed"] = (counters["oracles.bytes"] / passes / MIB, "MiB")
    return out
