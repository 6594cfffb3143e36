"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
from layers import TARGETS, TIMED_SPANS, layer_metrics  # noqa: E402
from tracer import Target, Tracer, installed  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    _check_validate,
    _finished_before_abort,
    _paired_violations,
    make_workload,
    run_part,
)


def _declared(kind: str) -> dict:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _run_tiny(workload: str, trace: int, capsys, monkeypatch) -> dict:
    monkeypatch.chdir(REPO)
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "environment" in json.loads(lines[-2])
    return json.loads(lines[-1])


def test_benchmark_declares_the_workloads_run_accepts():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_declared_metric_with_its_unit(
    workload, trace, capsys, monkeypatch
):
    result = _run_tiny(workload, trace, capsys, monkeypatch)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    assert reported == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_and_untraced_outputs_hash_the_same(tmp_path):
    workload = make_workload("acceptance-sweep", 5, tmp_path, tiny=True)
    plain = run_part(workload, 0, tmp_path / "plain")
    tracer = Tracer()
    with installed(tracer, TARGETS) as unresolved:
        traced = run_part(workload, 0, tmp_path / "traced")
    assert unresolved == []
    assert tracer.spans
    assert plain.digest is not None and plain.failed == 0
    assert traced.digest == plain.digest


def test_self_times_and_glue_sum_to_each_trial_span(tmp_path):
    workload = make_workload("wide-grid-sweep", 2, tmp_path, tiny=True)
    tracer = Tracer()
    with installed(tracer, TARGETS):
        run_part(workload, 0, tmp_path / "out")
    own = tracer.self_times()
    trials = [s for s in tracer.spans if s.name.startswith("harness.trial.")]
    assert len(trials) == workload.units_per_part
    assert len({s.trial for s in trials}) == len(trials)
    for trial in trials:
        members = [(s, o) for s, o in zip(tracer.spans, own) if s.trial == trial.trial]
        assert len(members) > 1
        # Self times (the trial's own is its glue) plus the tracer's own
        # time inside the trial cover the trial span exactly.
        covered = sum(o + s.tracing for s, o in members)
        assert covered == pytest.approx(trial.duration, rel=1e-9, abs=1e-12)
    assert all(o >= -1e-9 for o in own)
    assert any(s.tracing > 0 for s in trials)


def test_unresolved_name_reports_zero_calls_without_crashing():
    tracer = Tracer()
    gone = Target("irsfleet.routing", "min_cost_assignment_removed", "routing.min_cost_assignment")
    with installed(tracer, [gone]) as unresolved:
        pass
    assert unresolved == [gone]
    metrics = layer_metrics(tracer, 1, 1.0)
    for name in TIMED_SPANS:
        assert metrics[f"{name}.calls"] == (0.0, "count")


def test_paired_invariants_flag_each_violation():
    assert _paired_violations({"robotic": 1.5, "terrestrial": 1.2, "random": 1.0}) == ""
    tied = 1.25
    assert _paired_violations(
        {"robotic": tied * (1 - 1e-13), "terrestrial": tied, "random": 1.0}
    ) == ""
    assert "terrestrial" in _paired_violations(
        {"robotic": 1.2, "terrestrial": 1.3, "random": 1.0}
    )
    assert "< 1" in _paired_violations(
        {"robotic": 1.2, "terrestrial": 1.1, "random": 0.99}
    )
    assert _paired_violations({"robotic": 1.2, "terrestrial": 1.1})


def test_aborted_sweep_counts_unfinished_trials():
    line = json.dumps({"error": "strategy=terrestrial sigma=2.8 trial=3: boom"})
    # robotic (3 sigmas) and terrestrial at sigma 1.8 finished: 4 x 5 + 3.
    assert _finished_before_abort(line, trials=5) == 23
    assert _finished_before_abort(json.dumps({"error": "bad config"}), trials=5) == 0


def test_validate_report_counts_failed_checks():
    report = "PASS a: ok\nFAIL b: off\nPASS c: ok\n1 check(s) failed: b\n"
    result = _check_validate(1, report, "", 1.0)
    assert (result.attempted, result.failed, result.checks) == (3, 1, 3)
    crashed = _check_validate(2, "PASS a: ok\n", '{"error": "x"}', 1.0)
    assert (crashed.attempted, crashed.failed) == (2, 1)


def test_exits_nonzero_without_result_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "acceptance-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
