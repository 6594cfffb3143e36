"""Byte-identity corpus: the sha256 of every file a set of CLI runs writes.

Each run goes through `cli.main` in process, on a scenario built from one
row of `VARIANTS` and written with `write_scenario`; no scenario file is
checked in. A command that writes no files (`validate`) records its exit
code and the sha256 of its stdout instead. The digests live in
`corpus_digests.json` beside this module. A change that moves an output
byte fails here. One that moves bytes on purpose re-records only the runs
it must, with

    PYTHONPATH=src python tests/test_corpus.py RUN [RUN ...]

and names each one with its reason. With no run named, the script records
only the runs missing from `corpus_digests.json`; a recorded run is
re-recorded only when it is named, so no output change is absorbed
silently. The digests were recorded with numpy 2.4.6 (CPython 3.11);
another numpy may legitimately draw other bytes.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from irsfleet.cli import main
from irsfleet.harness import KNOWN_STRATEGIES
from irsfleet.scenario import Scenario, write_scenario

DIGESTS = Path(__file__).with_name("corpus_digests.json")

# variant -> {scenario section: {key: value}}; every other key keeps its
# default. "default" runs without --config.
VARIANTS = {
    "default": {},
    "17x17-fleet-4": {
        "geometry": {"grid_rows": 17, "grid_cols": 17},
        "solver": {"fleet_size": 4},
    },
    "fleet-0": {"solver": {"fleet_size": 0}},
    "fleet-1": {"solver": {"fleet_size": 1}},
    "one-epoch": {"traffic": {"epochs": 1}},
    "clairvoyant": {"solver": {"terrestrial_mode": "clairvoyant"}},
    "every-unit-infeasible": {"platform": {"battery_j": 471380.0}},
    "no-weak-cell": {"radio": {"snr_threshold_db": 60.0}},
    "5x11": {"geometry": {"grid_rows": 5, "grid_cols": 11}},
    "radio": {
        "radio": {
            "eta2": 3.5,
            "eta3": 2.2,
            "k_c_db": 3.0,
            "tx_power_dbm": 30.0,
            "n_elements": 1024,
            "carrier_freq_hz": 26e9,
            "a_t_db": -55.0,
            "snr_threshold_db": 14.0,
        }
    },
    "mute": {"radio": {"tx_power_dbm": -10000.0}},
}

SMALL = (
    "fleet-0",
    "fleet-1",
    "one-epoch",
    "clairvoyant",
    "every-unit-infeasible",
    "no-weak-cell",
    "5x11",
)

# Commands that write their results under --out.
WRITES_FILES = ("plan", "sweep")

# run -> (variant, argv without --config and --out)
RUNS = {
    "sweep-100": ("default", ["sweep", "--seed", "20260810", "--trials", "100"]),
    "default/sweep-2": ("default", ["sweep", "--seed", "20260810", "--trials", "2"]),
    "default/plan-robotic": ("default", ["plan", "--seed", "7", "--sigma", "2.8"]),
    **{
        f"default/plan-{s}": (
            "default", ["plan", "--seed", "7", "--sigma", "2.8", "--strategy", s]
        )
        for s in ("terrestrial", "random")
    },
    "17x17-fleet-4/sweep": ("17x17-fleet-4", ["sweep", "--seed", "5", "--trials", "5"]),
    "17x17-fleet-4/plan": (
        "17x17-fleet-4", ["plan", "--seed", "7", "--sigma", "2.8", "--trial", "3"]
    ),
    **{f"{v}/sweep": (v, ["sweep", "--seed", "3", "--trials", "3"]) for v in SMALL},
    **{
        f"{v}/plan-{s}": (v, ["plan", "--seed", "4", "--strategy", s])
        for v in SMALL
        for s in KNOWN_STRATEGIES
    },
    "radio/sweep": ("radio", ["sweep", "--seed", "9", "--trials", "20"]),
    **{f"mute/plan-{s}": ("mute", ["plan", "--strategy", s]) for s in KNOWN_STRATEGIES},
    "validate": ("default", ["validate", "--draws", "20000"]),
    "default/energy": ("default", ["energy"]),
    "default/energy-20km": ("default", ["energy", "--distance", "20000"]),
    "every-unit-infeasible/energy": ("every-unit-infeasible", ["energy"]),
}


def _scenario(variant: str) -> Scenario:
    changes = VARIANTS[variant]
    return Scenario(
        **{
            f.name: f.type(**changes[f.name])
            for f in dataclasses.fields(Scenario)
            if f.name in changes
        }
    )


def _run(name: str, tmp_path: Path) -> dict:
    """One corpus run: {file: sha256} when it exits 0, else its exit code
    and the stderr it printed; for a command without --out, its exit code
    and the sha256 of its stdout."""
    variant, argv = RUNS[name]
    if variant != "default":
        config = tmp_path / f"{variant}.ini"
        write_scenario(_scenario(variant), config)
        argv = argv + ["--config", str(config)]
    writes = argv[0] in WRITES_FILES
    out = tmp_path / "out"
    if writes:
        argv = argv + ["--out", str(out)]
    printed, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(err):
        code = main(argv)
    if not writes:
        stdout = hashlib.sha256(printed.getvalue().encode()).hexdigest()
        return {"exit": code, "stdout": stdout}
    if code:
        assert not out.exists()
        return {"exit": code, "stderr": err.getvalue()}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


def test_every_run_is_recorded():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_the_corpus(tmp_path, name):
    assert _run(name, tmp_path) == json.loads(DIGESTS.read_text())[name]


if __name__ == "__main__":
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for name in sys.argv[1:] or sorted(set(RUNS) - set(recorded)):
        with tempfile.TemporaryDirectory() as tmp:
            recorded[name] = _run(name, Path(tmp))
    DIGESTS.write_text(json.dumps(dict(sorted(recorded.items())), indent=1) + "\n")
