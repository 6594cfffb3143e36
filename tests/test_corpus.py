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
another numpy may legitimately draw other bytes. `validate` is also rerun
in a subprocess at each SIMD dispatch level below the host's that numpy
reports, and must print the same bytes at each.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import irsfleet
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


def _lower_dispatch_levels() -> list[str]:
    """One `NPY_DISABLE_CPU_FEATURES` value per SIMD dispatch level below
    the one numpy runs at on this host. numpy lists the dispatch targets
    it found on the host from lowest to highest; each value switches off
    one of them and every one above it."""
    found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    return [" ".join(found[i:]) for i in range(len(found))]


def test_validate_matches_the_corpus_at_every_lower_dispatch_level(tmp_path):
    # `validate` draws float32 `log` and `cos`, whose numpy kernels depend
    # on the dispatch level; its printed digits must not.
    levels = _lower_dispatch_levels()
    if not levels:
        pytest.skip("numpy found no SIMD dispatch target above its baseline "
                    "on this host, so there is no lower level to run at")
    code = (
        "import json, sys; from pathlib import Path; from test_corpus import _run; "
        "print(json.dumps(_run('validate', Path(sys.argv[1]))))"
    )
    src = Path(irsfleet.__file__).parents[1]
    path = [str(src), str(DIGESTS.parent)]
    path += os.environ.get("PYTHONPATH", "").split(os.pathsep)
    expect = json.loads(DIGESTS.read_text())["validate"]
    for level in levels:
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, path)),
            NPY_DISABLE_CPU_FEATURES=level,
        )
        # numpy only warns about a name it cannot switch off; -W error
        # makes that a failure instead of a run at the default level.
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", code, str(tmp_path)],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, (level, done.stderr)
        assert json.loads(done.stdout) == expect, level


if __name__ == "__main__":
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for name in sys.argv[1:] or sorted(set(RUNS) - set(recorded)):
        with tempfile.TemporaryDirectory() as tmp:
            recorded[name] = _run(name, Path(tmp))
    DIGESTS.write_text(json.dumps(dict(sorted(recorded.items())), indent=1) + "\n")
