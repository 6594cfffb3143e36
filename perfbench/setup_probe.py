"""Time irsfleet's set-up in a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <irsfleet CLI arguments...>

Imports the CLI, parses the arguments, loads the scenario they name (the
built-in default without --config), builds the layout and its distance
tables, then prints one JSON line of step timings in milliseconds. The
parent measures set-up time from spawning this process to reading that
line.
"""

import json
import sys
import time


def main() -> int:
    src, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import irsfleet.cli as cli
    from irsfleet.geometry import compute_distances
    from irsfleet.scenario import default_scenario, load_scenario

    imported = time.perf_counter()
    args = cli.build_parser().parse_args(argv)
    parsed = time.perf_counter()
    config = getattr(args, "config", None)
    scenario = default_scenario() if config is None else load_scenario(config)
    loaded = time.perf_counter()
    layout = scenario.layout()
    laid_out = time.perf_counter()
    compute_distances(layout)
    done = time.perf_counter()
    print(
        json.dumps(
            {
                "cli.import_ms": (imported - start) * 1e3,
                "scenario.load_scenario_ms": (loaded - parsed) * 1e3,
                "geometry.build_layout_ms": (laid_out - loaded) * 1e3,
                "geometry.compute_distances_ms": (done - laid_out) * 1e3,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
