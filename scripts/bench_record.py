#!/usr/bin/env python3
"""Record where the simulator's host cost stands, in one BENCH_<n>.json.

Everything it writes comes from fixed inputs, in the source tree the
script sits in:

- `workloads`: the result line `bench/run.py --trace 0` prints for each
  workload BENCHMARK.json declares, at seed 1, each run as a subprocess;
- `grid_ladder`: per rung, an N-node grid (`golden._grid_nodes` at 120 m
  spacing, WiFi plus cellular, the protocol block of
  `grid49_wifi_cellular`, 1 Hz from every UAV from 3.5 s, seed 7) run for
  RUNG_DURATION_S simulated seconds: the median raw wall seconds of
  building, running and rendering it over REPEATS runs, its transmissions
  (`tx_sent`), receptions (`rx_events`) and report bytes;
- `python`: the interpreter version, and `host`: machine and CPU count.

Wall times are raw host seconds, so compare them only with runs taken on
the same host, side by side. Each record goes in a file of its own, named
on the command line:

    PYTHONPATH=src python scripts/bench_record.py --out BENCH_2.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from swarmlink.golden import _grid_nodes, generated_scenarios
from swarmlink.metrics import render_json
from swarmlink.scenario import scenario_from_dict
from swarmlink.sim import Simulation

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
WORKLOADS = tuple(w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])
WORKLOAD_SECONDS = 20.0  # measured time per workload
LADDER_SIDES = (5, 7, 10)  # grid ladder rungs, side x side nodes
RUNG_DURATION_S = 10.0  # simulated seconds per rung
REPEATS = 3


def bench_line(workload: str) -> dict:
    """The last line `bench/run.py --trace 0` prints for one workload at SEED."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(WORKLOAD_SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=WORKLOAD_SECONDS + 300,
    ).stdout.splitlines()
    return json.loads(out[-1])


def grid_scenario(side: int) -> dict:
    return {
        "name": f"grid{side * side}",
        "seed": 7,
        "duration_s": RUNG_DURATION_S,
        "mode": "mesh",
        "nodes": _grid_nodes(side, 120.0, {}),
        "links": {"wifi24": {"band": "wifi24"}, "cellular": {"band": "cellular"}},
        "protocol": generated_scenarios()["grid49_wifi_cellular"]["protocol"],
        "traffic": {"senders": "uavs", "rate_hz": 1.0, "payload_bytes": 32, "start_s": 3.5},
    }


def grid_rung(side: int) -> dict:
    walls = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        sc = scenario_from_dict(grid_scenario(side))
        report = Simulation(sc).run()
        text = render_json(report)
        walls.append(time.perf_counter() - start)
    conservation = report["conservation"]
    return {
        "nodes": side * side,
        "duration_s": RUNG_DURATION_S,
        "wall_s": statistics.median(walls),
        "transmissions": conservation["tx_sent"],
        "receptions": conservation["rx_events"],
        "report_bytes": len(text.encode()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="the record to write, e.g. BENCH_2.json")
    args = parser.parse_args(argv)

    record = {
        "python": platform.python_version(),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "workloads": {
            name: {"seed": SEED, "seconds": WORKLOAD_SECONDS, "result": bench_line(name)}
            for name in WORKLOADS
        },
        "grid_ladder": [grid_rung(side) for side in LADDER_SIDES],
    }
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"bench record: {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
