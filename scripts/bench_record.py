#!/usr/bin/env python3
"""Record where the simulator's host cost stands, in one BENCH_<n>.json.

Everything it writes comes from fixed inputs, in the source tree the
script sits in:

- `workloads`: for each workload BENCHMARK.json declares, at seed 1, the
  result line `bench/run.py --trace 0` prints (`result`: the end-to-end
  metrics) and the one `--trace 1` prints (`traced`: the per-layer
  metrics), each with the run's `digest`, from `scripts/bench_pairs.py`'s
  `run_bench`;
- `grid_ladder`: per rung, an N-node grid (`golden._grid_nodes` at 120 m
  spacing, WiFi plus cellular, the protocol block of
  `grid49_wifi_cellular`, 1 Hz from every UAV from 3.5 s, seed 7) run for
  RUNG_DURATION_S simulated seconds, REPEATS times, in a child process of
  its own: the median raw wall seconds of building, running and rendering
  it (`wall_s`), of building and running alone (`run_s`) and of rendering
  the report alone (`render_s`); the median of those wall seconds over
  the mean time of `bench/hostspeed.py`'s fixed chunk, timed CHUNK_SAMPLES
  times just before and just after each run (`wall_ref`, the unit
  `bench/run.py` reports per pass, which takes host drift out of the
  time, though only drift between runs: chunks timed around a run miss
  a slowdown during it); the median CPU seconds of building, running
  and rendering (`cpu_s`, `time.process_time()`, which time the host
  gives other processes does not inflate, so a pair whose `wall_ref`
  and `run_s` disagree can be settled by it); the child's maximum
  resident set
  (`max_rss_mb`, its own `getrusage(RUSAGE_SELF)`, interpreter included:
  `RUSAGE_CHILDREN` in this process would give the largest child reaped
  so far, not this rung's); its transmissions (`tx_sent`), receptions
  (`rx_events`) and report bytes; and, from one more run in a child of
  its own after the timed ones, so that tracing slows no timed run, the
  MiB tracemalloc sees live when the event loop ends, before the report
  is built (`state_mb`: the scenario, nodes, caches, windows and ledger),
  and how many more are live once `report.build` has returned the report
  (`report_mb`: the report dict, with the report still held);
- `module_shares`: for the PROFILE_SIDE x PROFILE_SIDE rung, REPEATS
  builds, runs and renders in a child process of its own under
  `scripts/sample_profile.py`'s sampler: per `src/swarmlink` module, the
  share of the CPU samples in which its code was running (C code such as
  AES-GCM or heapq counts for the Python code that called it); `other` is
  the rest: the standard library, cryptography's Python layer, code that
  dataclasses generate;
- `retained_memory`: `scripts/retained_memory.py`'s table for
  RETAINED_SCENARIO at each of RETAINED_DURATIONS simulated seconds, in a
  child process of its own: the MB still live after `run()` returns
  (`retained_mb`) and the tracemalloc peak (`peak_mb`), each row after an
  untraced warm-up run;
- `python`: the interpreter version, and `host`: machine and CPU count.

Wall times are raw host seconds, so compare them only with runs taken on
the same host, side by side. Each record goes in a file of its own, named
on the command line:

    PYTHONPATH=src python scripts/bench_record.py --out BENCH_4.json
"""

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import runpy
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

from swarmlink import report as report_module
from swarmlink.golden import _grid_nodes, generated_scenarios
from swarmlink.metrics import render_json
from swarmlink.scenario import scenario_from_dict
from swarmlink.sim import Simulation

ROOT = Path(__file__).resolve().parents[1]
# bench/ is not a package: load its host-speed chunk from the file.
_HOSTSPEED = importlib.util.spec_from_file_location("hostspeed", ROOT / "bench" / "hostspeed.py")
hostspeed = importlib.util.module_from_spec(_HOSTSPEED)
_HOSTSPEED.loader.exec_module(hostspeed)
SEED = 1
WORKLOADS = tuple(w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])
WORKLOAD_SECONDS = 20.0  # measured time per workload
LADDER_SIDES = (5, 7, 10, 14)  # grid ladder rungs, side x side nodes
PROFILE_SIDE = 10  # the rung whose CPU samples are split by module
RUNG_DURATION_S = 10.0  # simulated seconds per rung
REPEATS = 3
CHUNK_SAMPLES = 5  # host-speed chunks timed before and after each rung run
RETAINED_SCENARIO = "mesh_10_lossy"
RETAINED_DURATIONS = (25.0, 100.0, 400.0)  # simulated seconds, traffic without stop_s


def grid_scenario(side: int, duration_s: float) -> dict:
    return {
        "name": f"grid{side * side}",
        "seed": 7,
        "duration_s": duration_s,
        "mode": "mesh",
        "nodes": _grid_nodes(side, 120.0, {}),
        "links": {"wifi24": {"band": "wifi24"}, "cellular": {"band": "cellular"}},
        "protocol": generated_scenarios()["grid49_wifi_cellular"]["protocol"],
        "traffic": {"senders": "uavs", "rate_hz": 1.0, "payload_bytes": 32, "start_s": 3.5},
    }


def ladder_rung(side: int, duration_s: float, repeats: int) -> dict:
    """One rung, run in the process that calls it; see grid_rung."""
    runs, renders, refs, cpus = [], [], [], []
    speed = hostspeed.HostSpeed()
    for _ in range(repeats):
        first = len(speed.samples)
        for _ in range(CHUNK_SAMPLES):
            speed.sample()
        cpu_start, start = time.process_time(), time.perf_counter()
        report = Simulation(scenario_from_dict(grid_scenario(side, duration_s))).run()
        ran = time.perf_counter()
        text = render_json(report)
        runs.append(ran - start)
        renders.append(time.perf_counter() - ran)
        cpus.append(time.process_time() - cpu_start)
        for _ in range(CHUNK_SAMPLES):
            speed.sample()
        refs.append((runs[-1] + renders[-1]) / speed.chunk_s(first))
    conservation = report["conservation"]
    return {
        "nodes": side * side,
        "duration_s": duration_s,
        "wall_s": statistics.median(map(sum, zip(runs, renders))),
        "run_s": statistics.median(runs),
        "render_s": statistics.median(renders),
        "wall_ref": statistics.median(refs),
        "cpu_s": statistics.median(cpus),
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "transmissions": conservation["tx_sent"],
        "receptions": conservation["rx_events"],
        "report_bytes": len(text.encode()),
    }


def rung_memory_mb(side: int, duration_s: float) -> dict:
    """MiB live under tracemalloc when one rung's event loop ends, read as
    run() hands its state to report.build (`state_mb`), and the growth
    from there to just after build returns, the report held (`report_mb`);
    after an untraced 4-node run that pays the one-time costs
    (cryptography's lazy backend import) no rung should carry."""
    live_bytes = []
    build = report_module.build

    def probe(*args):
        gc.collect()
        live_bytes.append(tracemalloc.get_traced_memory()[0])
        report = build(*args)
        gc.collect()
        live_bytes.append(tracemalloc.get_traced_memory()[0])
        return report

    Simulation(scenario_from_dict(grid_scenario(2, duration_s))).run()
    gc.collect()
    report_module.build = probe
    tracemalloc.start()
    try:
        Simulation(scenario_from_dict(grid_scenario(side, duration_s))).run()
    finally:
        tracemalloc.stop()
        report_module.build = build
    state, with_report = live_bytes
    return {"state_mb": state / 2**20, "report_mb": (with_report - state) / 2**20}


def rung_module_shares(side: int, duration_s: float, repeats: int) -> dict:
    """Each swarmlink module's share of the CPU samples taken over `repeats`
    builds, runs and renders of a rung, by the file of the code running."""
    profile = runpy.run_path(str(ROOT / "scripts" / "sample_profile.py"))
    package = ROOT / "src" / "swarmlink"
    with profile["Sampler"](profile["INTERVAL_S"]) as sampler:
        start = time.process_time()
        for _ in range(repeats):
            render_json(Simulation(scenario_from_dict(grid_scenario(side, duration_s))).run())
        cpu_s = time.process_time() - start
    total = max(sampler.samples, 1)
    modules = Counter()
    for filename, samples in sampler.leaf_files.items():
        path = Path(filename)
        modules[path.stem if path.parent == package else "other"] += samples
    return {
        "nodes": side * side,
        "duration_s": duration_s,
        "runs": repeats,
        "samples": sampler.samples,
        "interval_ms": cpu_s / total * 1000,
        "shares": {name: samples / total for name, samples in sorted(modules.items())},
    }


# Runs one function of a script in a fresh interpreter and prints its
# result as JSON: argv is the source tree's src/, the script, the
# function's name and the JSON list of its arguments.
CHILD = (
    "import json, runpy, sys; sys.path.insert(0, sys.argv[1]); "
    "function = runpy.run_path(sys.argv[2])[sys.argv[3]]; "
    "print(json.dumps(function(*json.loads(sys.argv[4]))))"
)


def in_child(script: Path, function: str, args: list):
    """`function(*args)` from `script`, run in a child process of its own."""
    argv = [str(ROOT / "src"), str(script), function, json.dumps(args)]
    out = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def grid_rung(side: int) -> dict:
    """One rung in a child process of its own, so its max RSS is its own,
    then its state_mb and report_mb in another, so tracemalloc slows no
    timed run."""
    script = Path(__file__).resolve()
    rung = in_child(script, "ladder_rung", [side, RUNG_DURATION_S, REPEATS])
    rung.update(in_child(script, "rung_memory_mb", [side, RUNG_DURATION_S]))
    return rung


def retained_memory() -> list:
    """retained_memory.py's table in a child process of its own, so no
    earlier work in this process shares its one-time costs."""
    rows = in_child(ROOT / "scripts" / "retained_memory.py", "table", [RETAINED_SCENARIO, RETAINED_DURATIONS])
    return [
        {"scenario": RETAINED_SCENARIO, "duration_s": duration, "retained_mb": retained, "peak_mb": peak}
        for duration, retained, peak in rows
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="the record to write, e.g. BENCH_4.json")
    args = parser.parse_args(argv)

    run_bench = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))["run_bench"]
    record = {
        "python": platform.python_version(),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "workloads": {
            name: {
                "seed": SEED, "seconds": WORKLOAD_SECONDS,
                "result": run_bench(ROOT, name, SEED, WORKLOAD_SECONDS, 0),
                "traced": run_bench(ROOT, name, SEED, WORKLOAD_SECONDS, 1),
            }
            for name in WORKLOADS
        },
        "grid_ladder": [grid_rung(side) for side in LADDER_SIDES],
        "module_shares": in_child(
            Path(__file__).resolve(), "rung_module_shares", [PROFILE_SIDE, RUNG_DURATION_S, REPEATS]
        ),
        "retained_memory": retained_memory(),
    }
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"bench record: {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
