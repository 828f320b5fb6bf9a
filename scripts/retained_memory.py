#!/usr/bin/env python3
"""Memory a run keeps, as simulated time grows.

Runs one scenario with its traffic `stop_s` removed, so senders keep
sending until the end, once per duration. For each run it prints the
memory tracemalloc sees still allocated after `run()` returns, with the
simulation and its report alive, and the peak during the run. State that
does not grow with run length shows as a retained column that levels off.

One untraced run of the shortest duration goes first. The first run in a
process pays one-time costs no later run pays, cryptography's lazy
backend import among them (about 0.5 MB), and without the warm-up they
would land in whichever row is measured first.

`--scenario` takes the name of a locked scenario, shipped or generated
(see `swarmlink.golden.locked_scenarios`), or a path.

    PYTHONPATH=src python scripts/retained_memory.py --durations 25 100 400
    PYTHONPATH=src python scripts/retained_memory.py --scenario contested13_replay --durations 16 64
"""

import argparse
import gc
import tracemalloc
from dataclasses import replace
from typing import List, Sequence, Tuple

from swarmlink.cli import resolve_scenario
from swarmlink.golden import locked_scenarios
from swarmlink.sim import Simulation


def measure(sc):
    """(retained MB, peak MB) of building and running `sc`. Retained is
    what is still live after a collection, so cyclic garbage the collector
    has not reached yet does not count."""
    gc.collect()
    tracemalloc.start()
    try:
        sim = Simulation(sc)
        report = sim.run()  # noqa: F841 - kept alive: the report is retained too
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained / 1e6, peak / 1e6


def table(scenario: str, durations: Sequence[float]) -> List[Tuple[float, float, float]]:
    """(duration_s, retained MB, peak MB) of `scenario` without `stop_s`,
    per duration, after one untraced warm-up run."""
    locked = locked_scenarios()
    base = locked[scenario] if scenario in locked else resolve_scenario(scenario)
    base = replace(base, traffic=replace(base.traffic, stop_s=None))
    Simulation(replace(base, duration_s=min(durations))).run()
    return [(duration, *measure(replace(base, duration_s=duration))) for duration in durations]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="mesh_10_lossy")
    parser.add_argument("--durations", type=float, nargs="+", default=[25.0, 100.0, 400.0])
    args = parser.parse_args(argv)

    print(f"{'duration_s':>10} {'retained_mb':>12} {'peak_mb':>8}")
    for duration, retained, peak in table(args.scenario, args.durations):
        print(f"{duration:>10.1f} {retained:>12.2f} {peak:>8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
