#!/usr/bin/env python3
"""Memory a run keeps, as simulated time grows.

Runs one scenario with its traffic `stop_s` removed, so senders keep
sending until the end, once per duration. For each run it prints the
memory tracemalloc sees still allocated after `run()` returns, with the
simulation and its report alive, and the peak during the run. State that
does not grow with run length shows as a retained column that levels off.

    PYTHONPATH=src python scripts/retained_memory.py --durations 25 100 400
"""

import argparse
import tracemalloc
from dataclasses import replace

from swarmlink.cli import resolve_scenario
from swarmlink.sim import Simulation


def measure(sc):
    """(retained MB, peak MB) of building and running `sc`."""
    tracemalloc.start()
    try:
        sim = Simulation(sc)
        report = sim.run()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained / 1e6, peak / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="mesh_10_lossy")
    parser.add_argument("--durations", type=float, nargs="*", default=[25.0, 100.0, 400.0])
    args = parser.parse_args(argv)

    base = resolve_scenario(args.scenario)
    base = replace(base, traffic=replace(base.traffic, stop_s=None))
    print(f"{'duration_s':>10} {'retained_mb':>12} {'peak_mb':>8}")
    for duration in args.durations:
        retained, peak = measure(replace(base, duration_s=duration))
        print(f"{duration:>10.1f} {retained:>12.2f} {peak:>8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
