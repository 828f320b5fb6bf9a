#!/usr/bin/env python3
"""Mesh flooding vs star relaying on the same airframe layout.

Runs the star_vs_mesh layout in both modes across a seed sweep and
compares UAV-to-UAV latency and delivery. The star hub adds a full
decrypt/re-encrypt bounce to every peer message, so mesh should win on
latency whenever the peers are in direct range; the sweep quantifies by
how much, and the optional --kill-hub run shows the star's single point
of failure (peer traffic drops to zero with the hub down).
"""

import argparse
import statistics
from dataclasses import replace

from swarmlink.cli import resolve_scenario
from swarmlink.sim import run_scenario


def positive(text: str) -> int:
    """A seed count: a sweep over none proves nothing, so refuse it here."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive count")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="star_vs_mesh", help="base layout to sweep")
    parser.add_argument("--seeds", type=positive, default=20, help="number of seeds")
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--kill-hub", action="store_true", help="also run star with the GCS down from t=0")
    args = parser.parse_args(argv)

    base = resolve_scenario(args.scenario)
    mesh_means, star_means, mesh_wins = [], [], 0
    print(f"{'seed':>6} {'mesh ms':>9} {'star ms':>9} {'mesh dlv':>9} {'star dlv':>9}")
    for i in range(args.seeds):
        seed = args.first_seed + i
        mesh_report, _ = run_scenario(replace(base, mode="mesh", seed=seed))
        star_report, _ = run_scenario(replace(base, mode="star", seed=seed))
        m = mesh_report["latency_uav_to_uav"]["mean_s"]
        s = star_report["latency_uav_to_uav"]["mean_s"]
        mesh_means.append(m)
        star_means.append(s)
        if m < s:
            mesh_wins += 1
        print(
            f"{seed:>6} {m * 1e3:>9.3f} {s * 1e3:>9.3f} "
            f"{mesh_report['delivery']['uav_to_uav']['ratio']:>9.3f} "
            f"{star_report['delivery']['uav_to_uav']['ratio']:>9.3f}"
        )

    print(
        f"\nmesh mean {statistics.mean(mesh_means) * 1e3:.3f} ms vs "
        f"star mean {statistics.mean(star_means) * 1e3:.3f} ms; "
        f"mesh faster in {mesh_wins}/{args.seeds} seeds"
    )

    if args.kill_hub:
        nodes = tuple(
            replace(n, down_at_s=0.0) if n.role == "gcs" else n for n in base.nodes
        )
        report, _ = run_scenario(replace(base, mode="star", nodes=nodes, seed=args.first_seed))
        peers = report["delivery"]["uav_to_uav"]
        print(
            f"star with hub down: {peers['delivered']}/{peers['sent']} peer messages delivered"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
