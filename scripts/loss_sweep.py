#!/usr/bin/env python3
"""Protocol robustness as radio loss climbs.

Sweeps the link loss probability on the rekey_under_loss layout and
reports, per loss level, how hard the control plane had to work
(handshake retries, rekey resends) and what telemetry delivery survived.
Each level is averaged over several seeds.
"""

import argparse
import statistics
from dataclasses import replace

from swarmlink.cli import resolve_scenario
from swarmlink.sim import run_scenario


def probability(text: str) -> float:
    """A loss level: profiles built in code are not checked, so refuse it here."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text} is not in [0, 1]")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="rekey_under_loss")
    parser.add_argument(
        "--losses",
        type=probability,
        nargs="*",
        default=[0.0, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40],
    )
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=300)
    args = parser.parse_args(argv)

    base = resolve_scenario(args.scenario)
    print(
        f"{'loss':>5} {'delivery':>9} {'hs retries':>11} {'resends':>8} "
        f"{'installs':>9} {'unreachable':>11}"
    )
    for loss in args.losses:
        links = {name: replace(p, loss_prob=loss) for name, p in base.links.items()}
        ratios, retries, resends, installs, unreachable = [], [], [], [], []
        for i in range(args.seeds):
            sc = replace(base, links=links, seed=args.first_seed + i)
            report, _ = run_scenario(sc)
            ratios.append(report["delivery"]["overall_ratio"])
            retries.append(report["handshakes"]["retries"])
            resends.append(report["broadcast"]["rekey_resends"])
            installs.append(report["broadcast"]["rekeys_installed"])
            unreachable.append(len(report["handshakes"]["unreachable"]))
        print(
            f"{loss:>5.2f} {statistics.mean(ratios):>9.3f} "
            f"{statistics.mean(retries):>11.1f} {statistics.mean(resends):>8.1f} "
            f"{statistics.mean(installs):>9.1f} {statistics.mean(unreachable):>11.1f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
