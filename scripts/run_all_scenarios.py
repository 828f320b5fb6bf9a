#!/usr/bin/env python3
"""Run every shipped scenario and print a one-line summary per run.

Useful as a smoke test and as the quickest way to see the whole stack
exercised: delivery ratios, latency, rekeying, and what each adversary
actually achieved. Pass --out-dir to keep the full JSON reports.
"""

import argparse
import os
import sys

from swarmlink.cli import SHIPPED_SCENARIOS, resolve_scenario
from swarmlink.metrics import render_json
from swarmlink.sim import run_scenario


def _adversary_note(report: dict) -> str:
    adv = report.get("adversary", {})
    notes = []
    if "mitm" in adv:
        m = adv["mitm"]
        notes.append(f"mitm {m['compromised_keys']}/{m['installed_keys_checked']} keys stolen")
    if "replay" in adv:
        r = adv["replay"]
        notes.append(f"replay {r['duplicate_deliveries']} dups of {r['injections']} inj")
    if "eavesdrop" in adv:
        e = adv["eavesdrop"]
        notes.append(f"eavesdrop {e['recovered_packets']}/{e['observed_packets']} read")
    return "; ".join(notes) or "-"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("names", nargs="*", help="scenario names (default: all shipped)")
    parser.add_argument("--out-dir", help="write full JSON reports into this directory")
    args = parser.parse_args(argv)

    names = args.names or list(SHIPPED_SCENARIOS)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)

    header = f"{'scenario':<18} {'mode':<5} {'n':>2} {'delivery':>9} {'p50 ms':>7} {'epochs':>6}  adversary"
    print(header)
    print("-" * len(header))
    for name in names:
        sc = resolve_scenario(name)
        report, _trace = run_scenario(sc)
        ratio = report["delivery"]["overall_ratio"]
        p50 = report["latency"]["p50_s"]
        print(
            f"{name:<18} {report['mode']:<5} {report['nodes']:>2} "
            f"{ratio:>9.3f} {(p50 * 1e3 if p50 is not None else float('nan')):>7.2f} "
            f"{report['broadcast']['epochs_reached']:>6}  {_adversary_note(report)}"
        )
        if not report["conservation"]["balanced"]:
            print(f"  WARNING: {name} failed packet conservation", file=sys.stderr)
        if args.out_dir:
            path = os.path.join(args.out_dir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(render_json(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
