#!/usr/bin/env python3
"""Paired benchmark of two source trees, parent against change.

Runs each tree's own `bench/run.py` for every workload in alternating
pairs: pair i runs the base tree first when i is even and the change tree
first when i is odd, so drift on the host does not favour one side. For
each workload and end-to-end metric declared in BENCHMARK.json it prints
each side's median and q1-q3, the fraction of pairs the change won (ties
count for neither side), whether the claim rule holds (the change wins at
least nine tenths of the pairs and the medians differ by more than the
base's q3 - q1), and the no-regression verdict. The verdict takes the
metric's `bound` as a fraction of the base's median: `worse` when the
change's median is worse than the base's by more than that, `unresolved`
when the base's own q3 - q1 is wider than that and not every change run
beats every base run, `ok` otherwise. It also prints failed passes and
whether every run of both trees printed the same report and trace digest.
It exits 1 when, on any workload, a verdict is `worse`, the digests
differ or the change failed more passes than the base, and 0 otherwise.

    git worktree add ../swarmlink-parent HEAD~1
    python3 scripts/bench_pairs.py --base ../swarmlink-parent --seed 7 --pairs 10 --seconds 20
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run in `tree`: its result line plus the digest it printed."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=True, timeout=seconds + 300,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    result["digest"] = next(line.split("sha256=")[1] for line in out if line.startswith("digest "))
    return result


def quartiles(values):
    """(q1, median, q3) of a sample; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(metric: dict, base, change) -> dict:
    """Both sides of one metric over paired runs, the change's wins, the
    claim rule and the no-regression verdict (see the module docstring)."""
    higher = metric["better"] == "higher"
    wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    gain = (cm - bm) if higher else (bm - cm)
    allowed = metric["bound"] * abs(bm)
    every_run_better = min(change) > max(base) if higher else max(change) < min(base)
    if -gain > allowed:
        verdict = "worse"
    elif b3 - b1 > allowed and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "metric": metric["name"],
        "base": (bm, b1, b3),
        "change": (cm, c1, c3),
        "win": wins / len(base),
        "claim": wins >= 0.9 * len(base) and gain > b3 - b1,
        "verdict": verdict,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="source tree of the parent")
    parser.add_argument("--change", type=Path, default=ROOT, help="source tree of the change")
    parser.add_argument("--workloads", nargs="*", help="default: every workload BENCHMARK.json declares")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    args = parser.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in declared["workloads"]]
    for name in sorted(p.name for p in (args.change / "bench").glob("*.py")):
        if (args.base / "bench" / name).read_bytes() != (args.change / "bench" / name).read_bytes():
            print(f"note: bench/{name} differs between the trees")

    print(f"seed={args.seed} pairs={args.pairs} seconds={args.seconds}")
    print(f"{'workload':<16} {'metric':<20} {'base median [q1-q3]':>32} "
          f"{'change median [q1-q3]':>32} {'win':>5} claim verdict")
    status = 0
    for workload in workloads:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                tree = args.base if side == "base" else args.change
                runs[side].append(run_bench(tree, workload, args.seed, args.seconds))
        for metric in declared["end_to_end"]:
            base = [r["metrics"][metric["name"]]["value"] for r in runs["base"]]
            change = [r["metrics"][metric["name"]]["value"] for r in runs["change"]]
            row = summarise(metric, base, change)
            sides = ["{:.6g} [{:.6g}-{:.6g}]".format(*row[side]) for side in ("base", "change")]
            print(f"{workload:<16} {row['metric']:<20} {sides[0]:>32} {sides[1]:>32} "
                  f"{row['win']:>5.2f} {'yes' if row['claim'] else 'no':<5} {row['verdict']}")
            if row["verdict"] == "worse":
                status = 1
        digests = {r["digest"] for side in runs.values() for r in side}
        failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
        attempted = {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()}
        print(f"{workload:<16} digests {'match' if len(digests) == 1 else 'DIFFER'}; failed passes "
              f"base {failed['base']}/{attempted['base']}, change {failed['change']}/{attempted['change']}")
        if len(digests) != 1 or failed["change"] > failed["base"]:
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
