#!/usr/bin/env python3
"""List every run whose digest differs between two source trees.

Reruns the 15 locked scenarios (`swarmlink.golden.locked_scenarios`: every
shipped one and every generated one) at seeds S .. S+N-1, in mesh and
in star mode wherever `Scenario.validate` accepts that mode for the
scenario, in the base tree given and in the tree this script sits in. A
run's digest is `golden.run_digest`: the SHA-256 of its canonical report
followed by its trace. Each tree runs in a child interpreter on its own
`src`, the two at once. It prints each (scenario, seed, mode) whose digest
differs, a run one tree accepts and the other refuses included, or "no
digest moved", and exits 1 when any moved:

    git archive HEAD~1 | tar -x -C ../swarmlink-parent
    python3 scripts/digest_sweep.py --base ../swarmlink-parent --count 10 --seed 100

With --reference in place of --base it needs no second tree: it sweeps
the same runs in this tree twice at once, on `Simulation` and on
`tests/reference_sim.Reference` (every fast path off), names each run
whose report or trace differs between the two, or prints "no run differs
from its reference", and exits 1 when any differs:

    python3 scripts/digest_sweep.py --reference --count 10 --seed 100
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The locked scenarios to sweep by name; None sweeps all 15.
SCENARIOS = None

# Prints, as one JSON object, "<scenario> <seed> <mode>" -> its run
# digest, or None where the scenario refuses the mode. argv is the tree's
# src/, the first seed, the number of seeds, SCENARIOS as JSON and, to
# run each on tests/reference_sim.Reference in place of Simulation, the
# tree's tests/.
CHILD = """
import dataclasses, json, sys
sys.path.insert(0, sys.argv[1])
from swarmlink.errors import ValidationError
from swarmlink.golden import locked_scenarios, run_digest

first, count, only = int(sys.argv[2]), int(sys.argv[3]), json.loads(sys.argv[4])
if len(sys.argv) > 5:
    from functools import partial
    sys.path.insert(0, sys.argv[5])
    from reference_sim import Reference
    run_digest = partial(run_digest, simulation=Reference)

digests = {}
for name, sc in sorted(locked_scenarios().items()):
    if only is not None and name not in only:
        continue
    for seed in range(first, first + count):
        for mode in ("mesh", "star"):
            try:
                run = dataclasses.replace(sc, seed=seed, mode=mode)
            except ValidationError:
                run = None
            digests[f"{name} {seed} {mode}"] = run_digest(run) if run is not None else None
print(json.dumps(digests))
"""


def tree_digests(trees, seed: int, count: int, reference: bool = False) -> list:
    """The digests of every swept run, one dict per tree, each tree's
    child interpreter started before the first is waited for; with
    `reference`, the last tree runs each on its tests/reference_sim.Reference."""
    argvs = [[str(Path(tree) / "src"), str(seed), str(count), json.dumps(SCENARIOS)] for tree in trees]
    if reference:
        argvs[-1].append(str(Path(trees[-1]) / "tests"))
    children = [subprocess.Popen([sys.executable, "-c", CHILD, *argv], stdout=subprocess.PIPE, text=True) for argv in argvs]
    out = []
    for tree, child in zip(trees, children):
        stdout, _ = child.communicate()
        if child.returncode != 0:
            raise SystemExit(f"{tree}: the sweep's child interpreter exited {child.returncode}")
        out.append(json.loads(stdout))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    against = parser.add_mutually_exclusive_group(required=True)
    against.add_argument("--base", type=Path, help="the source tree to compare against")
    against.add_argument(
        "--reference", action="store_true", help="compare this tree's Simulation with its tests/reference_sim.Reference"
    )
    parser.add_argument("--count", type=int, default=10, help="seeds per scenario")
    parser.add_argument("--seed", type=int, default=100, help="the first seed")
    args = parser.parse_args(argv)
    if args.reference:
        base, change = tree_digests([ROOT, ROOT], args.seed, args.count, reference=True)
        moved_text, none_moved = "differs from reference", "no run differs from its reference"
    else:
        base, change = tree_digests([args.base, ROOT], args.seed, args.count)
        moved_text, none_moved = "digest moved", "no digest moved"
    runs = dict.fromkeys([*change, *base])  # in sweep order
    moved = [run for run in runs if base.get(run, "absent") != change.get(run, "absent")]
    for run in moved:
        print(f"{moved_text}: {run}")
    swept = sum(digest is not None for digest in change.values())
    if not moved:
        print(none_moved)
    print(f"{swept} runs swept: seeds {args.seed}..{args.seed + args.count - 1}, mesh and star")
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
