#!/usr/bin/env python3
"""List every run whose digest differs between two source trees.

Reruns the 15 locked scenarios (every shipped one and every one from
`swarmlink.golden.generated_scenarios`) at seeds S .. S+N-1, in mesh and
in star mode wherever `Scenario.validate` accepts that mode for the
scenario, in the base tree given and in the tree this script sits in. A
run's digest is `golden.run_digest`: the SHA-256 of its canonical report
followed by its trace. Each tree runs in a child interpreter on its own
`src`, the two at once. It prints each (scenario, seed, mode) whose digest
differs, a run one tree accepts and the other refuses included, or "no
digest moved", and exits 1 when any moved:

    git archive HEAD~1 | tar -x -C ../swarmlink-parent
    python3 scripts/digest_sweep.py --base ../swarmlink-parent --count 10 --seed 100
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Prints, as one JSON object, "<scenario> <seed> <mode>" -> its run
# digest, or None where the scenario refuses the mode. argv is the tree's
# src/, the first seed and the number of seeds.
CHILD = """
import dataclasses, json, sys
sys.path.insert(0, sys.argv[1])
from swarmlink.cli import SHIPPED_SCENARIOS, resolve_scenario
from swarmlink.errors import ValidationError
from swarmlink.golden import generated_scenarios, run_digest
from swarmlink.scenario import scenario_from_dict

first, count = int(sys.argv[2]), int(sys.argv[3])
locked = {name: resolve_scenario(name) for name in SHIPPED_SCENARIOS}
locked.update((name, scenario_from_dict(data)) for name, data in generated_scenarios().items())
digests = {}
for name, sc in sorted(locked.items()):
    for seed in range(first, first + count):
        for mode in ("mesh", "star"):
            try:
                run = dataclasses.replace(sc, seed=seed, mode=mode)
            except ValidationError:
                run = None
            digests[f"{name} {seed} {mode}"] = run_digest(run) if run is not None else None
print(json.dumps(digests))
"""


def tree_digests(trees, seed: int, count: int) -> list:
    """The digests of every swept run, one dict per tree, each tree's
    child interpreter started before the first is waited for."""
    children = [
        subprocess.Popen(
            [sys.executable, "-c", CHILD, str(Path(tree) / "src"), str(seed), str(count)],
            stdout=subprocess.PIPE, text=True,
        )
        for tree in trees
    ]
    out = []
    for tree, child in zip(trees, children):
        stdout, _ = child.communicate()
        if child.returncode != 0:
            raise SystemExit(f"{tree}: the sweep's child interpreter exited {child.returncode}")
        out.append(json.loads(stdout))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="the source tree to compare against")
    parser.add_argument("--count", type=int, default=10, help="seeds per scenario")
    parser.add_argument("--seed", type=int, default=100, help="the first seed")
    args = parser.parse_args(argv)
    base, change = tree_digests([args.base, ROOT], args.seed, args.count)
    runs = dict.fromkeys([*change, *base])  # in sweep order
    moved = [run for run in runs if base.get(run, "absent") != change.get(run, "absent")]
    for run in moved:
        print(f"digest moved: {run}")
    swept = sum(digest is not None for digest in change.values())
    if not moved:
        print("no digest moved")
    print(f"{swept} runs swept: seeds {args.seed}..{args.seed + args.count - 1}, mesh and star")
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
