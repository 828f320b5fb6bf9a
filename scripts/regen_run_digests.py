#!/usr/bin/env python3
"""Regenerate tests/golden/run_digests.json, the whole-run behaviour lock.

The file maps every locked scenario (`swarmlink.golden.locked_scenarios`:
every shipped one and every generated one) to the SHA-256 of its canonical
report followed by its trace. tests/test_run_digests.py checks each run
against it. Regenerate only when a change is meant to alter run output,
and say in CHANGES.md which digests moved and why. Before it overwrites
the file, the script prints each name whose digest differs from the file
(one added or dropped counts too), or "no digest moved". With --check it
writes nothing and exits 1 when a digest moved, so the lock can be checked
on an interpreter without pytest:

    PYTHONPATH=src python scripts/regen_run_digests.py
    PYTHONPATH=src python scripts/regen_run_digests.py --check
"""

import argparse
import json
import pathlib

from swarmlink.golden import locked_scenarios, run_digest

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden" / "run_digests.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="write nothing; exit 1 if a digest moved")
    args = parser.parse_args(argv)
    digests = {name: run_digest(sc) for name, sc in locked_scenarios().items()}
    before = json.loads(OUT.read_text()) if OUT.exists() else {}
    moved = sorted(n for n in digests.keys() | before.keys() if digests.get(n) != before.get(n))
    for name in moved:
        print(f"digest moved: {name}")
    if not moved:
        print("no digest moved")
    if args.check:
        return 1 if moved else 0
    OUT.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"run digests: {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
