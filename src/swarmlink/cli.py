"""Command line entry point: run scenarios, validate files, refresh goldens.

Exit codes: 0 success, 1 validation failure, 2 I/O failure or usage error.
Reports land in --out, defaulting to <scenario>_report.<fmt> under
$SWARMLINK_OUT_DIR (or the working directory). Scenario arguments accept
either a file path or the name of a shipped scenario. A run's stdout
carries at most one document, the one written to '-'; its status lines go
to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from importlib import resources
from typing import List, Optional

from .errors import ValidationError
from .golden import generate_golden
from .metrics import render_csv, render_json
from .scenario import Scenario, load_scenario
from .sim import run_scenario

_SCENARIO_DIR = resources.files("swarmlink").joinpath("scenarios")
# Every scenario file the package ships, by name: the stems, sorted.
SHIPPED_SCENARIOS = tuple(
    sorted(f.name.removesuffix(".json") for f in _SCENARIO_DIR.iterdir() if f.name.endswith(".json"))
)


def shipped_scenario_path(name: str) -> str:
    return str(_SCENARIO_DIR.joinpath(f"{name}.json"))


def resolve_scenario(arg: str) -> Scenario:
    """Load a scenario from a path, or by shipped name."""
    if os.path.exists(arg):
        return load_scenario(arg)
    if arg in SHIPPED_SCENARIOS:
        return load_scenario(shipped_scenario_path(arg))
    raise FileNotFoundError(
        f"{arg}: no such file, and not a shipped scenario "
        f"(shipped: {', '.join(SHIPPED_SCENARIOS)})"
    )


def _default_out(name: str, fmt: str) -> str:
    out_dir = os.environ.get("SWARMLINK_OUT_DIR", ".")
    return os.path.join(out_dir, f"{name}_report.{fmt}")


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmlink",
        description="Secure swarm telemetry simulator: run scenarios and inspect results.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="print per-run details; repeat for more")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write its report")
    run_p.add_argument("--scenario", required=True,
                       help="scenario JSON path or shipped scenario name")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument("--mode", choices=["mesh", "star"], default=None,
                       help="override the dissemination mode")
    run_p.add_argument("--out", default=None,
                       help="report path ('-' for stdout); default under $SWARMLINK_OUT_DIR")
    run_p.add_argument("--format", choices=["json", "csv"], default="json", dest="fmt")
    run_p.add_argument("--trace", default=None, help="also write the event trace (JSON lines)")

    val_p = sub.add_parser("validate", help="check a scenario file without running it")
    val_p.add_argument("--scenario", required=True)

    gold_p = sub.add_parser("golden", help="regenerate golden wire samples")
    gold_p.add_argument("--out", required=True, help="output path ('-' for stdout)")
    return parser


def _cmd_run(args) -> int:
    sc = resolve_scenario(args.scenario)
    if args.seed is not None:
        sc = replace(sc, seed=args.seed)
    if args.mode is not None:
        sc = replace(sc, mode=args.mode)
    report, trace = run_scenario(sc)
    text = render_json(report) if args.fmt == "json" else render_csv(report)
    out_path = args.out if args.out is not None else _default_out(sc.name, args.fmt)
    _write(out_path, text)
    if args.trace is not None:
        _write(args.trace, "\n".join(trace) + ("\n" if trace else ""))
    if out_path != "-":
        print(f"report: {out_path}", file=sys.stderr)
    if args.verbose:
        delivery = report["delivery"]
        print(
            f"{sc.name} seed={sc.seed} mode={sc.mode}: "
            f"delivery {delivery['delivered']}/{delivery['sent']} "
            f"({delivery['overall_ratio']:.3f}), "
            f"epochs {report['broadcast']['epochs_reached']}, "
            f"security events {sum(report['security_events'].values())}",
            file=sys.stderr,
        )
        if args.verbose > 1:
            for pair, stats in report["delivery"]["pairs"].items():
                print(f"  {pair}: {stats['delivered']}/{stats['sent']}", file=sys.stderr)
    return 0


def _cmd_validate(args) -> int:
    sc = resolve_scenario(args.scenario)
    print(f"{sc.name}: valid ({len(sc.nodes)} nodes, mode {sc.mode}, seed {sc.seed})")
    return 0


def _cmd_golden(args) -> int:
    _write(args.out, render_json(generate_golden()))
    if args.out != "-":
        print(f"golden: {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.out == "-" and args.trace == "-":
        parser.error("--out - and --trace - cannot share stdout; write one of them to a file")
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_golden(args)
    except ValidationError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
