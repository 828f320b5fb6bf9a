"""swarmlink benchmark: host cost of simulating generated swarm scenarios.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload grid_flood --seed 1 --seconds 20 --trace 0

The workload generator turns `--seed` into a scenario dict (see
`workloads.py`). Each pass drives the public API exactly as
`swarmlink run --trace` does: `scenario_from_dict` -> `Simulation(sc)` ->
`.run()` -> `metrics.render_json` plus joining `Simulation.trace`. Load is
a closed loop of one: one pass at a time in this single process, with one
interval timer for the watchdog.

`--trace 0` measures end-to-end metrics with no instrumentation. An
untimed warm-up pass under tracemalloc gives `peak_mem_mb` and the
reference digest. Then, for `--seconds`, it repeats three setup-only
passes and one full pass, sampling host speed at every watchdog tick of
the full pass (see `hostspeed.py`). The result line carries the timings
in host-speed units, which drift far less than raw host seconds on a
shared machine; the raw figures are printed above it. `--trace 1`
alternates untraced passes with passes under the outside-in
`ModuleTracer` for `--seconds`, reports per-layer metrics and
`bench.trace_overhead`, and writes the aggregated spans to `.bench_out/`.

Every pass is checked: it must finish within the watchdog, end with
`conservation.balanced`, deliver no message twice, recover no plaintext
outside the leaked epochs, and produce report and trace bytes whose
SHA-256 equals that of the first pass. A pass that fails any check counts
in `failed`. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from hostspeed import NOMINAL_CHUNK_S, HostSpeed  # noqa: E402
from tracer import ModuleTracer  # noqa: E402
from watchdog import RunAborted, Watchdog  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 3  # setup-only passes before each timed pass
DEADLINE_S = 30.0  # per pass; keeps a run under 180 s even if every pass hangs
STALL_CPU_S = 2.0
OUT_DIR = ROOT / ".bench_out"


def import_swarmlink():
    """Import swarmlink from this checkout's src/, and from nowhere else."""
    if not (SRC / "swarmlink" / "__init__.py").is_file():
        raise SystemExit(f"bench: no swarmlink sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import swarmlink

    if Path(swarmlink.__file__).resolve().parent != SRC / "swarmlink":
        raise SystemExit(f"bench: imported swarmlink from {swarmlink.__file__}, not {SRC}")
    return swarmlink


@dataclass
class Pass:
    """Outcome of one full pass: setup, run, report and trace."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    chunk_s: float = 0.0  # mean host-speed chunk time during the pass, if sampled
    failure: Optional[str] = None  # cause, when the pass failed
    detail: str = ""
    digest: str = ""
    report: Optional[dict] = None
    trace_lines: int = 0
    trace_bytes: int = 0


def check_report(report: dict) -> Optional[str]:
    """Invariants every report must meet; returns the failed check's name."""
    if report["conservation"]["balanced"] is not True:
        return "unbalanced"
    if report["delivery"]["duplicate_deliveries"] != 0:
        return "duplicate_delivery"
    eavesdrop = report["adversary"].get("eavesdrop")
    if eavesdrop is not None:
        leaked = {str(e) for e in eavesdrop["leaked_epochs"]}
        if not set(eavesdrop["recovered_by_epoch"]) <= leaked:
            return "recovered_outside_leaked_epochs"
    return None


class Bench:
    """Runs passes of one generated scenario and keeps every outcome."""

    def __init__(self, swarmlink, data: dict) -> None:
        self.sl = swarmlink
        self.data = data
        self.watchdog = Watchdog(DEADLINE_S, STALL_CPU_S)
        self.passes: List[Pass] = []
        self.reference: Optional[str] = None  # digest of the first good pass

    def setup_once(self) -> float:
        gc.collect()
        start = time.perf_counter()
        sc = self.sl.scenario.scenario_from_dict(self.data)
        self.sl.sim.Simulation(sc)
        return time.perf_counter() - start

    def run_pass(self, speed: Optional[HostSpeed] = None) -> Pass:
        """One pass, timed with perf_counter, guarded and checked. With
        `speed`, host speed is sampled at every watchdog tick and the time
        the samples took is left out of `setup_s` and `wall_s`."""
        result = Pass()
        holder: Dict[str, object] = {}
        clock = time.perf_counter
        gc.collect()  # the previous pass's garbage is not this pass's cost

        def spent() -> float:
            return speed.spent if speed is not None else 0.0

        first_sample = len(speed.samples) if speed is not None else 0
        try:
            with self.watchdog.guard(
                lambda: getattr(holder.get("sim"), "now", None),
                speed.sample if speed is not None else None,
            ):
                t0, s0 = clock(), spent()
                sc = self.sl.scenario.scenario_from_dict(self.data)
                sim = self.sl.sim.Simulation(sc)
                holder["sim"] = sim
                t1, s1 = clock(), spent()
                report = sim.run()
                report_text = self.sl.metrics.render_json(report)
                trace_text = "\n".join(sim.trace) + ("\n" if sim.trace else "")
                t2, s2 = clock(), spent()
        except RunAborted as exc:
            result.failure, result.detail = exc.cause, exc.detail
        except Exception as exc:  # any crash is a failed pass, reported by name
            result.failure, result.detail = "raised", f"{type(exc).__name__}: {exc}"
        else:
            result.setup_s, result.wall_s = (t1 - t0) - (s1 - s0), (t2 - t1) - (s2 - s1)
            if speed is not None:
                result.chunk_s = speed.chunk_s(first_sample)
            result.report = report
            result.trace_lines = len(sim.trace)
            payload = report_text.encode() + trace_text.encode()
            result.trace_bytes = len(trace_text.encode())
            result.digest = hashlib.sha256(payload).hexdigest()
            result.failure = check_report(report)
            if result.failure is None:
                if self.reference is None:
                    self.reference = result.digest
                elif result.digest != self.reference:
                    result.failure = "digest_mismatch"
                    result.detail = f"{result.digest} != {self.reference}"
        self.passes.append(result)
        return result

    @property
    def failed(self) -> List[Pass]:
        return [p for p in self.passes if p.failure is not None]


# ---- statistics -----------------------------------------------------------


def high_percentile(values: List[float]):
    """Nearest-rank percentile with at least ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 10
    return math.floor(100 * rank / n), sorted(values)[rank - 1]


def describe(name: str, unit: str, values: List[float]) -> str:
    if not values:
        return f"{name:<22} n/a (no successful pass)"
    line = f"{name:<22} median {statistics.median(values):.6g} {unit}"
    high = high_percentile(values)
    if high is not None:
        line += f", p{high[0]} {high[1]:.6g}"
    return line + f" (n={len(values)})"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---- the two modes ----------------------------------------------------------


def end_to_end(bench: Bench, seconds: float) -> Dict[str, dict]:
    # The untimed warm-up pass (caches, lazy imports, the reference digest)
    # doubles as the tracemalloc pass for peak memory over setup and run.
    tracemalloc.start()
    try:
        mem_pass = bench.run_pass()
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    series: Dict[str, List[float]] = {name: [] for name in E2E_UNITS}
    timed: List[Pass] = []
    speed = HostSpeed()
    stop = time.perf_counter() + seconds
    while True:
        setups = [bench.setup_once() for _ in range(SETUP_REPS)]
        p = bench.run_pass(speed)
        timed.append(p)
        series["host_setup_s"].extend(setups)
        if p.failure is None:
            # Set-up time is scaled by the host speed of the pass right after.
            series["setup_s"].extend(s * NOMINAL_CHUNK_S / p.chunk_s for s in setups)
            c = p.report["conservation"]
            radio_ops = c["tx_sent"] + c["rx_processed"] + c["adv_rx_processed"]
            delivered = p.report["delivery"]["delivered"]
            series["chunk_s"].append(p.chunk_s)
            series["wall_s"].append(p.wall_s)
            series["radio_ops_per_s"].append(radio_ops / p.wall_s)
            series["deliveries_per_s"].append(delivered / p.wall_s)
            series["wall_ref"].append(p.wall_s / p.chunk_s)
            series["radio_ops_per_ref"].append(radio_ops * p.chunk_s / p.wall_s)
            series["deliveries_per_ref"].append(delivered * p.chunk_s / p.wall_s)
        if time.perf_counter() >= stop:
            break
    if not series["setup_s"]:  # no pass succeeded: report raw set-up time
        series["setup_s"] = series["host_setup_s"]
    if mem_pass.failure is None:
        series["peak_mem_mb"] = [peak_mb]
    good = [p for p in timed if p.failure is None]
    if good:
        report = good[0].report
        series["sim_delivery_ratio"] = [report["delivery"]["overall_ratio"]]
        series["sim_latency_p95_s"] = [report["latency"]["p95_s"]]
    for name, unit in E2E_UNITS.items():
        print(describe(name, unit, series[name]))
    return {
        name: metric(statistics.median(series[name]), E2E_UNITS[name])
        for name in DECLARED_E2E
        if series[name]
    }


# Everything printed in --trace 0 mode. `wall_s`, `host_setup_s` and the
# per-second rates are raw host seconds. `*_ref` count in host-speed chunks
# (see hostspeed.py) timed during the same pass, and `setup_s` is set-up
# time scaled to a chunk of NOMINAL_CHUNK_S.
E2E_UNITS = {
    "wall_ref": "ref",
    "setup_s": "s",
    "radio_ops_per_ref": "1/ref",
    "deliveries_per_ref": "1/ref",
    "peak_mem_mb": "MB",
    "sim_delivery_ratio": "ratio",
    "sim_latency_p95_s": "s",
    "wall_s": "s",
    "host_setup_s": "s",
    "radio_ops_per_s": "1/s",
    "deliveries_per_s": "1/s",
    "chunk_s": "s",
}
# The metrics of the result line: host-speed drift moves these far less
# than raw host seconds.
DECLARED_E2E = (
    "wall_ref",
    "setup_s",
    "radio_ops_per_ref",
    "deliveries_per_ref",
    "peak_mem_mb",
    "sim_delivery_ratio",
    "sim_latency_p95_s",
)


def per_layer(bench: Bench, seconds: float, workload: str, seed: int) -> Dict[str, dict]:
    bench.run_pass()  # warm-up and reference digest, untraced
    found = {"scanned": 0, "in_range": 0, "dup": 0, "reject": 0}
    links, mesh = bench.sl.links, bench.sl.mesh

    def on_transmit(args, result) -> None:
        if isinstance(result, links.TransmitResult):
            found["scanned"] += len(args[3])
            found["in_range"] += len(result.delivered) + len(result.lost)

    def on_handle_rx(_args, result: "mesh.RxResult") -> None:
        found["dup"] += result.duplicate
        found["reject"] += result.error is not None

    tracer = ModuleTracer({"links.transmit": on_transmit, "mesh.handle_rx": on_handle_rx})
    untraced: List[float] = []
    samples: List[Dict[str, float]] = []
    spans: List[dict] = []
    stop = time.perf_counter() + seconds
    while True:
        plain = bench.run_pass()
        if plain.failure is None:
            untraced.append(plain.setup_s + plain.wall_s)
        tracer.reset()
        for key in found:
            found[key] = 0
        with tracer:
            traced = bench.run_pass()
        if traced.failure is None:
            samples.append(layer_sample(tracer, traced, found))
            spans = tracer.span_records()
        if time.perf_counter() >= stop:
            break
    if not samples or not untraced:
        return {}
    metrics = {
        name: metric(statistics.median(s[name] for s in samples), unit)
        for name, unit in LAYER_UNITS.items()
    }
    traced_total = statistics.median(s["total_s"] for s in samples)
    overhead = traced_total / statistics.median(untraced)
    metrics[OVERHEAD] = metric(overhead, "ratio")

    last = samples[-1]
    print(f"{'span group':<22} {'calls':>9} {'self_s':>9} {'share':>7}   (last traced pass)")
    print(f"{'sim (unwrapped)':<22} {'':>9} {last['sim.self_s']:>9.4f} {last['sim.share']:>7.1%}")
    for group, g in sorted(tracer.groups().items(), key=lambda kv: -kv[1]["self_s"]):
        share = g["self_s"] / last["total_s"]
        print(f"{group:<22} {g['calls']:>9.0f} {g['self_s']:>9.4f} {share:>7.1%}")
    for name, m in metrics.items():
        print(f"{name:<26} {m['value']:.6g} {m['unit']}")
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"spans-{workload}-{seed}.json"
    out.write_text(json.dumps({"workload": workload, "seed": seed, "spans": spans}, indent=1) + "\n")
    print(f"spans written to {out.relative_to(ROOT)}")
    return metrics


OVERHEAD = "bench.trace_overhead"
LAYER_UNITS = {
    "sim.self_s": "s",
    "sim.share": "ratio",
    "links.transmit.calls": "count",
    "links.transmit.self_s": "s",
    "links.receivers_scanned": "count",
    "links.in_range_ratio": "ratio",
    "links.select.self_s": "s",
    "links.duty.calls": "count",
    "links.duty.self_s": "s",
    "codec.parse.calls": "count",
    "codec.parse.self_s": "s",
    "codec.parses_per_tx": "ratio",
    "codec.seal.calls": "count",
    "codec.seal.self_s": "s",
    "codec.open.calls": "count",
    "codec.open.self_s": "s",
    "codec.share": "ratio",
    "crypto.aead.calls": "count",
    "crypto.aead.self_s": "s",
    "crypto.asym.calls": "count",
    "crypto.asym.self_s": "s",
    "crypto.share": "ratio",
    "mesh.handle_rx.calls": "count",
    "mesh.self_s": "s",
    "mesh.dup_ratio": "ratio",
    "mesh.reject_ratio": "ratio",
    "handshake.self_s": "s",
    "rekey.wrap.calls": "count",
    "rekey.unwrap.calls": "count",
    "rekey.key_lookup.calls": "count",
    "rekey.self_s": "s",
    "metrics.record.calls": "count",
    "metrics.report.self_s": "s",
    "scenario.load_s": "s",
    "trace.lines": "count",
    "trace.bytes": "bytes",
}


def layer_sample(tracer: ModuleTracer, traced: Pass, found: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    total = traced.setup_s + traced.wall_s
    groups = tracer.groups()

    def calls(group: str) -> int:
        return groups.get(group, {}).get("calls", 0)

    def self_s(group: str) -> float:
        return groups.get(group, {}).get("self_s", 0.0)

    def layer_self(layer: str) -> float:
        return sum(g["self_s"] for name, g in groups.items() if name.split(".")[0] == layer)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sim_self = tracer.root_self_s(total)
    tx_sent = traced.report["conservation"]["tx_sent"]
    return {
        "total_s": total,
        "sim.self_s": sim_self,
        "sim.share": sim_self / total,
        "links.transmit.calls": calls("links.transmit"),
        "links.transmit.self_s": self_s("links.transmit"),
        "links.receivers_scanned": found["scanned"],
        "links.in_range_ratio": ratio(found["in_range"], found["scanned"]),
        "links.select.self_s": self_s("links.select"),
        "links.duty.calls": calls("links.duty"),
        "links.duty.self_s": self_s("links.duty"),
        "codec.parse.calls": calls("codec.parse"),
        "codec.parse.self_s": self_s("codec.parse"),
        "codec.parses_per_tx": ratio(calls("codec.parse"), tx_sent),
        "codec.seal.calls": calls("codec.seal"),
        "codec.seal.self_s": self_s("codec.seal"),
        "codec.open.calls": calls("codec.open"),
        "codec.open.self_s": self_s("codec.open"),
        "codec.share": layer_self("codec") / total,
        "crypto.aead.calls": calls("crypto.aead"),
        "crypto.aead.self_s": self_s("crypto.aead"),
        "crypto.asym.calls": calls("crypto.asym"),
        "crypto.asym.self_s": self_s("crypto.asym"),
        "crypto.share": layer_self("crypto") / total,
        "mesh.handle_rx.calls": calls("mesh.handle_rx"),
        "mesh.self_s": layer_self("mesh"),
        "mesh.dup_ratio": ratio(found["dup"], calls("mesh.handle_rx")),
        "mesh.reject_ratio": ratio(found["reject"], calls("mesh.handle_rx")),
        "handshake.self_s": layer_self("handshake"),
        "rekey.wrap.calls": calls("rekey.wrap"),
        "rekey.unwrap.calls": calls("rekey.unwrap"),
        "rekey.key_lookup.calls": calls("rekey.key_lookup"),
        "rekey.self_s": layer_self("rekey"),
        "metrics.record.calls": calls("metrics.record"),
        "metrics.report.self_s": self_s("metrics.report"),
        "scenario.load_s": groups.get("scenario.load", {}).get("incl_s", 0.0),
        "trace.lines": traced.trace_lines,
        "trace.bytes": traced.trace_bytes,
    }


# ---- entry point --------------------------------------------------------------


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    swarmlink = import_swarmlink()
    data = WORKLOADS[args.workload](args.seed)
    bench = Bench(swarmlink, data)
    if args.trace:
        metrics = per_layer(bench, args.seconds, args.workload, args.seed)
    else:
        metrics = end_to_end(bench, args.seconds)

    failed = bench.failed
    attempted = len(bench.passes)
    causes = Counter(p.failure for p in failed)
    print(
        f"{'run_error_rate':<22} {len(failed) / attempted:.6g} ({len(failed)}/{attempted} passes failed"
        + (": " + ", ".join(f"{c} x{n}" for c, n in sorted(causes.items())) if causes else "")
        + ")"
    )
    for p in failed[:3]:
        print(f"  failed pass: {p.failure}: {p.detail}")
    digests = sorted({p.digest for p in bench.passes if p.digest})
    print(f"digest {args.workload} seed={args.seed} sha256={bench.reference or 'none'}"
          + ("" if len(digests) <= 1 else f" (differing: {len(digests)} distinct)"))
    result = {
        "correct": not failed and bench.reference is not None,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
