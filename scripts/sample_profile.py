#!/usr/bin/env python3
"""Sampling profile of one benchmark workload, taken from inside the process.

    python3 scripts/sample_profile.py --workload contested_churn --seed 1 --seconds 10

Builds the workload's scenario as `bench/run.py` does and runs whole
passes of it (scenario load, `Simulation`, `run()`, report and trace
text) until `--seconds` of CPU time have gone. Meanwhile
`signal.setitimer(ITIMER_PROF)` asks to interrupt the process every
millisecond of CPU time, and each interrupt records the Python stack it
lands in. The kernel may tick coarser than that (every 4 ms on some
Linux hosts), so the first line prints the interval measured, CPU
seconds over samples, and says so when it is coarser than the request.
For the 40 functions most often on the stack (`file:function`) it
prints the inclusive share, the samples with the function anywhere on
the stack, and the leaf share, the samples in which it was the one
running (a lambda or comprehension is named with its first line);
time in C code (AES-GCM, the JSON encoder) counts for the Python function
that called it. Last, one more pass, untimed and unsampled, counts its
AES-GCM seals and opens, through wrappers on `crypto.aead_seal` and
`crypto.aead_open` (a plaintext run's null-key seals and opens take the
same calls, so they count too), and the heap events `run()` pops by kind
(`tx_done`, `rx`, `advrx`, `timer`), through a wrapper on the
`heapq.heappop` that sim.py calls; a tx_done that a node's drain runs in
place is never on the heap, so it is not counted. From the same pass it
prints the trace lines written, by kind, and the receptions refused, by
error name (the report's `security_events`), each most first, and, first
of these lines, the Python-level calls the pass makes (`call` events seen
by `sys.setprofile`, leaving out this script's own functions and wrappers,
with the cyclic collector paused), in all and per transmission (the sends
`links.transmit` put on the air). Unlike the samples, that count does not
move with host speed, so it measures plumbing: a call less is work less on
any host.

The outside-in tracer (`bench/run.py --trace 1`) times only the public
callables it wraps and leaves the rest in `sim.self_s`; this profile wraps
nothing, so it shows what that rest is made of. swarmlink is imported
from this checkout's `src/`, never from an installed copy.
"""

import argparse
import gc
import heapq
import importlib.util
import json
import signal
import sys
import time
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import swarmlink  # noqa: E402
from swarmlink import crypto, metrics, scenario, sim  # noqa: E402

if Path(swarmlink.__file__).resolve().parent != SRC / "swarmlink":
    raise SystemExit(f"sample_profile: imported swarmlink from {swarmlink.__file__}, not {SRC}")


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


INTERVAL_S = 0.001  # CPU time between samples, as requested
COARSER = 1.25  # a measured interval this many times the request is noted
TOP = 40  # functions printed
EVENT_KINDS = ("tx_done", "rx", "advrx", "timer")  # every kind sim.py queues


class Sampler:
    """Counts, per function, the samples with it on the stack (inclusive)
    and those in which it was running (leaf), and the latter per source
    file path too (`leaf_files`)."""

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.samples = 0
        self.inclusive: Counter = Counter()
        self.leaf: Counter = Counter()
        self.leaf_files: Counter = Counter()

    def _sample(self, _signum, frame) -> None:
        self.samples += 1
        if frame is not None:
            self.leaf[_name(frame)] += 1
            self.leaf_files[frame.f_code.co_filename] += 1
        on_stack = set()
        while frame is not None:
            on_stack.add(_name(frame))
            frame = frame.f_back
        self.inclusive.update(on_stack)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)


def _name(frame) -> str:
    """`file:function`, and the first line too for a lambda or comprehension."""
    code = frame.f_code
    name = f"{Path(code.co_filename).name}:{code.co_name}"
    return f"{name}:{code.co_firstlineno}" if code.co_name.startswith("<") else name


def run_pass(data: dict) -> sim.Simulation:
    """One pass, as the benchmark times it; returns the finished run."""
    simulation = sim.Simulation(scenario.scenario_from_dict(data))
    report = simulation.run()
    metrics.render_json(report)
    "\n".join(simulation.trace)
    return simulation


def counted_pass(data: dict) -> tuple[Counter, Counter, int, sim.Simulation]:
    """The heap events one pass pops, by kind, its AES-GCM calls, by
    "seal" and "open", its Python-level calls outside this script, and the
    finished run."""
    # Keys set up front, so no Counter.__missing__ call lands in the count.
    popped: Counter = Counter(dict.fromkeys(EVENT_KINDS, 0))
    aead: Counter = Counter(seal=0, open=0)
    calls = 0
    here = counted_pass.__code__.co_filename

    def count_call(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename != here:
            calls += 1

    def counting_pop(heap):
        event = heapq.heappop(heap)
        popped[event[2]] += 1
        return event

    def counting(op, real):
        def call(*args):
            aead[op] += 1
            return real(*args)
        return call

    real_heapq, real_seal, real_open = sim.heapq, crypto.aead_seal, crypto.aead_open
    sim.heapq = types.SimpleNamespace(heappush=heapq.heappush, heappop=counting_pop)
    crypto.aead_seal, crypto.aead_open = counting("seal", real_seal), counting("open", real_open)
    # The cyclic collector is paused, so no collection's callbacks land in the count.
    gc.disable()
    sys.setprofile(count_call)
    try:
        simulation = run_pass(data)
    finally:
        sys.setprofile(None)
        gc.enable()
        sim.heapq = real_heapq
        crypto.aead_seal, crypto.aead_open = real_seal, real_open
    return popped, aead, calls, simulation


def _tally(counts: Counter) -> str:
    """`total (name count, ...)`, the largest count first, ties by name."""
    parts = ", ".join(f"{name} {n:,}" for name, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
    return f"{sum(counts.values()):,} ({parts})"


def main(argv=None) -> int:
    workloads = _workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads), default="contested_churn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="CPU time to sample, at least one pass")
    args = parser.parse_args(argv)

    data = workloads[args.workload](args.seed)
    passes = 0
    with Sampler(INTERVAL_S) as sampler:
        start = time.process_time()
        while passes == 0 or time.process_time() - start < args.seconds:
            run_pass(data)
            passes += 1
        cpu_s = time.process_time() - start
    total = max(sampler.samples, 1)
    interval_s = cpu_s / total
    note = f", coarser than the {INTERVAL_S * 1000:g} ms requested" if interval_s > COARSER * INTERVAL_S else ""
    print(f"{args.workload} seed {args.seed}: {passes} passes, {sampler.samples} samples in "
          f"{cpu_s:.2f} s of CPU time, one per {interval_s * 1000:.2f} ms{note}")
    print(f"{'incl%':>7} {'leaf%':>7}  function")
    for name, count in sampler.inclusive.most_common(TOP):
        print(f"{100 * count / total:7.1f} {100 * sampler.leaf[name] / total:7.1f}  {name}")
    popped, aead, calls, simulation = counted_pass(data)
    sends = sum(simulation.per_link_tx.values())
    print(f"python calls per pass: {calls:,} (per transmission {calls / max(sends, 1):.1f})")
    print(f"trace lines per pass: {_tally(Counter(json.loads(line)['event'] for line in simulation.trace))}")
    print(f"refusals per pass: {_tally(simulation.security_events)}")
    print(f"aead per pass: seal {aead['seal']:,}, open {aead['open']:,}")
    kinds = ", ".join(f"{kind} {popped[kind]:,}" for kind in EVENT_KINDS)
    print(f"heap events popped per pass: {sum(popped.values()):,} ({kinds})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
