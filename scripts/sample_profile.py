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
that called it.

The outside-in tracer (`bench/run.py --trace 1`) times only the public
callables it wraps and leaves the rest in `sim.self_s`; this profile wraps
nothing, so it shows what that rest is made of. swarmlink is imported
from this checkout's `src/`, never from an installed copy.
"""

import argparse
import importlib.util
import signal
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import swarmlink  # noqa: E402
from swarmlink import metrics, scenario, sim  # noqa: E402

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


def run_pass(data: dict) -> None:
    """One pass, as the benchmark times it."""
    simulation = sim.Simulation(scenario.scenario_from_dict(data))
    report = simulation.run()
    metrics.render_json(report)
    "\n".join(simulation.trace)


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
