"""Per-run watchdog: a hard deadline plus a stall detector.

A simulation that stops advancing its clock (a livelock in the event
loop) would otherwise hold the benchmark for ever. The watchdog arms one
interval timer (SIGALRM, so it needs the main thread and a POSIX host) and
checks, at each tick, two conditions in the main thread:

- `deadline`: the guarded block has run for more than `deadline_s` of
  wall time;
- `stalled`: the simulated clock has not moved while the process spent
  `stall_cpu_s` of CPU time. CPU time, not wall time, so a host that
  deschedules the benchmark cannot fake a stall.

Either raises `RunAborted` with the cause, which the caller counts as a
failed run. Otherwise the tick calls `on_tick`, if given, which is how
the host-speed sampler shares the one timer. The timer is disarmed and
the old handler restored on exit.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional


class RunAborted(Exception):
    """A guarded run was stopped by the watchdog; `cause` names why."""

    def __init__(self, cause: str, detail: str) -> None:
        super().__init__(f"{cause}: {detail}")
        self.cause = cause
        self.detail = detail


class Watchdog:
    def __init__(self, deadline_s: float, stall_cpu_s: float, tick_s: float = 0.1) -> None:
        self.deadline_s = deadline_s
        self.stall_cpu_s = stall_cpu_s
        self.tick_s = tick_s

    @contextmanager
    def guard(
        self,
        sim_now: Callable[[], Optional[float]],
        on_tick: Optional[Callable[[], None]] = None,
    ) -> Iterator[None]:
        """Guard a block; `sim_now()` returns the simulated clock, or None
        while no simulation exists yet (the stall check then waits)."""
        start = time.perf_counter()
        armed = True
        last_now: Optional[float] = None
        last_move_cpu = time.process_time()

        def tick(_signum, _frame) -> None:
            nonlocal last_now, last_move_cpu
            if not armed:
                return  # a tick already pending when the block finished
            elapsed = time.perf_counter() - start
            if elapsed > self.deadline_s:
                raise RunAborted("deadline", f"run exceeded {self.deadline_s:g} s of wall time")
            now = sim_now()
            cpu = time.process_time()
            if now is None or now != last_now:
                last_now, last_move_cpu = now, cpu
            elif cpu - last_move_cpu > self.stall_cpu_s:
                raise RunAborted(
                    "stalled",
                    f"simulated clock stuck at t={now!r} for {cpu - last_move_cpu:.2f} s of CPU",
                )
            if on_tick is not None:
                on_tick()

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        try:
            yield
        finally:
            armed = False
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
