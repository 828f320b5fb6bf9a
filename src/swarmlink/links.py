"""Simulated radio links: propagation, loss, duty cycling, and selection.

Three link classes cover the usual drone fits: a sub-GHz low-rate radio
with long reach but a regulatory duty-cycle budget, 2.4 GHz WiFi with high
rate and short reach, and a cellular bearer with no range cap but higher
latency. Connectivity is a unit disc per link: receivers at or inside the
range hear the transmission, subject to an independent loss roll each.

The selector keeps an exponentially weighted success score per link and
prefers the fastest healthy link that covers the destination, falling back
down the list as health decays. A hysteresis hold-down stops flapping.

A profile's bounds sit on its field types, as every scenario field's do,
and are checked where scenario JSON is read; a profile built in code is
not checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import AbstractSet, Annotated, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import MtuExceeded, NoViableLink, ValidationError

# Bounds ride on field types as Annotated[type, (test, what the value must
# be)]; scenario.py reads JSON against them and shares these.
Positive = Annotated[float, (lambda v: v > 0, "positive")]
NonNeg = Annotated[float, (lambda v: v >= 0, "nonnegative")]
UnitInterval = Annotated[float, (lambda v: 0 <= v <= 1, "in [0, 1]")]
PositiveFraction = Annotated[float, (lambda v: 0 < v <= 1, "in (0, 1]")]


@dataclass(frozen=True)
class LinkProfile:
    name: str
    range_m: Optional[Positive]  # None: reachable at any distance
    bitrate_bps: Positive
    base_latency_s: NonNeg
    loss_prob: UnitInterval
    mtu_bytes: Annotated[int, (lambda v: v >= 64, "at least 64")]
    # Fraction of airtime allowed per window; Scenario.validate wants both or neither.
    duty_cycle_limit: Optional[PositiveFraction] = None
    duty_window_s: Optional[Positive] = None

    def airtime_s(self, nbytes: int) -> float:
        return nbytes * 8 / self.bitrate_bps

    def covers(self, distance_m: float) -> bool:
        """Closed-disc reachability."""
        return self.range_m is None or distance_m <= self.range_m


def default_profiles() -> Dict[str, LinkProfile]:
    """The default profile of each band, by band name."""
    return {
        "subghz": LinkProfile(
            name="subghz",
            range_m=5000.0,
            bitrate_bps=100_000.0,
            base_latency_s=0.020,
            loss_prob=0.02,
            mtu_bytes=256,
            duty_cycle_limit=0.01,
            duty_window_s=3600.0,
        ),
        "wifi24": LinkProfile(
            name="wifi24",
            range_m=300.0,
            bitrate_bps=10_000_000.0,
            base_latency_s=0.002,
            loss_prob=0.05,
            mtu_bytes=1500,
        ),
        "cellular": LinkProfile(
            name="cellular",
            range_m=None,
            bitrate_bps=1_000_000.0,
            base_latency_s=0.080,
            loss_prob=0.01,
            mtu_bytes=1400,
        ),
    }


def distance(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


class DutyCycleMeter:
    """Sliding-window airtime accountant for one transmitter on one link.

    Airtime is attributed to the instant transmission starts. A send is
    allowed iff the window's recorded airtime plus the new burst stays
    within budget; otherwise the earliest compliant start time is computed
    exactly, so callers can defer instead of busy-polling.

    The window's airtime is a running total: `record` adds each burst to
    it, and a prune that drops bursts refolds the rest. Both are the
    left-to-right float sum that `sum()` gives on Python 3.11, on every
    Python (3.12 compensates `sum()` over floats).

    `record` also keeps the meter's record of a run: its sends, their total
    airtime and the peak of `_used / budget()` just after a burst. `transmit`
    records just after `earliest_allowed` pruned the window at that instant.
    """

    def __init__(self, limit: float, window_s: float) -> None:
        if not 0.0 < limit <= 1.0:
            raise ValueError(f"duty limit {limit} outside (0, 1]")
        if window_s <= 0.0:
            raise ValueError(f"duty window {window_s} must be positive")
        self.limit = limit
        self.window_s = window_s
        self._bursts: List[Tuple[float, float]] = []  # (tx_start, airtime)
        self._used = 0.0  # airtime of the bursts in _bursts, folded in order
        self.sends = 0
        self.total_airtime_s = 0.0
        self.peak_use = 0.0

    def _prune(self, now: float) -> None:
        # Expiry is `start + window_s`, exactly as earliest_allowed computes
        # it; `start <= now - window_s` can round the other way and defer a
        # send to the same instant forever.
        keep = 0
        while keep < len(self._bursts) and self._bursts[keep][0] + self.window_s <= now:
            keep += 1
        if keep:
            del self._bursts[:keep]
            used = 0.0
            for _, airtime in self._bursts:
                used = used + airtime
            self._used = used

    def used_airtime(self, now: float) -> float:
        self._prune(now)
        return self._used

    def budget(self) -> float:
        return self.limit * self.window_s

    def allows(self, now: float, airtime: float) -> bool:
        # After the prune every burst left expires after `now`, so the
        # earliest start is `now` exactly when the burst fits now.
        return self.earliest_allowed(now, airtime) <= now

    def earliest_allowed(self, now: float, airtime: float) -> float:
        """First instant at which this burst fits the budget."""
        self._prune(now)
        need = airtime
        budget = self.budget()
        if need > budget + 1e-12:
            return math.inf  # burst alone exceeds the budget; never sendable
        used = self._used
        if used + need <= budget + 1e-12:
            return now
        # Bursts age out oldest-first; walk until enough budget is free.
        freed = 0.0
        for start, burst in self._bursts:
            freed += burst
            if used - freed + need <= budget + 1e-12:
                return start + self.window_s
        return self._bursts[-1][0] + self.window_s

    def record(self, now: float, airtime: float) -> None:
        self._bursts.append((now, airtime))
        self._used = self._used + airtime
        self.sends += 1
        self.total_airtime_s += airtime
        self.peak_use = max(self.peak_use, self._used / self.budget())


@dataclass(frozen=True)
class Deferred:
    """Transmission blocked by duty cycle until the stated time."""

    until: float


class TransmitResult(NamedTuple):
    """One transmission's fate per receiver id; every delivered receiver
    hears it at `arrival`."""

    airtime_s: float
    delivered: Tuple[int, ...]
    lost: Tuple[int, ...]
    arrival: float


def transmit(
    profile: LinkProfile,
    nbytes: int,
    now: float,
    receivers: Sequence[int],
    rng,
    meter: Optional[DutyCycleMeter] = None,
):
    """Send nbytes to every receiver id, or defer on duty-cycle breach.

    Returns a TransmitResult, or a Deferred when the link's duty budget
    cannot absorb the burst yet (in which case nothing is sent or charged).
    Callers pass the ids of the receivers in range, in a fixed order; each
    suffers an independent loss roll in that order. Every delivered
    receiver hears the burst at base latency plus airtime after `now`.
    """
    if nbytes > profile.mtu_bytes:
        raise MtuExceeded(f"{nbytes} bytes exceeds {profile.name} MTU {profile.mtu_bytes}")
    airtime = profile.airtime_s(nbytes)
    if meter is not None:
        until = meter.earliest_allowed(now, airtime)
        if until > now:
            return Deferred(until=until)
        meter.record(now, airtime)
    delivered: List[int] = []
    lost: List[int] = []
    for receiver_id in receivers:
        (lost if rng.random() < profile.loss_prob else delivered).append(receiver_id)
    arrival = now + profile.base_latency_s + airtime
    # As TransmitResult's generated __new__ does, without that Python frame.
    return tuple.__new__(TransmitResult, (airtime, tuple(delivered), tuple(lost), arrival))


@dataclass
class LinkSelector:
    """Health-driven choice among a node's configured links.

    Health is an EWMA of per-transmission success in [0, 1], starting
    optimistic at 1. Selection prefers the highest-bitrate link that both
    covers the destination and sits at or above the health threshold; if
    none qualifies, the best-covering link wins regardless of health rather
    than sending nothing. A just-switched selector holds its choice for the
    hysteresis interval so borderline health cannot flap between links.
    """

    link_names: Tuple[str, ...]
    health_threshold: float = 0.5
    hysteresis_s: float = 2.0
    ewma_alpha: float = 0.2
    pinned: Optional[str] = None
    health: Dict[str, float] = field(init=False)
    active: Optional[str] = field(init=False, default=None)
    last_switch: float = field(init=False, default=-math.inf)
    switches: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if not self.link_names:
            raise ValidationError("link_names", "node needs at least one link")
        if self.pinned is not None and self.pinned not in self.link_names:
            raise ValidationError("pinned", f"{self.pinned} not among configured links")
        self.health = {name: 1.0 for name in self.link_names}

    def update_health(self, link_name: str, delivered_fraction: float) -> float:
        f = delivered_fraction  # min(1.0, max(0.0, f)) in two comparisons; NaN gives 0.0
        observed = (f if f < 1.0 else 1.0) if f > 0.0 else 0.0
        h = self.health[link_name]
        h = (1 - self.ewma_alpha) * h + self.ewma_alpha * observed
        self.health[link_name] = h
        return h

    def select(
        self,
        profiles: Dict[str, LinkProfile],
        covering: AbstractSet[str],
        now: float,
    ) -> LinkProfile:
        """Pick the link for one transmission.

        `covering` holds the names of the links that reach a receiver: for
        unicast, those with the destination in range; for broadcast, those
        with any live neighbour. A pinned link is returned whether it
        covers or not.
        """
        if self.pinned is not None:
            return profiles[self.pinned]
        # One pass in link order; `>` keeps the first of equal bitrates, as
        # max() does. `best` is over covering links, `healthy` over those at
        # or above the threshold.
        health, threshold, active = self.health, self.health_threshold, self.active
        best = healthy = None
        active_covers = False
        for name in self.link_names:
            if name not in covering:
                continue
            profile = profiles[name]
            if name == active:
                active_covers = True
            rate = profile.bitrate_bps
            if best is None or rate > best.bitrate_bps:
                best = profile
            if health[name] >= threshold and (healthy is None or rate > healthy.bitrate_bps):
                healthy = profile
        if best is None:
            raise NoViableLink("no configured link covers any receiver")
        choice = best if healthy is None else healthy
        if active is not None and choice.name != active:
            held = now - self.last_switch < self.hysteresis_s
            if held and active_covers:
                return profiles[active]
            self.switches += 1
        if choice.name != active:
            self.active = choice.name
            self.last_switch = now
        return choice
