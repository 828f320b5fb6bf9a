"""Radio link model tests: coverage, loss, duty cycle, selection."""

import math
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmlink import links
from swarmlink.errors import MtuExceeded, NoViableLink, ValidationError
from swarmlink.links import Deferred, DutyCycleMeter, LinkProfile, LinkSelector


def profile(name="wifi", bitrate=1e6, range_m=100.0, loss=0.0, duty=None, window=None, mtu=1500, latency=0.001):
    return LinkProfile(
        name=name,
        bitrate_bps=bitrate,
        range_m=range_m,
        base_latency_s=latency,
        loss_prob=loss,
        mtu_bytes=mtu,
        duty_cycle_limit=duty,
        duty_window_s=window,
    )


# ---- profiles ---------------------------------------------------------------


def test_coverage_is_a_closed_disc():
    p = profile(range_m=100.0)
    assert p.covers(99.9) and p.covers(100.0)
    assert not p.covers(100.0001)
    unlimited = profile(range_m=None)
    assert unlimited.covers(1e9)


def test_default_profiles_sane():
    profiles = links.default_profiles()
    assert set(profiles) >= {"subghz", "wifi24", "cellular"}
    sub = profiles["subghz"]
    assert sub.duty_cycle_limit is not None and sub.duty_window_s is not None
    assert profiles["wifi24"].bitrate_bps > sub.bitrate_bps


def test_airtime_matches_bitrate():
    p = profile(bitrate=100000.0)
    assert p.airtime_s(1000) == pytest.approx(1000 * 8 / 100000.0)


# ---- transmit ---------------------------------------------------------------


def test_transmit_partitions_receivers():
    p = profile(range_m=100.0, loss=0.0)
    rng = random.Random(0)
    # The caller passes only receivers in range; 100 m sits on the disc's edge.
    result = links.transmit(p, 100, 0.0, [2, 3], rng)
    assert result.delivered == (2, 3)
    assert result.lost == ()
    assert result.arrival == pytest.approx(0.0 + p.base_latency_s + p.airtime_s(100))


def test_transmit_loss_rolls_are_per_receiver():
    p = profile(loss=0.5)
    rng = random.Random(7)
    delivered, lost = 0, 0
    for _ in range(400):
        result = links.transmit(p, 50, 0.0, [2, 3], rng)
        delivered += len(result.delivered)
        lost += len(result.lost)
    assert delivered + lost == 800
    assert 320 < delivered < 480  # binomial around 400, generous margins


def test_transmit_rejects_oversize():
    p = profile(mtu=100)
    with pytest.raises(MtuExceeded):
        links.transmit(p, 101, 0.0, [2], random.Random(0))


def test_transmit_defers_on_duty_breach():
    p = profile(bitrate=1000.0)  # 1 byte = 8 ms airtime
    meter = DutyCycleMeter(limit=0.01, window_s=10.0)  # 100 ms budget
    rng = random.Random(0)
    r1 = links.transmit(p, 10, 0.0, [2], rng, meter)  # 80 ms, fits
    assert not isinstance(r1, Deferred)
    r2 = links.transmit(p, 10, 0.001, [2], rng, meter)  # would exceed
    assert isinstance(r2, Deferred)
    assert r2.until == pytest.approx(10.0)  # when the first burst ages out
    assert meter.used_airtime(0.002) == pytest.approx(0.08)  # deferred tx charged nothing


# ---- duty meter -------------------------------------------------------------


def test_meter_budget_boundary_exact():
    meter = DutyCycleMeter(limit=0.1, window_s=10.0)  # budget 1 s
    assert meter.allows(0.0, 1.0)
    meter.record(0.0, 1.0)
    assert not meter.allows(0.1, 1e-6)
    assert meter.allows(10.0, 1.0)  # the window has slid past the burst


def test_meter_window_slides_on_tx_start():
    meter = DutyCycleMeter(limit=0.5, window_s=2.0)  # budget 1 s
    meter.record(0.0, 0.6)
    meter.record(1.0, 0.4)
    assert meter.used_airtime(1.5) == pytest.approx(1.0)
    # at t=2.0 the burst from t=0.0 leaves the window
    assert meter.used_airtime(2.0) == pytest.approx(0.4)
    assert meter.allows(2.0, 0.6)


def test_meter_earliest_allowed_is_exact():
    meter = DutyCycleMeter(limit=0.25, window_s=4.0)  # budget 1 s
    meter.record(0.0, 0.5)
    meter.record(1.0, 0.5)
    t = meter.earliest_allowed(1.1, 0.5)
    assert t == pytest.approx(4.0)  # frees the t=0 burst exactly then
    assert meter.allows(t, 0.5)
    assert not meter.allows(t - 1e-6, 0.5 + 1e-9)


def test_meter_admits_a_deferred_burst_at_the_instant_it_was_told():
    # 0.02936 + 60 - 60 rounds above 0.02936: at t = 0.02936 + 60 the test
    # `start <= now - window` still holds the burst that `start + window`
    # says has expired, so the send would be deferred to "now" forever.
    meter = DutyCycleMeter(limit=0.01, window_s=60.0)  # budget 0.6 s
    meter.record(0.02936, 0.6)
    t = meter.earliest_allowed(1.0, 0.1)
    assert t == 0.02936 + 60.0
    assert meter.allows(t, 0.1)
    assert meter.earliest_allowed(t, 0.1) == t


def test_meter_impossible_burst_is_infinite():
    meter = DutyCycleMeter(limit=0.01, window_s=10.0)  # budget 100 ms
    assert meter.earliest_allowed(0.0, 0.2) == math.inf
    assert not meter.allows(5.0, 0.2)


def test_meter_parameters_validated():
    with pytest.raises(ValueError):
        DutyCycleMeter(limit=0.0, window_s=10.0)
    with pytest.raises(ValueError):
        DutyCycleMeter(limit=1.5, window_s=10.0)
    with pytest.raises(ValueError):
        DutyCycleMeter(limit=0.1, window_s=0.0)


class ReferenceMeter:
    """The meter before it kept a running total: every query re-adds the
    bursts in the window. `_sum` is `sum()` over floats as Python 3.11
    computes it, one addition at a time from the left. It keeps the run's
    record as the meter does: sends, their airtime, and the peak use."""

    def __init__(self, limit, window_s):
        self.limit, self.window_s, self._bursts = limit, window_s, []
        self.sends, self.total_airtime_s, self.peak_use = 0, 0.0, 0.0

    @staticmethod
    def _sum(values):
        total = 0
        for value in values:
            total = total + value
        return total

    def _prune(self, now):
        keep = 0
        while keep < len(self._bursts) and self._bursts[keep][0] + self.window_s <= now:
            keep += 1
        if keep:
            del self._bursts[:keep]

    def used_airtime(self, now):
        self._prune(now)
        return self._sum(a for _, a in self._bursts)

    def budget(self):
        return self.limit * self.window_s

    def allows(self, now, airtime):
        return self.used_airtime(now) + airtime <= self.budget() + 1e-12

    def earliest_allowed(self, now, airtime):
        self._prune(now)
        budget = self.budget()
        if airtime > budget + 1e-12:
            return math.inf
        used = self._sum(a for _, a in self._bursts)
        if used + airtime <= budget + 1e-12:
            return now
        freed = 0.0
        for start, burst in self._bursts:
            freed += burst
            if used - freed + airtime <= budget + 1e-12:
                return start + self.window_s
        return self._bursts[-1][0] + self.window_s

    def record(self, now, airtime):
        self._bursts.append((now, airtime))
        self.sends += 1
        self.total_airtime_s = self.total_airtime_s + airtime
        # Just after the append and with no prune, as the meter takes it.
        self.peak_use = max(self.peak_use, self._sum(a for _, a in self._bursts) / self.budget())


@settings(max_examples=300, deadline=None)
@example(  # a prune leaves 0.1, 0.2, 0.3: folded from the left they make 0.6000000000000001
    limit=1.0,
    window=3.0,
    steps=[(0.0, "record", 0.5), (1.0, "record", 0.1), (0.0, "record", 0.2), (0.0, "record", 0.3),
           (2.0, "used_airtime", 0.1), (0.0, "send", 2.4)],
)
@given(
    limit=st.sampled_from([0.01, 0.1, 0.3, 1.0]),
    window=st.sampled_from([0.5, 3.0, 60.0, 3600.0]),
    steps=st.lists(
        st.tuples(
            st.one_of(st.sampled_from([0.0, 0.001, 0.1, 1.0]), st.floats(0.0, 5.0)),  # time step
            st.sampled_from(["record", "allows", "used_airtime", "earliest_allowed", "send"]),
            st.one_of(st.sampled_from([1e-4, 0.0123, 0.1, 0.3]), st.floats(1e-6, 2.0)),  # airtime
        ),
        max_size=60,
    ),
)
def test_running_total_meter_answers_exactly_as_the_summing_reference(limit, window, steps):
    meter, reference = DutyCycleMeter(limit, window), ReferenceMeter(limit, window)
    now = 0.0
    for step, op, airtime in steps:
        now += step
        if op == "send":  # as links.transmit does: record only a burst that fits
            fits = reference.allows(now, airtime)
            assert meter.allows(now, airtime) == fits
            op = "record" if fits else "earliest_allowed"
        if op == "record":
            meter.record(now, airtime)
            reference.record(now, airtime)
        elif op == "used_airtime":
            assert meter.used_airtime(now) == reference.used_airtime(now)
        else:
            assert getattr(meter, op)(now, airtime) == getattr(reference, op)(now, airtime)
        assert (meter.sends, meter.total_airtime_s, meter.peak_use) == (
            reference.sends, reference.total_airtime_s, reference.peak_use
        )


# ---- selector ---------------------------------------------------------------


def two_profiles():
    fast = profile(name="fast", bitrate=1e7, range_m=100.0)
    slow = profile(name="slow", bitrate=1e5, range_m=1000.0)
    return {"fast": fast, "slow": slow}


def in_range(profiles, distance):
    """The names of the links that cover a unicast to a receiver at this distance."""
    return frozenset(name for name, p in profiles.items() if p.covers(distance))


def test_selector_prefers_fastest_covering():
    profiles = two_profiles()
    sel = LinkSelector(link_names=("fast", "slow"))
    assert sel.select(profiles, in_range(profiles, 50.0), now=0.0).name == "fast"
    assert sel.select(profiles, in_range(profiles, 500.0), now=10.0).name == "slow"


def test_selector_avoids_unhealthy_link():
    profiles = two_profiles()
    sel = LinkSelector(link_names=("fast", "slow"))
    sel.select(profiles, in_range(profiles, 50.0), now=0.0)
    for _ in range(20):
        sel.update_health("fast", 0.0)
    assert sel.health["fast"] < sel.health_threshold
    # past the hysteresis hold, the healthy slow link wins despite lower bitrate
    assert sel.select(profiles, in_range(profiles, 50.0), now=10.0).name == "slow"
    assert sel.switches >= 1


def test_selector_health_ewma_tracks_fractions():
    sel = LinkSelector(link_names=("fast",), ewma_alpha=0.5)
    sel.update_health("fast", 0.5)
    assert sel.health["fast"] == pytest.approx(0.75)
    sel.update_health("fast", 0.25)
    assert sel.health["fast"] == pytest.approx(0.5)


def _float_bits(value) -> bytes:
    return struct.pack(">d", value)  # tells -0.0 from 0.0, and matches a NaN with itself


CLAMP_EDGES = (math.nan, -0.0, 0, 1, math.inf, -math.inf, 1.5, -0.5)


@settings(max_examples=300, deadline=None)
@given(
    health=st.floats(0.0, 1.0),
    alpha=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    fraction=st.one_of(st.sampled_from(CLAMP_EDGES), st.floats(), st.integers(-2, 2)),
)
@example(health=0.5, alpha=1.0, fraction=math.nan)
@example(health=0.5, alpha=1.0, fraction=-0.0)
@example(health=0.5, alpha=1.0, fraction=math.inf)
def test_update_health_is_the_ewma_of_the_min_max_clamp(health, alpha, fraction):
    # At alpha 1 the health is the clamped fraction itself.
    sel = LinkSelector(link_names=("fast",), ewma_alpha=alpha)
    sel.health["fast"] = health
    expected = (1 - alpha) * health + alpha * min(1.0, max(0.0, fraction))
    got = sel.update_health("fast", fraction)
    assert type(got) is type(expected) and _float_bits(got) == _float_bits(expected)
    assert sel.health["fast"] is got


def test_selector_hysteresis_holds_choice():
    profiles = two_profiles()
    sel = LinkSelector(link_names=("fast", "slow"), hysteresis_s=2.0)
    assert sel.select(profiles, in_range(profiles, 50.0), now=0.0).name == "fast"
    for _ in range(20):
        sel.update_health("fast", 0.0)
    # inside the hold the active link is kept even though slow scores better
    assert sel.select(profiles, in_range(profiles, 50.0), now=1.0).name == "fast"
    assert sel.select(profiles, in_range(profiles, 50.0), now=2.5).name == "slow"


def test_selector_falls_back_when_nothing_healthy():
    profiles = two_profiles()
    sel = LinkSelector(link_names=("fast", "slow"))
    for _ in range(20):
        sel.update_health("fast", 0.0)
        sel.update_health("slow", 0.0)
    # both unhealthy: still transmit on the best covering link
    assert sel.select(profiles, in_range(profiles, 50.0), now=10.0).name == "fast"


def test_selector_no_viable_link():
    profiles = two_profiles()
    sel = LinkSelector(link_names=("fast",))
    with pytest.raises(NoViableLink):
        sel.select({"fast": profiles["fast"]}, in_range(profiles, 500.0), now=0.0)


def test_selector_pinned_mode():
    profiles = two_profiles()
    sel = LinkSelector(link_names=("fast", "slow"), pinned="slow")
    for _ in range(20):
        sel.update_health("slow", 0.0)
    assert sel.select(profiles, in_range(profiles, 50.0), now=0.0).name == "slow"
    assert sel.switches == 0
    with pytest.raises(ValidationError):
        LinkSelector(link_names=("fast",), pinned="slow")


def reference_select(sel, profiles, covering, now):
    """The list-and-max selection that LinkSelector.select replaced, kept
    as the reference its one pass must match, state changes included."""
    if sel.pinned is not None:
        return profiles[sel.pinned]
    covered = [profiles[name] for name in sel.link_names if name in covering]
    if not covered:
        raise NoViableLink("no configured link covers any receiver")
    healthy = [p for p in covered if sel.health[p.name] >= sel.health_threshold]
    pool = healthy if healthy else covered
    choice = max(pool, key=lambda p: p.bitrate_bps)
    if sel.active is not None and choice.name != sel.active:
        active_profile = profiles.get(sel.active)
        held = now - sel.last_switch < sel.hysteresis_s
        if held and active_profile is not None and active_profile in covered:
            return active_profile
        sel.switches += 1
    if choice.name != sel.active:
        sel.active = choice.name
        sel.last_switch = now
    return choice


LINK_NAMES = ("a", "b", "c", "d")
THRESHOLD = 0.5
# Two bitrates, so ties are common; health on, just below and above the threshold.
selection_steps = st.lists(
    st.tuples(
        st.frozensets(st.sampled_from(LINK_NAMES)),  # the links that cover this send
        st.sampled_from([0.0, 0.5, 1.0, 1.999, 2.0, 3.0]),  # time since the last step
        st.tuples(*[st.sampled_from([0.0, 0.49, THRESHOLD, 0.51, 1.0])] * len(LINK_NAMES)),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@example(  # tied bitrates, none healthy: the first covering link wins
    count=2, bitrates=(1e6,) * 4, pinned=None, steps=[(frozenset("ab"), 0.0, (0.0,) * 4)]
)
@example(  # tied bitrates, all healthy, then one drops below the threshold
    count=3, bitrates=(1e6,) * 4, pinned=None,
    steps=[(frozenset("abc"), 0.0, (THRESHOLD,) * 4), (frozenset("abc"), 3.0, (0.49, 1.0, 1.0, 1.0))],
)
@example(  # hysteresis: held while the active link covers, released when it does not
    count=2, bitrates=(1e7, 1e6, 1e6, 1e6), pinned=None,
    steps=[
        (frozenset("ab"), 0.0, (1.0,) * 4),
        (frozenset("ab"), 1.0, (0.0, 1.0, 1.0, 1.0)),
        (frozenset("b"), 0.5, (0.0, 1.0, 1.0, 1.0)),
        (frozenset("ab"), 0.5, (1.0,) * 4),
    ],
)
@given(
    count=st.integers(1, len(LINK_NAMES)),
    bitrates=st.tuples(*[st.sampled_from([1e6, 1e7])] * len(LINK_NAMES)),
    pinned=st.one_of(st.none(), st.sampled_from(LINK_NAMES)),
    steps=selection_steps,
)
def test_one_pass_select_matches_the_list_and_max_reference(count, bitrates, pinned, steps):
    names = LINK_NAMES[:count]
    profiles = {n: profile(name=n, bitrate=rate) for n, rate in zip(names, bitrates)}
    pinned = pinned if pinned in names else None
    made = [
        LinkSelector(link_names=names, health_threshold=THRESHOLD, hysteresis_s=2.0, pinned=pinned)
        for _ in range(2)
    ]
    now = 0.0
    for covered, dt, health in steps:
        now += dt
        outcomes = []
        for sel, pick in zip(made, (LinkSelector.select, reference_select)):
            sel.health.update(zip(names, health))
            try:
                outcome = pick(sel, profiles, covered, now)
            except NoViableLink:
                outcome = NoViableLink
            outcomes.append((outcome, sel.active, sel.last_switch, sel.switches))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is NoViableLink or outcomes[0][0] is outcomes[1][0]


def test_transmit_result_keeps_its_fields():
    assert links.TransmitResult._fields == ("airtime_s", "delivered", "lost", "arrival")
    result = links.transmit(profile(bitrate=1e6, latency=0.001), 100, 0.0, [2], random.Random(0))
    assert isinstance(result, links.TransmitResult)
    assert result.airtime_s == pytest.approx(800 / 1e6)
    assert result.delivered == (2,) and result.lost == ()
    assert result.arrival == 0.0 + 0.001 + result.airtime_s
