"""Every fast path against `reference_sim.Reference`, on drawn scenarios and
on the 15 locked ones: the same report bytes, trace lines, counts and
popped events."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmlink import links
from swarmlink.golden import locked_scenarios
from swarmlink.scenario import ADVERSARY_KINDS, scenario_from_dict
from swarmlink.sim import Simulation

from conftest import base_scenario_dict
from reference_sim import Reference, observed


# Handshake retries, key turnover and rekey resends all fall within a 3 s run.
TIGHT_TIMERS = {"key_lifetime_s": 0.8, "grace_window_s": 0.2, "handshake_timeout_s": 0.3, "rekey_resend_interval_s": 0.1}


@st.composite
def scenario_dicts(draw):
    """3-10 nodes in a 300 m square, about a third going down; one to three
    links; in half the draws no latency and no jitter, so events tie; a
    duty-metered sub-GHz link, any of the taps, mesh or star, signature
    checks and a plaintext mesh."""
    ties = draw(st.booleans())
    nodes = []
    for i in range(draw(st.integers(3, 10))):
        node = {"id": i + 1, "role": "gcs" if i == 0 else "uav",
                "position": [draw(st.floats(0.0, 300.0)), draw(st.floats(0.0, 300.0))]}
        if draw(st.integers(0, 2)) == 0:
            node["down_at_s"] = draw(st.floats(0.5, 3.0))
        nodes.append(node)
    link_specs = {}
    for band in draw(st.lists(st.sampled_from(sorted(links.default_profiles())), min_size=1, max_size=3, unique=True)):
        spec = link_specs[band] = {"band": band, "range_m": draw(st.one_of(st.none(), st.floats(20.0, 400.0))),
                                   "loss_prob": draw(st.floats(0.0, 0.5))}
        if ties:
            spec["base_latency_s"] = 0.0
        if band == "subghz" and draw(st.booleans()):
            spec.update(duty_cycle_limit=0.05, duty_window_s=0.5)
    mode = draw(st.sampled_from(["mesh", "star"]))
    taps = []
    for kind in draw(st.lists(st.sampled_from(sorted(ADVERSARY_KINDS)), unique=True)):
        start = draw(st.floats(0.0, 2.0))
        taps.append({"kind": kind, "start_s": start, "end_s": draw(st.one_of(st.none(), st.floats(start, 3.0))),
                     "injections": 20})
    return base_scenario_dict(
        seed=draw(st.integers(0, 2**32)), duration_s=3.0, mode=mode, nodes=nodes, links=link_specs,
        protocol={**TIGHT_TIMERS, "forward_jitter_max_s": 0.0} if ties else TIGHT_TIMERS,
        security={"encryption": mode == "star" or draw(st.booleans()), "verify_signatures": draw(st.booleans())},
        traffic={"senders": "all", "rate_hz": 4.0, "payload_bytes": 24, "start_s": 0.5},
        adversaries=taps,
    )


def _tied_line(n, mode, rate, payload):
    """n nodes 50 m apart on a line over one 120 m WiFi link, with no
    latency and no forward jitter, and keys that turn over every 0.8 s."""
    return base_scenario_dict(
        seed=3, duration_s=2.5, mode=mode,
        nodes=[{"id": i, "role": "gcs" if i == 1 else "uav", "position": [50.0 * (i - 1), 0.0]} for i in range(1, n + 1)],
        links={"wifi24": {"band": "wifi24", "base_latency_s": 0.0, "loss_prob": 0.0, "range_m": 120.0}},
        protocol={**TIGHT_TIMERS, "forward_jitter_max_s": 0.0, "hop_limit": 4},
        traffic={"senders": "all", "rate_hz": rate, "payload_bytes": payload, "start_s": 0.2},
    )


REKEY_QUEUED_AS_THE_LAST_OFFER_ENDS = _tied_line(3, "mesh", 20.0, 64)
LOSSY_METERED_MESH = _tied_line(5, "mesh", 20.0, 64)  # with a node down and an injector
LOSSY_METERED_MESH["links"]["wifi24"]["loss_prob"] = 0.2
LOSSY_METERED_MESH["links"]["subghz"] = {"band": "subghz", "base_latency_s": 0.0, "loss_prob": 0.2,
                                         "duty_cycle_limit": 0.05, "duty_window_s": 0.5}
LOSSY_METERED_MESH["nodes"][-1]["down_at_s"] = 1.2
LOSSY_METERED_MESH["adversaries"] = [{"kind": "replay_injector", "start_s": 0.5, "injections": 20}]
STAR_FANOUT_AT_60_HZ = _tied_line(6, "star", 60.0, 200)
# Node 3's one neighbour is down from 0.5 s, so its sends find no covering
# link and are dropped, until the ground station, out of its range, goes
# down at 1 s: with no live peer left every link covers, and its sends go
# out to nobody. A covering cache that node_down left stale keeps dropping.
NOBODY_LEFT_TO_HEAR = base_scenario_dict(
    seed=0, duration_s=3.0,
    nodes=[{"id": 1, "role": "gcs", "position": [0.0, 21.0], "down_at_s": 1.0},
           {"id": 2, "role": "uav", "position": [0.0, 0.0], "down_at_s": 0.5},
           {"id": 3, "role": "uav", "position": [0.0, 0.0]}],
    links={"cellular": {"band": "cellular", "range_m": 20.0, "loss_prob": 0.0}},
    security={"encryption": False},
    traffic={"senders": "all", "rate_hz": 4.0, "payload_bytes": 24, "start_s": 0.5},
)


@settings(max_examples=150, deadline=None)
@example(data=REKEY_QUEUED_AS_THE_LAST_OFFER_ENDS)
@example(data=LOSSY_METERED_MESH)
@example(data=STAR_FANOUT_AT_60_HZ)
@example(data=NOBODY_LEFT_TO_HEAR)
@given(data=scenario_dicts())
def test_the_fast_paths_run_each_drawn_scenario_as_the_reference_does(data):
    sc = scenario_from_dict(data)
    assert observed(Simulation(sc)) == observed(Reference(sc))


LOCKED = locked_scenarios()


@pytest.mark.parametrize("name", LOCKED)
def test_the_fast_paths_run_each_locked_scenario_as_the_reference_does(name):
    assert observed(Simulation(LOCKED[name])) == observed(Reference(LOCKED[name]))
