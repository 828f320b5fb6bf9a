"""Neighbour index and broadcast link choice in the simulator.

A broadcast costs work in proportion to its in-range receivers because
each (node, link) keeps its in-range peers in node order. These tests pin
that index to the brute-force definition (every other node the link's
range covers), check how the links that cover a send feed the link
selector, and check which receivers a unicast is handed.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmlink import links
from swarmlink.errors import NoViableLink
from swarmlink.scenario import scenario_from_dict
from swarmlink.sim import Simulation, _TxItem

from conftest import base_scenario_dict


def simulation(positions, link_specs, **overrides):
    """Mesh simulation over nodes 1..n at these positions, node 1 the GCS."""
    nodes = [
        {"id": i + 1, "role": "gcs" if i == 0 else "uav", "position": list(pos)}
        for i, pos in enumerate(positions)
    ]
    return Simulation(scenario_from_dict(base_scenario_dict(nodes=nodes, links=link_specs, **overrides)))


coordinate = st.floats(min_value=-800.0, max_value=800.0, allow_nan=False)
link_range = st.one_of(st.none(), st.floats(min_value=1.0, max_value=1200.0))


@settings(max_examples=60, deadline=None)
@given(
    positions=st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=12),
    wifi_range=link_range,
    subghz_range=link_range,
)
def test_neighbour_lists_equal_brute_force_coverage(positions, wifi_range, subghz_range):
    sim = simulation(
        positions,
        {
            "wifi24": {"band": "wifi24", "range_m": wifi_range},
            "subghz": {"band": "subghz", "range_m": subghz_range},
        },
    )
    for node_id in sim.node_order:
        here = sim.nodes[node_id].position
        for name, profile in sim.profiles.items():
            expected = [
                other
                for other in sim.node_order
                if other != node_id
                and profile.covers(links.distance(here, sim.nodes[other].position))
            ]
            assert sim._neighbours(node_id, name) == expected


WIFI_ONLY = {"wifi24": {"band": "wifi24", "loss_prob": 0.0}}
WIFI_AND_SUBGHZ = {
    "wifi24": {"band": "wifi24", "loss_prob": 0.0},
    "subghz": {"band": "subghz", "loss_prob": 0.0},
}


def test_no_live_peer_means_every_link_covers():
    # The only peer is out of WiFi range, and down: nothing is reachable,
    # so the broadcast goes out on the configured link and reaches nobody.
    sim = simulation([(0.0, 0.0), (1000.0, 0.0)], WIFI_ONLY)
    gcs = sim.nodes[1]
    sim._node_down(sim.nodes[2])
    covering = sim._covering(1, None)
    assert covering == {"wifi24"}
    assert gcs.selector.select(sim.profiles, covering, 0.0).name == "wifi24"
    assert sim._live_neighbours(1, "wifi24") == []


def test_live_peers_out_of_range_raise_no_viable_link():
    sim = simulation([(0.0, 0.0), (1000.0, 0.0), (0.0, 1000.0)], WIFI_ONLY)
    covering = sim._covering(1, None)
    assert covering == frozenset()
    with pytest.raises(NoViableLink):
        sim.nodes[1].selector.select(sim.profiles, covering, 0.0)


def test_down_peer_drops_out_of_coverage_and_receivers():
    # Node 2 is the GCS's only WiFi neighbour; node 3 hears sub-GHz only.
    sim = simulation([(0.0, 0.0), (100.0, 0.0), (1000.0, 0.0)], WIFI_AND_SUBGHZ)
    assert sim._live_neighbours(1, "wifi24") == [2]
    sim._node_down(sim.nodes[2])
    covering = sim._covering(1, None)
    assert "wifi24" not in covering
    assert "subghz" in covering
    assert sim._live_neighbours(1, "subghz") == [3]
    assert sim._neighbours(1, "wifi24") == [2]  # the index itself keeps it


def test_hysteresis_holds_a_link_that_still_has_a_live_neighbour():
    sim = simulation([(0.0, 0.0), (100.0, 0.0), (1000.0, 0.0)], WIFI_AND_SUBGHZ)
    sel = sim.nodes[1].selector
    assert sel.select(sim.profiles, sim._covering(1, None), 0.0).name == "wifi24"
    for _ in range(20):
        sel.update_health("wifi24", 0.0)
    # inside the hold the active link is kept although sub-GHz scores better
    assert sel.select(sim.profiles, sim._covering(1, None), 1.0).name == "wifi24"
    assert sel.select(sim.profiles, sim._covering(1, None), 2.5).name == "subghz"


def test_hold_is_released_when_the_active_link_loses_its_last_live_neighbour():
    sim = simulation([(0.0, 0.0), (100.0, 0.0), (1000.0, 0.0)], WIFI_AND_SUBGHZ)
    sel = sim.nodes[1].selector
    assert sel.select(sim.profiles, sim._covering(1, None), 0.0).name == "wifi24"
    sim._node_down(sim.nodes[2])
    assert sel.select(sim.profiles, sim._covering(1, None), 0.5).name == "subghz"


def unicast_receivers(sim, src, dest):
    """The receiver lists `links.transmit` is handed for one unicast from
    `src` to `dest`: none when no link is viable. The stand-in transmit
    answers that the duty budget can never allow the send, so the item is
    dropped and nothing else changes."""
    handed = []

    def transmit(profile, nbytes, now, receivers, rng, meter=None):
        handed.append(tuple(receivers))
        return links.Deferred(until=math.inf)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(links, "transmit", transmit)
        sim._enqueue(sim.nodes[src], (_TxItem("data", bytes(10), dest),))
    return handed


@settings(max_examples=40, deadline=None)
@example(  # node 2 is node 1's only WiFi neighbour, then goes down
    positions=[(0.0, 0.0), (100.0, 0.0), (1000.0, 0.0)], wifi_range=300.0, subghz_range=None,
    pinned=None, victims=[2],
)
@example(  # the pinned WiFi link does not reach node 3, and node 3 goes down
    positions=[(0.0, 0.0), (100.0, 0.0), (1000.0, 0.0)], wifi_range=300.0, subghz_range=None,
    pinned="wifi24", victims=[3],
)
@given(
    positions=st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=8),
    wifi_range=link_range,
    subghz_range=link_range,
    pinned=st.sampled_from([None, "wifi24", "subghz"]),
    victims=st.lists(st.integers(1, 8), max_size=4),
)
def test_cached_reach_equals_its_definition_as_nodes_go_down(
    positions, wifi_range, subghz_range, pinned, victims
):
    # The first round fills the per-pair cache; each later round follows a
    # node going down, which must clear it. A unicast reaches its live
    # destination on a covering link and nobody otherwise: not a down
    # destination, and not one the pinned link does not cover.
    policy = {"pinned_link": pinned} if pinned else {}
    sim = simulation(
        positions,
        {
            "wifi24": {"band": "wifi24", "range_m": wifi_range},
            "subghz": {"band": "subghz", "range_m": subghz_range},
        },
        link_policy=policy,
    )
    ids = sim.node_order
    for victim in (None, *victims):
        if victim in sim.nodes:
            sim._node_down(sim.nodes[victim])
        down = sim._down
        for src in ids:
            if src in down:
                continue  # a down node sends nothing
            here = sim.nodes[src].position
            for dest in (None, *ids):
                if dest == src:
                    continue
                covering = sim._covering(src, dest)
                for name, profile in sim.profiles.items():
                    if dest is None:
                        live = [n for n in sim._neighbours(src, name) if n not in down]
                        alone = len(down) + 1 == len(ids)
                        assert (name in covering) == (alone or profile.range_m is None or bool(live))
                    elif dest in down:
                        assert name in covering
                    else:
                        dist = links.distance(here, sim.nodes[dest].position)
                        assert (name in covering) == profile.covers(dist)
                if dest is None:
                    continue
                if pinned is None and not covering:
                    expected = []  # no viable link: dropped before it is sent
                elif dest in down or (pinned is not None and pinned not in covering):
                    expected = [()]
                else:
                    expected = [(dest,)]
                assert unicast_receivers(sim, src, dest) == expected
