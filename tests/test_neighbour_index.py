"""Neighbour index and broadcast link choice in the simulator.

A broadcast costs work in proportion to its in-range receivers because
each (node, link) keeps its in-range peers in node order. These tests pin
that index to the brute-force definition (every other node the link's
range covers) and check how broadcast coverage feeds the link selector.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmlink import links
from swarmlink.errors import NoViableLink
from swarmlink.scenario import scenario_from_dict
from swarmlink.sim import Simulation

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
    covers = sim._broadcast_coverage(gcs)
    assert gcs.selector.select(sim.profiles, covers, 0.0).name == "wifi24"
    assert sim._live_neighbours(1, "wifi24") == []


def test_live_peers_out_of_range_raise_no_viable_link():
    sim = simulation([(0.0, 0.0), (1000.0, 0.0), (0.0, 1000.0)], WIFI_ONLY)
    covers = sim._broadcast_coverage(sim.nodes[1])
    with pytest.raises(NoViableLink):
        sim.nodes[1].selector.select(sim.profiles, covers, 0.0)


def test_down_peer_drops_out_of_coverage_and_receivers():
    # Node 2 is the GCS's only WiFi neighbour; node 3 hears sub-GHz only.
    sim = simulation([(0.0, 0.0), (100.0, 0.0), (1000.0, 0.0)], WIFI_AND_SUBGHZ)
    assert sim._live_neighbours(1, "wifi24") == [2]
    sim._node_down(sim.nodes[2])
    covers = sim._broadcast_coverage(sim.nodes[1])
    assert not covers(sim.profiles["wifi24"])
    assert covers(sim.profiles["subghz"])
    assert sim._live_neighbours(1, "subghz") == [3]
    assert sim._neighbours(1, "wifi24") == [2]  # the index itself keeps it


def test_hysteresis_holds_a_link_that_still_has_a_live_neighbour():
    sim = simulation([(0.0, 0.0), (100.0, 0.0), (1000.0, 0.0)], WIFI_AND_SUBGHZ)
    gcs = sim.nodes[1]
    sel = gcs.selector
    assert sel.select(sim.profiles, sim._broadcast_coverage(gcs), 0.0).name == "wifi24"
    for _ in range(20):
        sel.update_health("wifi24", 0.0)
    # inside the hold the active link is kept although sub-GHz scores better
    assert sel.select(sim.profiles, sim._broadcast_coverage(gcs), 1.0).name == "wifi24"
    assert sel.select(sim.profiles, sim._broadcast_coverage(gcs), 2.5).name == "subghz"


def test_hold_is_released_when_the_active_link_loses_its_last_live_neighbour():
    sim = simulation([(0.0, 0.0), (100.0, 0.0), (1000.0, 0.0)], WIFI_AND_SUBGHZ)
    gcs = sim.nodes[1]
    sel = gcs.selector
    assert sel.select(sim.profiles, sim._broadcast_coverage(gcs), 0.0).name == "wifi24"
    sim._node_down(sim.nodes[2])
    assert sel.select(sim.profiles, sim._broadcast_coverage(gcs), 0.5).name == "subghz"


@settings(max_examples=40, deadline=None)
@example(  # node 2 is node 1's only WiFi neighbour, then goes down
    positions=[(0.0, 0.0), (100.0, 0.0), (1000.0, 0.0)], wifi_range=300.0, subghz_range=None, victims=[2]
)
@given(
    positions=st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=8),
    wifi_range=link_range,
    subghz_range=link_range,
    victims=st.lists(st.integers(1, 8), max_size=4),
)
def test_cached_reach_equals_its_definition_as_nodes_go_down(positions, wifi_range, subghz_range, victims):
    # The first round fills the per-pair cache; each later round follows a
    # node going down, which must clear it.
    sim = simulation(
        positions,
        {
            "wifi24": {"band": "wifi24", "range_m": wifi_range},
            "subghz": {"band": "subghz", "range_m": subghz_range},
        },
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
                covers, unicast = sim._reach(sim.nodes[src], dest)
                for name, profile in sim.profiles.items():
                    if dest is None:
                        live = [n for n in sim._neighbours(src, name) if n not in down]
                        alone = len(down) + 1 == len(ids)
                        assert covers(profile) == (alone or profile.range_m is None or bool(live))
                    elif dest in down:
                        assert covers(profile) and unicast == ()
                    else:
                        dist = links.distance(here, sim.nodes[dest].position)
                        assert covers(profile) == profile.covers(dist)
                        assert unicast == (dest,)
