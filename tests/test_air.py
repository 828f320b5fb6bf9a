"""Who hears a send: `air.Air`'s one reach cache.

Each (sender, destination) entry holds the links that cover the send and
every link's receivers, filled whole on first use. These tests pin every
entry, before and after each node goes down, to
`reference_sim.BruteForceAir`, which recomputes it from its definition on
every call, check how the links that cover a send feed the link selector,
and check which receivers a send is handed.
"""

import math
import typing
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmlink import links, scenario
from swarmlink.air import Air
from swarmlink.errors import NoViableLink
from swarmlink.scenario import scenario_from_dict
from swarmlink.sim import Simulation, _TxItem

from conftest import base_scenario_dict
from reference_sim import BruteForceAir

DEFAULTS = links.default_profiles()


def profiles(**ranges):
    """Default profiles of these bands, in this order, at these ranges."""
    return {name: replace(DEFAULTS[name], range_m=r) for name, r in ranges.items()}


def air_over(positions, link_profiles, cls=Air):
    """An Air of class `cls` over nodes 1..n at these positions."""
    return cls({i: pos for i, pos in enumerate(positions, 1)}, link_profiles)


def selector(link_profiles):
    """A node's selector over these links, with the scenario's default policy."""
    return links.LinkSelector(link_names=tuple(link_profiles))


coordinate = st.floats(min_value=-800.0, max_value=800.0, allow_nan=False)
link_range = st.one_of(st.none(), st.floats(min_value=1.0, max_value=1200.0))

NODE_2_GOES_DOWN = dict(  # node 2 is node 1's only WiFi neighbour, then goes down
    positions=[(0.0, 0.0), (100.0, 0.0), (1000.0, 0.0)], wifi_range=300.0, subghz_range=None, victims=[2],
)


@settings(max_examples=80, deadline=None)
@example(**NODE_2_GOES_DOWN)
@example(  # every peer goes down: the last one left reaches nobody, on every link
    positions=[(0.0, 0.0), (100.0, 0.0), (1000.0, 0.0)], wifi_range=300.0, subghz_range=500.0, victims=[2, 3],
)
@given(
    positions=st.lists(st.tuples(coordinate, coordinate), min_size=2, max_size=12),
    wifi_range=link_range,
    subghz_range=link_range,
    victims=st.lists(st.integers(1, 12), max_size=4),
)
def test_every_reach_entry_equals_its_definition_as_nodes_go_down(positions, wifi_range, subghz_range, victims):
    # Every sender, down or not, to every destination and as a broadcast.
    # The first round fills the cache; each later round follows a node
    # going down, which must clear it, and refills it.
    link_profiles = profiles(wifi24=wifi_range, subghz=subghz_range)
    air, brute = (air_over(positions, link_profiles, cls) for cls in (Air, BruteForceAir))
    pairs = [(src, dest) for src in air.positions for dest in (None, *air.positions) if dest != src]
    filled = {}
    for victim in (None, *victims):
        went_down = victim in air.positions
        if went_down:
            air.node_down(victim)
            brute.node_down(victim)
        for pair in pairs:
            entry = air.reach(*pair)
            assert entry == brute.reach(*pair)
            assert list(entry[1]) == list(link_profiles)  # every link, filled at once
            if went_down:
                assert entry is not filled[pair]
            filled[pair] = entry
        for pair in pairs:
            assert air.reach(*pair) is filled[pair]  # held until the next node goes down


WIFI_ONLY = {"wifi24": DEFAULTS["wifi24"]}
WIFI_AND_SUBGHZ = {"wifi24": DEFAULTS["wifi24"], "subghz": DEFAULTS["subghz"]}


def test_no_live_peer_means_every_link_covers():
    # The only peer is out of WiFi range, and down: nothing is reachable,
    # so the broadcast goes out on the configured link and reaches nobody.
    air = air_over([(0.0, 0.0), (1000.0, 0.0)], WIFI_ONLY)
    air.node_down(2)
    covering, heard = air.reach(1, None)
    assert covering == {"wifi24"}
    assert selector(WIFI_ONLY).select(WIFI_ONLY, covering, 0.0).name == "wifi24"
    assert heard == {"wifi24": ()}


def test_live_peers_out_of_range_raise_no_viable_link():
    air = air_over([(0.0, 0.0), (1000.0, 0.0), (0.0, 1000.0)], WIFI_ONLY)
    covering = air.reach(1, None)[0]
    assert covering == frozenset()
    with pytest.raises(NoViableLink):
        selector(WIFI_ONLY).select(WIFI_ONLY, covering, 0.0)


def test_down_peer_drops_out_of_coverage_and_receivers():
    # Node 2 is the GCS's only WiFi neighbour; node 3 hears sub-GHz only.
    air = air_over([(0.0, 0.0), (100.0, 0.0), (1000.0, 0.0)], WIFI_AND_SUBGHZ)
    assert air.reach(1, None)[1]["wifi24"] == (2,)
    air.node_down(2)
    covering, heard = air.reach(1, None)
    assert "wifi24" not in covering
    assert "subghz" in covering
    assert heard == {"wifi24": (), "subghz": (3,)}


def test_hysteresis_holds_a_link_that_still_has_a_live_neighbour():
    air = air_over([(0.0, 0.0), (100.0, 0.0), (1000.0, 0.0)], WIFI_AND_SUBGHZ)
    sel = selector(WIFI_AND_SUBGHZ)
    assert sel.select(WIFI_AND_SUBGHZ, air.reach(1, None)[0], 0.0).name == "wifi24"
    for _ in range(20):
        sel.update_health("wifi24", 0.0)
    # inside the hold the active link is kept although sub-GHz scores better
    assert sel.select(WIFI_AND_SUBGHZ, air.reach(1, None)[0], 1.0).name == "wifi24"
    assert sel.select(WIFI_AND_SUBGHZ, air.reach(1, None)[0], 2.5).name == "subghz"


def test_hold_is_released_when_the_active_link_loses_its_last_live_neighbour():
    air = air_over([(0.0, 0.0), (100.0, 0.0), (1000.0, 0.0)], WIFI_AND_SUBGHZ)
    sel = selector(WIFI_AND_SUBGHZ)
    assert sel.select(WIFI_AND_SUBGHZ, air.reach(1, None)[0], 0.0).name == "wifi24"
    air.node_down(2)
    assert sel.select(WIFI_AND_SUBGHZ, air.reach(1, None)[0], 0.5).name == "subghz"


def simulation(positions, link_specs, **overrides):
    """Mesh simulation over nodes 1..n at these positions, node 1 the GCS."""
    nodes = [
        {"id": i + 1, "role": "gcs" if i == 0 else "uav", "position": list(pos)}
        for i, pos in enumerate(positions)
    ]
    return Simulation(scenario_from_dict(base_scenario_dict(nodes=nodes, links=link_specs, **overrides)))


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
@example(**NODE_2_GOES_DOWN, pinned=None)
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
def test_a_queued_unicast_is_handed_its_live_covered_destination_or_nobody(
    positions, wifi_range, subghz_range, pinned, victims
):
    # Through Simulation._enqueue, as nodes go down: not a down destination,
    # and not one the pinned link does not cover.
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
        down = sim.air.down
        for src in ids:
            if src in down:
                continue
            for dest in ids:
                if dest == src:
                    continue
                covering = sim.air.reach(src, dest)[0]
                if pinned is None and not covering:
                    expected = []  # no viable link: dropped before it is sent
                elif dest in down or (pinned is not None and pinned not in covering):
                    expected = [()]
                else:
                    expected = [(dest,)]
                assert unicast_receivers(sim, src, dest) == expected


def test_no_link_range_changes_mid_run():
    assert "range_m" not in typing.get_args(scenario.MutableLinkField), (
        "a link event may now change range_m: air.Air's reach cache is exact only while "
        "range is fixed (see air.py's docstring)"
    )
