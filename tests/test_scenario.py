"""Scenario schema loading and validation tests."""

import json
import math
from dataclasses import replace

import pytest

from swarmlink.errors import ValidationError
from swarmlink.sim import Simulation
from swarmlink.scenario import Scenario, load_scenario, scenario_from_dict

from conftest import base_scenario_dict


def expect_invalid(d, field_fragment):
    with pytest.raises(ValidationError) as exc_info:
        scenario_from_dict(d)
    assert field_fragment in exc_info.value.field, exc_info.value.field


def test_minimal_scenario_loads():
    sc = scenario_from_dict(base_scenario_dict())
    assert sc.name == "unit"
    assert sc.gcs().id == 1
    assert [n.id for n in sc.uavs()] == [2, 3]
    assert sc.node_ids() == (1, 2, 3)
    assert sc.protocol.hop_limit == 8  # defaults fill in
    assert sc.link_policy.mode == "adaptive"
    d = base_scenario_dict()
    del d["mode"]
    assert scenario_from_dict(d).mode == "mesh"
    d = base_scenario_dict(duration_s=6)
    assert type(scenario_from_dict(d).duration_s) is int  # values are kept as given


def test_top_level_field_types():
    expect_invalid(base_scenario_dict(duration_s="x"), "duration_s")
    expect_invalid(base_scenario_dict(seed=True), "seed")  # bool is not an int
    expect_invalid(base_scenario_dict(name=5), "name")
    expect_invalid(base_scenario_dict(name=""), "name")
    expect_invalid(base_scenario_dict(nodes={}), "nodes")
    expect_invalid(base_scenario_dict(links={}), "links")


def test_security_field_types():
    expect_invalid(base_scenario_dict(security={"encryption": "no"}), "security.encryption")
    expect_invalid(base_scenario_dict(security={"leak_epochs": 3}), "security.leak_epochs")
    expect_invalid(base_scenario_dict(security={"leak_epochs": [0]}), "security.leak_epochs[0]")


def test_defaults_from_band():
    sc = scenario_from_dict(base_scenario_dict(links={"wifi24": {"band": "wifi24"}}))
    wifi = sc.links["wifi24"]
    assert wifi.bitrate_bps > 1e6
    assert wifi.mtu_bytes == 1500


def test_link_overrides_merge_over_band_defaults():
    d = base_scenario_dict(links={"wifi24": {"band": "wifi24", "loss_prob": 0.25, "range_m": 42.0}})
    wifi = scenario_from_dict(d).links["wifi24"]
    assert wifi.loss_prob == 0.25
    assert wifi.range_m == 42.0

    d = base_scenario_dict(links={"wifi24": {"band": "wifi24", "los_prob": 0.25}})
    expect_invalid(d, "links.wifi24.los_prob")  # a typo is not ignored

    d = base_scenario_dict(links={"wifi24": {"band": "wifi24", "name": "other"}})
    expect_invalid(d, "links.wifi24")  # a link's name is its key

    d = base_scenario_dict(links={"wifi24": {"mtu_bytes": 1000.5}})
    expect_invalid(d, "links.wifi24.mtu_bytes")

    d = base_scenario_dict(links={"wifi24": {"loss_prob": True}})
    expect_invalid(d, "links.wifi24.loss_prob")


def test_sender_id_forms():
    sc = scenario_from_dict(base_scenario_dict())
    assert sc.sender_ids() == (2, 3)
    sc = scenario_from_dict(base_scenario_dict(traffic={"senders": "all", "rate_hz": 1.0, "payload_bytes": 16}))
    assert sc.sender_ids() == (1, 2, 3)
    sc = scenario_from_dict(base_scenario_dict(traffic={"senders": "gcs", "rate_hz": 1.0, "payload_bytes": 16}))
    assert sc.sender_ids() == (1,)
    sc = scenario_from_dict(base_scenario_dict(traffic={"senders": [3], "rate_hz": 1.0, "payload_bytes": 16}))
    assert sc.sender_ids() == (3,)


def test_node_shape_errors():
    d = base_scenario_dict()
    d["nodes"] = []
    expect_invalid(d, "nodes")

    d = base_scenario_dict()
    d["nodes"][1]["role"] = "gcs"  # second gcs
    expect_invalid(d, "nodes")

    d = base_scenario_dict()
    d["nodes"] = [d["nodes"][0]]  # gcs only
    expect_invalid(d, "nodes")

    d = base_scenario_dict()
    d["nodes"][2]["id"] = 2  # duplicate
    expect_invalid(d, ".id")

    d = base_scenario_dict()
    d["nodes"][1]["role"] = "tower"
    expect_invalid(d, ".role")

    d = base_scenario_dict()
    d["nodes"][1]["down_at_s"] = -1.0
    expect_invalid(d, "down_at_s")

    d = base_scenario_dict()
    d["nodes"][1]["postion"] = [1.0, 2.0]
    expect_invalid(d, "nodes[1].postion")

    d = base_scenario_dict()
    del d["nodes"][2]["role"]
    expect_invalid(d, "nodes[2].role")

    d = base_scenario_dict()
    d["nodes"][1]["position"] = [math.nan, 0.0]
    expect_invalid(d, "nodes[1].position[0]")

    d = base_scenario_dict()
    d["nodes"][1]["position"] = 5
    expect_invalid(d, "nodes[1].position")

    d = base_scenario_dict()
    d["nodes"][1]["position"] = [1.0, 2.0, 3.0]
    expect_invalid(d, "nodes[1].position")

    d = base_scenario_dict()
    d["nodes"][1]["id"] = "2"
    expect_invalid(d, "nodes[1].id")


def test_traffic_errors():
    d = base_scenario_dict()
    d["traffic"]["payload_bytes"] = 4  # too small to carry the audit uid
    expect_invalid(d, "payload_bytes")

    d = base_scenario_dict()
    d["traffic"]["payload_bytes"] = 300
    expect_invalid(d, "payload_bytes")

    d = base_scenario_dict()
    d["traffic"]["rate_hz"] = -1.0
    expect_invalid(d, "rate_hz")

    d = base_scenario_dict()
    d["traffic"]["senders"] = "everyone"
    expect_invalid(d, "senders")

    d = base_scenario_dict()
    d["traffic"]["senders"] = [99]
    expect_invalid(d, "senders")

    d = base_scenario_dict()
    d["traffic"]["senders"] = [2, 2]  # once doubled node 2's rate
    with pytest.raises(ValidationError, match="duplicate node id 2") as exc_info:
        scenario_from_dict(d)
    assert exc_info.value.field == "traffic.senders"

    d = base_scenario_dict()
    d["traffic"]["stop_s"] = 0.5
    d["traffic"]["start_s"] = 1.0
    expect_invalid(d, "stop_s")

    d = base_scenario_dict()
    d["traffic"]["rate_hx"] = 5.0  # a typo once ran at the default rate
    expect_invalid(d, "traffic.rate_hx")

    d = base_scenario_dict()
    d["traffic"]["payload_bytes"] = 24.5  # once crashed mid-run
    expect_invalid(d, "traffic.payload_bytes")

    d = base_scenario_dict()
    d["traffic"]["senders"] = 5
    expect_invalid(d, "traffic.senders")

    d = base_scenario_dict()
    d["traffic"]["rate_hz"] = math.inf
    expect_invalid(d, "traffic.rate_hz")


def test_payload_must_fit_tightest_link():
    # a link with a tiny mtu caps the usable payload size
    d = base_scenario_dict(
        links={
            "wifi24": {"band": "wifi24"},
            "subghz": {"band": "subghz", "mtu_bytes": 64},
        }
    )
    d["traffic"]["payload_bytes"] = 26
    expect_invalid(d, "payload_bytes")
    d["traffic"]["payload_bytes"] = 25  # 64 - 34 overhead - 1 count - 4 header
    scenario_from_dict(d)


def test_protocol_field_ranges():
    d = base_scenario_dict(protocol={"key_lifetime_s": -3.0})
    expect_invalid(d, "protocol")

    d = base_scenario_dict(protocol={"hop_limit": 300})
    expect_invalid(d, "protocol")

    d = base_scenario_dict(protocol={"rekey_resend_interval_s": 0.0})
    expect_invalid(d, "rekey_resend_interval_s")

    d = base_scenario_dict(protocol={"rekey_resend_interval_s": None})
    assert scenario_from_dict(d).protocol.rekey_resend_interval_s is None

    d = base_scenario_dict(protocol={"hop_limt": 2})
    expect_invalid(d, "protocol.hop_limt")

    d = base_scenario_dict(protcol={"hop_limit": 2})  # a misspelt block
    expect_invalid(d, "protcol")

    d = base_scenario_dict(protocol=[2])
    expect_invalid(d, "protocol")

    d = base_scenario_dict(protocol={"hop_limit": 2.5})
    expect_invalid(d, "protocol.hop_limit")

    d = base_scenario_dict(protocol={"dedup_capacity": 1.5})
    expect_invalid(d, "protocol.dedup_capacity")


@pytest.mark.parametrize("block, field, value", [
    ("traffic", "rate_hz", 1e17),
    ("protocol", "key_lifetime_s", 1e-17),
    ("protocol", "rekey_resend_interval_s", 1e-17),
])
def test_a_step_the_clock_cannot_advance_by_is_rejected(block, field, value):
    # Each once loaded, and its run repeated one simulated instant forever.
    d = base_scenario_dict()
    d.setdefault(block, {})[field] = value
    with pytest.raises(ValidationError) as exc_info:
        scenario_from_dict(d)
    assert exc_info.value.field == f"{block}.{field}"
    # A step that does advance the clock is allowed, however many events it takes.
    d[block][field] = 1e9 if field == "rate_hz" else 1e-9
    scenario_from_dict(d)


def test_adversary_validation():
    d = base_scenario_dict(adversaries=[{"kind": "eavesdrop", "start_s": 0.0, "end_s": 2.0}])
    sc = scenario_from_dict(d)
    assert sc.adversaries[0].kind == "eavesdrop"

    d = base_scenario_dict(adversaries=[{"kind": "jammer", "start_s": 0.0, "end_s": 2.0}])
    expect_invalid(d, "kind")

    d = base_scenario_dict(adversaries=[{"kind": "replay_injector", "start_s": 3.0, "end_s": 1.0}])
    expect_invalid(d, "end_s")

    d = base_scenario_dict(adversaries=[{"kind": "eavesdrop", "strat_s": 1.0}])
    expect_invalid(d, "adversaries[0].strat_s")

    d = base_scenario_dict(adversaries=[{"start_s": 1.0}])
    expect_invalid(d, "adversaries[0].kind")

    # Two specs of one kind would both run and share rng_adv; one is a typo.
    d = base_scenario_dict(
        adversaries=[{"kind": "replay_injector", "injections": 5}, {"kind": "eavesdrop"},
                     {"kind": "replay_injector", "injections": 9}]
    )
    expect_invalid(d, "adversaries[2].kind")

    d = base_scenario_dict(adversaries=[{"kind": "replay_injector", "injections": 2.5}])
    expect_invalid(d, "adversaries[0].injections")


def test_link_event_validation():
    ok = base_scenario_dict(link_events=[{"at_s": 2.0, "link": "wifi24", "set": {"loss_prob": 0.9}}])
    assert scenario_from_dict(ok).link_events[0].at_s == 2.0

    d = base_scenario_dict(link_events=[{"at_s": 2.0, "link": "nope", "set": {"loss_prob": 0.9}}])
    expect_invalid(d, ".link")

    d = base_scenario_dict(link_events=[{"at_s": 2.0, "link": "wifi24", "set": {}}])
    expect_invalid(d, ".set")

    d = base_scenario_dict(link_events=[{"at_s": 2.0, "link": "wifi24", "set": {"range_m": 5.0}}])
    expect_invalid(d, "range_m")  # only loss/bitrate/latency may change mid-run

    d = base_scenario_dict(link_events=[{"at": 2.0, "link": "wifi24", "set": {"loss_prob": 0.9}}])
    expect_invalid(d, "link_events[0].at")

    d = base_scenario_dict(link_events=[{"at_s": 2.0, "link": "wifi24", "set": {"loss_prob": "x"}}])
    expect_invalid(d, "link_events[0].set.loss_prob")

    d = base_scenario_dict(link_events=[{"at_s": 2.0, "link": "wifi24", "set": {"loss_prob": 1.5}}])
    expect_invalid(d, "link_events[0].set.loss_prob")  # LinkProfile's own bound


def test_link_policy_validation():
    d = base_scenario_dict(link_policy={"mode": "pinned", "pinned_link": "wifi24"})
    assert scenario_from_dict(d).link_policy.pinned_link == "wifi24"

    d = base_scenario_dict(link_policy={"mode": "pinned"})
    expect_invalid(d, "pinned_link")

    d = base_scenario_dict(link_policy={"mode": "sticky"})
    expect_invalid(d, "mode")

    d = base_scenario_dict(link_policy={"hysteresis": 0.5})
    expect_invalid(d, "link_policy.hysteresis")

    d = base_scenario_dict(link_policy={"mode": "pinned", "pinned_link": 5})
    expect_invalid(d, "link_policy.pinned_link")

    # pinned_link is read only in pinned mode, so anywhere else it is an error
    d = base_scenario_dict(link_policy={"pinned_link": "nonexistent"})
    expect_invalid(d, "link_policy.pinned_link")

    d = base_scenario_dict(link_policy={"mode": "adaptive", "pinned_link": "wifi24"})
    expect_invalid(d, "link_policy.pinned_link")


def test_mode_validation():
    d = base_scenario_dict(mode="ring")
    expect_invalid(d, "mode")

    d = base_scenario_dict(mode="star", security={"encryption": False})
    expect_invalid(d, "security.encryption")  # the plaintext baseline floods


@pytest.mark.parametrize(
    "overrides",
    [{"mode": "star", "security": {"leak_epochs": [1]}}, {"security": {"encryption": False, "leak_epochs": [1]}}],
    ids=["star", "plaintext_mesh"],
)
def test_leak_epochs_are_refused_where_no_broadcast_epoch_is_minted(overrides):
    expect_invalid(base_scenario_dict(**overrides), "security.leak_epochs")
    scenario_from_dict(base_scenario_dict(security={"leak_epochs": [1]}))  # an encrypted mesh leaks


def test_replace_rechecks_the_whole_scenario():
    sc = scenario_from_dict(base_scenario_dict(security={"encryption": False}))
    with pytest.raises(ValidationError) as exc_info:
        replace(sc, mode="star")
    assert exc_info.value.field == "security.encryption"


def test_a_scenario_built_in_python_needs_a_link():
    sc = scenario_from_dict(base_scenario_dict())
    with pytest.raises(ValidationError) as exc_info:
        replace(sc, links={})
    assert exc_info.value.field == "links"


def test_validate_runs_once_per_load_and_set_up(monkeypatch):
    calls = []
    original = Scenario.validate
    monkeypatch.setattr(Scenario, "validate", lambda self: calls.append(1) or original(self))
    Simulation(scenario_from_dict(base_scenario_dict()))
    assert len(calls) == 1


def test_load_scenario_from_file(tmp_path):
    p = tmp_path / "sc.json"
    p.write_text(json.dumps(base_scenario_dict()))
    sc = load_scenario(p)
    assert isinstance(sc, Scenario)
    assert sc.name == "unit"


def test_load_scenario_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ValidationError):
        load_scenario(p)

    p.write_bytes(b'{"name": "\xff"}')  # not UTF-8
    with pytest.raises(ValidationError):
        load_scenario(p)

    p.write_text("[" * 100_000)  # nested deeper than the parser recurses
    with pytest.raises(ValidationError):
        load_scenario(p)

    p.write_text("[1, 2]")
    with pytest.raises(ValidationError):
        load_scenario(p)


@pytest.mark.parametrize(
    "honest, repeated, field",
    [
        ('"seed": 1', '"seed": 1, "seed": 2', "seed"),
        ('"rate_hz": 2.0', '"rate_hz": 2.0, "rate_hz": 3.0', "traffic.rate_hz"),
        ('"loss_prob": 0.0', '"loss_prob": 0.0, "loss_prob": 0.5', "links.wifi24.loss_prob"),
        ('"role": "uav"', '"role": "uav", "role": "gcs"', "nodes[1].role"),
    ],
)
def test_load_scenario_rejects_a_repeated_key(tmp_path, honest, repeated, field):
    # json keeps the last value of a repeated key, so the file once loaded
    # as if the first were not there.
    p = tmp_path / "sc.json"
    text = json.dumps(base_scenario_dict())
    assert honest in text
    p.write_text(text.replace(honest, repeated, 1))
    with pytest.raises(ValidationError, match="duplicate key") as exc_info:
        load_scenario(p)
    assert exc_info.value.field == field
