"""Scenario schema loading and validation tests."""

import json

import pytest

from swarmlink.errors import ValidationError
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
    d["traffic"]["stop_s"] = 0.5
    d["traffic"]["start_s"] = 1.0
    expect_invalid(d, "stop_s")

    d = base_scenario_dict()
    d["traffic"]["rate_hx"] = 5.0  # a typo once ran at the default rate
    expect_invalid(d, "traffic.rate_hx")


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


def test_link_policy_validation():
    d = base_scenario_dict(link_policy={"mode": "pinned", "pinned_link": "wifi24"})
    assert scenario_from_dict(d).link_policy.pinned_link == "wifi24"

    d = base_scenario_dict(link_policy={"mode": "pinned"})
    expect_invalid(d, "pinned_link")

    d = base_scenario_dict(link_policy={"mode": "sticky"})
    expect_invalid(d, "mode")

    d = base_scenario_dict(link_policy={"hysteresis": 0.5})
    expect_invalid(d, "link_policy.hysteresis")


def test_mode_validation():
    d = base_scenario_dict(mode="ring")
    expect_invalid(d, "mode")


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
