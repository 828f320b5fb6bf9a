"""End-to-end simulator behavior on small scripted scenarios."""

import json
import signal
from dataclasses import replace

import pytest

from swarmlink import crypto, sim as sim_module, wire
from swarmlink.cli import resolve_scenario
from swarmlink.errors import ValidationError
from swarmlink.scenario import scenario_from_dict
from swarmlink.sim import Simulation, report_json, run_scenario

from conftest import base_scenario_dict


def run(d):
    return run_scenario(scenario_from_dict(d))


def test_basic_mesh_delivers_everything():
    report, trace = run(base_scenario_dict())
    assert report["handshakes"]["all_established"]
    assert report["broadcast"]["epochs_reached"] >= 1
    assert report["delivery"]["overall_ratio"] == 1.0
    assert report["delivery"]["duplicate_deliveries"] == 0
    assert report["security_events"] == {}
    assert report["conservation"]["balanced"]


def test_same_seed_same_bytes():
    d = base_scenario_dict()
    r1, t1 = run(d)
    r2, t2 = run(d)
    assert report_json(r1) == report_json(r2)
    assert t1 == t2


def test_different_seed_different_run():
    r1, _ = run(base_scenario_dict(seed=1))
    r2, _ = run(base_scenario_dict(seed=2))
    # deliveries still complete, but the scheduled timeline differs
    assert report_json(r1) != report_json(r2)


def test_epochs_roll_with_short_lifetime():
    d = base_scenario_dict(
        duration_s=10.0,
        protocol={"key_lifetime_s": 2.0, "grace_window_s": 1.0},
    )
    report, _ = run(d)
    assert report["broadcast"]["epochs_reached"] >= 4
    assert report["broadcast"]["rekeys_installed"] >= 8
    assert report["delivery"]["overall_ratio"] == 1.0


def test_star_mode_relays_through_gcs():
    d = base_scenario_dict(mode="star")
    report, _ = run(d)
    assert report["delivery"]["uav_to_uav"]["ratio"] == 1.0
    # uav->uav traffic takes two radio legs in star mode
    assert report["latency_uav_to_uav"]["mean_s"] > report["latency"]["mean_s"] * 0.5


def test_star_mode_with_gcs_down_delivers_nothing_between_uavs():
    d = base_scenario_dict(mode="star")
    d["nodes"][0]["down_at_s"] = 0.0
    report, _ = run(d)
    assert report["delivery"]["uav_to_uav"]["sent"] > 0
    assert report["delivery"]["uav_to_uav"]["delivered"] == 0
    assert report["delivery"]["uav_to_uav"]["ratio"] == 0.0
    assert report["conservation"]["balanced"]


def test_node_down_mid_run_stops_its_traffic():
    d = base_scenario_dict(duration_s=6.0)
    d["nodes"][1]["down_at_s"] = 2.0
    d["traffic"]["stop_s"] = 5.0
    report, _ = run(d)
    # the downed node sent fewer messages than its healthy peer
    pairs = report["delivery"]["pairs"]
    assert pairs["2->3"]["sent"] < pairs["3->2"]["sent"]
    assert report["conservation"]["balanced"]


def test_plaintext_mode_runs_and_leaks():
    d = base_scenario_dict(security={"encryption": False})
    d["adversaries"] = [{"kind": "eavesdrop", "start_s": 0.0, "end_s": 5.0}]
    report, _ = run(d)
    eav = report["adversary"]["eavesdrop"]
    assert eav["observed_packets"] > 0
    # no encryption: every observed packet is recovered
    assert eav["recovered_packets"] == eav["observed_packets"]
    assert report["delivery"]["overall_ratio"] == 1.0


def test_encrypted_mode_leaks_nothing_without_keys():
    d = base_scenario_dict()
    d["adversaries"] = [{"kind": "eavesdrop", "start_s": 0.0, "end_s": 5.0}]
    report, _ = run(d)
    eav = report["adversary"]["eavesdrop"]
    assert eav["observed_packets"] > 0
    assert eav["recovered_packets"] == 0


def test_plaintext_star_rejected():
    d = base_scenario_dict(mode="star", security={"encryption": False})
    with pytest.raises(ValidationError):
        run(d)


def test_trace_lines_are_json_with_timestamps():
    _, trace = run(base_scenario_dict())
    assert trace
    last_t = -1.0
    for line in trace:
        ev = json.loads(line)
        assert "t" in ev and "event" in ev
        assert ev["t"] >= last_t
        last_t = ev["t"]


def test_conservation_identity_over_modes():
    for mode in ("mesh", "star"):
        report, _ = run(base_scenario_dict(mode=mode))
        c = report["conservation"]
        assert c["tx_enqueued"] == c["tx_sent"] + c["tx_dropped"] + c["queued_at_end"]
        assert c["rx_events"] == c["rx_processed"] + c["rx_in_flight_at_end"]
        assert c["balanced"]


def test_simulation_object_exposes_audit_and_duty_log():
    sc = scenario_from_dict(base_scenario_dict())
    sim = Simulation(sc)
    report = sim.run()
    assert sim.audit.originated
    assert isinstance(sim.duty_log, list)
    assert report["delivery"]["sent"] > 0


def test_handshake_retry_exhaustion_marks_unreachable():
    d = base_scenario_dict(duration_s=8.0)
    # 100% loss makes every offer vanish; retries run out, node 3 too
    d["links"] = {"wifi24": {"band": "wifi24", "loss_prob": 1.0}}
    d["protocol"] = {"handshake_timeout_s": 1.0, "handshake_retries": 2}
    report, _ = run(d)
    assert report["handshakes"]["established"] == 0
    assert report["handshakes"]["unreachable"] == [2, 3]
    assert report["handshakes"]["attempts"] == 6  # 3 tries per uav
    assert report["delivery"]["overall_ratio"] == 0.0
    assert report["conservation"]["balanced"]


def test_rekey_resend_until_acked():
    d = base_scenario_dict(
        duration_s=12.0,
        links={"wifi24": {"band": "wifi24", "loss_prob": 0.4}},
        protocol={"key_lifetime_s": 3.0, "handshake_retries": 8, "rekey_resend_interval_s": 0.5},
    )
    report, _ = run(d)
    b = report["broadcast"]
    assert b["rekeys_installed"] > 0
    assert b["acks_received"] > 0
    # under 40% loss some rekeys or acks must have needed another round
    assert b["rekey_resends"] > 0


# One crafted transmission per first byte the receive dispatch knows, plus
# an empty one and an unknown byte; every one must be counted, not crash.
CRAFTED = {
    "empty": ("data", b""),
    "unknown_byte": ("data", b"\x7f" + bytes(40)),
    "short_offer": ("offer", bytes([wire.MSG_KEY_OFFER]) + bytes(20)),
    "short_response": ("response", bytes([wire.MSG_KEY_RESPONSE]) + bytes(20)),
    # 20 bytes: a rekey header declaring a 1-byte box, too short for the tag.
    "short_rekey": (
        "rekey",
        bytes([wire.MSG_REKEY]) + b"\x00\x01\x00\x02" + bytes(crypto.NONCE_LEN) + b"\x00\x01\x00",
    ),
    "short_ack": ("ack", bytes([wire.MSG_REKEY_ACK]) + b"\x00\x02"),
    "short_data": ("data", bytes([wire.PACKET_VERSION]) + bytes(20)),
}


def _run_with_crafted(kind, crafted):
    sim = Simulation(scenario_from_dict(base_scenario_dict()))
    sim._schedule(
        1.5, "timer", lambda: sim._enqueue(sim.gcs, sim_module._TxItem(kind, crafted, 2))
    )
    report = sim.run()
    assert sim.counters.get("rx_unparseable") == 1
    assert report["conservation"]["balanced"]
    assert report["delivery"]["overall_ratio"] == 1.0  # traffic after t=1.5 still flows


def test_crafted_short_rekey_is_unparseable_and_the_run_goes_on():
    _run_with_crafted(*CRAFTED["short_rekey"])


@pytest.mark.parametrize("case", sorted(set(CRAFTED) - {"short_rekey"}))
def test_crafted_message_with_any_first_byte_is_unparseable(case):
    _run_with_crafted(*CRAFTED[case])


def test_duty_cycle_stress_runs_past_its_window():
    # Past 60 s the sub-GHz meters roll their window over, and at t=60.02936
    # a deferral lands exactly on the expiry of the burst that caused it. A
    # hang there fails the test through the alarm instead of stalling it.
    sc = replace(resolve_scenario("duty_cycle_stress"), duration_s=61.0)

    def stalled(_signum, _frame):
        raise TimeoutError("duty_cycle_stress at 61 s did not finish")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(20)
    try:
        report, _ = run_scenario(sc)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert report["conservation"]["balanced"]
    assert report["duration_s"] == 61.0
