"""End-to-end simulator behavior on small scripted scenarios."""

import gc
import json
import math
import random
import signal
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmlink import codec, crypto, handshake, mesh, rekey, report as report_module, sim as sim_module, wire
from swarmlink.cli import resolve_scenario
from swarmlink.errors import UnknownEpoch, ValidationError
from swarmlink.golden import generated_scenarios, locked_scenarios
from swarmlink.metrics import Counters, render_json
from swarmlink.rekey import BroadcastKey
from swarmlink.scenario import scenario_from_dict
from swarmlink.sim import Simulation, run_scenario

from conftest import base_scenario_dict
from reference_sim import Reference


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
    assert render_json(r1) == render_json(r2)
    assert t1 == t2


def test_different_seed_different_run():
    r1, _ = run(base_scenario_dict(seed=1))
    r2, _ = run(base_scenario_dict(seed=2))
    # deliveries still complete, but the scheduled timeline differs
    assert render_json(r1) != render_json(r2)


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
    # No UAV ever gets a session, so every message is skipped before sealing.
    traffic = report["traffic"]
    assert traffic["skipped_no_session"] == traffic["messages_originated"] > 0
    assert traffic["frames_sealed"] == 0


def test_node_down_mid_run_stops_its_traffic():
    d = base_scenario_dict(duration_s=6.0)
    d["nodes"][1]["down_at_s"] = 2.0
    d["traffic"]["stop_s"] = 5.0
    report, _ = run(d)
    # the downed node sent fewer messages than its healthy peer
    pairs = report["delivery"]["pairs"]
    assert pairs["2->3"]["sent"] < pairs["3->2"]["sent"]
    assert report["conservation"]["balanced"]


def test_a_tied_event_keeps_the_clock_time_object():
    # Scenario times keep their JSON type: node 2 goes down at the int 2 and
    # a link event ties it at the float 2.0. run() moves `now` only to a
    # later time, as max() would, so the link event's line keeps the int's text.
    d = base_scenario_dict(link_events=[{"at_s": 2.0, "link": "wifi24", "set": {"loss_prob": 0.5}}])
    d["nodes"][1]["down_at_s"] = 2
    _, trace = run(d)
    lines = [line for line in trace if json.loads(line)["event"] in ("node_down", "link_event")]
    assert lines == [
        '{"event": "node_down", "node": 2, "t": 2}',
        '{"event": "link_event", "link": "wifi24", "set": {"loss_prob": 0.5}, "t": 2}',
    ]


def test_plaintext_mode_runs_and_leaks():
    d = base_scenario_dict(security={"encryption": False})
    d["adversaries"] = [{"kind": "eavesdrop", "start_s": 0.0, "end_s": 5.0}]
    report, _ = run(d)
    eav = report["adversary"]["eavesdrop"]
    assert eav["observed_packets"] > 0
    # no encryption: every observed packet is recovered
    assert eav["recovered_packets"] == eav["observed_packets"]
    assert report["delivery"]["overall_ratio"] == 1.0


def test_a_tap_free_plaintext_flood_parses_no_frame(monkeypatch):
    # Every receiver opens under the null key, and a packet returns the
    # frame it was sealed from, as an encrypted flood's do.
    parses = []
    real = codec.Frame.from_bytes
    monkeypatch.setattr(codec.Frame, "from_bytes", lambda data: parses.append(data) or real(data))
    plain = resolve_scenario("mesh_5_lossless")
    report = Simulation(replace(plain, security=replace(plain.security, encryption=False))).run()
    assert report["delivery"]["overall_ratio"] == 1.0 and report["delivery"]["delivered"] > 0
    assert parses == []


def count_null_ops(monkeypatch):
    """Record every call of the null cipher's encrypt and decrypt from here on."""
    calls = []
    for op in ("encrypt", "decrypt"):
        real = getattr(crypto._NULL_CIPHER, op)
        monkeypatch.setattr(crypto._NULL_CIPHER, op, lambda *a, op=op, real=real: calls.append(op) or real(*a))
    return calls


@pytest.mark.parametrize(
    "name, null_ops",
    [("contested13_replay", []), ("star9_mitm_replay", []), ("plain9_replay_down", ["encrypt"])],
)
def test_the_null_cipher_runs_only_in_a_plaintext_run(monkeypatch, name, null_ops):
    # A plaintext run seals under the null key, and every receiver takes
    # the frame its packet's seal kept; its replayed bytes are all refused, as
    # duplicates or by a replay window, before an open. So nothing runs the
    # null decrypt.
    calls = count_null_ops(monkeypatch)
    run_scenario(scenario_from_dict(generated_scenarios()[name]))
    assert sorted(set(calls)) == null_ops


def test_a_plaintext_packet_parsed_from_bytes_runs_the_null_decrypt(monkeypatch):
    calls = count_null_ops(monkeypatch)
    frame = codec.Frame(messages=(codec.TelemetryMessage(1, 2, b"clear"),))
    sealed = codec.seal_packet_plain(2, 0, 3, frame, codec.PacketCounters())
    assert codec.open_packet_plain(codec.ReplayWindow(), sealed) is frame
    assert calls == ["encrypt"]
    parsed = codec.WirePacket.from_bytes(sealed.to_bytes())
    assert codec.open_packet_plain(codec.ReplayWindow(), parsed) == frame
    assert calls == ["encrypt", "decrypt"]


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


trace_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.floats(-1e6, 1e6).map(lambda t: round(t, 9)),
    st.sampled_from([1e-7, 1e16, -0.0, 0.1 + 0.2]),
    st.text(),  # non-ASCII and control characters included
)
trace_values = st.recursive(
    trace_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(fields=st.dictionaries(st.text(max_size=10), trace_values, max_size=6), t=trace_scalars)
def test_trace_lines_are_exactly_what_json_dumps_writes(fields, t):
    entry = {"t": t, **fields}
    expected = json.dumps(entry, sort_keys=True)
    assert report_module._encode_line(entry) == expected


# A value of each JSON type a trace field declares.
trace_field_values = {
    int: st.integers(-(2**70), 2**70),
    float: st.one_of(st.floats(), st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e16, 1e-7])),
    # Non-ASCII, control characters, quotes, backslashes and a lone surrogate.
    str: st.one_of(st.text(), st.text(st.sampled_from('\x00\x1f\x7f"\\/%\u00e9\u2028\ud800\U0001f600 a'))),
    # Exact ints take their own path; a bool, float, str or None among them does not.
    list: st.one_of(st.lists(st.integers(-(2**70), 2**70), max_size=4), st.lists(trace_scalars, max_size=4)),
    dict: st.dictionaries(st.text(max_size=6), trace_values, max_size=4),
}
# A security line's node: a wire id, the ends of its range included.
trace_node_ids = st.one_of(st.sampled_from([0, 65535]), st.integers(0, 65535))


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(
        st.tuples(
            st.sampled_from(sorted(report_module.TRACE_KINDS)),
            st.one_of(st.floats(), st.integers(0, 10**6), st.sampled_from([1 / 3, 5.0, 5])),
            st.data(),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_every_declared_kind_writes_exactly_what_json_dumps_writes(lines):
    # A security line is also written as a refusal, stamped: one or more
    # node ids under one error and detail, as one event's receivers are.
    trace = report_module.Trace()
    expected = []
    for kind, now, data in lines:
        fields = {
            name: data.draw(trace_field_values[json_type], label=name)
            for name, json_type in report_module.TRACE_KINDS[kind].items()
        }
        if kind == "security" and data.draw(st.booleans(), label="stamped"):
            for node in data.draw(st.lists(trace_node_ids, min_size=1, max_size=3), label="nodes"):
                expected.append(json.dumps({"t": round(now, 9), "event": kind, **fields, "node": node}, sort_keys=True))
                trace.add_refusal(now, node, fields["error"], fields["detail"])
            continue
        expected.append(json.dumps({"t": round(now, 9), "event": kind, **fields}, sort_keys=True))
        trace.add(now, kind, **fields)
    assert trace == expected


@pytest.mark.parametrize(
    "detail",
    ['a "quoted" word', "back\\slash \\\"", "caf\u00e9 \u2028 \U0001f600", "lone \ud800 surrogate", 'node": 7'],
)
def test_a_stamped_security_line_is_exactly_what_json_dumps_writes(detail):
    # Back to back at now 5 and then 5.0, which compare equal but write
    # "t" as 5 and 5.0: a stamp is kept per `now` object, not per value.
    trace = report_module.Trace()
    expected = []
    for now in (5, 5, 5.0, 5.0):
        for node in (0, 65535):
            trace.add_refusal(now, node, "UnknownEpoch", detail)
            entry = {"t": now, "event": "security", "node": node, "error": "UnknownEpoch", "detail": detail}
            expected.append(json.dumps(entry, sort_keys=True))
    assert trace == expected
    assert expected[0].endswith('"t": 5}') and expected[-1].endswith('"t": 5.0}')


@pytest.mark.parametrize(
    "receivers", [[], [0, 65535, -3, 2**70], [1, True], [False], [1, 2.0], [1, "2"], [1, None]],
)
def test_a_list_field_is_exactly_what_json_dumps_writes(receivers):
    trace = report_module.Trace()
    trace.add(1.5, "replay_inject", receivers=receivers)
    assert trace == [json.dumps({"t": 1.5, "event": "replay_inject", "receivers": receivers}, sort_keys=True)]


def test_an_undeclared_trace_kind_or_a_wrong_field_set_raises():
    trace = report_module.Trace()
    for kind, fields in [
        ("probe", {"node": 7}),  # undeclared
        ("node_down", {}),  # missing
        ("node_down", {"node": 1, "extra": 2}),  # extra
        ("node_down", {"uav": 1}),  # another name
        ("security", {"node": 1, "error": "AuthError"}),
    ]:
        with pytest.raises(TypeError):
            trace.add(1.0, kind, **fields)
    assert trace == []


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
    assert sim.audit.sent
    assert report["delivery"]["sent"] > 0


def test_handshake_retry_exhaustion_marks_unreachable():
    d = base_scenario_dict(duration_s=8.0)
    # 100% loss makes every offer vanish; retries run out, node 3 too
    d["links"] = {"wifi24": {"band": "wifi24", "loss_prob": 1.0}}
    d["protocol"] = {"handshake_timeout_s": 1.0, "handshake_retries": 2}
    report, trace = run(d)
    assert report["handshakes"]["established"] == 0
    assert report["handshakes"]["unreachable"] == [2, 3]
    assert [line for line in trace if '"unreachable"' in line] == [
        '{"event": "unreachable", "t": 3.000000003, "uav": 2}',
        '{"event": "unreachable", "t": 3.000000003, "uav": 3}',
    ]
    assert report["handshakes"]["attempts"] == 6  # 3 tries per uav
    assert report["delivery"]["overall_ratio"] == 0.0
    assert report["conservation"]["balanced"]


def _drop_line(reason: str, t: str) -> str:
    return f'{{"event": "drop", "item": "offer", "node": 1, "reason": "{reason}", "t": {t}}}'


def _uav_3_out_of_range() -> dict:
    d = base_scenario_dict()
    d["nodes"][2]["position"] = [5000.0, 0.0]  # UAV 3: live, beyond wifi24 range of every node
    return d


def _star_pair(links: dict, payload_bytes: int) -> dict:
    """The GCS and one UAV in star mode for 4 s: one offer, retried only after the 5 s timeout."""
    d = base_scenario_dict(mode="star", duration_s=4.0, links=links)
    d["nodes"] = d["nodes"][:2]
    d["traffic"]["payload_bytes"] = payload_bytes
    return d


@pytest.mark.parametrize(
    "scenario, drops, established",
    [
        # The offer to UAV 3 queues behind the one to UAV 2; its retry follows the 5 s handshake timeout.
        pytest.param(
            _uav_3_out_of_range(),
            [_drop_line("no_viable_link", "9.36e-05"), _drop_line("no_viable_link", "5.000000001")],
            1,
            id="no_viable_link",
        ),
        pytest.param(
            _star_pair({"wifi24": {"band": "wifi24", "mtu_bytes": 64}}, 16),
            [_drop_line("mtu", "0.0")],
            0,
            id="mtu",
        ),
        pytest.param(
            _star_pair({"subghz": {"band": "subghz", "duty_cycle_limit": 1e-9, "duty_window_s": 1.0}}, 24),
            [_drop_line("duty_budget", "0.0")],
            0,
            id="duty_budget",
        ),
    ],
)
def test_a_send_no_link_can_carry_is_one_drop_naming_its_cause(scenario, drops, established):
    report, trace = run(scenario)
    assert [line for line in trace if '"drop"' in line] == drops
    assert report["conservation"]["tx_dropped"] == len(drops) and report["conservation"]["balanced"]
    assert report["handshakes"]["established"] == established


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
        1.5, "timer", lambda: sim._enqueue(sim.gcs, (sim_module._TxItem(kind, crafted, 2),))
    )
    report = sim.run()
    assert sim.counts["rx_unparseable"] == 1
    assert report["conservation"]["balanced"]
    assert report["delivery"]["overall_ratio"] == 1.0  # traffic after t=1.5 still flows


def test_crafted_short_rekey_is_unparseable_and_the_run_goes_on():
    _run_with_crafted(*CRAFTED["short_rekey"])


@pytest.mark.parametrize("case", sorted(set(CRAFTED) - {"short_rekey"}))
def test_crafted_message_with_any_first_byte_is_unparseable(case):
    _run_with_crafted(*CRAFTED[case])


def test_a_rekey_at_a_node_without_a_session_is_counted_and_not_acted_on():
    # At t = 0 no handshake has finished, and the GCS never takes a rekey.
    sim = Simulation(scenario_from_dict(base_scenario_dict()))
    bkey = BroadcastKey(epoch=1, key=crypto.SymmetricKey(b"\x31" * 32, crypto.KeyPurpose.BROADCAST), not_after=1e9)
    data = rekey.wrap_for(_session(2), 1, 2, bkey, random.Random(0)).to_bytes()
    outcomes = Counters()
    sim.inject((1, 2), data, outcomes.bump)
    (advrx,) = [e for e in sim._heap if e[2] == "advrx"]
    advrx[3]()
    assert sim.counts["rekey_without_session"] == 2
    assert sim.counts["rekeys_installed"] == 0 and sim.counts["tx_enqueued"] == 0  # no ack
    assert sim.nodes[1].keyring.current is None and sim.nodes[2].keyring.current is None
    assert outcomes.values == {} and sim.security_events == {}


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


def test_set_up_queues_one_event_per_pending_step_whatever_the_duration():
    # Traffic and injections are chains: building a run queues each
    # chain's first step only, so the heap does not grow with duration.
    def heap_after_build(duration_s):
        d = base_scenario_dict(
            duration_s=duration_s,
            traffic={"senders": "uavs", "rate_hz": 2.0, "payload_bytes": 24, "start_s": 1.0},
            adversaries=[{"kind": "replay_injector", "start_s": 1.0, "injections": 1000}],
        )
        return len(Simulation(scenario_from_dict(d))._heap)

    assert heap_after_build(10.0) == heap_after_build(1000.0) == 5  # 2 handshakes, 2 senders, 1 injection


def test_inject_queues_one_event_for_all_its_receivers():
    sim = Simulation(scenario_from_dict(base_scenario_dict()))
    before = len(sim._heap)
    outcomes = Counters()
    sim.inject((2, 3), bytes([wire.PACKET_VERSION]) + bytes(20), outcomes.bump)
    advrx = [e for e in sim._heap if e[2] == "advrx"]
    assert len(sim._heap) == before + 1 and len(advrx) == 1
    assert list(advrx[0][3].args[1]) == [2, 3]
    report = sim.run()
    c = report["conservation"]
    assert c["adv_rx_events"] == c["adv_rx_processed"] == 2 and c["balanced"]
    assert sim.counts["rx_unparseable"] == 2
    assert outcomes.values == {}  # unparseable bytes reach no handler


@pytest.mark.parametrize(
    "payload",
    [(99_999).to_bytes(8, "big") + bytes(8), b"\x01\x02"],
    ids=["number_the_source_never_sent", "too_short_for_a_tag"],
)
def test_delivered_message_the_audit_cannot_attribute_is_a_security_event(payload):
    # A plaintext frame a tap injects is accepted by the mesh, but its
    # message's tag names no message its source sent: counted, not recorded.
    plain = resolve_scenario("mesh_5_lossless")
    sim = Simulation(replace(plain, security=replace(plain.security, encryption=False)))
    message = codec.TelemetryMessage(sim_module.TELEMETRY_MSG_ID, 2, payload)
    packet = codec.seal_packet_plain(4000, 0, 0, codec.Frame(messages=(message,)), codec.PacketCounters())
    outcomes = Counters()
    sim._schedule(5.0, "timer", lambda: sim.inject((3,), packet.to_bytes(), outcomes.bump))
    report = sim.run()
    assert outcomes.values == {"delivered_new": 1}
    assert report["security_events"] == {"UnknownMessage": 1}
    assert report["delivery"]["overall_ratio"] == 1.0
    assert report["latency"]["count"] == report["delivery"]["delivered"]
    assert len(sim.audit.reach[2]) == len(sim.audit.sent[2]) < 99_999


def _keyed_mesh_sim(cls=Simulation, last=5):
    """A mesh run of nodes 1 to `last` (five by default) with one
    broadcast key in every ring, and a packet originated by node 2 that
    the audit can attribute."""
    nodes = [{"id": 1, "role": "gcs", "position": [0.0, 0.0]}] + [
        {"id": i, "role": "uav", "position": [10.0 * i, 0.0]} for i in range(2, last + 1)
    ]
    sim = cls(scenario_from_dict(base_scenario_dict(nodes=nodes)))
    bkey = BroadcastKey(epoch=1, key=crypto.SymmetricKey(b"\x77" * 32, crypto.KeyPurpose.BROADCAST), not_after=1e9)
    for node in sim.nodes.values():
        node.keyring.install(bkey, now=0.0, grace_window_s=5.0)
    tag = sim.audit.record_send(2, 0.0)
    frame = codec.Frame(messages=(codec.TelemetryMessage(sim_module.TELEMETRY_MSG_ID, 2, tag),))
    origin = sim.nodes[2]
    return sim, mesh.originate(origin.mesh, origin.keyring, origin.counters, frame, hop_limit=3)


def _count_parses(monkeypatch):
    parses = []
    real = codec.WirePacket.from_bytes
    monkeypatch.setattr(codec.WirePacket, "from_bytes", lambda data: parses.append(data) or real(data))
    return parses


@pytest.mark.parametrize("honest", [True, False], ids=["honest", "tap_made"])
def test_one_batch_counts_held_and_own_copies_as_duplicates_and_handles_only_the_rest(monkeypatch, honest):
    # Bytes a tap made take the honest path: the same counts and outcomes,
    # after one parse of the bytes for the whole batch.
    sim, packet = _keyed_mesh_sim()
    for holder in (3, 4):
        sim.nodes[holder].mesh.dedup.add(packet.origin, packet.seq)
    sim.air.node_down(4)  # a down node is ignored, whatever it holds
    handled = []
    real = mesh.handle_rx
    monkeypatch.setattr(mesh, "handle_rx", lambda state, *a, **kw: handled.append(state.node_id) or real(state, *a, **kw))
    parses = _count_parses(monkeypatch)
    before = dict(sim.counts)
    outcomes = Counters()
    batch = [3, 2, 4, 5]  # holder, origin, down, fresh
    sim._deliver("rx_processed", batch, packet.to_bytes(), packet if honest else None, outcomes.bump)
    delta = {k: sim.counts[k] - before[k] for k in ("rx_duplicates", "rx_ignored_down", "rx_processed")}
    assert delta == {"rx_duplicates": 2, "rx_ignored_down": 1, "rx_processed": 4}
    assert outcomes.values == {"rejected_dedup": 2, "delivered_new": 1}
    assert handled == [5]
    assert len(parses) == (0 if honest else 1)
    assert sim.nodes[5].mesh.dedup.seen(packet.origin, packet.seq)


def test_injected_bytes_are_parsed_once_for_all_their_receivers(monkeypatch):
    sim, packet = _keyed_mesh_sim()
    parses = _count_parses(monkeypatch)
    outcomes = Counters()
    sim.inject((3, 4, 5), packet.to_bytes(), outcomes.bump)
    (advrx,) = [e for e in sim._heap if e[2] == "advrx"]
    advrx[3]()
    assert len(parses) == 1
    assert outcomes.values == {"delivered_new": 3}


def test_a_receiver_holding_other_key_bytes_for_the_epoch_does_not_take_the_memo():
    # The flood keeps its seal under epoch 1's key, which node 3 holds;
    # node 5, in the same batch, holds other bytes for epoch 1.
    sim, packet = _keyed_mesh_sim()
    other = BroadcastKey(epoch=1, key=crypto.SymmetricKey(b"\x78" * 32, crypto.KeyPurpose.BROADCAST), not_after=1e9)
    sim.nodes[5].keyring = rekey.KeyRing()
    sim.nodes[5].keyring.install(other, now=0.0, grace_window_s=5.0)
    outcomes = Counters()
    sim._deliver("rx_processed", [3, 5], packet.to_bytes(), packet, outcomes.bump)
    assert outcomes.values == {"delivered_new": 1, "rejected_AuthError": 1}
    security = [(entry["node"], entry["error"]) for entry in map(json.loads, sim.trace) if entry["event"] == "security"]
    assert security == [(5, "AuthError")]
    assert sim.security_events == {"AuthError": 1}
    assert sim.audit.reach[2] == [sim.audit.node_bits[3]]  # node 3 took the delivery


def _keyless_batch(cls):
    """One advrx event of a keyed packet's bytes to, in this order: a
    receiver with no key, a dedup holder, one whose window has seen the
    counter, a fresh one, a down one, and one whose key for the epoch has
    left its grace. Returns the run, its outcomes and the nodes whose
    handler ran."""
    sim, packet = _keyed_mesh_sim(cls, last=8)
    sim.nodes[3].keyring = rekey.KeyRing()
    sim.nodes[4].mesh.dedup.add(packet.origin, packet.seq)
    sim.nodes[5].window.accept(packet.origin, packet.epoch, packet.counter)
    sim.air.node_down(7)
    newer = BroadcastKey(epoch=2, key=crypto.SymmetricKey(b"\x79" * 32, crypto.KeyPurpose.BROADCAST), not_after=1e9)
    sim.nodes[8].keyring.install(newer, now=0.0, grace_window_s=5.0)
    sim.now = 10.0  # epoch 1 is past node 8's grace
    handled = []
    real = sim._rx_table[wire.PACKET_VERSION][1]
    sim._rx_table[wire.PACKET_VERSION] = (codec.WirePacket, lambda node, p: handled.append(node.id) or real(node, p))
    outcomes = Counters()
    sim.inject((3, 4, 5, 6, 7, 8), packet.to_bytes(), outcomes.bump)
    (advrx,) = [e for e in sim._heap if e[2] == "advrx"]
    advrx[3]()
    return sim, outcomes.values, handled


def test_a_keyless_receiver_is_refused_as_the_handler_would_refuse_it():
    sim, outcomes, handled = _keyless_batch(Simulation)
    ref, ref_outcomes, ref_handled = _keyless_batch(Reference)
    assert outcomes == ref_outcomes == {
        "rejected_UnknownEpoch": 2, "rejected_dedup": 1, "rejected_ReplayError": 1, "delivered_new": 1,
    }
    security = [(entry["node"], entry["error"], entry["detail"])
                for entry in map(json.loads, sim.trace) if entry["event"] == "security"]
    assert [line[:2] for line in security] == [(3, "UnknownEpoch"), (5, "ReplayError"), (8, "UnknownEpoch")]
    assert security[0][2] == security[2][2] == "no usable key for epoch 1"
    assert sim.trace == ref.trace
    assert sim.counts == ref.counts
    assert sim.security_events == ref.security_events == {"UnknownEpoch": 2, "ReplayError": 1}
    assert handled == [3, 5, 6, 8] and ref_handled == [3, 4, 5, 6, 8]


@pytest.mark.parametrize(
    "name, real_opens",
    [("contested13_replay", 39), ("star9_mitm_replay", 351), ("plain9_replay_down", 0), ("eavesdrop_keyleak", 0)],
)
def test_no_open_writes_to_the_packet_it_opens(monkeypatch, name, real_opens):
    # Every open of a run, the receivers' and the eavesdropper's, returned
    # or raised: the packet keeps the same state keys, holding the same
    # objects, so receivers that share a packet cannot reach each other
    # through it. `real_opens` counts the opens that take no seal.
    real_open_frame = codec._open_frame
    took_seal = []

    def checked(key, packet):
        before = list(vars(packet).items())
        took_seal.append(packet._sealed is not None and packet._sealed[0] == key.bytes_)
        try:
            return real_open_frame(key, packet)
        finally:
            after = list(vars(packet).items())
            assert len(after) == len(before)
            assert all(k is k0 and v is v0 for (k, v), (k0, v0) in zip(after, before))

    monkeypatch.setattr(codec, "_open_frame", checked)
    run_scenario(locked_scenarios()[name])
    assert any(took_seal) and took_seal.count(False) == real_opens


@pytest.mark.parametrize(
    "name, expected",
    [
        # Read with every receiver of a batch taking the full receive path.
        ("grid25_churn", {"rx_duplicates": 96857, "rx_ignored_down": 106, "rx_unparseable": 0, "rx_processed": 103704, "adv_rx_processed": 0}),
        ("contested13_replay", {"rx_duplicates": 40686, "rx_ignored_down": 0, "rx_unparseable": 0, "rx_processed": 41892, "adv_rx_processed": 5773}),
        ("replay_attack", {"rx_duplicates": 5224, "rx_ignored_down": 0, "rx_unparseable": 0, "rx_processed": 3720, "adv_rx_processed": 4772}),
    ],
)
def test_receive_counters_match_the_per_receiver_path(name, expected):
    # rx_duplicates and rx_ignored_down are not in the report, so the run
    # digests do not pin them.
    generated = generated_scenarios()
    sim = Simulation(scenario_from_dict(generated[name]) if name in generated else resolve_scenario(name))
    sim.run()
    assert {key: sim.counts[key] for key in expected} == expected



def _session(byte):
    return crypto.SymmetricKey(bytes([byte]) * 32, crypto.KeyPurpose.SESSION)


def _unsigned_offer(sim):
    return 2, handshake.KeyOffer(1, 2, bytes(32), bytes(16), bytes(64)).to_bytes()


def _response_to_no_offer(sim):
    return 1, handshake.KeyResponse(2, 1, bytes(32), bytes(16), bytes(64)).to_bytes()


def _rekey_under_another_session(sim):
    sim.nodes[2].session_key = _session(2)
    bkey = BroadcastKey(epoch=1, key=crypto.SymmetricKey(b"\x31" * 32, crypto.KeyPurpose.BROADCAST), not_after=1e9)
    return 2, rekey.wrap_for(_session(3), 1, 2, bkey, random.Random(0)).to_bytes()


def _rekey_older_than_the_installed_epoch(sim):
    node = sim.nodes[2]
    node.session_key = _session(2)
    keys = [BroadcastKey(epoch=e, key=crypto.SymmetricKey(bytes([e]) * 32, crypto.KeyPurpose.BROADCAST), not_after=1e9)
            for e in (1, 2)]
    node.keyring.install(keys[1], now=0.0, grace_window_s=5.0)
    return 2, rekey.wrap_for(_session(2), 1, 2, keys[0], random.Random(0)).to_bytes()


def _tampered_mesh_packet(sim):
    bkey = BroadcastKey(epoch=1, key=crypto.SymmetricKey(b"\x77" * 32, crypto.KeyPurpose.BROADCAST), not_after=1e9)
    for node in sim.nodes.values():
        node.keyring.install(bkey, now=0.0, grace_window_s=5.0)
    origin = sim.nodes[2]
    frame = codec.Frame(messages=(codec.TelemetryMessage(sim_module.TELEMETRY_MSG_ID, 2, bytes(8)),))
    raw = mesh.originate(origin.mesh, origin.keyring, origin.counters, frame, hop_limit=3).to_bytes()
    return 3, raw[:-1] + bytes([raw[-1] ^ 1])


def _mesh_packet_under_an_epoch_no_ring_holds(sim):
    frame = codec.Frame(messages=(codec.TelemetryMessage(sim_module.TELEMETRY_MSG_ID, 2, bytes(8)),))
    key = crypto.SymmetricKey(b"\x77" * 32, crypto.KeyPurpose.BROADCAST)
    return 3, codec.seal_with_key(key, 1, 2, 0, 3, frame, codec.PacketCounters()).to_bytes()


def _star_packet_to_a_uav_without_session(sim):
    frame = codec.Frame(messages=(codec.TelemetryMessage(sim_module.TELEMETRY_MSG_ID, 1, bytes(8)),))
    return 2, codec.seal_with_key(_session(2), 0, 1, 0, 0, frame, codec.PacketCounters()).to_bytes()


@pytest.mark.parametrize(
    "mode, build, error",
    [
        ("mesh", _unsigned_offer, "SignatureError"),
        ("mesh", _response_to_no_offer, "UnknownHandshake"),
        ("mesh", _rekey_under_another_session, "AuthError"),
        ("mesh", _rekey_older_than_the_installed_epoch, "StaleEpoch"),
        ("mesh", _tampered_mesh_packet, "AuthError"),
        ("mesh", _mesh_packet_under_an_epoch_no_ring_holds, "UnknownEpoch"),
        ("star", _star_packet_to_a_uav_without_session, "NoSession"),
    ],
    ids=["offer", "response", "rekey", "stale_rekey", "mesh_data", "mesh_data_unknown_epoch", "star_data"],
)
def test_a_refused_reception_is_one_security_event_and_one_rejected_outcome(mode, build, error):
    sim = Simulation(scenario_from_dict(base_scenario_dict(mode=mode)))
    receiver, data = build(sim)
    outcomes = Counters()
    sim.inject((receiver,), data, outcomes.bump)
    (advrx,) = [e for e in sim._heap if e[2] == "advrx"]
    advrx[3]()
    security = [entry for entry in map(json.loads, sim.trace) if entry["event"] == "security"]
    assert [(entry["node"], entry["error"]) for entry in security] == [(receiver, error)]
    assert sim.security_events == {error: 1}
    assert outcomes.values == {f"rejected_{error}": 1}


def test_every_processed_reception_is_set_aside_or_handled_once():
    # The receive identity: each reception an rx or advrx event processes
    # is ignored (receiver down), unparseable, a duplicate, or one handler
    # call. No handler raises UnknownEpoch in an encrypted mesh: a receiver
    # with no key for a data packet's epoch is refused without a raise.
    sim = Simulation(scenario_from_dict(generated_scenarios()["contested13_replay"]))
    calls = Counters()
    keyless_handled = Counters()

    def counted(kind, handler):
        def call(node, message):
            calls.bump(kind)
            try:
                return handler(node, message)
            except UnknownEpoch:
                keyless_handled.bump(kind)
                raise
        return call

    sim._rx_table = {byte: (cls, counted(cls.__name__, handler)) for byte, (cls, handler) in sim._rx_table.items()}
    sim.run()
    c = sim.counts
    processed = c["rx_processed"] + c["adv_rx_processed"]
    set_aside = c["rx_ignored_down"] + c["rx_unparseable"] + c["rx_duplicates"]
    keyless = sim.security_events["UnknownEpoch"]
    assert processed == set_aside + sum(calls.values.values())
    assert calls.get("WirePacket") > 0 and calls.get("RekeyMessage") > 0
    assert keyless > 0 and keyless_handled.values == {}


def test_each_fresh_mesh_data_receiver_makes_one_key_lookup(monkeypatch):
    # A receiver's one lookup either hands its key to mesh.handle_rx or
    # refuses the packet; nothing else on the run path asks a keyring.
    lookups, handled = Counters(), Counters()
    real_lookup, real_handle = rekey.KeyRing.key_for_epoch, mesh.handle_rx

    def lookup(ring, epoch, now):
        lookups.bump("key_for_epoch")
        return real_lookup(ring, epoch, now)

    def handle(*args):
        handled.bump("handle_rx")
        return real_handle(*args)

    monkeypatch.setattr(rekey.KeyRing, "key_for_epoch", lookup)
    monkeypatch.setattr(mesh, "handle_rx", handle)
    sim = Simulation(scenario_from_dict(generated_scenarios()["contested13_replay"]))
    sim.run()
    keyless = sim.security_events["UnknownEpoch"]
    assert keyless > 0 and handled.get("handle_rx") > 0
    assert lookups.get("key_for_epoch") == handled.get("handle_rx") + keyless


# ---- metamorphic determinism: draws in one domain never shift another ------


def _contested(change=lambda d: None):
    """contested13_replay after `change`: report without its adversary block, that block, trace."""
    d = generated_scenarios()["contested13_replay"]
    change(d)
    report, trace = run(d)
    return {k: v for k, v in report.items() if k != "adversary"}, report["adversary"], trace


def _drop_adversary(kind):
    return lambda d: d.update(adversaries=[a for a in d["adversaries"] if a["kind"] != kind])


def test_removing_the_eavesdropper_changes_only_its_report_block_and_the_key_leaks():
    report, adversary, trace = _contested()
    bare_report, bare_adversary, bare_trace = _contested(_drop_adversary("eavesdrop"))
    assert report == bare_report
    assert sorted(adversary) == ["eavesdrop", "replay"] and sorted(bare_adversary) == ["replay"]
    assert adversary["replay"] == bare_adversary["replay"]
    kept = [line for line in trace if '"key_leaked"' not in line]
    assert len(kept) < len(trace) and kept == bare_trace


def test_reversing_the_nodes_array_leaves_the_bytes_unchanged():
    d = generated_scenarios()["contested13_replay"]
    report, trace = run(d)
    reversed_report, reversed_trace = run({**d, "nodes": d["nodes"][::-1]})
    assert render_json(reversed_report) == render_json(report) and reversed_trace == trace


def test_an_injector_that_starts_after_the_run_gives_the_run_without_it():
    def start_late(d):
        for adv in d["adversaries"]:
            if adv["kind"] == "replay_injector":
                adv["start_s"] = d["duration_s"] + 1.0

    report, adversary, trace = _contested(start_late)
    assert adversary["replay"]["injections"] == 0
    bare_report, bare_adversary, bare_trace = _contested(_drop_adversary("replay_injector"))
    assert (report, trace) == (bare_report, bare_trace)
    assert adversary["eavesdrop"] == bare_adversary["eavesdrop"]


def test_every_window_keeps_only_the_epochs_its_keyring_still_holds():
    sim = Simulation(scenario_from_dict(generated_scenarios()["contested13_replay"]))
    report = sim.run()
    assert report["broadcast"]["epochs_reached"] >= 4  # so older epochs did pass through
    for node in sim.nodes.values():
        ring = {bkey.epoch for bkey in (node.keyring.current, node.keyring.previous) if bkey is not None}
        epochs = {}
        for epoch, origins in node.window._state.items():
            for origin in origins:
                epochs.setdefault(origin, set()).add(epoch)
        assert all(len(seen) <= 2 and seen <= ring for seen in epochs.values())


def _star(uavs: int, duration_s: float) -> dict:
    """`uavs` UAVs on a 100 m circle round the ground station, all in its WiFi range."""
    nodes = [{"id": 1, "role": "gcs", "position": [0.0, 0.0]}]
    for i in range(uavs):
        angle = 2 * math.pi * i / uavs
        nodes.append({"id": i + 2, "role": "uav", "position": [100 * math.cos(angle), 100 * math.sin(angle)]})
    return {
        "name": "star_ring", "seed": 3, "duration_s": duration_s, "mode": "star", "nodes": nodes,
        "links": {"wifi24": {"band": "wifi24"}},
        "traffic": {"senders": "uavs", "rate_hz": 4.0, "payload_bytes": 48, "start_s": 2.0},
    }


def test_the_report_holds_one_sorted_latency_list_at_a_time():
    sim = Simulation(scenario_from_dict(_star(16, 6.0)))
    sim.run()
    gc.collect()
    tracemalloc.start()
    try:
        report = report_module.build(sim, 0, 0)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    count = report["latency"]["count"]
    assert count > 2000 and report["latency_uav_to_uav"]["count"] > 0.9 * count
    # A float and its list slot take 32 B: one list of all latencies costs
    # about 36 B per latency, two at once about 67 B.
    assert (peak - retained) / count < 50, (peak - retained) / count
