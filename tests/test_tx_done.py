"""A send's tx_done is queued only when another send waits behind it.

`AlwaysQueuesTxDone` keeps the earlier rule as the reference: every send
marks its node busy and queues its tx_done at once, under the next
sequence number. The simulator reserves that same heap key and queues the
event only when a send waits, so both must pop every other event in the
same (t, seq, kind) order and give the same report and trace bytes. A
send the duty meter defers reserves a tx_done at the time it may go, so a
send queued meanwhile waits as it would behind a send on the air.

The reference also queues data packets one at a time, each pumped on its
own, where the simulator queues the packets of one step (a star's fanout)
as one batch and pumps once; that too must move no event and no byte.
"""

import heapq
import json
import types
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmlink import sim as sim_module
from swarmlink.metrics import render_json
from swarmlink.scenario import scenario_from_dict
from swarmlink.sim import Simulation


class AlwaysQueuesTxDone(Simulation):
    """The reference: each send queues its tx_done as it starts."""

    def __init__(self, sc):
        super().__init__(sc)
        for node in self.nodes.values():
            node.busy = False

    def _reserve_tx_done(self, node, end):
        node.busy = True
        self._schedule(end, "tx_done", partial(self._tx_done, node))

    def _on_air(self, node):
        return node.busy

    def _tx_done(self, node):
        node.busy = False
        self._pump(node)

    def _enqueue(self, node, items, frame=None):
        for item in items:
            super()._enqueue(node, (item,), frame)


class CountsTies(Simulation):
    """The simulator, counting the sends that wait on a reserved tx_done
    whose end time equals the running event's time, by which comes first."""

    def __init__(self, sc):
        super().__init__(sc)
        self.ties = {"running_first": 0, "reserved_first": 0}

    def _on_air(self, node):
        end = node.tx_end
        if end is not None and not node.tx_done_queued and end[0] == self._event[0]:
            self.ties["running_first" if self._event[1] < end[1] else "reserved_first"] += 1
        return super()._on_air(node)


def _scenario(n, mode, latency, jitter, loss, duty, down, injector, rate, payload, seed):
    links = {"wifi24": {"band": "wifi24", "base_latency_s": latency, "loss_prob": loss, "range_m": 120.0}}
    if duty:  # a slower metered link: sends defer, and a deferred send resumes at its instant
        links["subghz"] = {"band": "subghz", "base_latency_s": 0.0, "loss_prob": loss,
                           "duty_cycle_limit": 0.05, "duty_window_s": 0.5}
    nodes = [{"id": 1, "role": "gcs", "position": [0.0, 0.0]}]
    for i in range(2, n + 1):
        node = {"id": i, "role": "uav", "position": [50.0 * (i - 1), 0.0]}
        if down and i == n:
            node["down_at_s"] = 1.2
        nodes.append(node)
    data = {
        "name": "tx_done_order",
        "seed": seed,
        "duration_s": 2.5,
        "mode": mode,
        "nodes": nodes,
        "links": links,
        "protocol": {"key_lifetime_s": 0.8, "grace_window_s": 0.2, "handshake_timeout_s": 0.3,
                     "rekey_resend_interval_s": 0.1, "forward_jitter_max_s": jitter, "hop_limit": 4},
        "traffic": {"senders": "all", "rate_hz": rate, "payload_bytes": payload, "start_s": 0.2},
    }
    if injector:
        data["adversaries"] = [{"kind": "replay_injector", "start_s": 0.5, "injections": 20}]
    return data


def _tied_sends(cls):
    """Four silent nodes in range of one another, driven by hand; each
    sends packets of its own size. Nodes 1 and 3 send at t=0. As node 1's
    send ends, an event queued before its tx_done was reserved (the
    running event comes first) hands a send to node 1, then to node 2. As
    node 3's send ends, an event queued after its reservation (the
    reservation comes first) hands a send to node 3, then to node 4."""
    sc = scenario_from_dict({
        "name": "tied_sends", "seed": 1, "duration_s": 1.0, "mode": "mesh",
        "nodes": [
            {"id": i, "role": "gcs" if i == 1 else "uav", "position": [10.0 * i, 0.0]} for i in (1, 2, 3, 4)
        ],
        "links": {"wifi24": {"band": "wifi24", "base_latency_s": 0.0, "loss_prob": 0.0}},
        "security": {"encryption": False},
        "traffic": {"rate_hz": 0.0},
    })
    sim = cls(sc)
    airtime = sim.profiles["wifi24"].airtime_s

    def send(*node_ids):
        for node_id in node_ids:
            sim._enqueue(sim.nodes[node_id], (sim_module._TxItem("ack", bytes(40 + 8 * node_id), None),))

    def third_sends_and_queues_its_follow_up():
        send(3)
        sim._schedule(0.0 + airtime(64), "timer", lambda: send(3, 4))

    sim._schedule(0.0, "timer", lambda: send(1))
    sim._schedule(0.0 + airtime(48), "timer", lambda: send(1, 2))
    sim._schedule(0.0, "timer", third_sends_and_queues_its_follow_up)
    return sim


def _popped_run(sim):
    """Report and trace bytes and the popped (t, seq, kind) of every event but tx_done."""
    popped = []

    def recording_pop(heap):
        event = heapq.heappop(heap)
        if event[2] != "tx_done":
            popped.append(event[:3])
        return event

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim_module, "heapq", types.SimpleNamespace(heappush=heapq.heappush, heappop=recording_pop))
        report = sim.run()
    return render_json(report), sim.trace, popped


def test_a_send_handed_over_as_the_last_one_ends_goes_when_the_reference_sends_it():
    sim = _tied_sends(CountsTies)
    run = _popped_run(sim)
    assert run == _popped_run(_tied_sends(AlwaysQueuesTxDone))
    assert sim.ties == {"running_first": 1, "reserved_first": 1}
    assert json.loads(run[0])["conservation"]["tx_sent"] == 6


@settings(max_examples=25, deadline=None)
@example(n=3, mode="mesh", latency=0.0, jitter=0.0, loss=0.0, duty=False, down=False,
         injector=False, rate=20.0, payload=64, seed=3)  # a rekey queued as the last offer ends
@example(n=5, mode="mesh", latency=0.0, jitter=0.0, loss=0.2, duty=True, down=True,
         injector=True, rate=20.0, payload=64, seed=3)
@example(n=6, mode="star", latency=0.0, jitter=0.0, loss=0.0, duty=False, down=False,
         injector=False, rate=60.0, payload=200, seed=3)
@given(
    n=st.integers(3, 6),
    mode=st.sampled_from(["mesh", "star"]),
    latency=st.sampled_from([0.0, 0.0, 0.0005]),
    jitter=st.sampled_from([0.0, 0.0, 0.0003]),
    loss=st.sampled_from([0.0, 0.2]),
    duty=st.booleans(),
    down=st.booleans(),
    injector=st.booleans(),
    rate=st.sampled_from([5.0, 20.0, 60.0]),
    payload=st.sampled_from([16, 64, 200]),
    seed=st.integers(0, 2**16),
)
def test_queueing_tx_done_only_when_a_send_waits_keeps_every_other_event_in_order(
    n, mode, latency, jitter, loss, duty, down, injector, rate, payload, seed
):
    sc = scenario_from_dict(_scenario(n, mode, latency, jitter, loss, duty, down, injector, rate, payload, seed))
    report, trace, popped = _popped_run(Simulation(sc))
    ref_report, ref_trace, ref_popped = _popped_run(AlwaysQueuesTxDone(sc))
    assert popped == ref_popped
    assert trace == ref_trace
    assert report == ref_report


def test_a_star_fanout_queued_as_one_batch_moves_no_event_and_no_byte():
    """Five UAVs in range of the ground station, sending at 60 Hz over a
    lossy radio and a duty-metered one, watched by an eavesdropper and a
    replay injector: the ground station re-seals each uplink for the four
    other UAVs and queues the copies as one batch."""
    data = _scenario(6, "star", 0.0005, 0.0, 0.2, True, False, True, 60.0, 64, 5)
    for node in data["nodes"]:
        node["position"] = [10.0 * node["id"], 0.0]
    data["adversaries"].append({"kind": "eavesdrop"})
    sc = scenario_from_dict(data)
    sim = Simulation(sc)
    report, trace, popped = _popped_run(sim)
    assert (report, trace, popped) == _popped_run(AlwaysQueuesTxDone(sc))
    delivery = json.loads(report)["delivery"]
    assert delivery["uav_to_uav"]["delivered"] > 4 * 100  # fanout copies arrived
    assert sim.counts["sessions_established"] == 5 and sim.counts["tx_deferrals"] > 0


def test_a_deferred_send_waits_like_a_busy_radio_and_goes_at_its_time():
    """Node 1's second send is deferred by its duty meter. A third send
    queued before the deferral ends neither transmits nor defers again;
    the deferred send goes at the time the meter gave."""
    sc = scenario_from_dict({
        "name": "deferred_send", "seed": 1, "duration_s": 3.0, "mode": "mesh",
        "nodes": [{"id": 1, "role": "gcs", "position": [0.0, 0.0]},
                  {"id": 2, "role": "uav", "position": [10.0, 0.0]}],
        "links": {"subghz": {"band": "subghz", "base_latency_s": 0.0, "loss_prob": 0.0,
                             "duty_cycle_limit": 0.05, "duty_window_s": 0.5}},
        "security": {"encryption": False},
        "traffic": {"rate_hz": 0.0},
    })
    sim = Simulation(sc)
    node = sim.nodes[1]
    meter = node.meters["subghz"]
    starts = []  # the start of each metered burst, as the meter records it
    meter.record = lambda now, airtime, record=meter.record: (starts.append(now), record(now, airtime))

    def send():
        sim._enqueue(node, (sim_module._TxItem("ack", bytes(200), None),))

    sim._schedule(0.0, "timer", lambda: (send(), send()))
    sim._schedule(0.2, "timer", send)  # queued behind the deferred send
    report = sim.run()
    defers = [entry for entry in map(json.loads, sim.trace) if entry["event"] == "defer"]
    until = defers[0]["until"]
    assert defers[0]["t"] < 0.2 < until
    assert [entry for entry in defers if entry["t"] < until] == defers[:1]
    assert starts[:2] == [0.0, until]
    assert report["conservation"]["tx_sent"] == 3
