"""A send's tx_done is queued only when another send waits behind it, and
a node's queued sends go back to back in one event while each next
tx_done is the event run() would pop next.

The simulator reserves a send's tx_done heap key as the send starts and
queues the event only when a send waits; `reference_sim.Reference` queues
every tx_done at once, under that same key, and sends one packet per
tx_done event. When a send waits, the simulator's tx_done runs the next
one in place if its reserved key comes before every event on the heap
and within the run (the drain), and queues it otherwise. Both must pop
every other event in the same (t, seq, kind) order and give the same
report and trace bytes. A send the duty meter defers reserves a tx_done
at the time it may go, so a send queued meanwhile waits as it would
behind a send on the air, and a drain runs a deferral in place the same
way. The reference also queues and pumps each packet of a batch (a
star's fanout) on its own. These hand-built cases pin ties, deferrals
and the drain's stops, which the drawn property in test_reference.py
rarely meets.
"""

import json

from swarmlink import sim as sim_module
from swarmlink.scenario import scenario_from_dict
from swarmlink.sim import Simulation

from conftest import base_scenario_dict
from reference_sim import Reference, observed


class CountsPops:
    """Counts the tx_done events run() pops: each is one call of _tx_done."""

    tx_done_pops = 0

    def _tx_done(self, node):
        self.tx_done_pops += 1
        super()._tx_done(node)


class FastPops(CountsPops, Simulation):
    pass


class ReferencePops(CountsPops, Reference):
    pass


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
    airtime = sim.air.profiles["wifi24"].airtime_s

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


def test_a_send_handed_over_as_the_last_one_ends_goes_when_the_reference_sends_it():
    sim = _tied_sends(CountsTies)
    run = observed(sim)
    assert run == observed(_tied_sends(Reference))
    assert sim.ties == {"running_first": 1, "reserved_first": 1}
    assert json.loads(run[0])["conservation"]["tx_sent"] == 6


def test_a_star_fanout_queued_as_one_batch_moves_no_event_and_no_byte():
    """Five UAVs in range of the ground station, sending at 60 Hz over a
    lossy radio and a duty-metered one, watched by an eavesdropper and a
    replay injector: the ground station re-seals each uplink for the four
    other UAVs and queues the copies as one batch, and its tx_done events
    drain most of them back to back."""
    sc = scenario_from_dict(base_scenario_dict(
        seed=5, duration_s=2.5, mode="star",
        nodes=[{"id": i, "role": "gcs" if i == 1 else "uav", "position": [10.0 * i, 0.0]} for i in range(1, 7)],
        links={
            "wifi24": {"band": "wifi24", "base_latency_s": 0.0005, "loss_prob": 0.2, "range_m": 120.0},
            "subghz": {"band": "subghz", "base_latency_s": 0.0, "loss_prob": 0.2,
                       "duty_cycle_limit": 0.05, "duty_window_s": 0.5},
        },
        protocol={"key_lifetime_s": 0.8, "grace_window_s": 0.2, "handshake_timeout_s": 0.3,
                  "rekey_resend_interval_s": 0.1, "forward_jitter_max_s": 0.0, "hop_limit": 4},
        traffic={"senders": "all", "rate_hz": 60.0, "payload_bytes": 64, "start_s": 0.2},
        adversaries=[{"kind": "replay_injector", "start_s": 0.5, "injections": 20}, {"kind": "eavesdrop"}],
    ))
    sim, reference = FastPops(sc), ReferencePops(sc)
    run = observed(sim)
    assert run == observed(reference)
    delivery = json.loads(run[0])["delivery"]
    assert delivery["uav_to_uav"]["delivered"] > 4 * 100  # fanout copies arrived
    assert sim.counts["sessions_established"] == 5 and sim.counts["tx_deferrals"] > 0
    assert sim.tx_done_pops < reference.tx_done_pops / 2  # the fanout copies drained


def _deferred_sends(cls):
    """Node 1's second send is deferred by its duty meter, and a third is
    queued before the deferral ends."""
    sc = scenario_from_dict({
        "name": "deferred_send", "seed": 1, "duration_s": 3.0, "mode": "mesh",
        "nodes": [{"id": 1, "role": "gcs", "position": [0.0, 0.0]},
                  {"id": 2, "role": "uav", "position": [10.0, 0.0]}],
        "links": {"subghz": {"band": "subghz", "base_latency_s": 0.0, "loss_prob": 0.0,
                             "duty_cycle_limit": 0.05, "duty_window_s": 0.5}},
        "security": {"encryption": False},
        "traffic": {"rate_hz": 0.0},
    })
    sim = cls(sc)

    def send():
        sim._enqueue(sim.nodes[1], (sim_module._TxItem("ack", bytes(200), None),))

    sim._schedule(0.0, "timer", lambda: (send(), send()))
    sim._schedule(0.2, "timer", send)  # queued behind the deferred send
    return sim


def test_a_deferred_send_waits_like_a_busy_radio_and_goes_at_its_time():
    """The third send neither transmits nor defers again while the second
    waits; the deferred send goes at the time the meter gave."""
    sim = _deferred_sends(Simulation)
    meter = sim.nodes[1].meters["subghz"]
    starts = []  # the start of each metered burst, as the meter records it
    meter.record = lambda now, airtime, record=meter.record: (starts.append(now), record(now, airtime))
    run = observed(sim)
    assert run == observed(_deferred_sends(Reference))
    defers = [entry for entry in map(json.loads, run[1]) if entry["event"] == "defer"]
    until = defers[0]["until"]
    assert defers[0]["t"] < 0.2 < until
    assert [entry for entry in defers if entry["t"] < until] == defers[:1]
    assert starts[:2] == [0.0, until]
    assert json.loads(run[0])["conservation"]["tx_sent"] == 3


def _quiet(cls, duration_s, link):
    """Nodes 1 to 3 in range of one another on one lossless link whose
    copies arrive long after a send ends, so no rx event falls inside a
    burst; no traffic, no keys: every send is driven by hand."""
    sc = scenario_from_dict({
        "name": "quiet", "seed": 1, "duration_s": duration_s, "mode": "mesh",
        "nodes": [{"id": i, "role": "gcs" if i == 1 else "uav", "position": [10.0 * i, 0.0]} for i in (1, 2, 3)],
        "links": {"radio": link},
        "security": {"encryption": False},
        "traffic": {"rate_hz": 0.0},
    })
    return cls(sc)


def _queue(sim, node_id, n, nbytes):
    sim._enqueue(sim.nodes[node_id], [sim_module._TxItem("ack", bytes(nbytes), None) for _ in range(n)])


def _interrupted_burst(cls):
    """Node 1 queues four packets at t=0; node 2 sends one halfway
    through node 1's second send."""
    sim = _quiet(cls, 1.0, {"band": "wifi24", "base_latency_s": 0.5, "loss_prob": 0.0})
    airtime = sim.air.profiles["radio"].airtime_s(100)
    sim._schedule(0.0, "timer", lambda: _queue(sim, 1, 4, 100))
    sim._schedule(1.5 * airtime, "timer", lambda: _queue(sim, 2, 1, 100))
    return sim


def test_a_burst_interrupted_by_another_nodes_event_queues_its_tx_done_and_resumes_from_the_heap():
    """The first send's tx_done drains into the second send, whose end
    comes after node 2's event: that tx_done is queued, and popped after
    node 2's send starts, drains the last two sends."""
    sim, reference = _interrupted_burst(FastPops), _interrupted_burst(ReferencePops)
    run = observed(sim)
    assert run == observed(reference)
    assert (sim.tx_done_pops, reference.tx_done_pops) == (2, 5)
    assert json.loads(run[0])["conservation"]["tx_sent"] == 5


def _burst_past_the_end(cls):
    """Node 1 queues three packets 1.5 airtimes before the run ends, so
    its second send ends after it."""
    sim = _quiet(cls, 1.0, {"band": "wifi24", "base_latency_s": 0.5, "loss_prob": 0.0})
    airtime = sim.air.profiles["radio"].airtime_s(100)
    sim._schedule(1.0 - 1.5 * airtime, "timer", lambda: _queue(sim, 1, 3, 100))
    return sim


def test_a_drain_leaves_a_tx_done_past_the_end_of_the_run_on_the_heap():
    sim, reference = _burst_past_the_end(FastPops), _burst_past_the_end(ReferencePops)
    run = observed(sim)
    assert run == observed(reference)
    assert [e[2] for e in sim._heap].count("tx_done") == 1
    assert sim.tx_done_pops == reference.tx_done_pops == 1
    conservation = json.loads(run[0])["conservation"]
    assert (conservation["tx_sent"], conservation["queued_at_end"]) == (2, 1)


def _deferred_burst(cls):
    """Node 1 queues three packets at t=0 on a duty-metered radio whose
    budget holds one send per window: the second and third are deferred."""
    sim = _quiet(cls, 5.0, {"band": "subghz", "base_latency_s": 2.0, "loss_prob": 0.0,
                            "duty_cycle_limit": 0.05, "duty_window_s": 0.5})
    sim._schedule(0.0, "timer", lambda: _queue(sim, 1, 3, 200))
    return sim


def test_a_duty_deferred_send_goes_at_its_time_inside_a_drain():
    """One tx_done event runs the whole burst: both deferrals and the
    sends after them go in place, at the times the meter gave."""
    sim, reference = _deferred_burst(FastPops), _deferred_burst(ReferencePops)
    run = observed(sim)
    assert run == observed(reference)
    assert (sim.tx_done_pops, reference.tx_done_pops) == (1, 5)
    assert [entry["t"] for entry in map(json.loads, run[1]) if entry["event"] == "defer"] == [0.016, 0.516]
    assert json.loads(run[0])["conservation"]["tx_sent"] == 3
