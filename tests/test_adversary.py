"""Adversary taps: one per declared kind, and the simulator names none."""

import inspect
import types

import pytest

from swarmlink import adversary, codec, crypto, sim
from swarmlink.golden import locked_scenarios
from swarmlink.metrics import Counters, render_json
from swarmlink.scenario import ADVERSARY_KINDS, scenario_from_dict
from swarmlink.sim import run_scenario

from conftest import base_scenario_dict

LOCKED = locked_scenarios()


def test_every_adversary_kind_has_a_tap():
    assert sorted(adversary.TAPS) == sorted(ADVERSARY_KINDS)
    assert len({tap.name for tap in adversary.TAPS.values()}) == len(ADVERSARY_KINDS)


def test_the_simulator_names_no_adversary_kind():
    source = inspect.getsource(sim)
    assert [kind for kind in ADVERSARY_KINDS if kind in source] == []


def test_replay_outcomes_account_for_every_injected_reception():
    report, _ = run_scenario(LOCKED["replay_attack"])
    replay = report["adversary"]["replay"]
    tallied = sum(replay["rejected"].values()) + replay["delivered_new"]
    assert tallied == report["conservation"]["adv_rx_processed"] > 0


def test_eavesdropper_builds_one_key_per_leaked_epoch_not_per_packet(monkeypatch):
    built = []

    def counted_key(*args, **kwargs):
        built.append(args)
        return crypto.SymmetricKey(*args, **kwargs)

    spy = types.SimpleNamespace(**{**vars(crypto), "SymmetricKey": counted_key})
    monkeypatch.setattr(adversary, "crypto", spy)
    report, _ = run_scenario(LOCKED["eavesdrop_keyleak"])
    spied = report["adversary"]["eavesdrop"]
    assert spied["leaked_epochs"] == [1] and spied["recovered_packets"] > 1
    assert len(built) == 1


@pytest.mark.parametrize(
    "name, recovered, opened_packets",
    [("eavesdrop_keyleak", {"1": 96}, 0), ("contested13_replay", {"2": 1261}, 11)],
)
def test_eavesdropper_takes_the_seal_and_still_counts_every_copy(monkeypatch, name, recovered, opened_packets):
    opens = []
    real_open = crypto.aead_open

    def counted_open(key, nonce, box, aad):
        opens.append((key, box))
        return real_open(key, nonce, box, aad)

    # Each packet parsed from bytes, with the kind of event that parsed it.
    parsed = []
    real_parse = codec.WirePacket.from_bytes.__func__

    def recorded_parse(cls, data):
        packet = real_parse(cls, data)
        parsed.append((simulation._event[2], packet))
        return packet

    monkeypatch.setattr(crypto, "aead_open", counted_open)
    monkeypatch.setattr(codec.WirePacket, "from_bytes", classmethod(recorded_parse))
    simulation = sim.Simulation(LOCKED[name])
    report = simulation.run()
    tap = next(t for t in simulation.taps if t.name == "eavesdrop")
    assert report["adversary"]["eavesdrop"]["recovered_by_epoch"] == recovered
    # Every honest copy the tap reads was sealed under the leaked key's
    # bytes, so it takes the frame the copy's seal kept. Only bytes a
    # replay injector re-sent arrive in a packet with no seal: parsed once
    # per injection event, and, since no open writes a seal, opened once
    # by the node that accepts it and once by the tap, which reads that
    # node's forward. A packet's forwards share its ciphertext, and a
    # parsed packet's ciphertext is a bytes object of its own, so its id
    # names the injected packet an open was of.
    leaked = {key.bytes_ for key in tap.keys.values()}
    own = {id(key) for key in tap.keys.values()}
    by_tap = [box.ciphertext for key, box in opens if id(key) in own]
    by_nodes = [box.ciphertext for key, box in opens if key.bytes_ in leaked and id(key) not in own]
    assert {kind for kind, _packet in parsed} <= {"advrx"}
    injected = {id(packet.ciphertext) for _kind, packet in parsed}
    for ciphertexts in (by_tap, by_nodes):
        assert len(ciphertexts) == len({id(ct) for ct in ciphertexts}) == opened_packets
        assert {id(ct) for ct in ciphertexts} <= injected
    assert {id(ct) for ct in by_tap} == {id(ct) for ct in by_nodes}
    injections = sum(t.injections for t in simulation.taps if t.name == "replay")
    assert len(parsed) == injections


class PlainReplayInjector(adversary.ReplayInjector):
    """The replay tap recording each transmission's own bytes and receiver
    tuple, with no canonicalising: the reference the shared records must
    match pick for pick and byte for byte."""

    def on_air(self, item, result, data):
        if item.kind == "data" and result.delivered:
            self.recorded.append(item.data)
            self.recorded_rx.append(result.delivered)
        return data


REPLAYED = [name for name, sc in LOCKED.items() if any(spec.kind == "replay_injector" for spec in sc.adversaries)]


def test_the_locked_replay_runs_are_the_ones_the_reference_covers():
    assert sorted(REPLAYED) == ["contested13_replay", "plain9_replay_down", "replay_attack", "star9_mitm_replay"]


def _replay_run(name):
    """A run's report bytes, trace lines and its replay tap's records."""
    simulation = sim.Simulation(LOCKED[name])
    report = simulation.run()
    tap = next(t for t in simulation.taps if t.name == "replay")
    return render_json(report), simulation.trace, tap.recorded, tap.recorded_rx


@pytest.mark.parametrize("name", REPLAYED)
def test_shared_replay_records_give_the_bytes_of_the_plain_recorder(monkeypatch, name):
    shared = _replay_run(name)
    monkeypatch.setitem(adversary.TAPS, "replay_injector", PlainReplayInjector)
    plain = _replay_run(name)
    # The records too: a replayed copy that differs only where no locked
    # run looks (its hop byte, say) must not pass for another.
    assert plain == shared


def test_each_replay_hands_over_the_picked_transmission_with_its_own_hop_byte():
    # The tap's own records, not the run's report, say which copy a replay
    # sends: each injection must hand over the picked transmission's bytes,
    # hop byte included, and its receiver tuple.
    simulation = sim.Simulation(LOCKED["contested13_replay"])
    tap = next(t for t in simulation.taps if t.name == "replay")
    sent, picks, injected = [], [], []
    real_on_air, real_randrange, real_inject = tap.on_air, simulation.rng_adv.randrange, simulation.inject

    def on_air(item, result, data):
        if item.kind == "data" and result.delivered:
            sent.append((item.data, result.delivered))
        return real_on_air(item, result, data)

    def randrange(n):
        assert n == len(sent)  # the draw is over every transmission so far
        picks.append(real_randrange(n))
        return picks[-1]

    def inject(receiver_ids, data, tally):
        injected.append((data, receiver_ids))
        real_inject(receiver_ids, data, tally)

    tap.on_air, simulation.rng_adv.randrange, simulation.inject = on_air, randrange, inject
    simulation.run()
    assert len(picks) == len(injected) == tap.injections > 0
    hop = codec._HOP_OFFSET
    other_hops = 0  # picks whose flood was recorded earlier under another hop byte
    for pick, (data, receiver_ids) in zip(picks, injected):
        assert (data, receiver_ids) == sent[pick]
        body = data[:hop] + data[hop + 1:]
        other_hops += any(d[:hop] + d[hop + 1:] == body and d[hop] != data[hop] for d, _ in sent[:pick])
    assert other_hops > 0


def _one_object_per_value(values):
    return len({id(value) for value in values}) == len(set(values))


@pytest.mark.parametrize("name", REPLAYED)
def test_equal_replay_records_are_one_object(name):
    simulation = sim.Simulation(LOCKED[name])
    simulation.run()
    tap = next(t for t in simulation.taps if t.name == "replay")
    # Receiver tuples repeat on every run, so the check below has something
    # to share; payloads repeat where a flood forwards them, not in a star.
    assert len(set(tap.recorded_rx)) < len(tap.recorded_rx)
    assert (len(set(tap.recorded)) < len(tap.recorded)) == (simulation.sc.mode == "mesh")
    assert _one_object_per_value(tap.recorded) and _one_object_per_value(tap.recorded_rx)


@pytest.mark.parametrize("name", ["eavesdrop_keyleak", "contested13_replay"])
def test_eavesdropper_keeps_nothing_per_packet_and_still_recovers(name):
    simulation = sim.Simulation(LOCKED[name])
    eavesdrop = simulation.run()["adversary"]["eavesdrop"]
    tap = next(t for t in simulation.taps if t.name == "eavesdrop")
    assert sorted(vars(tap)) == ["end", "keys", "observed", "recovered", "sim", "start"]
    # Each table it holds is keyed by epoch, and the keys are the leaked ones.
    assert sorted(tap.keys) == eavesdrop["leaked_epochs"] and set(tap.keys) <= set(simulation.sc.security.leak_epochs)
    epochs = {int(epoch) for epoch in tap.observed}
    tables = (tap.keys, tap.observed, tap.recovered)
    assert all({int(epoch) for epoch in table} <= epochs for table in tables)
    assert 0 < eavesdrop["recovered_packets"] and len(epochs) < eavesdrop["observed_packets"]


def test_a_forged_packet_forwarded_on_the_air_is_observed_not_recovered(monkeypatch):
    # A plaintext flood that a tap injects opens for the eavesdropper, but
    # its message's tag names no message node 2 sent; every honest packet
    # of a plaintext run is recovered.
    sc = scenario_from_dict(
        base_scenario_dict(security={"encryption": False}, adversaries=[{"kind": "eavesdrop"}])
    )
    simulation = sim.Simulation(sc)
    message = codec.TelemetryMessage(sim.TELEMETRY_MSG_ID, 2, (99_999).to_bytes(8, "big"))
    forged = codec.seal_packet_plain(4000, 0, 3, codec.Frame(messages=(message,)), codec.PacketCounters())
    outcomes = Counters()
    simulation._schedule(2.0, "timer", lambda: simulation.inject((3,), forged.to_bytes(), outcomes.bump))
    origins = []
    real_on_air = adversary.Eavesdrop.on_air

    def seen(tap, item, result, data):
        if item.kind == "data":
            origins.append(item.message.origin)
        return real_on_air(tap, item, result, data)

    monkeypatch.setattr(adversary.Eavesdrop, "on_air", seen)
    report = simulation.run()
    eavesdrop = report["adversary"]["eavesdrop"]
    assert outcomes.values == {"delivered_new": 1}
    forwards = origins.count(4000)
    assert forwards > 0 and eavesdrop["observed_packets"] == len(origins) > forwards
    assert eavesdrop["recovered_packets"] == len(origins) - forwards
