"""Flooding mechanics and star relay tests at the module level."""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmlink import codec, crypto, mesh
from swarmlink.errors import AuthError, ReplayError, UnknownEpoch
from swarmlink.golden import generated_scenarios
from swarmlink.handshake import SessionTable
from swarmlink.metrics import Counters
from swarmlink.rekey import NULL_RING, BroadcastKey, KeyRing
from swarmlink.scenario import scenario_from_dict
from swarmlink.sim import TELEMETRY_MSG_ID, Simulation

from conftest import base_scenario_dict


def make_ring(epoch=1, byte=0x55):
    ring = KeyRing()
    ring.install(
        BroadcastKey(epoch=epoch, key=crypto.SymmetricKey(bytes([byte]) * 32, crypto.KeyPurpose.BROADCAST), not_after=1e9),
        now=0.0,
        grace_window_s=5.0,
    )
    return ring


def frame_of(payload=b"telemetry"):
    return codec.Frame(messages=(codec.TelemetryMessage(1, 7, payload),))


def test_dedup_cache_fifo_eviction():
    cache = mesh.DedupCache(capacity=2)
    cache.add(1, 1)
    cache.add(1, 2)
    assert cache.seen(1, 1) and cache.seen(1, 2)
    cache.add(1, 3)  # evicts (1,1), the oldest entry
    assert not cache.seen(1, 1)
    assert cache.seen(1, 2) and cache.seen(1, 3)
    assert len(cache) == 2
    cache.add(1, 3)  # already held: no eviction
    assert cache.seen(1, 2) and len(cache) == 2


def test_dedup_cache_keeps_origin_and_seq_apart():
    cache = mesh.DedupCache()
    cache.add(1, 0)
    cache.add(0, codec.MAX_SEQ)
    assert not cache.seen(0, 1) and not cache.seen(1, 1) and not cache.seen(2, 0)
    assert cache.seen(1, 0) and cache.seen(0, codec.MAX_SEQ)


def test_dedup_cache_capacity_validated():
    with pytest.raises(ValueError):
        mesh.DedupCache(capacity=0)


def test_originate_assigns_sequences_and_self_dedups():
    ring = make_ring()
    state = mesh.MeshState(node_id=4, dedup=mesh.DedupCache())
    counters = codec.PacketCounters()
    p1 = mesh.originate(state, ring, counters, frame_of(), hop_limit=3)
    p2 = mesh.originate(state, ring, counters, frame_of(), hop_limit=3)
    assert (p1.seq, p2.seq) == (0, 1)
    assert p1.origin == 4
    # a node's own packet echoed back must not be re-flooded
    result = mesh.handle_rx(state, ring.current.key, codec.ReplayWindow(), p1)
    assert result.duplicate


def test_own_packet_stays_a_duplicate_after_its_dedup_entry_is_evicted():
    ring = make_ring()
    state = mesh.MeshState(node_id=4, dedup=mesh.DedupCache(capacity=1))
    own = mesh.originate(state, ring, codec.PacketCounters(), frame_of(), hop_limit=3)
    other = mesh.originate(mesh.MeshState(node_id=5), ring, codec.PacketCounters(), frame_of(), hop_limit=3)
    window = codec.ReplayWindow()
    assert mesh.handle_rx(state, ring.current.key, window, other).deliver is not None  # takes the one slot
    replayed = mesh.handle_rx(state, ring.current.key, window, own)
    assert replayed.duplicate and replayed.deliver is None and replayed.forward is None


def test_handle_rx_delivers_then_suppresses():
    ring = make_ring()
    sender = mesh.MeshState(node_id=2, dedup=mesh.DedupCache())
    receiver = mesh.MeshState(node_id=3, dedup=mesh.DedupCache())
    counters = codec.PacketCounters()
    window = codec.ReplayWindow()
    pkt = mesh.originate(sender, ring, counters, frame_of(b"once"), hop_limit=2)
    first = mesh.handle_rx(receiver, ring.current.key, window, pkt)
    assert first.deliver == frame_of(b"once")
    assert first.forward is not None
    assert first.forward.hop_limit == 1
    again = mesh.handle_rx(receiver, ring.current.key, window, pkt)
    assert again.duplicate and again.deliver is None and again.forward is None


def test_rx_results_keep_their_fields_and_every_duplicate_shares_one():
    assert mesh.RxResult._fields == ("deliver", "forward", "duplicate")
    empty = mesh.RxResult()
    assert (empty.deliver, empty.forward, empty.duplicate) == (None, None, False)
    ring = make_ring()
    receiver = mesh.MeshState(node_id=3)
    pkt = mesh.originate(mesh.MeshState(node_id=2), ring, codec.PacketCounters(), frame_of(), hop_limit=0)
    window = codec.ReplayWindow()
    fresh = mesh.handle_rx(receiver, ring.current.key, window, pkt)
    assert fresh == (frame_of(), None, False)
    assert mesh.handle_rx(receiver, ring.current.key, window, pkt) is mesh._DUPLICATE
    assert mesh.handle_rx(receiver, ring.current.key, window, pkt) is mesh._DUPLICATE


def test_every_cache_that_holds_a_flood_holds_its_one_key_object():
    sim = Simulation(scenario_from_dict(generated_scenarios()["grid25_churn"]))
    sim.run()
    first_held = {}
    holders = {}
    for node in sim.nodes.values():
        cache = node.mesh.dedup
        for key, ordered in zip(cache._keys, cache._order):
            assert ordered is key  # eviction order holds the same object as the lookup
            assert first_held.setdefault(key, key) is key
            holders[key] = holders.get(key, 0) + 1
    assert max(holders.values()) == len(sim.nodes) - 1  # some flood reached every other node


def test_a_flood_copy_rebuilt_from_its_bytes_is_still_a_duplicate():
    ring = make_ring()
    receiver = mesh.MeshState(node_id=3)
    pkt = mesh.originate(mesh.MeshState(node_id=2), ring, codec.PacketCounters(), frame_of(), hop_limit=2)
    window = codec.ReplayWindow()
    forward = mesh.handle_rx(receiver, ring.current.key, window, pkt).forward
    assert forward._flood_key is pkt._flood_key
    (held,) = receiver.dedup._keys
    assert held is pkt._flood_key
    rebuilt = codec.WirePacket.from_bytes(forward.to_bytes())
    assert rebuilt._flood_key == held and rebuilt._flood_key is not held
    assert mesh._fresh_receivers([3], {3: receiver.dedup}, rebuilt) == []
    assert mesh.handle_rx(receiver, ring.current.key, window, rebuilt) is mesh._DUPLICATE


def test_handle_rx_stops_forwarding_at_hop_zero():
    ring = make_ring()
    sender = mesh.MeshState(node_id=2, dedup=mesh.DedupCache())
    receiver = mesh.MeshState(node_id=3, dedup=mesh.DedupCache())
    pkt = mesh.originate(sender, ring, codec.PacketCounters(), frame_of(), hop_limit=0)
    result = mesh.handle_rx(receiver, ring.current.key, codec.ReplayWindow(), pkt)
    assert result.deliver is not None
    assert result.forward is None


def test_handle_rx_failures_do_not_poison_dedup():
    ring = make_ring()
    sender = mesh.MeshState(node_id=2, dedup=mesh.DedupCache())
    receiver = mesh.MeshState(node_id=3, dedup=mesh.DedupCache())
    pkt = mesh.originate(sender, ring, codec.PacketCounters(), frame_of(b"real"), hop_limit=1)
    raw = pkt.to_bytes()
    forged = codec.WirePacket.from_bytes(raw[:-1] + bytes([raw[-1] ^ 1]))
    window = codec.ReplayWindow()
    with pytest.raises(AuthError):  # a refusal returns nothing to deliver or forward
        mesh.handle_rx(receiver, ring.current.key, window, forged)
    assert len(receiver.dedup) == 0
    # the honest copy of the same (origin, seq) still goes through afterward
    good = mesh.handle_rx(receiver, ring.current.key, window, pkt)
    assert good.deliver == frame_of(b"real")


def test_handle_rx_replayed_counter_rejected():
    ring = make_ring()
    sender = mesh.MeshState(node_id=2, dedup=mesh.DedupCache(capacity=1))
    receiver = mesh.MeshState(node_id=3, dedup=mesh.DedupCache(capacity=1))
    counters = codec.PacketCounters()
    window = codec.ReplayWindow()
    p1 = mesh.originate(sender, ring, counters, frame_of(b"a"), hop_limit=1)
    p2 = mesh.originate(sender, ring, counters, frame_of(b"b"), hop_limit=1)
    assert mesh.handle_rx(receiver, ring.current.key, window, p1).deliver
    assert mesh.handle_rx(receiver, ring.current.key, window, p2).deliver  # evicts p1 from dedup
    with pytest.raises(ReplayError):
        mesh.handle_rx(receiver, ring.current.key, window, p1)


def test_handle_rx_without_a_key_answers_duplicates_first_and_refuses_a_fresh_copy_untouched():
    # The order Reference relies on when it hands every receiver's lookup on:
    # a duplicate is answered whatever the key; a fresh copy with no key is
    # refused before the dedup cache or the replay window changes.
    ring = make_ring(epoch=3)
    origin = mesh.MeshState(node_id=2)
    own = mesh.originate(origin, ring, codec.PacketCounters(), frame_of(), hop_limit=2)
    assert mesh.handle_rx(origin, None, codec.ReplayWindow(), own) is mesh._DUPLICATE
    receiver = mesh.MeshState(node_id=3)
    window = codec.ReplayWindow()
    sender, counters = mesh.MeshState(node_id=4), codec.PacketCounters()
    held = mesh.originate(sender, ring, counters, frame_of(b"held"), hop_limit=2)
    assert mesh.handle_rx(receiver, ring.current.key, window, held).deliver == frame_of(b"held")
    assert mesh.handle_rx(receiver, None, window, held) is mesh._DUPLICATE
    fresh = mesh.originate(sender, ring, counters, frame_of(b"fresh"), hop_limit=2)
    cache = (dict(receiver.dedup._keys), list(receiver.dedup._order))
    windows = {epoch: dict(origins) for epoch, origins in window._state.items()}
    with pytest.raises(UnknownEpoch) as info:
        mesh.handle_rx(receiver, None, window, fresh)
    assert str(info.value) == "no usable key for epoch 3"
    assert (dict(receiver.dedup._keys), list(receiver.dedup._order)) == cache
    assert {epoch: dict(origins) for epoch, origins in window._state.items()} == windows
    assert mesh.handle_rx(receiver, ring.current.key, window, fresh).deliver == frame_of(b"fresh")


def test_plaintext_mode_floods_without_keys():
    sender = mesh.MeshState(node_id=2, dedup=mesh.DedupCache())
    receiver = mesh.MeshState(node_id=3, dedup=mesh.DedupCache())
    pkt = mesh.originate_plain(sender, codec.PacketCounters(), frame_of(b"clear"), hop_limit=1)
    assert pkt.tag == codec.PLAIN_TAG and pkt.ciphertext == frame_of(b"clear").to_bytes()
    result = mesh.handle_rx(receiver, NULL_RING.key_for_epoch(pkt.epoch, 0.1), codec.ReplayWindow(), pkt)
    assert result.deliver == frame_of(b"clear")


def test_star_uplink_and_fanout_roundtrip():
    gcs_state = mesh.MeshState(node_id=1, dedup=mesh.DedupCache())
    uav_state = mesh.MeshState(node_id=2, dedup=mesh.DedupCache())
    k2 = crypto.SymmetricKey(b"\x02" * 32, crypto.KeyPurpose.SESSION)
    k3 = crypto.SymmetricKey(b"\x03" * 32, crypto.KeyPurpose.SESSION)
    k4 = crypto.SymmetricKey(b"\x04" * 32, crypto.KeyPurpose.SESSION)
    sessions = SessionTable()
    sessions.established = {2: (k2, 0.0), 3: (k3, 0.0), 4: (k4, 0.0)}

    up_counters = codec.PacketCounters()
    up = mesh.star_uplink(uav_state, k2, up_counters, frame_of(b"report"))
    assert up.epoch == 0 and up.hop_limit == 0
    gcs_window = codec.ReplayWindow()
    frame = codec.open_with_key(k2, gcs_window, up)
    assert frame == frame_of(b"report")

    gcs_counters = codec.PacketCounters()
    fanout = mesh.star_fanout(gcs_state, sessions, gcs_counters, frame, exclude_id=2)
    assert [uav for uav, _ in fanout] == [3, 4]
    seqs = {pkt.seq for _, pkt in fanout}
    assert len(seqs) == 1  # one logical relay event
    counters = {pkt.counter for _, pkt in fanout}
    assert len(counters) == len(fanout)  # distinct nonce per sealed copy
    for uav_id, pkt in fanout:
        key = sessions.key_for(uav_id)
        assert codec.open_with_key(key, codec.ReplayWindow(), pkt) == frame
        with pytest.raises(AuthError):
            codec.open_with_key(k2, codec.ReplayWindow(), pkt)


# An AES session key, or the null cipher's NULL_KEY, which seals on the same path.
SEAL_KEYS = st.one_of(
    st.just(crypto.NULL_KEY), st.binary(min_size=32, max_size=32).map(crypto.SymmetricKey)
)


def _assert_sealed_as_aead_seal_would(packet, key, frame):
    """The copy's ciphertext and tag are `crypto.aead_seal`'s box under
    `key`, its nonce and AAD, and its kept encoding is header plus both."""
    box = crypto.aead_seal(key, packet.nonce(), frame.to_bytes(), packet.aad())
    assert packet.ciphertext + packet.tag == box.to_bytes()
    assert packet.to_bytes() == packet.header_bytes() + packet.ciphertext + packet.tag


@settings(max_examples=100, deadline=None)
@given(
    keys=st.dictionaries(st.integers(2, 30), SEAL_KEYS, min_size=1, max_size=6),
    exclude_id=st.one_of(st.none(), st.integers(2, 30)),
    payload=st.binary(max_size=64),
)
def test_every_star_copy_is_what_aead_seal_gives_under_its_uavs_key(keys, exclude_id, payload):
    sessions = SessionTable()
    sessions.established = {uav_id: (key, 0.0) for uav_id, key in keys.items()}
    frame = frame_of(payload)
    fanout = mesh.star_fanout(mesh.MeshState(node_id=1), sessions, codec.PacketCounters(), frame, exclude_id)
    assert [uav_id for uav_id, _ in fanout] == [u for u in sessions.sessioned_ids() if u != exclude_id]
    for uav_id, packet in fanout:
        _assert_sealed_as_aead_seal_would(packet, keys[uav_id], frame)


@settings(max_examples=100, deadline=None)
@given(
    key=SEAL_KEYS,
    epoch=st.integers(0, 0xFFFFFFFF),
    origin=st.integers(0, 0xFFFF),
    seq=st.integers(0, codec.MAX_SEQ),
    hop_limit=st.integers(0, 0xFF),
    payload=st.binary(max_size=64),
)
def test_seal_with_key_gives_what_aead_seal_gives(key, epoch, origin, seq, hop_limit, payload):
    frame = frame_of(payload)
    packet = codec.seal_with_key(key, epoch, origin, seq, hop_limit, frame, codec.PacketCounters())
    _assert_sealed_as_aead_seal_would(packet, key, frame)


HOP_BYTE = 11  # version(1)+epoch(4)+origin(2)+seq(4) precede the hop limit


def _deliver_to(sim, node_id, raw, packet=None):
    """One-receiver batch down the run's receive path; returns its outcomes."""
    outcomes = Counters()
    sim._deliver("rx_processed", [node_id], raw, packet, outcomes.bump)
    return outcomes.values


def _keyed_sim():
    """A three-node mesh run with one broadcast key in every ring and a
    packet originated by node 2, which keeps its seal under that key and
    whose honest copy node 3 has opened."""
    sim = Simulation(scenario_from_dict(base_scenario_dict()))
    bkey = BroadcastKey(epoch=1, key=crypto.SymmetricKey(b"\x66" * 32, crypto.KeyPurpose.BROADCAST), not_after=1e9)
    for node in sim.nodes.values():
        node.keyring.install(bkey, now=0.0, grace_window_s=5.0)
    payload = sim.audit.record_send(2, 0.0) + bytes(16)
    frame = codec.Frame(messages=(codec.TelemetryMessage(TELEMETRY_MSG_ID, 2, payload),))
    origin = sim.nodes[2]
    packet = mesh.originate(origin.mesh, origin.keyring, origin.counters, frame, hop_limit=3)
    assert _deliver_to(sim, 3, packet.to_bytes(), packet) == {"delivered_new": 1}
    assert packet._sealed == (bkey.key.bytes_, frame)
    return sim, packet


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_flooded_packet_with_one_byte_flipped_never_decodes_nor_writes_to_either_packet(data):
    # Byte 0 picks the message class and byte 11 is the hop limit, which the
    # seal leaves out on purpose; every other byte is authenticated. Node 1
    # receives the copy: no single flip turns origin 2 into 1 (a duplicate).
    sim, packet = _keyed_sim()
    raw = packet.to_bytes()
    pos = data.draw(st.integers(1, len(raw) - 1).filter(lambda i: i != HOP_BYTE), label="byte")
    bit = data.draw(st.integers(0, 7), label="bit")
    mutated = bytearray(raw)
    mutated[pos] ^= 1 << bit
    flipped = codec.WirePacket.from_bytes(bytes(mutated))
    states = [dict(vars(flipped)), dict(vars(packet))]
    for message in (None, flipped):  # parsed on arrival, or handed over parsed
        (outcome, count), = _deliver_to(sim, 1, bytes(mutated), message).items()
        assert outcome.startswith("rejected_") and outcome != "rejected_dedup" and count == 1
    assert sum(sim.security_events.values()) == 2
    # Nothing was written to the flipped copy, nor to the honest one.
    assert [vars(flipped), vars(packet)] == states and flipped._sealed is None
    assert 1 not in sim.audit.node_bits  # node 1 got no delivery
    # The honest copy still opens at node 1 afterwards.
    assert _deliver_to(sim, 1, raw) == {"delivered_new": 1}


def _star_sim():
    """A star run whose ground station (node 1) holds a session with UAV 3
    and has fanned out a frame of UAV 2's to it: the one copy, sealed
    under UAV 3's session key, which UAV 3 holds too."""
    sim = Simulation(scenario_from_dict(base_scenario_dict(mode="star")))
    key = crypto.SymmetricKey(b"\x67" * 32)
    sim.sessions.established = {3: (key, 0.0)}
    sim.nodes[3].session_key = key
    payload = sim.audit.record_send(2, 0.0) + bytes(16)
    frame = codec.Frame(messages=(codec.TelemetryMessage(TELEMETRY_MSG_ID, 2, payload),))
    gcs = sim.nodes[1]
    (uav_id, packet), = mesh.star_fanout(gcs.mesh, sim.sessions, gcs.counters, frame, exclude_id=2)
    assert uav_id == 3 and packet._sealed == (key.bytes_, frame)
    return sim, packet


EPOCH_BYTES = range(1, 5)  # a star copy's epoch must read 0, refused before any open


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_star_copy_with_one_byte_flipped_is_refused_by_a_real_open_nor_writes_to_either_packet(data):
    # The copy keeps its seal, under UAV 3's key, yet a copy with one
    # authenticated byte flipped is a packet with no seal, so UAV 3
    # refuses it through an AES-GCM open of its own.
    sim, packet = _star_sim()
    raw = packet.to_bytes()
    pos = data.draw(st.integers(1, len(raw) - 1).filter(lambda i: i != HOP_BYTE), label="byte")
    bit = data.draw(st.integers(0, 7), label="bit")
    mutated = bytearray(raw)
    mutated[pos] ^= 1 << bit
    flipped = codec.WirePacket.from_bytes(bytes(mutated))
    states = [dict(vars(flipped)), dict(vars(packet))]
    opens = []
    real_open = crypto.aead_open
    crypto.aead_open = lambda *a: opens.append(a) or real_open(*a)
    try:
        for message in (None, flipped):  # parsed on arrival, or handed over parsed
            outcome = "rejected_UnknownEpoch" if pos in EPOCH_BYTES else "rejected_AuthError"
            assert _deliver_to(sim, 3, bytes(mutated), message) == {outcome: 1}
        assert len(opens) == (0 if pos in EPOCH_BYTES else 2)
        # Nothing was written to the flipped copy, nor to the honest one.
        assert [vars(flipped), vars(packet)] == states and flipped._sealed is None
        assert 3 not in sim.audit.node_bits  # UAV 3 got no delivery
        # The honest copy still opens at UAV 3 afterwards, through its seal.
        assert _deliver_to(sim, 3, raw, packet) == {"delivered_new": 1}
        assert len(opens) == (0 if pos in EPOCH_BYTES else 2)
    finally:
        crypto.aead_open = real_open


def _opened_in_one_run(monkeypatch, scenario):
    """Over one run: the box of every AES-GCM open, and the frames the
    receive path returned with the seals of the packets they came from."""
    opens, frames, seals = [], [], []
    real_open, real_frame = crypto.aead_open, codec._open_frame

    def recorded_frame(key, packet):
        frames.append(real_frame(key, packet))
        seals.append(packet._sealed)
        return frames[-1]

    monkeypatch.setattr(crypto, "aead_open", lambda *a: opens.append(a[2]) or real_open(*a))
    monkeypatch.setattr(codec, "_open_frame", recorded_frame)
    Simulation(scenario_from_dict(scenario)).run()
    monkeypatch.undo()
    return opens, frames, seals


def test_two_runs_share_no_opened_frames(monkeypatch):
    first_opens, first, _ = _opened_in_one_run(monkeypatch, base_scenario_dict())
    second_opens, second, _ = _opened_in_one_run(monkeypatch, base_scenario_dict())
    # The second run verifies as often as the first and returns none of its frames.
    assert len(second_opens) == len(first_opens) > 0 and len(second) == len(first) > len(first_opens)
    assert not {id(f) for f in first} & {id(f) for f in second}


def test_two_star_runs_share_no_frame_nor_seal_and_open_no_data_packet(monkeypatch):
    first_opens, first, first_seals = _opened_in_one_run(monkeypatch, base_scenario_dict(mode="star"))
    second_opens, second, second_seals = _opened_in_one_run(monkeypatch, base_scenario_dict(mode="star"))
    assert len(first) == len(second) > 0
    # Every star copy is opened by the holder of the key that sealed it,
    # so it takes its seal's frame, and a star run has no rekey to
    # unwrap: nothing is decrypted.
    assert first_opens == second_opens == []
    assert all(seal[1] is frame for seal, frame in zip(first_seals, first))
    assert not {id(f) for f in first} & {id(f) for f in second}
    assert not {id(seal) for seal in first_seals} & {id(seal) for seal in second_seals}


def test_a_run_full_of_rejected_receptions_leaves_no_cyclic_garbage():
    simulation = Simulation(scenario_from_dict(generated_scenarios()["contested13_replay"]))
    gc.collect()
    gc.disable()
    try:
        simulation.run()
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert sum(simulation.security_events.values()) > 1000
    assert unreachable == 0
