"""Framing, packet sealing, counters, and replay-window tests."""

import dataclasses
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmlink import codec, crypto, wire
from swarmlink.errors import (
    AuthError,
    CounterExhausted,
    MessageTooLarge,
    NoBroadcastKey,
    ReplayError,
    UnknownEpoch,
    ValidationError,
)
from swarmlink.rekey import BroadcastKey, KeyRing


def bkey(epoch=1, byte=0x20, not_after=1e9):
    return BroadcastKey(epoch=epoch, key=crypto.SymmetricKey(bytes([byte]) * 32, crypto.KeyPurpose.BROADCAST), not_after=not_after)


def ring(epoch=1, byte=0x20):
    r = KeyRing()
    r.install(bkey(epoch, byte), now=0.0, grace_window_s=5.0)
    return r


def msg(i, payload):
    return codec.TelemetryMessage(msg_id=i, source_node=7, payload=payload)


# ---- frames -----------------------------------------------------------------


def test_frame_roundtrip_simple():
    f = codec.Frame(messages=(msg(1, b"abc"), msg(2, b"")))
    back = codec.Frame.from_bytes(f.to_bytes())
    assert back == f


def test_frame_roundtrip_boundaries():
    empty = codec.Frame(messages=())
    assert codec.Frame.from_bytes(empty.to_bytes()) == empty
    big = codec.Frame(messages=(msg(1, bytes(255)),))
    assert codec.Frame.from_bytes(big.to_bytes()) == big
    many = codec.Frame(messages=tuple(msg(i % 256, b"x") for i in range(255)))
    assert codec.Frame.from_bytes(many.to_bytes()) == many


def test_frame_rejects_overlong():
    with pytest.raises(ValidationError):
        codec.TelemetryMessage(msg_id=1, source_node=7, payload=bytes(256))
    with pytest.raises(ValidationError):
        codec.Frame(messages=(msg(1, b""),) * 256)


def test_frame_parse_rejects_trailing_bytes():
    raw = codec.Frame(messages=(msg(1, b"ab"),)).to_bytes()
    with pytest.raises(ValidationError):
        codec.Frame.from_bytes(raw + b"\x00")


def test_frame_parse_rejects_truncation():
    raw = codec.Frame(messages=(msg(1, b"abcd"),)).to_bytes()
    for cut in range(len(raw)):
        with pytest.raises(ValidationError):
            codec.Frame.from_bytes(raw[:cut])


frames = st.lists(
    st.builds(msg, st.integers(0, 255), st.binary(max_size=40)), max_size=6
).map(lambda ms: codec.Frame(messages=tuple(ms)))


@settings(max_examples=100, deadline=None)
@given(frame=frames)
def test_a_parsed_frame_keeps_exactly_the_encoding_a_fresh_one_builds(frame):
    raw = frame.to_bytes()
    back = codec.Frame.from_bytes(raw)
    assert back == frame and hash(back) == hash(frame)
    assert back.to_bytes() == codec.Frame(messages=back.messages).to_bytes() == raw


def test_a_frame_is_encoded_once_and_its_encoding_is_not_part_of_its_value():
    frame = codec.Frame(messages=(msg(1, b"relayed"),))
    assert repr(frame) == repr(codec.Frame(messages=frame.messages))  # before encoding
    first = frame.to_bytes()
    assert frame.to_bytes() is first
    assert repr(frame) == repr(codec.Frame(messages=frame.messages))  # and after
    assert "_encoded" not in repr(frame)
    k2, k3 = (crypto.SymmetricKey(bytes([b]) * 32) for b in (2, 3))
    counters = codec.PacketCounters()
    copies = [codec.seal_with_key(k, 0, 1, 0, 0, frame, counters) for k in (k2, k3)]
    assert [codec.open_with_key(k, codec.ReplayWindow(), p) for k, p in zip((k2, k3), copies)] == [frame] * 2


# ---- packing ----------------------------------------------------------------


def oracle_pack(sizes, capacity):
    """Reference packing: walk messages in order, close the frame when the
    next one does not fit. Returns the list of per-frame message counts."""
    frames = []
    used = 1  # count byte
    count = 0
    for s in sizes:
        need = 4 + s
        if count and used + need > capacity:
            frames.append(count)
            used, count = 1, 0
        used += need
        count += 1
    if count:
        frames.append(count)
    return frames


@given(
    st.lists(st.integers(min_value=0, max_value=255), max_size=60),
    st.integers(min_value=300, max_value=1500),
)
@settings(max_examples=200, deadline=None)
def test_compose_matches_oracle_and_preserves_order(sizes, mtu):
    cap = codec.frame_capacity(mtu)
    msgs = [codec.TelemetryMessage(msg_id=i % 256, source_node=i % 65536, payload=bytes([i % 256]) * s) for i, s in enumerate(sizes)]
    frames = codec.compose_frames(msgs, mtu)
    assert [len(f.messages) for f in frames] == oracle_pack(sizes, cap)
    flat = [m for f in frames for m in f.messages]
    assert flat == msgs
    for f in frames:
        assert f.serialized_len() <= cap
        assert codec.Frame.from_bytes(f.to_bytes()) == f


def test_compose_rejects_unfittable_message():
    mtu = 200  # small enough that the 255-byte payload cap is not the binding limit
    cap = codec.frame_capacity(mtu)
    too_big = cap - 4  # payload such that 1 + 4 + payload > cap
    with pytest.raises(MessageTooLarge):
        codec.compose_frames([msg(1, bytes(too_big))], mtu)
    fits = cap - 5
    assert codec.compose_frames([msg(1, bytes(fits))], mtu)


def test_frame_capacity_accounts_for_packet_overhead():
    assert codec.frame_capacity(1500) == 1500 - codec.PACKET_OVERHEAD
    assert codec.PACKET_OVERHEAD == codec.HEADER_LEN + crypto.TAG_LEN


# ---- wire packets -----------------------------------------------------------


def test_packet_roundtrip_bytes():
    r = ring()
    counters = codec.PacketCounters()
    frame = codec.Frame(messages=(msg(3, b"hello"),))
    pkt = codec.seal_packet(r, 9, 4, 8, frame, counters)
    back = codec.WirePacket.from_bytes(pkt.to_bytes())
    assert back == pkt
    assert back.wire_len() == len(pkt.to_bytes())


def test_packet_nonce_and_aad_layout():
    r = ring(epoch=0x01020304)
    counters = codec.PacketCounters()
    pkt = codec.seal_packet(r, 0x0A0B, 1, 8, codec.Frame(messages=()), counters)
    assert pkt.nonce() == bytes.fromhex("01020304") + bytes.fromhex("0a0b") + b"\x00" * 6
    # hop_limit is mutable in flight, so the seal must not bind it: the aad
    # is the header with the hop byte (offset 11) spliced out
    header = pkt.header_bytes()
    assert pkt.aad() == header[:11] + header[12:]
    hop_less = pkt.forwarded()
    assert hop_less.aad() == pkt.aad()
    assert hop_less.hop_limit == 7


def test_forwarded_packet_still_opens():
    r = ring()
    counters = codec.PacketCounters()
    frame = codec.Frame(messages=(msg(1, b"fwd me"),))
    pkt = codec.seal_packet(r, 2, 0, 3, frame, counters)
    hopped = pkt.forwarded().forwarded()
    window = codec.ReplayWindow()
    assert codec.open_packet(r, window, hopped, now=1.0) == frame


def test_open_rejects_tampering_everywhere():
    r = ring()
    counters = codec.PacketCounters()
    frame = codec.Frame(messages=(msg(1, b"integrity"),))
    pkt = codec.seal_packet(r, 2, 0, 3, frame, counters)
    raw = pkt.to_bytes()
    hop_index = 11  # version(1)+epoch(4)+origin(2)+seq(4) precede the hop byte
    for i in range(len(raw)):
        if i == hop_index:
            continue
        mutated = raw[:i] + bytes([raw[i] ^ 0x01]) + raw[i + 1 :]
        window = codec.ReplayWindow()
        if i == 0:
            with pytest.raises(ValidationError):
                codec.WirePacket.from_bytes(mutated)
            continue
        bad = codec.WirePacket.from_bytes(mutated)
        with pytest.raises((AuthError, UnknownEpoch)):
            codec.open_packet(r, window, bad, now=1.0)


headers = st.fixed_dictionaries(
    {
        "epoch": st.integers(0, 0xFFFFFFFF),
        "origin": st.integers(0, wire.NODE_ID_MAX),
        "seq": st.integers(0, codec.MAX_SEQ),
        "hop_limit": st.integers(0, 0xFF),
        "counter": st.integers(0, codec.MAX_COUNTER),
    }
)


def forward_chain(packet, hops=4):
    """The packet and up to `hops` forwards of it, each from the one before."""
    chain = [packet]
    while len(chain) <= hops and chain[-1].hop_limit > 0:
        chain.append(chain[-1].forwarded())
    return chain


def nonce_and_aad(version, epoch, origin, seq, counter):
    """The nonce and AAD the module docstring lays out, built field by field."""
    counter_bytes = counter.to_bytes(6, "big")
    nonce = epoch.to_bytes(4, "big") + origin.to_bytes(2, "big") + counter_bytes
    return nonce, bytes([version]) + nonce[:6] + seq.to_bytes(4, "big") + counter_bytes


def assert_state_matches_fields(packet):
    fields = (packet.version, packet.epoch, packet.origin, packet.seq, packet.counter)
    assert packet.to_bytes() == packet.header_bytes() + packet.ciphertext + packet.tag
    assert (packet.nonce(), packet.aad()) == nonce_and_aad(*fields)
    assert packet._aead_box() == crypto.AeadBox(packet.ciphertext, packet.tag)
    assert packet._aead_box().to_bytes() == packet.ciphertext + packet.tag


@settings(max_examples=150, deadline=None)
@given(header=headers, ciphertext=st.binary(max_size=64), tag=st.binary(min_size=16, max_size=16))
def test_a_packet_keeps_only_state_its_fields_determine(header, ciphertext, tag):
    built = codec.WirePacket(**header, ciphertext=ciphertext, tag=tag)
    parsed = codec.WirePacket.from_bytes(built.to_bytes())
    assert parsed == built and hash(parsed) == hash(built) and repr(parsed) == repr(built)
    for packet in forward_chain(parsed) + forward_chain(built):
        assert_state_matches_fields(packet)
        assert codec.WirePacket.from_bytes(packet.to_bytes()) == packet
        fresh = codec.WirePacket(**{f.name: getattr(packet, f.name) for f in dataclasses.fields(packet)})
        assert fresh == packet and repr(fresh) == repr(packet) and fresh.to_bytes() == packet.to_bytes()
    changed = dataclasses.replace(
        parsed, seq=(parsed.seq + 1) % (codec.MAX_SEQ + 1), ciphertext=ciphertext + b"x", tag=tag[::-1]
    )
    assert_state_matches_fields(changed)


@settings(max_examples=60, deadline=None)
@given(
    header=headers,
    payload=st.binary(max_size=40),
    flip=st.integers(0, 10**6),
)
def test_every_forward_of_a_sealed_packet_opens_under_its_key_and_no_other(header, payload, flip):
    key, wrong = crypto.SymmetricKey(b"\x20" * 32), crypto.SymmetricKey(b"\x21" * 32)
    frame = codec.Frame(messages=(msg(1, payload),))
    counters = codec.PacketCounters()
    counters._next[header["epoch"]] = header["counter"]
    sealed = codec.seal_with_key(
        key, header["epoch"], header["origin"], header["seq"], header["hop_limit"], frame, counters
    )
    for packet in forward_chain(sealed):
        assert_state_matches_fields(packet)
        assert codec.open_with_key(key, codec.ReplayWindow(), packet) == frame
        with pytest.raises(AuthError):
            codec.open_with_key(wrong, codec.ReplayWindow(), packet)
        raw = packet.to_bytes()
        i = 1 + flip % (len(raw) - 2)  # any byte but the version byte and the hop byte
        i += i >= 11
        flipped = codec.WirePacket.from_bytes(raw[:i] + bytes([raw[i] ^ 0x01]) + raw[i + 1 :])
        with pytest.raises(AuthError):
            codec.open_with_key(key, codec.ReplayWindow(), flipped)
        with pytest.raises(AuthError):  # a replaced field leaves no seal state behind
            codec.open_with_key(key, codec.ReplayWindow(), dataclasses.replace(packet, tag=packet.tag[::-1]))


@settings(max_examples=100, deadline=None)
@given(header=headers, payload=st.binary(max_size=40))
def test_a_sealed_packet_holds_what_the_constructor_builds_plus_its_seal_state(header, payload):
    """seal_with_key builds its packet's state without WirePacket(), whose
    checks its header pack has made: that state must be the constructor's
    for the same fields (the flood key too) plus the kept box and encoding,
    so a field added to WirePacket cannot be missed there. The box holds
    the seal's memo: the sealing key's bytes and the frame sealed."""
    frame = codec.Frame(messages=(msg(1, payload),))
    counters = codec.PacketCounters()
    counters._next[header["epoch"]] = header["counter"]
    key = crypto.SymmetricKey(b"\x20" * 32)
    sealed = codec.seal_with_key(
        key, header["epoch"], header["origin"], header["seq"], header["hop_limit"], frame, counters,
    )
    built = codec.WirePacket(**header, ciphertext=sealed.ciphertext, tag=sealed.tag)
    built.__dict__.update(_kept_box=sealed._kept_box, _encoded=built.to_bytes())
    assert type(sealed) is codec.WirePacket and vars(sealed) == vars(built)
    assert codec.WirePacket.from_bytes(sealed.to_bytes()) == sealed
    assert sealed._kept_box.tag == sealed.tag and len(sealed.tag) == crypto.TAG_LEN
    memo_key, memo_frame = sealed._kept_box._verified
    assert memo_key == key.bytes_ and memo_frame is frame


@pytest.mark.parametrize(
    "field, value",
    [("epoch", 2**32), ("epoch", -1), ("origin", wire.NODE_ID_MAX + 1), ("origin", -1),
     ("seq", codec.MAX_SEQ + 1), ("seq", -1), ("hop_limit", 0x100), ("hop_limit", -1),
     ("counter", codec.MAX_COUNTER + 1), ("counter", -1)],
)
def test_sealing_an_out_of_range_header_field_raises_the_error_naming_it(field, value):
    header = {"epoch": 0, "origin": 1, "seq": 0, "hop_limit": 3, "counter": 0, field: value}
    counter = header.pop("counter")
    # Any counter, even one PacketCounters would refuse to hand out.
    counters = types.SimpleNamespace(next_for=lambda epoch: counter)
    frame = codec.Frame(messages=(msg(1, b"x"),))
    with pytest.raises(ValidationError) as err:
        codec.seal_with_key(crypto.SymmetricKey(b"\x20" * 32), *header.values(), frame, counters)
    assert err.value.field == field


def test_a_packet_keeps_its_seal_state_outside_its_value():
    frame = codec.Frame(messages=(msg(1, b"kept"),))
    sealed = codec.seal_packet(ring(), 2, 0, 3, frame, codec.PacketCounters())
    bare = codec.WirePacket(**{f.name: getattr(sealed, f.name) for f in dataclasses.fields(sealed)})
    assert sealed._kept_box is not None and bare._kept_box is None
    assert sealed == bare and hash(sealed) == hash(bare) and repr(sealed) == repr(bare)
    assert "_kept" not in repr(sealed) and "_encoded" not in repr(sealed)
    first = sealed.to_bytes()
    assert sealed.to_bytes() is first  # encoded once
    copy = sealed.forwarded()
    assert copy._kept_box is sealed._kept_box and sealed._kept_box._verified[1] is frame
    assert copy._nonce_aad() == sealed._nonce_aad()  # hop_limit binds neither
    assert copy.ciphertext is sealed.ciphertext
    with pytest.raises(ValidationError):
        codec.WirePacket(**{**dataclasses.asdict(bare), "counter": codec.MAX_COUNTER + 1})
    with pytest.raises(ValidationError):  # the one field forwarded() changes is checked there
        forward_chain(sealed, hops=10)[-1].forwarded()


def test_open_unknown_epoch():
    r = ring(epoch=5)
    counters = codec.PacketCounters()
    pkt = codec.seal_packet(r, 2, 0, 3, codec.Frame(messages=()), counters)
    other = ring(epoch=6, byte=0x33)
    with pytest.raises(UnknownEpoch):
        codec.open_packet(other, codec.ReplayWindow(), pkt, now=1.0)


def test_a_window_drops_an_epoch_only_once_it_has_left_the_ring():
    r = ring(epoch=1)
    window = codec.ReplayWindow()
    pkt = codec.seal_packet(r, 2, 0, 3, codec.Frame(messages=(msg(1, b"old"),)), codec.PacketCounters())
    codec.open_packet(r, window, pkt, now=1.0)
    r.install(bkey(2, 0x21), now=2.0, grace_window_s=5.0)
    window._drop_past_epochs(r)
    assert set(window._state) == {1}
    with pytest.raises(ReplayError):  # epoch 1 is in grace: its entry still decides
        codec.open_packet(r, window, pkt, now=3.0)
    r.install(bkey(3, 0x22), now=4.0, grace_window_s=5.0)
    window._drop_past_epochs(r)
    assert set(window._state) == set()
    with pytest.raises(UnknownEpoch):  # the ring refuses it before the window is asked
        codec.open_packet(r, window, pkt, now=4.5)


def test_seal_without_key():
    counters = codec.PacketCounters()
    with pytest.raises(NoBroadcastKey):
        codec.seal_packet(KeyRing(), 2, 0, 3, codec.Frame(messages=()), counters)


def test_plaintext_mode_roundtrip():
    counters = codec.PacketCounters()
    frame = codec.Frame(messages=(msg(1, b"clear"),))
    pkt = codec.seal_packet_plain(4, 0, 2, frame, counters)
    assert pkt.tag == codec.PLAIN_TAG
    assert pkt.epoch == 0
    out = codec.open_packet_plain(codec.ReplayWindow(), pkt)
    assert out == frame


# ---- memo on the shared box ----------------------------------------------------


def count_opens(monkeypatch):
    """Record the key bytes of every AES-GCM open from here on."""
    opens = []
    real = crypto.aead_open
    monkeypatch.setattr(crypto, "aead_open", lambda key, *a: opens.append(key.bytes_) or real(key, *a))
    return opens


def count_parses(monkeypatch):
    """Record every plaintext Frame.from_bytes parses from here on."""
    parses = []
    real = codec.Frame.from_bytes
    monkeypatch.setattr(codec.Frame, "from_bytes", lambda data: parses.append(data) or real(data))
    return parses


def test_failed_open_is_never_stored_and_a_stored_frame_needs_its_key(monkeypatch):
    right, wrong = ring(byte=0x20), ring(byte=0x21)  # same epoch, other key bytes
    frame = codec.Frame(messages=(msg(1, b"kept out"),))
    pkt = codec.seal_packet(right, 2, 0, 3, frame, codec.PacketCounters())
    box = pkt._aead_box()
    memo = box._verified  # the seal's
    assert memo == (right.current.key.bytes_, frame) and memo[1] is frame
    opens = count_opens(monkeypatch)
    for n in (1, 2):  # the memo is keyed on the key bytes: each is a real open
        with pytest.raises(AuthError):
            codec.open_packet(wrong, codec.ReplayWindow(), pkt, now=1.0)
        assert box._verified is memo and opens == [wrong.current.key.bytes_] * n
    assert codec.open_packet(right, codec.ReplayWindow(), pkt, now=1.0) is frame
    assert codec.open_packet(right, codec.ReplayWindow(), pkt.forwarded(), now=1.0) is frame
    assert len(opens) == 2  # the sealing key's bytes take the memo, the forward's too
    with pytest.raises(AuthError):
        codec.open_packet(wrong, codec.ReplayWindow(), pkt.forwarded(), now=1.0)
    assert box._verified is memo and opens == [wrong.current.key.bytes_] * 3


def test_stored_frame_still_runs_each_receivers_replay_window(monkeypatch):
    r = ring()
    frame = codec.Frame(messages=(msg(1, b"once per window"),))
    pkt = codec.seal_packet(r, 2, 0, 3, frame, codec.PacketCounters())
    opens = count_opens(monkeypatch)
    window = codec.ReplayWindow()
    assert codec.open_packet(r, window, pkt, now=1.0) == frame
    with pytest.raises(ReplayError):
        codec.open_packet(r, window, pkt.forwarded(), now=1.0)
    # A forwarded copy differs only in the unauthenticated hop limit: same box.
    other = codec.ReplayWindow()
    assert codec.open_packet(r, other, pkt.forwarded(), now=1.0) is frame
    assert opens == []  # the seal left its memo on the box
    with pytest.raises(ReplayError):  # the hit advanced this receiver's window too
        codec.open_packet(r, other, pkt, now=1.0)


def test_a_box_keeps_one_memo_the_last_open_that_verified():
    # Two keys that both verify one box cannot be built, so the second
    # entry is planted: an open under other key bytes verifies anew and
    # replaces the memo rather than adding to it.
    r = ring(byte=0x20)
    frame = codec.Frame(messages=(msg(1, b"one slot"),))
    pkt = codec.seal_packet(r, 2, 0, 3, frame, codec.PacketCounters())
    box = pkt._aead_box()
    box.__dict__["_verified"] = (b"\x21" * 32, codec.Frame(messages=()))
    assert codec.open_packet(r, codec.ReplayWindow(), pkt, now=1.0) == frame
    assert box._verified == (r.current.key.bytes_, frame)
    assert [k for k in vars(box) if k not in ("ciphertext", "tag")] == ["_verified"]


def star_copies(frame, *key_bytes):
    """One frame sealed by the ground station (node 1) under each key, as
    star fan-out does: one seq, one counter per copy."""
    keys = [crypto.SymmetricKey(bytes([b]) * 32) for b in key_bytes]
    counters = codec.PacketCounters()
    return keys, [codec.seal_with_key(k, 0, 1, 0, 0, frame, counters) for k in keys]


def test_a_star_plaintext_shared_by_several_copies_is_parsed_at_most_once(monkeypatch):
    frame = codec.Frame(messages=(msg(1, b"fan-out"),))
    keys, copies = star_copies(frame, 3, 4, 5)
    parses = count_parses(monkeypatch)
    for key, pkt in zip(keys, copies):  # each copy returns the frame it was sealed from
        assert codec.open_with_key(key, codec.ReplayWindow(), pkt) is frame
    assert parses == []
    # A copy rebuilt from its bytes keeps no frame: parsed once, then every
    # receiver of that one parsed packet takes the memo on its box.
    rebuilt = codec.WirePacket.from_bytes(copies[0].to_bytes())
    for _ in range(3):
        assert codec.open_with_key(keys[0], codec.ReplayWindow(), rebuilt) == frame
    assert parses == [frame.to_bytes()]


def test_a_star_copys_seal_memo_still_needs_the_receivers_own_key_and_window(monkeypatch):
    frame = codec.Frame(messages=(msg(1, b"for uavs 3 and 4"),))
    (k3, k4), (to_3, to_4) = star_copies(frame, 3, 4)
    memos = [to_3._aead_box()._verified, to_4._aead_box()._verified]
    assert memos == [(k3.bytes_, frame), (k4.bytes_, frame)]
    opens = count_opens(monkeypatch)
    assert codec.open_with_key(k3, codec.ReplayWindow(), to_3) is frame and opens == []
    # Each copy's box was verified at its seal, yet a UAV holding the
    # wrong key still fails the tag check through a real open: UAV 4 on
    # UAV 3's copy, UAV 3 on UAV 4's.
    with pytest.raises(AuthError):
        codec.open_with_key(k4, codec.ReplayWindow(), to_3)
    with pytest.raises(AuthError):
        codec.open_with_key(k3, codec.ReplayWindow(), to_4)
    assert opens == [k4.bytes_, k3.bytes_]
    assert [to_3._aead_box()._verified, to_4._aead_box()._verified] == memos
    window = codec.ReplayWindow()
    assert codec.open_with_key(k4, window, to_4) is frame  # the seal's memo ...
    with pytest.raises(ReplayError):  # ... after UAV 4's own window advanced
        codec.open_with_key(k4, window, to_4)
    assert len(opens) == 2


def test_only_the_sealed_box_returns_the_sealed_frame(monkeypatch):
    frame = codec.Frame(messages=(msg(1, b"sealed"),))
    (key,), (pkt,) = star_copies(frame, 0x35)
    opens, parses = count_opens(monkeypatch), count_parses(monkeypatch)
    # The same bytes parsed into a packet of their own: no memo, so one
    # AES-GCM open and one parse, to an equal frame.
    rebuilt = codec.WirePacket.from_bytes(pkt.to_bytes())
    opened = codec.open_with_key(key, codec.ReplayWindow(), rebuilt)
    assert opened == frame and opened is not frame
    assert opens == [key.bytes_] and parses == [frame.to_bytes()]
    assert rebuilt._aead_box()._verified == (key.bytes_, opened)
    # The sealed packet returns the frame it was sealed from, with neither.
    assert codec.open_with_key(key, codec.ReplayWindow(), pkt) is frame
    assert len(opens) == len(parses) == 1


def test_a_seal_leaves_its_memo_on_the_box_only_its_forwards_share():
    key = crypto.SymmetricKey(b"\x44" * 32)
    frame = codec.Frame(messages=(msg(1, b"memo at seal"),))
    sealed = codec.seal_with_key(key, 1, 2, 0, 3, frame, codec.PacketCounters())
    box = sealed._kept_box
    assert box._verified == (key.bytes_, frame) and box._verified[1] is frame
    assert all(copy._kept_box is box for copy in forward_chain(sealed, hops=3))
    parsed = codec.WirePacket.from_bytes(sealed.to_bytes())
    replaced = dataclasses.replace(sealed, hop_limit=1)
    for other in (parsed, replaced):
        assert other._kept_box is None
        assert other._aead_box() is not box and other._aead_box()._verified is None


def test_a_plaintext_that_fails_to_parse_is_never_stored():
    key = crypto.SymmetricKey(b"\x33" * 32)
    nonce, aad = nonce_and_aad(1, 0, 1, 0, 0)
    box = crypto.aead_seal(key, nonce, b"\x01\x00", aad)  # claims one message, holds none
    pkt = codec.WirePacket(0, 1, 0, 0, 0, box.ciphertext, box.tag)
    window = codec.ReplayWindow()
    for _ in range(2):  # not stored, and the window did not advance either
        with pytest.raises(ValidationError):
            codec.open_with_key(key, window, pkt)
        assert pkt._aead_box()._verified is None


@settings(max_examples=60, deadline=None)
@given(
    headers=st.lists(headers, min_size=1, max_size=4),
    payload=st.binary(max_size=24),
    hops=st.integers(0, 3),
)
def test_only_packets_with_the_same_nonce_and_aad_share_a_box(headers, payload, hops):
    # Every way a packet comes to be: sealed, forwarded, parsed from bytes
    # and rebuilt by dataclasses.replace (which changes one bound field).
    key = crypto.SymmetricKey(b"\x20" * 32)
    frame = codec.Frame(messages=(msg(1, payload),))
    packets = []
    for header in headers:
        counters = codec.PacketCounters()
        counters._next[header["epoch"]] = header["counter"]
        sealed = codec.seal_with_key(
            key, header["epoch"], header["origin"], header["seq"], header["hop_limit"], frame, counters
        )
        chain = forward_chain(sealed, hops)
        assert all(packet._aead_box() is sealed._aead_box() for packet in chain)
        for packet in chain:
            packets.append(packet)
            packets.append(codec.WirePacket.from_bytes(packet.to_bytes()))
            packets.append(dataclasses.replace(packet, seq=(packet.seq + 1) % (codec.MAX_SEQ + 1)))
    for a in packets:
        for b in packets:
            if a._aead_box() is b._aead_box():
                assert a._nonce_aad() == b._nonce_aad()


# ---- counters ---------------------------------------------------------------


def test_counters_monotonic_and_per_epoch():
    c = codec.PacketCounters()
    assert [c.next_for(1) for _ in range(3)] == [0, 1, 2]
    assert c.next_for(2) == 0  # fresh epoch, fresh space
    assert c.next_for(1) == 3


def test_counter_exhaustion():
    c = codec.PacketCounters()
    c._next[7] = codec.MAX_COUNTER  # one value left in the 48-bit field
    assert c.next_for(7) == codec.MAX_COUNTER
    with pytest.raises(CounterExhausted):
        c.next_for(7)


# ---- replay windows ---------------------------------------------------------


def test_window_accept_once():
    w = codec.ReplayWindow()
    w.check(1, 1, 0)
    w.accept(1, 1, 0)
    with pytest.raises(ReplayError):
        w.check(1, 1, 0)


def test_window_out_of_order_within_width():
    w = codec.ReplayWindow()
    w.accept(1, 1, 10)
    w.check(1, 1, 5)
    w.accept(1, 1, 5)
    with pytest.raises(ReplayError):
        w.check(1, 1, 5)
    w.check(1, 1, 4)  # still inside the window and unseen


def test_window_too_old_rejected():
    w = codec.ReplayWindow()
    w.accept(1, 1, 100)
    with pytest.raises(ReplayError):
        w.check(1, 1, 100 - codec.REPLAY_WINDOW)
    w.check(1, 1, 100 - codec.REPLAY_WINDOW + 1)


def test_window_keyed_by_origin_and_epoch():
    w = codec.ReplayWindow()
    w.accept(1, 1, 0)
    w.check(2, 1, 0)  # other origin unaffected
    w.check(1, 2, 0)  # other epoch unaffected


def test_window_advances_only_after_accept():
    r = ring()
    counters = codec.PacketCounters()
    frame = codec.Frame(messages=(msg(1, b"x"),))
    pkt = codec.seal_packet(r, 2, 0, 3, frame, counters)
    bad = codec.WirePacket.from_bytes(pkt.to_bytes()[:-1] + bytes([pkt.to_bytes()[-1] ^ 1]))
    w = codec.ReplayWindow()
    with pytest.raises(AuthError):
        codec.open_with_key(r.current.key, w, bad)
    # the failed open must not have burned the counter
    assert codec.open_with_key(r.current.key, w, pkt) == frame


@given(st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=120))
@settings(max_examples=100, deadline=None)
def test_window_property_accept_at_most_once(counter_draws):
    w = codec.ReplayWindow()
    accepted = set()
    for c in counter_draws:
        try:
            w.check(3, 1, c)
        except ReplayError:
            highest = max(accepted) if accepted else -1
            assert c in accepted or c <= highest - codec.REPLAY_WINDOW
            continue
        w.accept(3, 1, c)
        assert c not in accepted
        accepted.add(c)


class TupleReplayWindow:
    """The replay window as it was before its state was packed: one
    (highest, bitmap) tuple per (origin, epoch) key. The reference the
    packed ReplayWindow must answer exactly like."""

    def __init__(self, width: int = codec.REPLAY_WINDOW) -> None:
        self.width = width
        self._state = {}

    def check(self, origin, epoch, counter):
        state = self._state.get((origin, epoch))
        if state is None:
            return
        highest, bitmap = state
        if counter > highest:
            return
        offset = highest - counter
        if offset >= self.width:
            raise ReplayError(
                f"counter {counter} from origin {origin} fell behind window at {highest}"
            )
        if bitmap & (1 << offset):
            raise ReplayError(f"counter {counter} from origin {origin} already seen")

    def accept(self, origin, epoch, counter):
        key = (origin, epoch)
        state = self._state.get(key)
        if state is None:
            self._state[key] = (counter, 1)
            return
        highest, bitmap = state
        if counter > highest:
            shift = counter - highest
            bitmap = (bitmap << shift) & ((1 << self.width) - 1) if shift < self.width else 0
            self._state[key] = (counter, bitmap | 1)
        else:
            self._state[key] = (highest, bitmap | (1 << (highest - counter)))

    def _drop_past_epochs(self, keyring):
        keep = {bkey.epoch for bkey in (keyring.current, keyring.previous) if bkey is not None}
        self._state = {key: state for key, state in self._state.items() if key[1] in keep}


def _check_outcome(window, origin, epoch, counter):
    try:
        window.check(origin, epoch, counter)
    except ReplayError as exc:
        return str(exc)
    return None


# One step: ("open", origin, epoch, (k, d)) checks, and accepts when the
# check passes, the counter k * width + d away from the reference's highest
# for that (origin, epoch), or from 0 if it has none; ("accept", ...)
# accepts without a check; ("drop", current, previous) forgets every other
# epoch. k in [-2, 2] and d in [-1, 1] reach shift and offset width - 1,
# width and width + 1 from either side.
_WINDOW_WIDTHS = (1, 4, 64)
_deltas = st.one_of(
    st.tuples(st.integers(-2, 2), st.integers(-1, 1)),
    st.tuples(st.just(0), st.integers(min_value=-150, max_value=150)),
)
_window_steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("open", "open", "open", "accept")), st.integers(1, 3), st.integers(0, 3), _deltas),
        st.tuples(st.just("drop"), st.integers(0, 3), st.none() | st.integers(0, 3)),
    ),
    max_size=80,
)


@given(width=st.sampled_from(_WINDOW_WIDTHS), steps=_window_steps)
@settings(max_examples=300, deadline=None)
def test_a_packed_window_answers_as_the_tuple_window_did(width, steps):
    packed, reference = codec.ReplayWindow(width), TupleReplayWindow(width)
    for step in steps:
        if step[0] == "drop":
            _, current, previous = step
            keyring = types.SimpleNamespace(
                current=types.SimpleNamespace(epoch=current),
                previous=None if previous is None else types.SimpleNamespace(epoch=previous),
            )
            packed._drop_past_epochs(keyring)
            reference._drop_past_epochs(keyring)
            continue
        kind, origin, epoch, (k, d) = step
        state = reference._state.get((origin, epoch))
        counter = max(0, (state[0] if state else 0) + k * width + d)
        outcome = _check_outcome(reference, origin, epoch, counter)
        assert _check_outcome(packed, origin, epoch, counter) == outcome
        if kind == "accept" or outcome is None:
            packed.accept(origin, epoch, counter)
            reference.accept(origin, epoch, counter)
    # Every counter near each window the reference still holds answers alike.
    for (origin, epoch), (highest, _bitmap) in reference._state.items():
        for counter in range(max(0, highest - width - 2), highest + 3):
            assert _check_outcome(packed, origin, epoch, counter) == _check_outcome(reference, origin, epoch, counter)
    assert {epoch for _origin, epoch in reference._state} == set(packed._state)
