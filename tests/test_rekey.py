"""Rolling broadcast-key tests: generation, wrapping, grace windows."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmlink import codec, crypto, rekey, wire
from swarmlink.errors import AuthError, NoSession, StaleEpoch, UnknownEpoch, ValidationError

SESSION = crypto.SymmetricKey(b"\x42" * 32, crypto.KeyPurpose.SESSION)
OTHER_SESSION = crypto.SymmetricKey(b"\x43" * 32, crypto.KeyPurpose.SESSION)


def test_source_epochs_count_up_from_one():
    src = rekey.BroadcastKeySource(key_lifetime_s=60.0)
    rng = random.Random(0)
    k1 = src.new_epoch(rng, now=0.0)
    k2 = src.new_epoch(rng, now=60.0)
    k3 = src.new_epoch(rng, now=120.0)
    assert (k1.epoch, k2.epoch, k3.epoch) == (1, 2, 3)
    assert k1.key.bytes_ != k2.key.bytes_ != k3.key.bytes_
    assert k1.not_after == 60.0
    assert not src.expired(now=130.0) or src.expired(now=190.0)


def test_source_expiry_boundary():
    src = rekey.BroadcastKeySource(key_lifetime_s=10.0)
    src.new_epoch(random.Random(0), now=5.0)
    assert not src.expired(now=14.9)
    assert src.expired(now=15.0)


def test_wrap_unwrap_roundtrip_installs():
    src = rekey.BroadcastKeySource(key_lifetime_s=60.0)
    rng = random.Random(1)
    bkey = src.new_epoch(rng, now=0.0)
    msg = rekey.wrap_for(SESSION, 1, 2, bkey, rng)
    ring = rekey.KeyRing()
    out = rekey.unwrap(SESSION, msg, ring, now=0.5, grace_window_s=5.0)
    assert out == bkey
    assert ring.current == bkey
    assert ring.key_for_epoch(1, now=1.0).bytes_ == bkey.key.bytes_


def test_unwrap_rejects_wrong_session_key():
    rng = random.Random(2)
    bkey = rekey.BroadcastKeySource(60.0).new_epoch(rng, now=0.0)
    msg = rekey.wrap_for(SESSION, 1, 2, bkey, rng)
    with pytest.raises(AuthError):
        rekey.unwrap(OTHER_SESSION, msg, rekey.KeyRing(), now=0.5, grace_window_s=5.0)


def test_unwrap_binds_the_addressed_pair():
    # same box replayed at a different uav id must fail the aad check
    rng = random.Random(3)
    bkey = rekey.BroadcastKeySource(60.0).new_epoch(rng, now=0.0)
    msg = rekey.wrap_for(SESSION, 1, 2, bkey, rng)
    redirected = rekey.RekeyMessage(gcs_id=1, uav_id=3, nonce=msg.nonce, box=msg.box)
    with pytest.raises(AuthError):
        rekey.unwrap(SESSION, redirected, rekey.KeyRing(), now=0.5, grace_window_s=5.0)


def test_rekey_message_wire_roundtrip():
    rng = random.Random(4)
    bkey = rekey.BroadcastKeySource(60.0).new_epoch(rng, now=0.0)
    msg = rekey.wrap_for(SESSION, 1, 2, bkey, rng)
    assert rekey.RekeyMessage.from_bytes(msg.to_bytes()) == msg


def test_rekey_message_with_box_shorter_than_tag_is_a_validation_error():
    header = bytes([wire.MSG_REKEY]) + b"\x00\x01\x00\x02" + bytes(crypto.NONCE_LEN)
    for box_len in (0, 1, crypto.TAG_LEN - 1):
        data = header + box_len.to_bytes(2, "big") + bytes(box_len)
        with pytest.raises(ValidationError) as info:
            rekey.RekeyMessage.from_bytes(data)
        assert info.value.field == "box_len"
    tag_only = header + crypto.TAG_LEN.to_bytes(2, "big") + bytes(crypto.TAG_LEN)
    assert rekey.RekeyMessage.from_bytes(tag_only).box.ciphertext == b""


def test_rekey_ack_wire_roundtrip():
    ack = rekey.RekeyAck(uav_id=9, epoch=123456)
    raw = ack.to_bytes()
    assert len(raw) == 7
    assert rekey.RekeyAck.from_bytes(raw) == ack


def test_ring_grace_window_semantics():
    rng = random.Random(5)
    src = rekey.BroadcastKeySource(10.0)
    ring = rekey.KeyRing()
    e1 = src.new_epoch(rng, now=0.0)
    ring.install(e1, now=0.0, grace_window_s=5.0)
    e2 = src.new_epoch(rng, now=10.0)
    ring.install(e2, now=10.0, grace_window_s=5.0)
    # previous epoch stays usable through the grace deadline, inclusive
    assert ring.key_for_epoch(1, now=14.999).bytes_ == e1.key.bytes_
    assert ring.key_for_epoch(1, now=15.0).bytes_ == e1.key.bytes_
    assert ring.key_for_epoch(1, now=15.001) is None
    assert ring.key_for_epoch(2, now=100.0).bytes_ == e2.key.bytes_


def test_ring_missed_epoch_is_unknown():
    # a receiver that never saw epoch 2 cannot read epoch-2 traffic: there is
    # no key escalation path outside the rekey messages themselves
    rng = random.Random(6)
    src = rekey.BroadcastKeySource(10.0)
    ring = rekey.KeyRing()
    ring.install(src.new_epoch(rng, now=0.0), now=0.0, grace_window_s=5.0)
    e2 = src.new_epoch(rng, now=10.0)  # lost in transit
    e3 = src.new_epoch(rng, now=20.0)
    assert ring.key_for_epoch(e2.epoch, now=12.0) is None
    # the next rekey that does arrive skips the ring forward
    ring.install(e3, now=20.0, grace_window_s=5.0)
    assert ring.key_for_epoch(3, now=21.0).bytes_ == e3.key.bytes_
    assert ring.key_for_epoch(1, now=21.0).bytes_  # old current is in grace now
    assert ring.key_for_epoch(2, now=21.0) is None  # never installed, never usable


_QUARTERS = st.integers(0, 40).map(lambda n: n / 4)  # exact sums, so grace ends are hit


@settings(max_examples=200, deadline=None)
@given(
    installs=st.lists(st.tuples(st.integers(1, 3), _QUARTERS, _QUARTERS), max_size=5),
    back=st.integers(-1, 2),
    later=_QUARTERS,
)
def test_a_ring_gives_no_key_exactly_when_open_packet_refuses_the_epoch(installs, back, later):
    # Each install is (epoch step, time step, grace window); the packet's
    # epoch is `back` below the last one installed. Only the ring says which
    # epochs it opens; open_packet must refuse exactly the others.
    ring, now, current = rekey.KeyRing(), 0.0, 0
    for step, wait, grace in installs:
        current, now = current + step, now + wait
        key = crypto.SymmetricKey(bytes([current]) * 32, crypto.KeyPurpose.BROADCAST)
        ring.install(rekey.BroadcastKey(epoch=current, key=key, not_after=1e9), now, grace)
    now, epoch = now + later, max(current - back, 0)
    key = ring.key_for_epoch(epoch, now)
    frame = codec.Frame(messages=(codec.TelemetryMessage(1, 7, b"x"),))
    sealing = key or crypto.SymmetricKey(b"\x01" * 32, crypto.KeyPurpose.BROADCAST)
    packet = codec.seal_with_key(sealing, epoch, 2, 0, 1, frame, codec.PacketCounters())
    if key is None:
        with pytest.raises(UnknownEpoch) as info:
            codec.open_packet(ring, codec.ReplayWindow(), packet, now)
        assert str(info.value) == f"no usable key for epoch {epoch}"
    else:
        assert codec.open_packet(ring, codec.ReplayWindow(), packet, now) is frame


def test_ring_stale_install_carries_epoch():
    rng = random.Random(7)
    src = rekey.BroadcastKeySource(10.0)
    ring = rekey.KeyRing()
    e1 = src.new_epoch(rng, now=0.0)
    ring.install(e1, now=0.0, grace_window_s=5.0)
    with pytest.raises(StaleEpoch) as exc_info:
        ring.install(e1, now=1.0, grace_window_s=5.0)
    assert exc_info.value.epoch == 1  # lets callers re-ack benign resends


def test_distribute_covers_sessions_in_id_order():
    rng = random.Random(8)
    src = rekey.BroadcastKeySource(60.0)
    src.new_epoch(rng, now=0.0)
    sessions = {5: SESSION, 2: OTHER_SESSION, 9: SESSION}
    msgs = rekey.distribute(src, sessions, gcs_id=1, rng=rng)
    assert [m.uav_id for m in msgs] == [2, 5, 9]
    for m in msgs:
        ring = rekey.KeyRing()
        rekey.unwrap(sessions[m.uav_id], m, ring, now=0.1, grace_window_s=5.0)
        assert ring.current.epoch == 1


def test_distribute_requires_a_key():
    with pytest.raises(NoSession):
        rekey.distribute(rekey.BroadcastKeySource(60.0), {2: SESSION}, 1, random.Random(0))
