"""Telemetry framing and authenticated packet sealing.

Small telemetry messages are packed in order into frames that fit the
radio's MTU once packet overhead is added. A frame is sealed with
AES-256-GCM under the broadcast key for its epoch; the packet header rides
in clear so relays can forward without keys, and everything in it except
the mutable hop_limit is bound into the AEAD as associated data. The
plaintext baseline seals and opens on the same path under crypto.NULL_KEY
(from rekey.NULL_RING), whose null cipher writes the frame bytes in the
clear followed by PLAIN_TAG, sixteen zero bytes, and accepts any tag.

Wire layout, all big-endian:

  packet  = version(1)=0x01 || epoch(4) || origin(2) || seq(4) ||
            hop_limit(1) || counter(6) || ciphertext || tag(16)
  nonce   = epoch(4) || origin(2) || counter(6)
  aad     = version(1) || epoch(4) || origin(2) || seq(4) || counter(6)
  frame   = count(1) || repeat(msg_id(1) || source(2) || len(1) || payload)

The nonce never repeats under one key: origin disambiguates sealers and the
per-epoch counter is strictly increasing per origin.

A packet keeps, under private names that equality, hash and repr ignore,
its encoding (the header the seal packed, followed by ciphertext and tag;
else built once by `to_bytes`, or the bytes `from_bytes` parsed, since the
parse is strict), its flood key, the int origin << 32 | seq that mesh
dedup caches hold, computed once when the packet is built, and, when it
was sealed here, its seal: the sealing key's bytes and the frame sealed.
Its nonce and AAD are sliced from that header when an open needs them.
`forwarded()` checks only the hop_limit it changes and shares the rest,
none of which binds hop_limit; only its encoding differs, by the hop byte.
So every hop's copy of a flood carries the one flood key object its
sealed packet was built with, and the dedup caches of all its receivers
store that one int.

The seal is written once, by the one seal loop `_seal_each` (one key for
`seal_with_key`, one per UAV for a star's fanout), and read by an open.
It keeps the sealed bytes of one `crypto._encrypt` call per copy as the
packet's ciphertext, tag and (after the header) encoding, with no box.
AES-GCM decryption of an unchanged ciphertext under the key, nonce and
AAD that sealed it returns the sealed plaintext, so an open under the
seal's key bytes returns the sealed frame; under others, or on a packet
with no seal (parsed from bytes, or built by `dataclasses.replace`), it
runs one AES-GCM open and writes nothing. So no receiver holding the
sealing key decrypts an honest copy, of a flood or of the copies a
star's ground station re-seals per UAV, and no open changes a packet
that several receivers share. Either way each receiver checks and
advances its own replay window.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from . import crypto, wire
from .errors import (
    CounterExhausted,
    MessageTooLarge,
    NoBroadcastKey,
    ReplayError,
    ValidationError,
)
from .rekey import KeyRing, _no_key

HEADER_LEN = 1 + 4 + 2 + 4 + 1 + 6
_HOP_OFFSET = 1 + 4 + 2 + 4  # of hop_limit in the header
# The header in one pack: version, epoch, origin, seq, hop_limit, then the
# 48-bit counter as its high 16 and low 32 bits.
_HEADER = struct.Struct(">BIHIBHI")
PACKET_OVERHEAD = HEADER_LEN + crypto.TAG_LEN
PER_MESSAGE_OVERHEAD = 1 + 2 + 1
MAX_PAYLOAD_LEN = 255
MAX_COUNTER = 2**48 - 1
MAX_SEQ = 2**32 - 1
REPLAY_WINDOW = 64

PLAIN_TAG = b"\x00" * crypto.TAG_LEN  # the null cipher's tag


def _pack_header(version: int, epoch: int, origin: int, seq: int, hop_limit: int, counter: int) -> bytes:
    """The 18-byte header; raises struct.error on a field out of range."""
    return _HEADER.pack(version, epoch, origin, seq, hop_limit, counter >> 32, counter & 0xFFFFFFFF)


def _flood_key_of(origin: int, seq: int) -> int:
    """The one int that names a flood, as mesh dedup caches hold it."""
    return origin << 32 | seq  # seq is a u32


def _nonce_aad_of(header: bytes) -> Tuple[bytes, bytes]:
    """Nonce and AAD as slices of a header (or of an encoding it starts).

    The nonce is epoch, origin and counter; the AAD is every header byte
    but the hop byte, at _HOP_OFFSET, which relays decrement in flight."""
    counter = header[12:18]
    return header[1:7] + counter, header[:11] + counter  # [1:7] is epoch and origin


@dataclass(frozen=True)
class TelemetryMessage:
    """One sensor reading or status report from one node."""

    msg_id: int
    source_node: int
    payload: bytes

    def __post_init__(self) -> None:
        if not 0 <= self.msg_id <= 0xFF:
            raise ValidationError("msg_id", f"{self.msg_id} outside [0, 255]")
        if not 0 <= self.source_node <= wire.NODE_ID_MAX:
            raise ValidationError("source_node", f"{self.source_node} outside [0, {wire.NODE_ID_MAX}]")
        if len(self.payload) > MAX_PAYLOAD_LEN:
            raise ValidationError("payload", f"{len(self.payload)} bytes exceeds {MAX_PAYLOAD_LEN}")

    def serialized_len(self) -> int:
        return PER_MESSAGE_OVERHEAD + len(self.payload)


@dataclass(frozen=True)
class Frame:
    """An ordered batch of telemetry messages, the unit of encryption.

    Its encoding is kept once built, so a frame re-sealed for every UAV of
    a star is encoded at most once; equality, hash and repr ignore it."""

    messages: Tuple[TelemetryMessage, ...]
    _encoded: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.messages) > 0xFF:
            raise ValidationError("messages", "at most 255 messages per frame")

    def serialized_len(self) -> int:
        return 1 + sum(m.serialized_len() for m in self.messages)

    def to_bytes(self) -> bytes:
        encoded = self._encoded
        if encoded is None:
            parts = [bytes([len(self.messages)])]
            for m in self.messages:
                parts.append(struct.pack(">BHB", m.msg_id, m.source_node, len(m.payload)))
                parts.append(m.payload)
            encoded = b"".join(parts)
            object.__setattr__(self, "_encoded", encoded)
        return encoded

    @classmethod
    def from_bytes(cls, data: bytes) -> "Frame":
        if not data:
            raise ValidationError("frame", "empty buffer")
        count = data[0]
        off = 1
        messages = []
        for _ in range(count):
            if off + PER_MESSAGE_OVERHEAD > len(data):
                raise ValidationError("frame", "truncated message header")
            msg_id, source, length = struct.unpack(">BHB", data[off : off + PER_MESSAGE_OVERHEAD])
            off += PER_MESSAGE_OVERHEAD
            if off + length > len(data):
                raise ValidationError("frame", "truncated message payload")
            messages.append(TelemetryMessage(msg_id, source, data[off : off + length]))
            off += length
        if off != len(data):
            raise ValidationError("frame", f"{len(data) - off} trailing bytes")
        return cls(messages=tuple(messages))


def frame_capacity(mtu_bytes: int) -> int:
    """Serialized frame bytes that fit in one packet on a link with this MTU."""
    return mtu_bytes - PACKET_OVERHEAD


def compose_frames(messages: Iterable[TelemetryMessage], mtu_bytes: int) -> List[Frame]:
    """Pack messages into frames in order, opening a new frame when the next
    message would overflow the current one.

    Order is preserved exactly: a message never jumps ahead of an earlier one
    into a frame with leftover room. Raises MessageTooLarge if any single
    message cannot fit an otherwise empty frame.
    """
    cap = frame_capacity(mtu_bytes)
    frames: List[Frame] = []
    current: List[TelemetryMessage] = []
    used = 1  # count byte
    for m in messages:
        need = m.serialized_len()
        if 1 + need > cap:
            raise MessageTooLarge(
                f"message of {len(m.payload)} payload bytes needs {1 + need} frame bytes, "
                f"link fits {cap}"
            )
        if current and (used + need > cap or len(current) == 0xFF):
            frames.append(Frame(messages=tuple(current)))
            current = []
            used = 1
        current.append(m)
        used += need
    if current:
        frames.append(Frame(messages=tuple(current)))
    return frames


@dataclass(frozen=True)
class WirePacket:
    """Sealed frame plus the cleartext header relays need for forwarding.

    A packet keeps its encoding, its flood key and its seal (see the
    module docstring). Equality, hash and repr ignore them."""

    epoch: int
    origin: int
    seq: int
    hop_limit: int
    counter: int
    ciphertext: bytes
    tag: bytes
    version: int = wire.PACKET_VERSION

    # Kept state, not fields: the encoding, the seal (key bytes, frame);
    # and _flood_key, which __init__ and _seal_each set.
    _encoded = None
    _sealed = None

    def __init__(
        self,
        epoch: int,
        origin: int,
        seq: int,
        hop_limit: int,
        counter: int,
        ciphertext: bytes,
        tag: bytes,
        version: int = wire.PACKET_VERSION,
    ) -> None:
        if not 0 <= epoch <= 0xFFFFFFFF:
            raise ValidationError("epoch", "outside u32")
        if not 0 <= origin <= wire.NODE_ID_MAX:
            raise ValidationError("origin", "outside u16")
        if not 0 <= seq <= MAX_SEQ:
            raise ValidationError("seq", "outside u32")
        if not 0 <= hop_limit <= 0xFF:
            raise ValidationError("hop_limit", "outside u8")
        if not 0 <= counter <= MAX_COUNTER:
            raise ValidationError("counter", "outside u48")
        if len(tag) != crypto.TAG_LEN:
            raise ValidationError("tag", f"must be {crypto.TAG_LEN} bytes")
        # The class is frozen, so the checked fields go straight into the
        # instance dict rather than through one object.__setattr__ each.
        fields = self.__dict__
        fields["epoch"] = epoch
        fields["origin"] = origin
        fields["seq"] = seq
        fields["hop_limit"] = hop_limit
        fields["counter"] = counter
        fields["ciphertext"] = ciphertext
        fields["tag"] = tag
        fields["version"] = version
        fields["_flood_key"] = origin << 32 | seq  # _flood_key_of, inlined

    def nonce(self) -> bytes:
        return self._nonce_aad()[0]

    def aad(self) -> bytes:
        return self._nonce_aad()[1]

    def _nonce_aad(self) -> Tuple[bytes, bytes]:
        return _nonce_aad_of(self._encoded or self.header_bytes())

    def header_bytes(self) -> bytes:
        return _pack_header(self.version, self.epoch, self.origin, self.seq, self.hop_limit, self.counter)

    def to_bytes(self) -> bytes:
        encoded = self._encoded
        if encoded is None:
            encoded = self.header_bytes() + self.ciphertext + self.tag
            self.__dict__["_encoded"] = encoded
        return encoded

    def wire_len(self) -> int:
        return HEADER_LEN + len(self.ciphertext) + crypto.TAG_LEN

    def forwarded(self) -> "WirePacket":
        """Copy with hop_limit decremented; header changes, seal stays valid.

        Every other field was checked when this packet was built, so the
        copy shares them and the seal (hop_limit is in neither the nonce
        nor the AAD); its encoding is this one's with the hop byte
        replaced."""
        if self.hop_limit == 0:
            raise ValidationError("hop_limit", "cannot forward at hop_limit 0")
        hop_limit = self.hop_limit - 1
        copy = object.__new__(WirePacket)
        state = copy.__dict__
        state.update(self.__dict__)
        state["hop_limit"] = hop_limit
        encoded = self._encoded
        if encoded is not None:
            state["_encoded"] = encoded[:_HOP_OFFSET] + bytes((hop_limit,)) + encoded[_HOP_OFFSET + 1 :]
        return copy

    @classmethod
    def from_bytes(cls, data: bytes) -> "WirePacket":
        if len(data) < HEADER_LEN + crypto.TAG_LEN:
            raise ValidationError("wire", "packet shorter than header plus tag")
        if data[0] != wire.PACKET_VERSION:
            raise ValidationError("version", f"unknown packet version {data[0]:#04x}")
        epoch, origin, seq, hop_limit = struct.unpack(">IHIB", data[1:12])
        counter = int.from_bytes(data[12:18], "big")
        packet = cls(
            epoch=epoch,
            origin=origin,
            seq=seq,
            hop_limit=hop_limit,
            counter=counter,
            ciphertext=data[HEADER_LEN:-crypto.TAG_LEN],
            tag=data[-crypto.TAG_LEN:],
        )
        # The parse is strict, so these bytes are exactly the packet's encoding.
        packet.__dict__["_encoded"] = bytes(data)
        return packet


class PacketCounters:
    """Per-sealer nonce counters, one strictly increasing sequence per epoch."""

    def __init__(self) -> None:
        self._next: Dict[int, int] = {}

    def next_for(self, epoch: int) -> int:
        value = self._next.get(epoch, 0)
        if value > MAX_COUNTER:
            raise CounterExhausted(f"counter space for epoch {epoch} exhausted")
        self._next[epoch] = value + 1
        return value


class ReplayWindow:
    """Sliding anti-replay windows, one per (origin, epoch).

    Each tracks the highest counter accepted plus a `width`-bit bitmap of
    the counters at and just below it (bit k is highest - k), packed into
    one int, highest << width | bitmap, held per epoch and then per origin:
    `{epoch: {origin: packed}}`. `check` only inspects; `accept` is called
    after the packet authenticates, so forged counters can never advance
    the window.
    """

    def __init__(self, width: int = REPLAY_WINDOW) -> None:
        self.width = width
        self._state: Dict[int, Dict[int, int]] = {}

    def check(self, origin: int, epoch: int, counter: int) -> None:
        origins = self._state.get(epoch)
        if origins is None:
            return
        packed = origins.get(origin)
        if packed is None:
            return
        highest = packed >> self.width
        if counter > highest:
            return
        offset = highest - counter
        if offset >= self.width:
            raise ReplayError(
                f"counter {counter} from origin {origin} fell behind window at {highest}"
            )
        if packed >> offset & 1:
            raise ReplayError(f"counter {counter} from origin {origin} already seen")

    def accept(self, origin: int, epoch: int, counter: int) -> None:
        width = self.width
        origins = self._state.get(epoch)
        if origins is None:
            origins = self._state[epoch] = {}
        packed = origins.get(origin)
        if packed is None:
            origins[origin] = counter << width | 1
            return
        highest = packed >> width
        if counter > highest:
            shift = counter - highest
            bitmap = (packed << shift) & ((1 << width) - 1) if shift < width else 0
            origins[origin] = counter << width | bitmap | 1
        elif highest - counter < width:
            origins[origin] = packed | 1 << (highest - counter)
        # else it is behind the window, where check reads no bit

    def _drop_past_epochs(self, keyring: KeyRing) -> None:
        """Forget every epoch but `keyring`'s current and previous one; call
        it after each install. A broadcast-keyed packet reaches the window
        only under the key its receiver's ring gave for its epoch, and an
        epoch that has left the ring never comes back (installs only go
        up), so such an entry decides nothing.
        Epoch 0 (star and plaintext traffic) never meets a keyring install."""
        keep = {bkey.epoch for bkey in (keyring.current, keyring.previous) if bkey is not None}
        self._state = {epoch: origins for epoch, origins in self._state.items() if epoch in keep}


def seal_packet(
    keyring: KeyRing,
    origin: int,
    seq: int,
    hop_limit: int,
    frame: Frame,
    counters: PacketCounters,
) -> WirePacket:
    """Seal a frame under the current broadcast key."""
    if keyring.current is None:
        raise NoBroadcastKey("no broadcast key installed")
    return seal_with_key(keyring.current.key, keyring.current.epoch, origin, seq, hop_limit, frame, counters)


def seal_with_key(
    key: crypto.SymmetricKey,
    epoch: int,
    origin: int,
    seq: int,
    hop_limit: int,
    frame: Frame,
    counters: PacketCounters,
) -> WirePacket:
    """Seal a frame under an explicit key; epoch 0 marks session-key traffic."""
    return _seal_each((key,), epoch, origin, seq, hop_limit, frame, counters)[0]


def _seal_each(
    keys: Iterable[crypto.SymmetricKey], epoch: int, origin: int, seq: int, hop_limit: int,
    frame: Frame, counters: PacketCounters,
) -> List[WirePacket]:
    """The one seal loop: `frame` sealed under each key in turn, each copy
    on the next counter. A header is packed once; the nonce and AAD are
    slices of it, and it starts the packet's kept encoding, the sealed
    bytes after it. Each packet keeps its seal (see the module docstring)."""
    packets, version, flood_key = [], wire.PACKET_VERSION, origin << 32 | seq
    next_for, pack, cut = counters.next_for, _HEADER.pack, -crypto.TAG_LEN
    for key in keys:
        counter = next_for(epoch)
        try:  # _pack_header, inlined
            header = pack(version, epoch, origin, seq, hop_limit, counter >> 32, counter & 0xFFFFFFFF)
        except struct.error:
            # Raises the ValidationError that names the field out of range.
            WirePacket(epoch, origin, seq, hop_limit, counter, b"", PLAIN_TAG)
            raise
        plaintext = frame._encoded or frame.to_bytes()  # a frame is encoded once
        tail = header[12:18]  # the nonce and AAD of _nonce_aad_of, inlined
        # Looked up per copy, so a wrapper on crypto._encrypt sees every seal.
        sealed = crypto._encrypt(key, header[1:7] + tail, plaintext, header[:11] + tail)
        # The pack range-checked every field, so no WirePacket() checks again.
        packet = object.__new__(WirePacket)
        packet.__dict__.update(
            epoch=epoch, origin=origin, seq=seq, hop_limit=hop_limit, counter=counter,
            ciphertext=sealed[:cut], tag=sealed[cut:], version=version,
            _flood_key=flood_key, _sealed=(key.bytes_, frame), _encoded=header + sealed,
        )
        packets.append(packet)
    return packets


def open_packet(keyring: KeyRing, window: ReplayWindow, packet: WirePacket, now: float) -> Frame:
    """Authenticate and decode a broadcast-keyed packet.

    Raises UnknownEpoch when no usable key exists for the packet's epoch,
    ReplayError for counters already seen or fallen behind the window, and
    AuthError when the seal does not verify. The window advances only after
    authentication succeeds.
    """
    key = keyring.key_for_epoch(packet.epoch, now)
    if key is None:
        raise _no_key(packet.epoch)
    return open_with_key(key, window, packet)


def open_with_key(key: crypto.SymmetricKey, window: ReplayWindow, packet: WirePacket) -> Frame:
    """Authenticate and decode under an explicit key, same replay discipline."""
    window.check(packet.origin, packet.epoch, packet.counter)
    frame = _open_frame(key, packet)
    window.accept(packet.origin, packet.epoch, packet.counter)
    return frame


def _open_frame(key: crypto.SymmetricKey, packet: WirePacket) -> Frame:
    """The frame a packet's seal verifies to under `key`, without a replay
    window: the sealed frame when `key` has the seal's key bytes, else one
    AES-GCM open (see the module docstring). Writes nothing; raises
    AuthError or ValidationError."""
    sealed = packet._sealed
    if sealed is not None and sealed[0] == key.bytes_:
        return sealed[1]
    nonce, aad = packet._nonce_aad()
    return Frame.from_bytes(crypto.aead_open(key, nonce, crypto.AeadBox(packet.ciphertext, packet.tag), aad))


def seal_packet_plain(
    origin: int, seq: int, hop_limit: int, frame: Frame, counters: PacketCounters
) -> WirePacket:
    """`seal_with_key` under crypto.NULL_KEY at epoch 0."""
    return seal_with_key(crypto.NULL_KEY, 0, origin, seq, hop_limit, frame, counters)


def open_packet_plain(window: ReplayWindow, packet: WirePacket) -> Frame:
    """`open_with_key` under crypto.NULL_KEY."""
    return open_with_key(crypto.NULL_KEY, window, packet)
