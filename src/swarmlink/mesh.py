"""Packet dissemination: flooding mesh and star relay.

Mesh mode floods: every node rebroadcasts each packet it has not seen
before, with a hop budget that decrements per forward. Duplicate
suppression keys on (origin, seq), as the packet's flood key (see
codec.py): every hop's copy carries the one int its origin's packet
computed, so all the caches that hold a flood share one key object. The
dedup cache is updated before the forward copy is queued so a node never
retransmits the same packet twice even if copies arrive back-to-back. A
node never handles a packet of its own origin, even a replay whose cache
entry is gone. handle_rx takes the key its caller looked up in the
receiver's keyring, so a receiver costs one lookup; it answers duplicates
before it looks at the key, and a packet that fails its checks, or has no
key, raises out of handle_rx and leaves the cache as it was.
Relays never need the payload key: their header rides outside the ciphertext.
A plaintext mesh floods on the same path, its nodes holding
rekey.NULL_RING (see codec.py).

Most copies of a flood are duplicates, so a caller holding one packet's
receiver ids can drop, with one lookup each, those `handle_rx` would
answer with its duplicate result (`_fresh_receivers`). Every honest copy
of one flood keeps its seal, the broadcast key's bytes and the frame
sealed (see codec.py): a receiver holding that key skips AES-GCM, but
each still runs its own replay window.

Star mode centralizes: UAVs unicast to the ground station under their
pairwise session keys (epoch 0 on the wire) and the ground station
re-seals for every other sessioned UAV. Each copy keeps its seal, under
the session key its receiver holds, so the ground station opening an
uplink and a UAV opening its copy skip AES-GCM too, each through its own
replay window. One dead ground station therefore
silences all UAV-to-UAV traffic, which is the trade the mesh avoids.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import codec, crypto
from .errors import SwarmLinkError
from .handshake import SessionTable
from .rekey import NULL_RING, _no_key

DEDUP_CAPACITY = 1024


class DedupCache:
    """Fixed-capacity FIFO set of (origin, seq) pairs already handled.

    Each pair is kept as one int, its flood key (codec._flood_key_of), as
    a dict key for lookup and in a deque for eviction order. `handle_rx`
    stores the packet's own flood key, the int object every copy of its
    flood shares, so N caches that hold one flood hold one int between
    them; `add` builds a fresh one. A dict, not a set: under steady
    eviction a set's table settles at eight slots per live entry, while a
    dict compacts whenever it resizes."""

    def __init__(self, capacity: int = DEDUP_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("dedup capacity must be at least 1")
        self.capacity = capacity
        self._keys: Dict[int, None] = {}
        self._order: Deque[int] = deque()

    def seen(self, origin: int, seq: int) -> bool:
        return codec._flood_key_of(origin, seq) in self._keys

    def add(self, origin: int, seq: int) -> None:
        self._add(codec._flood_key_of(origin, seq))

    def _add(self, key: int) -> None:
        if key in self._keys:
            return
        if len(self._order) >= self.capacity:
            del self._keys[self._order.popleft()]  # evict oldest first
        self._keys[key] = None
        self._order.append(key)

    def __len__(self) -> int:
        return len(self._order)


@dataclass
class MeshState:
    """Per-node dissemination state: own seq counter plus the dedup cache."""

    node_id: int
    dedup: DedupCache = field(default_factory=DedupCache)
    next_seq: int = 0

    def take_seq(self) -> int:
        seq = self.next_seq
        if seq > codec.MAX_SEQ:
            raise SwarmLinkError("originated packet seq exhausted")
        self.next_seq = seq + 1
        return seq


def originate(
    state: MeshState,
    keyring,
    counters: codec.PacketCounters,
    frame: codec.Frame,
    hop_limit: int,
) -> codec.WirePacket:
    """Seal one of this node's own frames for flooding."""
    seq = state.take_seq()
    return codec.seal_packet(keyring, state.node_id, seq, hop_limit, frame, counters)


def originate_plain(
    state: MeshState, counters: codec.PacketCounters, frame: codec.Frame, hop_limit: int
) -> codec.WirePacket:
    """`originate` with the plaintext baseline's rekey.NULL_RING."""
    return originate(state, NULL_RING, counters, frame, hop_limit)


class RxResult(NamedTuple):
    """Outcome of handling one received packet that was not refused."""

    deliver: Optional[codec.Frame] = None
    forward: Optional[codec.WirePacket] = None
    duplicate: bool = False
    error = None  # not a field, as refusals raise; bench/run.py's observer reads it


_DUPLICATE = RxResult(duplicate=True)  # immutable, so every dedup hit shares it


def handle_rx(
    state: MeshState, key: Optional[crypto.SymmetricKey], window: codec.ReplayWindow, packet: codec.WirePacket
) -> RxResult:
    """Flooding receive path: dedup, authenticate, deliver once, forward.

    `key` is the one the receiver's keyring gives for the packet's epoch
    (crypto.NULL_KEY in the plaintext baseline), None if it has none. A
    copy of the receiver's own origin, or one it holds, is a duplicate
    whatever the key. Any other packet that fails raises the
    SwarmLinkError that refused it, UnknownEpoch when `key` is None, for
    the caller to record. It is neither delivered nor forwarded, and does
    not enter the dedup cache, so a later honest copy of the same (origin,
    seq) still gets through.
    """
    flood_key = packet._flood_key
    if packet.origin == state.node_id or flood_key in state.dedup._keys:
        return _DUPLICATE
    if key is None:
        raise _no_key(packet.epoch)
    frame = codec.open_with_key(key, window, packet)
    state.dedup._add(flood_key)
    forward = packet.forwarded() if packet.hop_limit > 0 else None
    return RxResult(frame, forward)


def _fresh_receivers(
    receivers: Sequence[int], caches: Dict[int, DedupCache], packet: codec.WirePacket
) -> List[int]:
    """The ids of one packet's live receivers that handle_rx would not
    answer with its duplicate result: every node that is not the packet's
    origin and does not hold its flood key. One dict lookup per
    receiver."""
    origin = packet.origin
    key = packet._flood_key
    return [rid for rid in receivers if rid != origin and key not in caches[rid]._keys]


def star_uplink(
    state: MeshState,
    session_key: crypto.SymmetricKey,
    counters: codec.PacketCounters,
    frame: codec.Frame,
) -> codec.WirePacket:
    """UAV side of star mode: seal a frame for the ground station only."""
    seq = state.take_seq()
    return codec.seal_with_key(session_key, 0, state.node_id, seq, 0, frame, counters)


def star_fanout(
    gcs_state: MeshState,
    sessions: SessionTable,
    counters: codec.PacketCounters,
    frame: codec.Frame,
    exclude_id: Optional[int] = None,
) -> List[Tuple[int, codec.WirePacket]]:
    """GCS side of star mode: re-seal one frame for every other sessioned UAV.

    Each copy is sealed under that UAV's session key with the ground station
    as origin, so nonces stay unique per key and receivers run their normal
    replay windows against the ground station's counters, all in one seal loop.
    """
    seq = gcs_state.take_seq()
    uav_ids = [uav_id for uav_id in sessions.sessioned_ids() if uav_id != exclude_id]
    keys = [sessions.key_for(uav_id) for uav_id in uav_ids]
    return list(zip(uav_ids, codec._seal_each(keys, 0, gcs_state.node_id, seq, 0, frame, counters)))
