"""Packet dissemination: flooding mesh and star relay.

Mesh mode floods: every node rebroadcasts each packet it has not seen
before, with a hop budget that decrements per forward. Duplicate
suppression keys on (origin, seq), and the dedup cache is updated before
the forward copy is queued so a node never retransmits the same packet
twice even if copies arrive back-to-back. A node never handles a packet of
its own origin, even a replay whose cache entry is gone. Relays never need
the payload key: the header they touch rides outside the ciphertext.

Most copies of a flood are duplicates, so a caller holding one packet's
batch of receivers can drop, with one lookup each, those `handle_rx`
would answer with its duplicate result (`_fresh_receivers`). Every
receiver of one flood opens the same ciphertext, so `handle_rx` takes the
run's table of opened frames and hands it to `codec.open_packet`. The
table keys on the key bytes, nonce, aad, ciphertext and tag, i.e. every
input of AES-GCM verification, and stores only frames that verified and
parsed, never a failure; each receiver still checks and advances its own
replay window.

Star mode centralizes: UAVs unicast to the ground station under their
pairwise session keys (epoch 0 on the wire) and the ground station
re-seals for every other sessioned UAV. One dead ground station therefore
silences all UAV-to-UAV traffic, which is the trade the mesh avoids.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import codec, crypto
from .errors import SwarmLinkError
from .handshake import SessionTable

DEDUP_CAPACITY = 1024


class DedupCache:
    """Fixed-capacity FIFO set of (origin, seq) pairs already handled.

    Each pair is kept as one int, origin << 32 | seq (seq is a u32), as a
    dict key for lookup and in a deque for eviction order. A dict, not a
    set: under steady eviction a set's table settles at eight slots per
    live entry, while a dict compacts whenever it resizes."""

    def __init__(self, capacity: int = DEDUP_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("dedup capacity must be at least 1")
        self.capacity = capacity
        self._keys: Dict[int, None] = {}
        self._order: Deque[int] = deque()

    def seen(self, origin: int, seq: int) -> bool:
        return (origin << 32 | seq) in self._keys

    def add(self, origin: int, seq: int) -> None:
        key = origin << 32 | seq
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
    """Baseline-mode counterpart of originate: no encryption, zero tag."""
    seq = state.take_seq()
    return codec.seal_packet_plain(state.node_id, seq, hop_limit, frame, counters)


class RxResult(NamedTuple):
    """Outcome of handling one received packet."""

    deliver: Optional[codec.Frame] = None
    forward: Optional[codec.WirePacket] = None
    duplicate: bool = False
    error: Optional[SwarmLinkError] = None


_DUPLICATE = RxResult(duplicate=True)  # immutable, so every dedup hit shares it


def handle_rx(
    state: MeshState,
    keyring,
    window: codec.ReplayWindow,
    packet: codec.WirePacket,
    now: float,
    plaintext_mode: bool = False,
    opened: Optional[Dict[tuple, codec.Frame]] = None,
) -> RxResult:
    """Flooding receive path: dedup, authenticate, deliver once, forward.

    Packets that fail authentication or replay checks are surfaced as the
    result's error and neither delivered nor forwarded; they also do not
    enter the dedup cache, so a later honest copy of the same (origin, seq)
    still gets through. The error comes without its traceback. `opened`
    is the run's table of opened broadcast frames (see the module
    docstring).
    """
    if packet.origin == state.node_id or state.dedup.seen(packet.origin, packet.seq):
        return _DUPLICATE
    try:
        if plaintext_mode:
            frame = codec.open_packet_plain(window, packet)
        else:
            frame = codec.open_packet(keyring, window, packet, now, opened)
    except SwarmLinkError as exc:
        # The result outlives this frame: with its traceback, the error would
        # hold this frame and, through f_back, the caller's, which holds the
        # result; every rejection would then be a cycle for the collector.
        return RxResult(error=exc.with_traceback(None))
    state.dedup.add(packet.origin, packet.seq)
    forward = packet.forwarded() if packet.hop_limit > 0 else None
    return RxResult(frame, forward)


def _fresh_receivers(
    receivers: Sequence[Tuple[int, float]],
    caches: Dict[int, DedupCache],
    packet: codec.WirePacket,
) -> List[Tuple[int, float]]:
    """The (node id, arrival) pairs of one packet's live receivers that
    handle_rx would not answer with its duplicate result: every node that is
    not the packet's origin and does not hold its (origin, seq). One dict
    lookup per receiver."""
    origin = packet.origin
    key = origin << 32 | packet.seq
    return [
        entry for entry in receivers
        if entry[0] != origin and key not in caches[entry[0]]._keys
    ]


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
    replay windows against the ground station's counters.
    """
    out: List[Tuple[int, codec.WirePacket]] = []
    seq = gcs_state.take_seq()
    for uav_id in sessions.sessioned_ids():
        if uav_id == exclude_id:
            continue
        key = sessions.key_for(uav_id)
        packet = codec.seal_with_key(key, 0, gcs_state.node_id, seq, 0, frame, counters)
        out.append((uav_id, packet))
    return out
