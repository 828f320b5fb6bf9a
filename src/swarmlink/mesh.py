"""Packet dissemination: flooding mesh and star relay.

Mesh mode floods: every node rebroadcasts each packet it has not seen
before, with a hop budget that decrements per forward. Duplicate
suppression keys on (origin, seq), and the dedup cache is updated before
the forward copy is queued so a node never retransmits the same packet
twice even if copies arrive back-to-back. A node never handles a packet of
its own origin, even a replay whose cache entry is gone. Relays never need
the payload key: the header they touch rides outside the ciphertext.

Star mode centralizes: UAVs unicast to the ground station under their
pairwise session keys (epoch 0 on the wire) and the ground station
re-seals for every other sessioned UAV. One dead ground station therefore
silences all UAV-to-UAV traffic, which is the trade the mesh avoids.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from . import codec, crypto
from .errors import SwarmLinkError
from .handshake import SessionTable

DEDUP_CAPACITY = 1024


class DedupCache:
    """Fixed-capacity FIFO set of (origin, seq) pairs already handled."""

    def __init__(self, capacity: int = DEDUP_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("dedup capacity must be at least 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[int, int], None]" = OrderedDict()

    def seen(self, origin: int, seq: int) -> bool:
        return (origin, seq) in self._entries

    def add(self, origin: int, seq: int) -> None:
        key = (origin, seq)
        if key in self._entries:
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)  # evict oldest first
        self._entries[key] = None

    def __len__(self) -> int:
        return len(self._entries)


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


@dataclass(frozen=True)
class RxResult:
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
) -> RxResult:
    """Flooding receive path: dedup, authenticate, deliver once, forward.

    Packets that fail authentication or replay checks are surfaced as the
    result's error and neither delivered nor forwarded; they also do not
    enter the dedup cache, so a later honest copy of the same (origin, seq)
    still gets through.
    """
    if packet.origin == state.node_id or state.dedup.seen(packet.origin, packet.seq):
        return _DUPLICATE
    try:
        if plaintext_mode:
            frame = codec.open_packet_plain(window, packet)
        else:
            frame = codec.open_packet(keyring, window, packet, now)
    except SwarmLinkError as exc:
        return RxResult(error=exc)
    state.dedup.add(packet.origin, packet.seq)
    forward = packet.forwarded() if packet.hop_limit > 0 else None
    return RxResult(deliver=frame, forward=forward)


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
