"""Deterministic discrete-event simulation of the full telemetry stack.

One run wires real protocol state machines (handshakes, rekeying, sealing,
flooding or star relay) to simulated radios and adversaries, then reports
metrics and a trace. Determinism rules:

- one master RNG seeded from the scenario, split at startup into
  purpose-specific child RNGs (keys, loss rolls, jitter, traffic phases,
  adversary choices) so draws in one domain never shift another;
- the event heap orders by (time, insertion sequence), so simultaneous
  events fire in scheduling order;
- the receivers of one transmission share its arrival time and are
  delivered by one event, in node_order: the order in which separate
  per-receiver events with consecutive sequence numbers would pop;
- every iteration that feeds events or reports runs over sorted ids or
  insertion-ordered containers, never bare set order;
- reports and traces contain no wall-clock values.

Adversaries are taps on the air (see adversary.py); the simulation calls
their hooks and never names one.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from collections import deque
from dataclasses import dataclass, replace as dc_replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from . import adversary, codec, crypto, handshake, links, mesh, rekey, wire
from .errors import (
    NoSession,
    NoViableLink,
    StaleEpoch,
    SwarmLinkError,
    UnknownEpoch,
    ValidationError,
)
from .metrics import Counters, DeliveryAudit, latency_summary, render_json
from .scenario import Scenario

TELEMETRY_MSG_ID = 0x01
_EPS = 1e-9
# Drop reason in the trace -> its counter; the conservation identity sums them.
_DROP_COUNTERS = {
    "no_viable_link": "tx_dropped_no_link",
    "mtu": "tx_dropped_mtu",
    "duty_budget": "tx_dropped_duty_impossible",
}
# (destination, packet) pairs to queue; destination None broadcasts.
_Sends = Sequence[Tuple[Optional[int], codec.WirePacket]]


@dataclass
class _TxItem:
    kind: str  # "offer" | "response" | "rekey" | "ack" | "data"
    data: bytes
    dest: Optional[int]  # None broadcasts to every in-range node
    # Data items: the packet `data` was serialised from, handed as is to
    # every honest receiver, so none of them parses the bytes again.
    packet: Optional[codec.WirePacket] = None


def _every_link(_profile: links.LinkProfile) -> bool:
    return True


class _Node:
    """Runtime state for one node: radios, queues, and protocol machines."""

    def __init__(self, spec, scenario: Scenario, sig_key: crypto.SignatureKeyPair):
        self.id = spec.id
        self.role = spec.role
        self.position = tuple(spec.position)
        self.sig_key = sig_key
        self.down = False
        self.busy = False
        self.defer_until: Optional[float] = None
        self.txq: deque = deque()
        policy = scenario.link_policy
        self.selector = links.LinkSelector(
            link_names=tuple(scenario.links),
            health_threshold=policy.health_threshold,
            hysteresis_s=policy.hysteresis_s,
            ewma_alpha=policy.ewma_alpha,
            pinned=policy.pinned_link if policy.mode == "pinned" else None,
        )
        self.meters = {
            name: links.DutyCycleMeter(p.duty_cycle_limit, p.duty_window_s)
            for name, p in scenario.links.items()
            if p.duty_cycle_limit is not None
        }
        self.mesh = mesh.MeshState(
            node_id=spec.id, dedup=mesh.DedupCache(scenario.protocol.dedup_capacity)
        )
        self.counters = codec.PacketCounters()
        self.window = codec.ReplayWindow()
        self.keyring = rekey.KeyRing()
        self.session_key: Optional[crypto.SymmetricKey] = None  # UAV side
        # GCS side only:
        self.table = handshake.SessionTable()
        self.source: Optional[rekey.BroadcastKeySource] = None
        self.unacked: Dict[int, int] = {}
        self.rekey_cache: Dict[Tuple[int, int], bytes] = {}
        self.hs_attempts: Dict[int, int] = {}
        self.unreachable: List[int] = []


class Simulation:
    """One scenario run. Build, call run(), read report and trace."""

    def __init__(self, sc: Scenario):
        sc.validate()
        if not sc.security.encryption and sc.mode != "mesh":
            raise ValidationError("security.encryption", "plaintext baseline requires mesh mode")
        self.sc = sc
        master = random.Random(sc.seed)
        self.rng_keys = random.Random(master.getrandbits(64))
        self.rng_loss = random.Random(master.getrandbits(64))
        self.rng_jitter = random.Random(master.getrandbits(64))
        self.rng_traffic = random.Random(master.getrandbits(64))
        self.rng_adv = random.Random(master.getrandbits(64))

        self.profiles: Dict[str, links.LinkProfile] = dict(sc.links)
        self.now = 0.0
        self._heap: List[Tuple[float, int, str, Callable[[], None]]] = []
        self._eseq = 0

        self.counters = Counters()
        self.security_events = Counters()
        self.audit = DeliveryAudit()
        self.trace: List[str] = []
        # What became of bytes the taps injected: rejected_<cause>, delivered_new.
        self.injected = Counters()
        self.installed_keys: List[Tuple[int, bytes]] = []
        self.session_time: Dict[int, float] = {}
        self.duty_log: List[Tuple[int, str, float, float]] = []
        self.duty_max_util: Dict[Tuple[int, str], float] = {}
        self.per_link_tx: Dict[str, int] = {name: 0 for name in sc.links}
        self.per_link_data_tx: Dict[str, int] = {name: 0 for name in sc.links}
        self.wire_bytes = {"data": 0, "control": 0}
        self.next_uid = 1

        # Identities: signature keys drawn in ascending node id order.
        specs = sorted(sc.nodes, key=lambda n: n.id)
        sig_keys = {
            spec.id: crypto.keypair_from_seed(self.rng_keys.randbytes(crypto.SEED_LEN), "signature")
            for spec in specs
        }
        self.roster = handshake.SwarmRoster(
            gcs_id=sc.gcs().id,
            uav_ids=tuple(n.id for n in specs if n.role == "uav"),
            sig_public_keys={nid: kp.public_key for nid, kp in sig_keys.items()},
        )
        self.nodes: Dict[int, _Node] = {
            spec.id: _Node(spec, sc, sig_keys[spec.id]) for spec in specs
        }
        self.node_order: List[int] = [spec.id for spec in specs]
        self.gcs = self.nodes[sc.gcs().id]
        if sc.mode == "mesh" and sc.security.encryption:
            self.gcs.source = rekey.BroadcastKeySource(sc.protocol.key_lifetime_s)
        # (node, link) -> [(peer, distance)] in range, in node_order, down or
        # not. Exact for the whole run: positions are static and range_m is
        # not a mutable link field. Built on first use, so set-up time does
        # not grow with N^2.
        self._neighbour_index: Dict[Tuple[int, str], List[Tuple[int, float]]] = {}
        self._down: Set[int] = set()
        # First wire byte -> (message class, handler). from_bytes is looked up
        # on the class at each parse, so a wrapper set on it later sees every call.
        rx_data = self._rx_data_mesh if sc.mode == "mesh" else self._rx_data_star
        self._rx_table = {
            wire.PACKET_VERSION: (codec.WirePacket, rx_data),
            wire.MSG_KEY_OFFER: (handshake.KeyOffer, self._rx_offer),
            wire.MSG_KEY_RESPONSE: (handshake.KeyResponse, self._rx_response),
            wire.MSG_REKEY: (rekey.RekeyMessage, self._rx_rekey),
            wire.MSG_REKEY_ACK: (rekey.RekeyAck, self._rx_ack),
        }

        self._resend_active = False
        self._schedule_initial_events()
        # Built last, in scenario order: taps draw from rng_adv as they are
        # built, and an injector's events queue behind the traffic events.
        self.taps: List[adversary.Tap] = [
            adversary.TAPS[spec.kind](spec, self) for spec in sc.adversaries
        ]

    # ---- scheduling ------------------------------------------------------

    def _schedule(self, t: float, kind: str, fn: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (t, self._eseq, kind, fn))
        self._eseq += 1

    def _schedule_initial_events(self) -> None:
        sc = self.sc
        for spec in sorted(sc.nodes, key=lambda n: n.id):
            if spec.down_at_s is not None and spec.down_at_s <= sc.duration_s:
                node = self.nodes[spec.id]
                self._schedule(spec.down_at_s, "timer", lambda n=node: self._node_down(n))
        for ev in sc.link_events:
            self._schedule(ev.at_s, "timer", lambda e=ev: self._apply_link_event(e))
        if sc.mode == "star" or sc.security.encryption:  # both need session keys
            for uav_id in self.roster.uav_ids:
                self.gcs.hs_attempts[uav_id] = 1
                self._schedule(0.0, "timer", lambda u=uav_id: self._start_handshake(u))
        if sc.traffic.rate_hz > 0:
            period = 1.0 / sc.traffic.rate_hz
            stop = min(
                sc.traffic.stop_s if sc.traffic.stop_s is not None else sc.duration_s,
                sc.duration_s,
            )
            for sender in sorted(sc.sender_ids()):
                t = sc.traffic.start_s + self.rng_traffic.uniform(0.0, period)
                while t < stop:
                    self._schedule(t, "timer", lambda s=sender: self._traffic_event(s))
                    t += period

    # ---- tracing / accounting --------------------------------------------

    def _trace(self, kind: str, **fields) -> None:
        entry = {"t": round(self.now, 9), "event": kind}
        entry.update(fields)
        self.trace.append(json.dumps(entry, sort_keys=True))

    def _security_event(self, node: _Node, exc: SwarmLinkError, injected: bool = False) -> None:
        name = type(exc).__name__
        self.security_events.bump(name)
        if injected:
            self.injected.bump(f"rejected_{name}")
        self._trace("security", node=node.id, error=name, detail=str(exc))

    # ---- node and link lifecycle ------------------------------------------

    def _node_down(self, node: _Node) -> None:
        node.down = True
        self._down.add(node.id)
        self._trace("node_down", node=node.id)

    def _apply_link_event(self, ev) -> None:
        self.profiles[ev.link] = dc_replace(self.profiles[ev.link], **ev.set)
        self._trace("link_event", link=ev.link, set=dict(sorted(ev.set.items())))

    def _neighbours(self, node_id: int, link: str) -> List[Tuple[int, float]]:
        key = (node_id, link)
        found = self._neighbour_index.get(key)
        if found is None:
            covers = self.profiles[link].covers
            here = self.nodes[node_id].position
            found = []
            for other in self.node_order:
                if other != node_id:
                    dist = links.distance(here, self.nodes[other].position)
                    if covers(dist):
                        found.append((other, dist))
            self._neighbour_index[key] = found
        return found

    def _live_neighbours(self, node_id: int, link: str) -> List[Tuple[int, float]]:
        found = self._neighbours(node_id, link)
        down = self._down
        return [n for n in found if n[0] not in down] if down else found

    def _broadcast_coverage(self, node: _Node) -> Callable[[links.LinkProfile], bool]:
        """A link covers a broadcast iff it has a live neighbour; with no
        live peer at all every link covers, and the send reaches nobody.
        An unbounded link reaches every live peer, so its list is not built
        unless it carries the broadcast."""
        if len(self._down) + 1 == len(self.node_order):
            return _every_link
        down = self._down
        return lambda p: p.range_m is None or any(
            n[0] not in down for n in self._neighbours(node.id, p.name)
        )

    # ---- handshake orchestration -------------------------------------------

    def _start_handshake(self, uav_id: int) -> None:
        g = self.gcs
        if g.down or g.table.has_session(uav_id):
            return
        offer = handshake.gcs_start_handshake(
            self.roster,
            g.sig_key,
            g.table,
            uav_id,
            self.rng_keys,
            self.now,
            self.sc.protocol.handshake_timeout_s,
        )
        self.counters.bump("handshake_attempts")
        self._trace("handshake_offer", uav=uav_id, attempt=g.hs_attempts[uav_id])
        self._enqueue(g, _TxItem("offer", offer.to_bytes(), uav_id))
        self._schedule(
            self.now + self.sc.protocol.handshake_timeout_s + _EPS,
            "timer",
            lambda u=uav_id: self._handshake_timeout(u),
        )

    def _handshake_timeout(self, uav_id: int) -> None:
        g = self.gcs
        if g.down or g.table.has_session(uav_id):
            return
        g.table.expire_pending(self.now)
        if g.hs_attempts[uav_id] <= self.sc.protocol.handshake_retries:
            g.hs_attempts[uav_id] += 1
            self.counters.bump("handshake_retries")
            self._start_handshake(uav_id)
        elif uav_id not in g.unreachable:
            g.unreachable.append(uav_id)
            self._trace("unreachable", uav=uav_id)

    def _rx_offer(self, node: _Node, offer: handshake.KeyOffer, _injected: bool) -> None:
        if node.role != "uav":
            return
        try:
            response, session_key = handshake.uav_on_offer(
                self.roster,
                node.id,
                node.sig_key,
                offer,
                self.rng_keys,
                verify_signatures=self.sc.security.verify_signatures,
            )
        except SwarmLinkError as exc:
            self._security_event(node, exc)
            return
        node.session_key = session_key
        self.installed_keys.append((node.id, session_key.bytes_))
        self._trace("session_uav", node=node.id)
        self._enqueue(node, _TxItem("response", response.to_bytes(), offer.sender_id))

    def _rx_response(self, node: _Node, response: handshake.KeyResponse, _injected: bool) -> None:
        if node.role != "gcs":
            return
        try:
            session_key = handshake.gcs_on_response(
                self.roster,
                node.table,
                response,
                self.now,
                verify_signatures=self.sc.security.verify_signatures,
            )
        except SwarmLinkError as exc:
            self._security_event(node, exc)
            return
        uav_id = response.sender_id
        self.installed_keys.append((node.id, session_key.bytes_))
        self.session_time[uav_id] = self.now
        self.counters.bump("sessions_established")
        self._trace("session_gcs", uav=uav_id)
        if node.source is not None:
            if node.source.current is None:
                self._generate_epoch()
            self._send_rekey(uav_id)

    # ---- broadcast key lifecycle ------------------------------------------

    def _generate_epoch(self) -> None:
        g = self.gcs
        bkey = g.source.new_epoch(self.rng_keys, self.now)
        g.keyring.install(bkey, self.now, self.sc.protocol.grace_window_s)
        for tap in self.taps:
            tap.on_epoch(bkey)
        self._trace("rotate", epoch=bkey.epoch, not_after=round(bkey.not_after, 9))
        self._schedule(bkey.not_after, "timer", self._rotation_due)

    def _rotation_due(self) -> None:
        g = self.gcs
        if g.down or g.source is None or g.source.current is None:
            return
        if self.now + _EPS < g.source.current.not_after:
            return
        self._generate_epoch()
        g.unacked = {}
        for uav_id in g.table.sessioned_ids():
            self._send_rekey(uav_id)

    def _send_rekey(self, uav_id: int) -> None:
        g = self.gcs
        bkey = g.source.current
        message = rekey.wrap_for(
            g.table.key_for(uav_id), g.id, uav_id, bkey, self.rng_keys
        )
        g.rekey_cache[(uav_id, bkey.epoch)] = message.to_bytes()
        g.unacked[uav_id] = bkey.epoch
        self.counters.bump("rekeys_sent")
        self._enqueue(g, _TxItem("rekey", message.to_bytes(), uav_id))
        self._ensure_resend_timer()

    def _ensure_resend_timer(self) -> None:
        interval = self.sc.protocol.rekey_resend_interval_s
        if interval is None or self._resend_active:
            return
        self._resend_active = True
        self._schedule(self.now + interval, "timer", self._resend_due)

    def _resend_due(self) -> None:
        self._resend_active = False
        g = self.gcs
        if g.down or g.source is None or g.source.current is None or not g.unacked:
            return
        epoch = g.source.current.epoch
        g.unacked = {u: e for u, e in g.unacked.items() if e == epoch}
        for uav_id in sorted(g.unacked):
            self.counters.bump("rekey_resends")
            self._enqueue(g, _TxItem("rekey", g.rekey_cache[(uav_id, epoch)], uav_id))
        if g.unacked:
            self._ensure_resend_timer()

    def _rx_rekey(self, node: _Node, message: rekey.RekeyMessage, _injected: bool) -> None:
        if node.role != "uav" or node.session_key is None:
            self.counters.bump("rekey_without_session")
            return
        try:
            bkey = rekey.unwrap(
                node.session_key, message, node.keyring, self.now, self.sc.protocol.grace_window_s
            )
        except SwarmLinkError as exc:
            current = node.keyring.current
            if not (isinstance(exc, StaleEpoch) and current is not None and exc.epoch == current.epoch):
                self._security_event(node, exc)
                return
            # Benign duplicate of the rekey we already installed: re-ack.
            self.counters.bump("rekey_duplicates")
            bkey = current
        else:
            self.counters.bump("rekeys_installed")
            self._trace("rekey_installed", node=node.id, epoch=bkey.epoch)
        ack = rekey.RekeyAck(uav_id=node.id, epoch=bkey.epoch)
        self._enqueue(node, _TxItem("ack", ack.to_bytes(), self.gcs.id))

    def _rx_ack(self, node: _Node, ack: rekey.RekeyAck, _injected: bool) -> None:
        if node.role != "gcs":
            return
        if node.unacked.get(ack.uav_id) == ack.epoch:
            del node.unacked[ack.uav_id]
            self.counters.bump("acks_received")

    # ---- traffic -----------------------------------------------------------

    def _traffic_event(self, sender_id: int) -> None:
        node = self.nodes[sender_id]
        if node.down:
            return
        sc = self.sc
        uid = self.next_uid
        self.next_uid += 1
        payload = uid.to_bytes(8, "big") + bytes(sc.traffic.payload_bytes - 8)
        message = codec.TelemetryMessage(TELEMETRY_MSG_ID, sender_id, payload)
        # The denominator of every delivery ratio: counted even when the
        # stack cannot ship it yet, so a dead relay shows up as loss.
        self.audit.record_send(uid, sender_id, self.now)
        self.counters.bump("messages_originated")
        if sc.mode == "mesh":
            if sc.security.encryption and node.keyring.current is None:
                self.counters.bump("tx_skipped_no_key")
                return
        else:
            ready = node.session_key is not None if node.role == "uav" else node.table.sessioned_ids()
            if not ready:
                self.counters.bump("tx_skipped_no_session")
                return
        min_mtu = min(p.mtu_bytes for p in self.profiles.values())
        for frame in codec.compose_frames([message], min_mtu):
            self._enqueue_data(node, self._seal(node, frame), frame, "frames_sealed")

    def _seal(self, node: _Node, frame: codec.Frame) -> _Sends:
        """Seal one of the node's own frames for each of its destinations."""
        sc, state, counters = self.sc, node.mesh, node.counters
        if sc.mode == "star":
            if node.role == "uav":
                return ((self.gcs.id, mesh.star_uplink(state, node.session_key, counters, frame)),)
            return mesh.star_fanout(state, node.table, counters, frame)
        hops = sc.protocol.hop_limit
        if sc.security.encryption:
            return ((None, mesh.originate(state, node.keyring, counters, frame, hops)),)
        return ((None, mesh.originate_plain(state, counters, frame, hops)),)

    def _enqueue_data(self, node: _Node, sends: _Sends, frame=None, counter: str = "") -> None:
        """The one place data packets are queued. Packets just sealed from
        `frame` are shown to the taps and counted; forwards come without."""
        for dest, packet in sends:
            if frame is not None:
                for tap in self.taps:
                    tap.on_seal(packet, frame)
                self.counters.bump(counter)
            self._enqueue(node, _TxItem("data", packet.to_bytes(), dest, packet))

    # ---- transmission ------------------------------------------------------

    def _enqueue(self, node: _Node, item: _TxItem) -> None:
        if node.down:
            return
        self.counters.bump("tx_enqueued")
        node.txq.append(item)
        self._pump(node)

    def _pump(self, node: _Node) -> None:
        while True:
            if node.down or node.busy or not node.txq:
                return
            if node.defer_until is not None:
                if self.now + _EPS < node.defer_until:
                    return
                node.defer_until = None
            item = node.txq[0]
            if item.dest is None:
                covers = self._broadcast_coverage(node)
            else:
                dest = self.nodes[item.dest]
                dist = links.distance(node.position, dest.position)
                covers = _every_link if dest.down else (lambda p, d=dist: p.covers(d))
            prev_active = node.selector.active
            try:
                profile = node.selector.select(self.profiles, covers, self.now)
            except NoViableLink:
                self._drop(node, "no_viable_link")
                continue
            if node.selector.active != prev_active and prev_active is not None:
                self._trace("link_switch", node=node.id, link=profile.name)
            if len(item.data) > profile.mtu_bytes:
                self._drop(node, "mtu")
                continue
            if item.dest is None:
                receivers = self._live_neighbours(node.id, profile.name)
            elif dest.down or not profile.covers(dist):
                receivers = ()
            else:
                receivers = ((dest.id, dist),)
            meter = node.meters.get(profile.name)
            result = links.transmit(
                profile, len(item.data), self.now, receivers, self.rng_loss, meter
            )
            if isinstance(result, links.Deferred):
                if math.isinf(result.until):
                    self._drop(node, "duty_budget")
                    continue
                self.counters.bump("tx_deferrals")
                node.defer_until = result.until
                self._trace(
                    "defer", node=node.id, link=profile.name, until=round(result.until, 9)
                )
                self._schedule(result.until, "timer", lambda n=node: self._pump(n))
                return
            node.txq.popleft()
            self._complete_tx(node, item, profile, result)
            return

    def _drop(self, node: _Node, reason: str) -> None:
        item = node.txq.popleft()
        self.counters.bump(_DROP_COUNTERS[reason])
        self._trace("drop", node=node.id, reason=reason, item=item.kind)

    def _complete_tx(
        self,
        node: _Node,
        item: _TxItem,
        profile: links.LinkProfile,
        result: links.TransmitResult,
    ) -> None:
        self.counters.bump("tx_sent")
        self.per_link_tx[profile.name] += 1
        if item.kind == "data":
            self.per_link_data_tx[profile.name] += 1
        self.wire_bytes["data" if item.kind == "data" else "control"] += len(item.data)
        if profile.name in node.meters:
            meter = node.meters[profile.name]
            util = meter.used_airtime(self.now) / meter.budget()
            key = (node.id, profile.name)
            self.duty_max_util[key] = max(self.duty_max_util.get(key, 0.0), util)
            self.duty_log.append((node.id, profile.name, self.now, result.airtime_s))
        if result.delivered or result.lost:
            total = len(result.delivered) + len(result.lost)
            node.selector.update_health(profile.name, len(result.delivered) / total)
        data = item.data
        for tap in self.taps:
            if tap.active(self.now):
                data = tap.on_air(item, result, data)
        delivered = result.delivered
        if delivered:
            self.counters.bump("rx_events", len(delivered))
            packet = item.packet if data is item.data else None
            self._schedule(delivered[0][1], "rx", partial(self._deliver_rx, delivered, data, packet))
        if result.lost:
            self.counters.bump("rx_lost", len(result.lost))
        node.busy = True
        self._schedule(self.now + result.airtime_s, "timer", lambda n=node: self._tx_done(n))

    def _tx_done(self, node: _Node) -> None:
        node.busy = False
        self._pump(node)

    # ---- receive dispatch ----------------------------------------------------

    def _deliver_rx(
        self,
        receivers: Sequence[Tuple[int, float]],
        data: bytes,
        packet: Optional[codec.WirePacket],
    ) -> None:
        self.counters.bump("rx_processed", len(receivers))
        for receiver_id, _arrival in receivers:
            self._receive(receiver_id, data, packet, False)

    def inject(self, receiver_ids: Sequence[int], data: bytes) -> None:
        """Deliver bytes a tap made up to each receiver now, one event each."""
        for receiver_id in receiver_ids:
            self.counters.bump("adv_rx_events")
            self._schedule(self.now, "advrx", partial(self._deliver_injected, receiver_id, data))

    def _deliver_injected(self, node_id: int, data: bytes) -> None:
        self.counters.bump("adv_rx_processed")
        self._receive(node_id, data, None, True)

    def _receive(self, node_id: int, data: bytes, message, injected: bool) -> None:
        """The one receive dispatch: the first byte picks the message class
        and its handler, and bytes that come without their message are
        parsed here."""
        node = self.nodes[node_id]
        if node.down:
            self.counters.bump("rx_ignored_down")
            return
        entry = self._rx_table.get(data[0]) if data else None
        if entry is not None and message is None:
            try:
                message = entry[0].from_bytes(data)
            except ValidationError:
                entry = None
        if entry is None:
            self.counters.bump("rx_unparseable")
            return
        entry[1](node, message, injected)

    def _rx_data_mesh(self, node: _Node, packet: codec.WirePacket, injected: bool) -> None:
        result = mesh.handle_rx(
            node.mesh,
            node.keyring,
            node.window,
            packet,
            self.now,
            plaintext_mode=not self.sc.security.encryption,
        )
        if result.duplicate:
            self.counters.bump("rx_duplicates")
            if injected:
                self.injected.bump("rejected_dedup")
            return
        if result.error is not None:
            self._security_event(node, result.error, injected)
            return
        self._deliver_frame(node, result.deliver, injected)
        if result.forward is not None:
            jitter_max = self.sc.protocol.forward_jitter_max_s
            delay = self.rng_jitter.uniform(0.0, jitter_max) if jitter_max > 0 else 0.0
            forward = ((None, result.forward),)
            self._schedule(self.now + delay, "timer", partial(self._enqueue_data, node, forward))

    def _rx_data_star(self, node: _Node, packet: codec.WirePacket, injected: bool) -> None:
        try:
            if packet.epoch != 0:
                raise UnknownEpoch(f"epoch {packet.epoch} in star mode")
            if node.role == "gcs":
                key = node.table.key_for(packet.origin)
            elif node.session_key is None:
                raise NoSession(f"node {node.id} has no session")
            else:
                key = node.session_key
            frame = codec.open_with_key(key, node.window, packet)
        except SwarmLinkError as exc:
            self._security_event(node, exc, injected)
            return
        self._deliver_frame(node, frame, injected)
        if node.role == "gcs":
            fanout = mesh.star_fanout(
                node.mesh, node.table, node.counters, frame, exclude_id=packet.origin
            )
            self._enqueue_data(node, fanout, frame, "star_relayed")

    def _deliver_frame(self, node: _Node, frame: codec.Frame, injected: bool) -> None:
        for message in frame.messages:
            if len(message.payload) < 8:
                continue
            uid = int.from_bytes(message.payload[:8], "big")
            self.audit.record_delivery(uid, node.id, self.now)
            self.counters.bump("messages_delivered")
        if injected:
            self.injected.bump("delivered_new")

    # ---- run and report -------------------------------------------------------

    def run(self) -> dict:
        duration = self.sc.duration_s
        while self._heap and self._heap[0][0] <= duration + _EPS:
            t, _seq, _kind, fn = heapq.heappop(self._heap)
            self.now = max(self.now, t)
            fn()
        self.now = duration
        # An rx event is a partial over all receivers of one transmission.
        rx_in_flight = sum(len(e[3].args[0]) for e in self._heap if e[2] == "rx")
        adv_in_flight = sum(1 for e in self._heap if e[2] == "advrx")
        return self._build_report(rx_in_flight, adv_in_flight)

    def _build_report(self, rx_in_flight: int, adv_in_flight: int) -> dict:
        sc = self.sc
        c = self.counters
        node_ids = tuple(self.node_order)
        uav_ids = tuple(n.id for n in sc.uavs())
        pairs = self.audit.pair_stats(node_ids)
        sent_total = sum(p["sent"] for p in pairs.values())
        got_total = sum(p["delivered"] for p in pairs.values())
        uav_sent = uav_got = 0
        uav_set = set(uav_ids)
        for name, stats in pairs.items():
            src, dst = (int(x) for x in name.split("->"))
            if src in uav_set and dst in uav_set:
                uav_sent += stats["sent"]
                uav_got += stats["delivered"]
        queued = sum(len(n.txq) for n in self.nodes.values())
        dropped = sum(c.get(counter) for counter in _DROP_COUNTERS.values())
        conservation = {
            "tx_enqueued": c.get("tx_enqueued"),
            "tx_sent": c.get("tx_sent"),
            "tx_dropped": dropped,
            "tx_deferrals": c.get("tx_deferrals"),
            "queued_at_end": queued,
            "rx_events": c.get("rx_events"),
            "rx_processed": c.get("rx_processed"),
            "rx_lost": c.get("rx_lost"),
            "rx_in_flight_at_end": rx_in_flight,
            "adv_rx_events": c.get("adv_rx_events"),
            "adv_rx_processed": c.get("adv_rx_processed"),
            "adv_rx_in_flight_at_end": adv_in_flight,
            "balanced": (
                c.get("tx_enqueued") == c.get("tx_sent") + dropped + queued
                and c.get("rx_events") == c.get("rx_processed") + rx_in_flight
                and c.get("adv_rx_events") == c.get("adv_rx_processed") + adv_in_flight
            ),
        }
        duty = {}
        for (node_id, link_name), util in sorted(self.duty_max_util.items()):
            meter = self.nodes[node_id].meters[link_name]
            duty[f"{node_id}:{link_name}"] = {
                "max_window_utilization": round(util, 9),
                "budget_s": meter.budget(),
                "total_airtime_s": round(
                    sum(a for nid, ln, _t, a in self.duty_log if nid == node_id and ln == link_name),
                    9,
                ),
            }
        latencies = self.audit.latencies()
        uav_latencies = self.audit.latencies_between(uav_ids, uav_ids)
        session_times = sorted(self.session_time.values())
        return {
            "scenario": sc.name,
            "seed": sc.seed,
            "mode": sc.mode,
            "duration_s": sc.duration_s,
            "nodes": len(node_ids),
            "handshakes": {
                "attempts": c.get("handshake_attempts"),
                "retries": c.get("handshake_retries"),
                "established": c.get("sessions_established"),
                "unreachable": sorted(self.gcs.unreachable),
                "last_established_s": session_times[-1] if session_times else None,
                "all_established": len(session_times) == len(uav_ids),
            },
            "broadcast": {
                "epochs_reached": (
                    self.gcs.source.current.epoch
                    if self.gcs.source is not None and self.gcs.source.current is not None
                    else 0
                ),
                "rekeys_sent": c.get("rekeys_sent"),
                "rekeys_installed": c.get("rekeys_installed"),
                "rekey_resends": c.get("rekey_resends"),
                "rekey_duplicates": c.get("rekey_duplicates"),
                "acks_received": c.get("acks_received"),
            },
            "traffic": {
                "messages_originated": c.get("messages_originated"),
                "frames_sealed": c.get("frames_sealed"),
                "messages_delivered": c.get("messages_delivered"),
                "skipped_no_key": c.get("tx_skipped_no_key"),
                "skipped_no_session": c.get("tx_skipped_no_session"),
            },
            "delivery": {
                "pairs": pairs,
                "sent": sent_total,
                "delivered": got_total,
                "overall_ratio": (got_total / sent_total) if sent_total else 0.0,
                "uav_to_uav": {
                    "sent": uav_sent,
                    "delivered": uav_got,
                    "ratio": (uav_got / uav_sent) if uav_sent else 0.0,
                },
                "duplicate_deliveries": self.audit.duplicate_deliveries,
            },
            "latency": latency_summary(latencies),
            "latency_uav_to_uav": latency_summary(uav_latencies),
            "security_events": dict(sorted(self.security_events.values.items())),
            "links": {
                "per_link_tx": dict(sorted(self.per_link_tx.items())),
                "per_link_data_tx": dict(sorted(self.per_link_data_tx.items())),
                "switches": sum(n.selector.switches for n in self.nodes.values()),
                "deferrals": c.get("tx_deferrals"),
                "wire_bytes": dict(sorted(self.wire_bytes.items())),
            },
            "duty_cycle": duty,
            "adversary": {tap.name: tap.report() for tap in self.taps},
            "conservation": conservation,
        }


def run_scenario(sc: Scenario) -> Tuple[dict, List[str]]:
    """Run one scenario; returns (report dict, trace lines)."""
    sim = Simulation(sc)
    report = sim.run()
    return report, sim.trace


def report_json(report: dict) -> str:
    return render_json(report)
