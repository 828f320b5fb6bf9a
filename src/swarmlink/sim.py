"""Deterministic discrete-event simulation of the full telemetry stack.

One run wires real protocol state machines (handshakes, rekeying, sealing,
flooding or star relay) to simulated radios and adversaries, then reports
metrics and a trace. Determinism rules; where a rule is a fast path that
acts exactly as if a plainer rule held, tests/reference_sim.py's
`Reference` applies the plainer rule, through the override its clause
names, and must give the same run:

- one master RNG seeded from the scenario, split at startup into
  purpose-specific child RNGs (keys, loss rolls, jitter, traffic phases,
  adversary choices) so draws in one domain never shift another;
- the event heap orders by (time, insertion sequence), so simultaneous
  events fire in scheduling order;
- a send reserves the heap key of its tx_done, (end time, next sequence
  number), as it starts, but the event goes on the heap only once a send
  waits behind it: at once if the queue is not empty, else when a later
  send is queued and the running event's key (the entry run() popped, not
  the clock, which cannot order ties) comes before the reserved one. If
  the reserved key comes first, the send has ended, and a tx_done popped
  there would have found the queue empty and done nothing. Sequence
  numbers are taken exactly as if every tx_done were queued, so every
  other event keeps its key and pops in the same order. A send the duty
  meter defers reserves its tx_done at the time it may go, like a send on
  the air, so the node waits the way a busy radio does. A tx_done drains
  its node's queue in place: after a send starts with another waiting, if
  the reserved key comes before every event on the heap and within the
  run's duration, that tx_done is the event run() would pop next, so it
  runs there, setting `_event` and `now` as run() would, and the next send
  goes; otherwise it is queued under its key
  (`Reference._reserve_tx_done` queues every tx_done as its send starts,
  and `Reference._tx_done` starts one send per event);
- the data packets one step queues at a node (a star's fanout of one
  frame) go on its queue as one batch, pumped once: heap keys and loss
  draws are those of queueing them one at a time
  (`Reference._enqueue` queues and pumps each packet on its own);
- one event per pending step: a chain (a sender's traffic, a tap's
  injections, key rotation, rekey resends) queues its next step before
  the current step's own work, so the heap does not grow with run length;
- the receivers of one transmission share its arrival time, so they
  travel as node ids in one event, in node_order: the order in which
  separate per-receiver events with consecutive sequence numbers would
  pop. Bytes a tap injects follow the same rule;
- within one such event no receiver's outcome depends on another's: it
  depends only on the receiver's own dedup cache, replay window and
  keyring, forwards are queued as new events, and a node goes down only
  in its own timer event. So every event takes one receive path, whether its
  bytes are honest, changed by a tap or made by one: down receivers are
  set aside, the bytes are parsed at most once (never when no tap changed
  them, as the event then carries the message they were serialised from),
  and in mesh mode every live receiver that is the packet's origin or
  already holds its (origin, seq) is counted as a duplicate in one step.
  The handler runs only for the receivers left, in order
  (`Reference._deliver` parses the bytes for each live receiver, and
  `Reference._rx_data_mesh` counts `mesh.handle_rx`'s own duplicate result);
- each mesh data receiver left makes one key lookup and hands the key to
  `mesh.handle_rx`; one with no usable key for the packet's epoch gets the
  UnknownEpoch refusal without a raise, in one stamped trace line (see
  report.py) (`Reference._rx_data_mesh` hands a None key on, and
  `handle_rx` raises it after its duplicate check);
- a sealed packet and its forwards keep their seal, the key bytes that
  sealed it and the frame sealed: a receiver holding those bytes takes
  that frame, one holding others runs AES-GCM, and no open writes to the
  packet (see codec.py). The parse per receiver in `Reference._deliver`
  is the slow form: it gives each receiver its own packet with no seal,
  so each receiver's open runs AES-GCM;
- who hears a send, and which links cover it, is `air.Air`'s to say: a
  send makes one `Air.reach` lookup, whose cached receivers go to
  `links.transmit`, and `_pump` completes it in place (see air.py for why
  its caches are exact; `Reference` runs on `BruteForceAir`, whose `reach`
  recomputes the links and each link's receivers on every call);
- every iteration that feeds events or reports runs over sorted ids or
  insertion-ordered containers, never bare set order;
- reports and traces contain no wall-clock values (see report.py).

The ground station's key agreement state lives once, on the Simulation beside
`gcs`, and each duty meter keeps the record of its sends the report reads.

Adversaries are taps on the air (see adversary.py); the simulation calls
their hooks and never names one. A receive handler raises the
SwarmLinkError that refuses a reception, and _deliver alone records it as a
security event. A reception ends as None, "delivered_new", "rejected_dedup"
or "rejected_<error>", which is how a tap learns the fate of its bytes.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import Counter, deque
from dataclasses import dataclass, replace as dc_replace
from functools import partial
from itertools import count, takewhile
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import adversary, codec, crypto, handshake, links, mesh, rekey, report, wire
from .air import Air
from .errors import (
    NoSession, NoViableLink, StaleEpoch, SwarmLinkError, UnknownEpoch, UnknownMessage, ValidationError,
)
# sim.render_json and sim.latency_summary: aliases bench/test_bench.py reads.
from .metrics import DeliveryAudit, latency_summary, render_json  # noqa: F401
from .scenario import Scenario

TELEMETRY_MSG_ID = 0x01
_EPS = 1e-9
# (destination, packet) pairs to queue; destination None broadcasts.
_Sends = Sequence[Tuple[Optional[int], codec.WirePacket]]


@dataclass(slots=True)
class _TxItem:
    kind: str  # "offer" | "response" | "rekey" | "ack" | "data"
    data: bytes
    dest: Optional[int]  # None broadcasts to every in-range node
    # The message `data` was serialised from, handed as is to every
    # receiver when no tap changed the bytes, so none of them parses them.
    message: object = None


def _data_items(sends: _Sends) -> List[_TxItem]:
    return [_TxItem("data", packet.to_bytes(), dest, packet) for dest, packet in sends]


class _Node:
    """Runtime state for one node: radios, queues, and its own protocol
    machines; the ground station's key agreement state is the Simulation's."""

    def __init__(self, spec, scenario: Scenario, sig_key: crypto.SignatureKeyPair, tx_done):
        self.id = spec.id
        self.role = spec.role
        self.sig_key = sig_key
        # The heap key (end time, sequence number) reserved for the tx_done
        # of the send on the air or deferred, None when idle; tx_done_queued
        # tells whether that event is on the heap (see Simulation._on_air).
        self.tx_end: Optional[Tuple[float, int]] = None
        self.tx_done_queued = False
        self.tx_done = partial(tx_done, self)  # the callback of that event
        self.txq: deque = deque()
        policy = scenario.link_policy
        self.selector = links.LinkSelector(
            link_names=tuple(scenario.links),
            health_threshold=policy.health_threshold,
            hysteresis_s=policy.hysteresis_s,
            ewma_alpha=policy.ewma_alpha,
            pinned=policy.pinned_link,
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
        # The plaintext baseline is the null key, not a mode (see crypto.py).
        self.keyring = rekey.KeyRing() if scenario.security.encryption else rekey.NULL_RING
        self.session_key: Optional[crypto.SymmetricKey] = None  # UAV side


class Simulation:
    """One scenario run. Build, call run(), read report and trace."""

    def __init__(self, sc: Scenario):
        self.sc = sc
        master = random.Random(sc.seed)
        self.rng_keys = random.Random(master.getrandbits(64))
        self.rng_loss = random.Random(master.getrandbits(64))
        self.rng_jitter = random.Random(master.getrandbits(64))
        self.rng_traffic = random.Random(master.getrandbits(64))
        self.rng_adv = random.Random(master.getrandbits(64))

        # mtu_bytes is not a mutable link field, so this holds for the whole run.
        self._min_mtu = min(p.mtu_bytes for p in sc.links.values())
        self.now = 0.0
        self._heap: List[Tuple[float, int, str, Callable[[], None]]] = []
        self._eseq = 0
        # The running event's key: the heap entry run() popped last, or the
        # reserved (t, seq) of a tx_done a drain runs in place (see _tx_done).
        # It starts before every key.
        self._event: tuple = (-math.inf, -1)

        # The counts report.COUNT_NAMES declares, and no other: an undeclared name raises KeyError.
        self.counts: Dict[str, int] = dict.fromkeys(report.COUNT_NAMES, 0)
        self.security_events: Counter = Counter()  # error class name -> rejections
        self.audit = DeliveryAudit()
        self.trace = report.Trace()
        self.installed_keys: List[Tuple[int, bytes]] = []
        self.per_link_tx: Dict[str, int] = {name: 0 for name in sc.links}
        self.per_link_data_tx: Dict[str, int] = {name: 0 for name in sc.links}
        self.wire_bytes = {"data": 0, "control": 0}

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
            spec.id: _Node(spec, sc, sig_keys[spec.id], self._tx_done) for spec in specs
        }
        self.node_order: List[int] = [spec.id for spec in specs]
        self.air = Air({spec.id: tuple(spec.position) for spec in specs}, sc.links)
        # node id -> its dedup cache, for the duplicate filter in _deliver.
        self._dedup = {node_id: node.mesh.dedup for node_id, node in self.nodes.items()}
        self.gcs = self.nodes[sc.gcs().id]
        # The ground station's key agreement state, kept once, here.
        self.sessions = handshake.SessionTable()
        self.key_source: Optional[rekey.BroadcastKeySource] = None
        if sc.mode == "mesh" and sc.security.encryption:
            self.key_source = rekey.BroadcastKeySource(sc.protocol.key_lifetime_s)
        # UAV id -> the rekey for the current epoch it has not acked yet.
        self.unacked: Dict[int, _TxItem] = {}
        self.hs_attempts: Dict[int, int] = {}
        self.unreachable: List[int] = []
        # First wire byte -> (message class, handler). The parser is looked up
        # on the class at each parse, so a wrapper set on it later sees every call.
        self._mesh = sc.mode == "mesh"  # for the duplicate filter in _deliver
        rx_data = self._rx_data_mesh if self._mesh else self._rx_data_star
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
        # built, and an injector's first step queues behind the traffic.
        self.taps: List[adversary.Tap] = [
            adversary.TAPS[spec.kind](spec, self) for spec in sc.adversaries
        ]

    # ---- scheduling ------------------------------------------------------

    def _schedule(self, t: float, kind: str, fn: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (t, self._eseq, kind, fn))
        self._eseq += 1

    def chain(self, times: Iterator[float], step: Callable[[], None]) -> None:
        """Run `step` at each of the ascending `times`; each run first queues the next."""
        t = next(times, None)
        if t is not None:
            self._schedule(t, "timer", partial(self._chain_step, times, step))

    def _chain_step(self, times: Iterator[float], step: Callable[[], None]) -> None:
        self.chain(times, step)
        step()

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
                self.hs_attempts[uav_id] = 1
                self._schedule(0.0, "timer", lambda u=uav_id: self._start_handshake(u))
        if sc.traffic.rate_hz > 0:
            period = 1.0 / sc.traffic.rate_hz
            stop = min(sc.duration_s, math.inf if sc.traffic.stop_s is None else sc.traffic.stop_s)
            for sender in sorted(sc.sender_ids()):
                start = sc.traffic.start_s + self.rng_traffic.uniform(0.0, period)
                # count() adds `period` to the float before, as `t += period` would.
                times = takewhile(lambda t: t < stop, count(start, period))
                self.chain(times, partial(self._traffic_event, sender))

    # ---- node and link lifecycle ------------------------------------------

    def _node_down(self, node: _Node) -> None:
        self.air.node_down(node.id)
        self.trace.add(self.now, "node_down", node=node.id)

    def _apply_link_event(self, ev) -> None:
        profiles = self.air.profiles
        profiles[ev.link] = dc_replace(profiles[ev.link], **ev.set)
        self.trace.add(self.now, "link_event", link=ev.link, set=dict(sorted(ev.set.items())))

    # ---- handshake orchestration -------------------------------------------

    def _start_handshake(self, uav_id: int) -> None:
        g = self.gcs
        if g.id in self.air.down or self.sessions.has_session(uav_id):
            return
        timeout = self.sc.protocol.handshake_timeout_s
        offer = handshake.gcs_start_handshake(
            self.roster, g.sig_key, self.sessions, uav_id, self.rng_keys, self.now, timeout
        )
        self.counts["handshake_attempts"] += 1
        self.trace.add(self.now, "handshake_offer", uav=uav_id, attempt=self.hs_attempts[uav_id])
        self._enqueue(g, (_TxItem("offer", offer.to_bytes(), uav_id, offer),))
        self._schedule(self.now + timeout + _EPS, "timer", partial(self._handshake_timeout, uav_id))

    def _handshake_timeout(self, uav_id: int) -> None:
        if self.gcs.id in self.air.down or self.sessions.has_session(uav_id):
            return
        self.sessions.expire_pending(self.now)
        if self.hs_attempts[uav_id] <= self.sc.protocol.handshake_retries:
            self.hs_attempts[uav_id] += 1
            self.counts["handshake_retries"] += 1
            self._start_handshake(uav_id)
        elif uav_id not in self.unreachable:
            self.unreachable.append(uav_id)
            self.trace.add(self.now, "unreachable", uav=uav_id)

    def _rx_offer(self, node: _Node, offer: handshake.KeyOffer) -> None:
        if node.role != "uav":
            return
        response, session_key = handshake.uav_on_offer(
            self.roster, node.id, node.sig_key, offer, self.rng_keys,
            verify_signatures=self.sc.security.verify_signatures,
        )
        node.session_key = session_key
        self.installed_keys.append((node.id, session_key.bytes_))
        self.trace.add(self.now, "session_uav", node=node.id)
        self._enqueue(node, (_TxItem("response", response.to_bytes(), offer.sender_id, response),))

    def _rx_response(self, node: _Node, response: handshake.KeyResponse) -> None:
        if node.role != "gcs":
            return
        session_key = handshake.gcs_on_response(
            self.roster, self.sessions, response, self.now,
            verify_signatures=self.sc.security.verify_signatures,
        )
        uav_id = response.sender_id
        self.installed_keys.append((node.id, session_key.bytes_))
        self.counts["sessions_established"] += 1
        self.trace.add(self.now, "session_gcs", uav=uav_id)
        if self.key_source is not None:
            if self.key_source.current is None:
                self._generate_epoch()
            self._send_rekey(uav_id)

    # ---- broadcast key lifecycle ------------------------------------------

    def _generate_epoch(self) -> None:
        g = self.gcs
        bkey = self.key_source.new_epoch(self.rng_keys, self.now)
        g.keyring.install(bkey, self.now, self.sc.protocol.grace_window_s)
        g.window._drop_past_epochs(g.keyring)
        for tap in self.taps:
            tap.on_epoch(bkey)
        self.trace.add(self.now, "rotate", epoch=bkey.epoch, not_after=round(bkey.not_after, 9))
        self._schedule(bkey.not_after, "timer", self._rotation_due)

    def _rotation_due(self) -> None:
        # The one pending rotation, queued by the epoch it ends.
        if self.gcs.id in self.air.down:
            return
        self._generate_epoch()
        self.unacked = {}
        for uav_id in self.sessions.sessioned_ids():
            self._send_rekey(uav_id)

    def _send_rekey(self, uav_id: int) -> None:
        g = self.gcs
        bkey = self.key_source.current
        message = rekey.wrap_for(self.sessions.key_for(uav_id), g.id, uav_id, bkey, self.rng_keys)
        self.unacked[uav_id] = _TxItem("rekey", message.to_bytes(), uav_id, message)
        self.counts["rekeys_sent"] += 1
        self._enqueue(g, (self.unacked[uav_id],))
        self._ensure_resend_timer()

    def _ensure_resend_timer(self) -> None:
        interval = self.sc.protocol.rekey_resend_interval_s
        if interval is not None and not self._resend_active:
            self._resend_active = True
            self._schedule(self.now + interval, "timer", self._resend_due)

    def _resend_due(self) -> None:
        self._resend_active = False
        g = self.gcs
        if g.id in self.air.down or not self.unacked:
            return
        for uav_id in sorted(self.unacked):
            self.counts["rekey_resends"] += 1
            self._enqueue(g, (self.unacked[uav_id],))
        self._ensure_resend_timer()

    def _rx_rekey(self, node: _Node, message: rekey.RekeyMessage) -> None:
        if node.role != "uav" or node.session_key is None:
            self.counts["rekey_without_session"] += 1
            return
        try:
            bkey = rekey.unwrap(
                node.session_key, message, node.keyring, self.now, self.sc.protocol.grace_window_s
            )
        except StaleEpoch as exc:
            current = node.keyring.current
            if current is None or exc.epoch != current.epoch:
                raise
            # Benign duplicate of the rekey we already installed: re-ack.
            self.counts["rekey_duplicates"] += 1
            bkey = current
        else:
            self.counts["rekeys_installed"] += 1
            node.window._drop_past_epochs(node.keyring)
            self.trace.add(self.now, "rekey_installed", node=node.id, epoch=bkey.epoch)
        ack = rekey.RekeyAck(uav_id=node.id, epoch=bkey.epoch)
        self._enqueue(node, (_TxItem("ack", ack.to_bytes(), self.gcs.id, ack),))

    def _rx_ack(self, node: _Node, ack: rekey.RekeyAck) -> None:
        if node.role != "gcs":
            return
        if ack.uav_id in self.unacked and ack.epoch == self.key_source.current.epoch:
            del self.unacked[ack.uav_id]
            self.counts["acks_received"] += 1

    # ---- traffic -----------------------------------------------------------

    def _traffic_event(self, sender_id: int) -> None:
        if sender_id in self.air.down:
            return
        node = self.nodes[sender_id]
        sc = self.sc
        # The denominator of every delivery ratio: counted even when the
        # stack cannot ship it yet, so a dead relay shows up as loss.
        tag = self.audit.record_send(sender_id, self.now)
        payload = tag + bytes(sc.traffic.payload_bytes - len(tag))
        message = codec.TelemetryMessage(TELEMETRY_MSG_ID, sender_id, payload)
        if sc.mode == "mesh":
            if node.keyring.current is None:
                self.counts["tx_skipped_no_key"] += 1
                return
        else:
            ready = node.session_key is not None if node.role == "uav" else self.sessions.sessioned_ids()
            if not ready:
                self.counts["tx_skipped_no_session"] += 1
                return
        for frame in codec.compose_frames([message], self._min_mtu):
            items = _data_items(self._seal(node, frame))
            self.counts["frames_sealed"] += len(items)
            self._enqueue(node, items)

    def _seal(self, node: _Node, frame: codec.Frame) -> _Sends:
        """Seal one of the node's own frames for each of its destinations."""
        sc, state, counters = self.sc, node.mesh, node.counters
        if sc.mode == "star":
            if node.role == "uav":
                return ((self.gcs.id, mesh.star_uplink(state, node.session_key, counters, frame)),)
            return mesh.star_fanout(state, self.sessions, counters, frame)
        return ((None, mesh.originate(state, node.keyring, counters, frame, sc.protocol.hop_limit)),)

    # ---- transmission ------------------------------------------------------

    def _enqueue(self, node: _Node, items: Sequence[_TxItem]) -> None:
        """The one place packets are queued: `items` as one batch, pumped once."""
        if not items or node.id in self.air.down:
            return
        node.txq.extend(items)
        self.counts["tx_enqueued"] += len(items)
        if not self._on_air(node):
            self._pump(node)
            if node.txq:
                self._on_air(node)  # a send waits behind the one just started or deferred

    def _pump(self, node: _Node) -> None:
        """Start the first send the node's queue holds, or defer it, dropping
        the packets that cannot go, and reserve its tx_done."""
        air, now, selector = self.air, self.now, node.selector
        while node.txq:
            item = node.txq[0]
            covering, heard = air.reach(node.id, item.dest)
            prev_active = selector.active
            try:
                profile = selector.select(air.profiles, covering, now)
            except NoViableLink:
                self._drop(node, "no_viable_link")
                continue
            name, data = profile.name, item.data
            size = len(data)
            if selector.active != prev_active and prev_active is not None:
                self.trace.add(now, "link_switch", node=node.id, link=name)
            if size > profile.mtu_bytes:
                self._drop(node, "mtu")
                continue
            receivers = heard.get(name)
            if receivers is None:
                receivers = air.receivers(node.id, item.dest, name)
            result = links.transmit(profile, size, now, receivers, self.rng_loss, node.meters.get(name))
            if result.__class__ is links.Deferred:
                if math.isinf(result.until):
                    self._drop(node, "duty_budget")
                    continue
                self.counts["tx_deferrals"] += 1
                self.trace.add(now, "defer", node=node.id, link=name, until=round(result.until, 9))
                self._reserve_tx_done(node, result.until)
                return
            node.txq.popleft()
            self.per_link_tx[name] += 1
            if item.kind == "data":
                self.per_link_data_tx[name] += 1
            self.wire_bytes["data" if item.kind == "data" else "control"] += size
            delivered, lost = result.delivered, result.lost
            heard_by = len(delivered)
            if heard_by or lost:
                selector.update_health(name, heard_by / (heard_by + len(lost)))
            for tap in self.taps:
                if tap.active(now):
                    data = tap.on_air(item, result, data)
            if delivered:
                self.counts["rx_events"] += heard_by
                message = item.message if data is item.data else None
                self._schedule(result.arrival, "rx", partial(self._deliver, "rx_processed", delivered, data, message))
            if lost:
                self.counts["rx_lost"] += len(lost)
            self._reserve_tx_done(node, now + result.airtime_s)
            return

    def _on_air(self, node: _Node) -> bool:
        """Whether the node's last send is still on the air, or deferred,
        asked when a send waits behind it. A tx_done that was reserved but
        not queued is queued now, under its reserved key, if the running
        event comes before that key; if the running event comes after it,
        the send has ended, and the tx_done would have found an empty queue."""
        end = node.tx_end
        if end is None:
            return False
        if not node.tx_done_queued:
            # Heap order, (t, seq): the running event's seq is never the reserved one.
            if end < self._event:
                node.tx_end = None
                return False
            heapq.heappush(self._heap, (end[0], end[1], "tx_done", node.tx_done))
            node.tx_done_queued = True
        return True

    def _drop(self, node: _Node, reason: str) -> None:
        item = node.txq.popleft()
        self.counts["tx_dropped"] += 1
        self.trace.add(self.now, "drop", node=node.id, reason=reason, item=item.kind)

    def _reserve_tx_done(self, node: _Node, end: float) -> None:
        """Reserve the heap key of the tx_done at `end`, as _schedule would
        number it: the end of a send, or the time a deferred send may go.
        Whoever started the send queues the event if a send waits behind it."""
        node.tx_end = (end, self._eseq)
        self._eseq += 1
        node.tx_done_queued = False

    def _tx_done(self, node: _Node) -> None:
        """Pump the node's queue, and while a send waits and the reserved
        tx_done is the event run() would pop next, run it here: the drain."""
        node.tx_end = None
        if node.id in self.air.down:
            return
        heap, limit = self._heap, self.sc.duration_s + _EPS
        while True:
            self._pump(node)
            end = node.tx_end
            if end is None or not node.txq:
                return
            if end[0] > limit or (heap and heap[0] < end):
                heapq.heappush(heap, (end[0], end[1], "tx_done", node.tx_done))
                node.tx_done_queued = True
                return
            self._event = end
            self.now = end[0]
            node.tx_end = None

    # ---- receive dispatch ----------------------------------------------------

    def _deliver(
        self, counter: str, receivers: Sequence[int], data: bytes,
        message, tally: Optional[Callable[..., None]] = None,
    ) -> None:
        """The one receive path: hand one event's bytes to its receiver ids.
        Down receivers are set aside, bytes that come without their message
        are parsed once (the first byte picks the message class and its
        handler), in mesh mode duplicate receivers are dropped in one step,
        and the handler runs for each receiver left, in order. A
        SwarmLinkError it raises is recorded as a security event here; a
        keyless mesh receiver's handler records its refusal without a raise.
        Passes each outcome, and how many, to `tally` if given."""
        self.counts[counter] += len(receivers)
        down = self.air.down
        if down:
            live = [rid for rid in receivers if rid not in down]
            if len(live) < len(receivers):
                self.counts["rx_ignored_down"] += len(receivers) - len(live)
                receivers = live
        if not receivers:
            return
        entry = self._rx_table.get(data[0]) if data else None
        if entry is not None and message is None:
            try:
                message = entry[0].from_bytes(data)
            except ValidationError:
                entry = None
        if entry is None:
            self.counts["rx_unparseable"] += len(receivers)
            return
        if self._mesh and entry[0] is codec.WirePacket:
            fresh = mesh._fresh_receivers(receivers, self._dedup, message)
            duplicates = len(receivers) - len(fresh)
            if duplicates:
                self.counts["rx_duplicates"] += duplicates
                if tally is not None:
                    tally("rejected_dedup", duplicates)
                if not fresh:
                    return
                receivers = fresh
        handler = entry[1]
        for receiver_id in receivers:
            node = self.nodes[receiver_id]
            try:
                outcome = handler(node, message)
            except SwarmLinkError as exc:
                outcome = self._security_event(node, exc)
            if tally is not None and outcome is not None:
                tally(outcome)

    def _security_event(self, node: _Node, exc: SwarmLinkError) -> str:
        """Count and trace a rejection; returns it as a receive outcome."""
        name = type(exc).__name__
        self.security_events[name] += 1
        self.trace.add_refusal(self.now, node.id, name, str(exc))
        return f"rejected_{name}"

    def inject(self, receiver_ids: Sequence[int], data: bytes, tally: Callable[..., None]) -> None:
        """Hand a tap's bytes to its receivers now, in one event; each
        outcome goes to `tally(outcome, n=1)`."""
        self.counts["adv_rx_events"] += len(receiver_ids)
        deliver = partial(self._deliver, "adv_rx_processed", receiver_ids, data, None, tally)
        self._schedule(self.now, "advrx", deliver)

    def _rx_data_mesh(self, node: _Node, packet: codec.WirePacket) -> str:
        key = node.keyring.key_for_epoch(packet.epoch, self.now)
        if key is None:
            return self._security_event(node, rekey._no_key(packet.epoch))
        result = mesh.handle_rx(node.mesh, key, node.window, packet)
        self._deliver_frame(node, result.deliver)
        if result.forward is not None:
            jitter_max = self.sc.protocol.forward_jitter_max_s
            delay = self.rng_jitter.uniform(0.0, jitter_max) if jitter_max > 0 else 0.0
            forward = (_TxItem("data", result.forward.to_bytes(), None, result.forward),)
            self._schedule(self.now + delay, "timer", partial(self._enqueue, node, forward))
        return "delivered_new"

    def _rx_data_star(self, node: _Node, packet: codec.WirePacket) -> str:
        if packet.epoch != 0:
            raise UnknownEpoch(f"epoch {packet.epoch} in star mode")
        key = self.sessions.key_for(packet.origin) if node.role == "gcs" else node.session_key
        if key is None:
            raise NoSession(f"node {node.id} has no session")
        frame = codec.open_with_key(key, node.window, packet)
        self._deliver_frame(node, frame)
        if node.role == "gcs":
            fanout = mesh.star_fanout(
                node.mesh, self.sessions, node.counters, frame, exclude_id=packet.origin
            )
            self._enqueue(node, _data_items(fanout))
        return "delivered_new"

    def _deliver_frame(self, node: _Node, frame: codec.Frame) -> None:
        for message in frame.messages:
            try:
                self.audit.record_delivery(message.source_node, message.payload, node.id, self.now)
            except UnknownMessage as exc:
                self._security_event(node, exc)

    # ---- run ---------------------------------------------------------------

    def run(self) -> dict:
        heap, pop, limit = self._heap, heapq.heappop, self.sc.duration_s + _EPS
        while heap and heap[0][0] <= limit:
            self._event = event = pop(heap)
            # On a tie `now` keeps its object, as max() would: an int time stays an int.
            if event[0] > self.now:
                self.now = event[0]
            event[3]()
        self.now = self.sc.duration_s
        # rx and advrx events are partials of _deliver over all their receivers.
        rx_in_flight = sum(len(e[3].args[1]) for e in self._heap if e[2] == "rx")
        adv_in_flight = sum(len(e[3].args[1]) for e in self._heap if e[2] == "advrx")
        return report.build(self, rx_in_flight, adv_in_flight)


def run_scenario(sc: Scenario) -> Tuple[dict, List[str]]:
    """Run one scenario; returns (report dict, trace lines)."""
    sim = Simulation(sc)
    return sim.run(), sim.trace
