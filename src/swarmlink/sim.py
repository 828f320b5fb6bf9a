"""Deterministic discrete-event simulation of the full telemetry stack.

One run wires real protocol state machines (handshakes, rekeying, sealing,
flooding or star relay) to simulated radios and adversaries, then reports
metrics and a trace. Determinism rules:

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
  the air, so the node waits the way a busy radio does;
- one event per pending step: a chain (a sender's traffic, a tap's
  injections, key rotation, rekey resends) queues its next step before
  the current step's own work, so the heap does not grow with run length;
- the receivers of one transmission share its arrival time, so they
  travel as node ids in one event, in node_order: the order in which
  separate per-receiver events with consecutive sequence numbers would
  pop. Bytes a tap injects follow the same rule;
- within one such event no receiver's outcome depends on another's: it
  depends only on the receiver's own dedup cache, replay window and
  keyring (the memo on a packet's box changes cost, never outcome),
  forwards are queued as new events, and a node goes down only in its
  own timer event. So every event takes one receive path, whether its
  bytes are honest, changed by a tap or made by one: down receivers are
  set aside, the bytes are parsed at most once (never when no tap changed
  them, as the event then carries the message they were serialised from),
  and in mesh mode every live receiver that is the packet's origin or
  already holds its (origin, seq) is counted as a duplicate in one step.
  The handler runs only for the receivers left, in order;
- a flood's ciphertext is verified once per key, through the memo on the
  AeadBox its copies share, and a star copy returns the frame it was
  sealed from (see codec.py). That state lives on the packets, so two
  runs share none of it;
- what a send reaches is the set of names of the links that cover it
  (see _covering), cached per (sender, destination) pair. That is exact:
  positions are static, range_m is not a mutable link field, and _down
  only grows, so a node going down is the one change, and it clears the
  cache. A unicast reaches its destination iff that is live and the
  chosen link is in the set;
- every iteration that feeds events or reports runs over sorted ids or
  insertion-ordered containers, never bare set order;
- reports and traces contain no wall-clock values; each trace line is
  exactly `json.dumps(entry, sort_keys=True)` of its time, its kind and
  the fields TRACE_KINDS declares for that kind, no more and no fewer. It
  is written from a `%`-style template compiled per kind at import, keys
  in sorted order and the kind inlined: a string value is escaped as json
  escapes it, a number goes in as metrics._number_text writes it (the
  report's scalar text too), and a list or dict is encoded by one
  JSONEncoder built at import. The time's text is encoded once per `now`
  object, so an int and a float time never share one.

Adversaries are taps on the air (see adversary.py); the simulation calls
their hooks and never names one. A receive handler raises the
SwarmLinkError that refuses a reception, and _deliver alone records it as a
security event. A reception ends as None, "delivered_new", "rejected_dedup"
or "rejected_<error>", which is how a tap learns the fate of its bytes.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from collections import deque
from dataclasses import dataclass, replace as dc_replace
from functools import partial
from itertools import count, takewhile
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from . import adversary, codec, crypto, handshake, links, mesh, rekey, wire
from .errors import (
    NoSession,
    NoViableLink,
    StaleEpoch,
    SwarmLinkError,
    UnknownEpoch,
    UnknownMessage,
    ValidationError,
)
# render_json stays importable as sim.render_json.
from .metrics import Counters, DeliveryAudit, _number_text, latency_summary, render_json  # noqa: F401
from .scenario import Scenario

TELEMETRY_MSG_ID = 0x01
_EPS = 1e-9
# (destination, packet) pairs to queue; destination None broadcasts.
_Sends = Sequence[Tuple[Optional[int], codec.WirePacket]]


@dataclass
class _TxItem:
    kind: str  # "offer" | "response" | "rekey" | "ack" | "data"
    data: bytes
    dest: Optional[int]  # None broadcasts to every in-range node
    # The message `data` was serialised from, handed as is to every
    # receiver when no tap changed the bytes, so none of them parses them.
    message: object = None


# A value's JSON text, exactly what `json.dumps(value, sort_keys=True)`
# writes, from an encoder built once instead of once per line. No circular
# check: a trace value is a fresh scalar, list or dict.
_encode_line = json.JSONEncoder(sort_keys=True, check_circular=False).encode


# Every trace event kind and the JSON type of each of its fields. Each line
# also carries "t", the simulated time rounded to 9 places, and "event",
# the kind.
TRACE_KINDS: Dict[str, Dict[str, type]] = {
    "security": {"node": int, "error": str, "detail": str},
    "node_down": {"node": int},
    "link_event": {"link": str, "set": dict},
    "handshake_offer": {"uav": int, "attempt": int},
    "unreachable": {"uav": int},
    "session_uav": {"node": int},
    "session_gcs": {"uav": int},
    "rotate": {"epoch": int, "not_after": float},
    "rekey_installed": {"node": int, "epoch": int},
    "link_switch": {"node": int, "link": str},
    "defer": {"node": int, "link": str, "until": float},
    "drop": {"node": int, "reason": str, "item": str},
    # Written by the taps in adversary.py.
    "key_leaked": {"epoch": int},
    "mitm_substitute": {"item": str, "nonce": str},
    "replay_inject": {"receivers": list},
}

# JSON type -> the function that gives a value's text; an int's text is
# its str(), which `%s` takes as is.
_ENCODERS = {
    str: encode_basestring_ascii,
    float: _number_text,
    list: _encode_line,
    dict: _encode_line,
}


def _compile_line(kind: str, fields: Dict[str, type]) -> Tuple[str, FrozenSet[str], Tuple]:
    """(template, field names, (name, encoder) per field that needs one)."""
    texts = {name: f"%({name})s" for name in (*fields, "t")}
    texts["event"] = encode_basestring_ascii(kind)
    template = "{" + ", ".join(f"{encode_basestring_ascii(key)}: {texts[key]}" for key in sorted(texts)) + "}"
    encoders = tuple((name, _ENCODERS[t]) for name, t in fields.items() if t is not int)
    return template, frozenset(fields), encoders


_TRACE_LINES = {kind: _compile_line(kind, fields) for kind, fields in TRACE_KINDS.items()}


class _Node:
    """Runtime state for one node: radios, queues, and protocol machines."""

    def __init__(self, spec, scenario: Scenario, sig_key: crypto.SignatureKeyPair):
        self.id = spec.id
        self.role = spec.role
        self.position = tuple(spec.position)
        self.sig_key = sig_key
        # The heap key (end time, sequence number) reserved for the tx_done
        # of the send on the air or deferred, None when idle; tx_done_queued
        # tells whether that event is on the heap (see Simulation._on_air).
        self.tx_end: Optional[Tuple[float, int]] = None
        self.tx_done_queued = False
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
        # GCS side only:
        self.table = handshake.SessionTable()
        self.source: Optional[rekey.BroadcastKeySource] = None
        # UAV id -> the rekey for the current epoch it has not acked yet.
        self.unacked: Dict[int, _TxItem] = {}
        self.hs_attempts: Dict[int, int] = {}
        self.unreachable: List[int] = []


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

        self.profiles: Dict[str, links.LinkProfile] = dict(sc.links)
        # mtu_bytes is not a mutable link field, so this holds for the whole run.
        self._min_mtu = min(p.mtu_bytes for p in sc.links.values())
        self.now = 0.0
        self._heap: List[Tuple[float, int, str, Callable[[], None]]] = []
        self._eseq = 0
        # The heap entry run() popped last; it starts before every key.
        self._event: tuple = (-math.inf, -1)

        self.counters = Counters()
        self.security_events = Counters()
        self.audit = DeliveryAudit()
        self.trace: List[str] = []
        # The `now` whose "t" text _trace encoded last, and that text.
        self._trace_now: Optional[float] = None
        self._trace_t = ""
        self.installed_keys: List[Tuple[int, bytes]] = []
        self.duty_log: List[Tuple[int, str, float, float]] = []
        # (node, link) -> [peak window utilisation, total airtime], per metered send.
        self.duty_use: Dict[Tuple[int, str], List[float]] = {}
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
            spec.id: _Node(spec, sc, sig_keys[spec.id]) for spec in specs
        }
        self.node_order: List[int] = [spec.id for spec in specs]
        # node id -> its dedup cache, for the duplicate filter in _deliver.
        self._dedup = {node_id: node.mesh.dedup for node_id, node in self.nodes.items()}
        self.gcs = self.nodes[sc.gcs().id]
        if sc.mode == "mesh" and sc.security.encryption:
            self.gcs.source = rekey.BroadcastKeySource(sc.protocol.key_lifetime_s)
        # (node, link) -> the peers in range, in node_order, down or not.
        # Exact for the whole run: positions are static and range_m is not
        # a mutable link field. Built on first use, so set-up time does not
        # grow with N^2.
        self._neighbour_index: Dict[Tuple[int, str], List[int]] = {}
        self._down: Set[int] = set()
        # (sender, destination or None for a broadcast) -> the names of the
        # links that cover a send. Exact until _down grows, which clears it.
        self._covering_cache: Dict[Tuple[int, Optional[int]], FrozenSet[str]] = {}
        # First wire byte -> (message class, handler). The parser is looked up
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
                self.gcs.hs_attempts[uav_id] = 1
                self._schedule(0.0, "timer", lambda u=uav_id: self._start_handshake(u))
        if sc.traffic.rate_hz > 0:
            period = 1.0 / sc.traffic.rate_hz
            stop = min(sc.duration_s, math.inf if sc.traffic.stop_s is None else sc.traffic.stop_s)
            for sender in sorted(sc.sender_ids()):
                start = sc.traffic.start_s + self.rng_traffic.uniform(0.0, period)
                # count() adds `period` to the float before, as `t += period` would.
                times = takewhile(lambda t: t < stop, count(start, period))
                self.chain(times, partial(self._traffic_event, sender))

    # ---- tracing / accounting --------------------------------------------

    def _trace(self, kind: str, **fields) -> None:
        """Append one line of a kind TRACE_KINDS declares, with exactly its fields."""
        line = _TRACE_LINES.get(kind)
        if line is None or fields.keys() != line[1]:
            raise TypeError(
                f"trace kind {kind!r} takes {sorted(TRACE_KINDS.get(kind, ()))}, got {sorted(fields)}"
            )
        for name, encode in line[2]:
            fields[name] = encode(fields[name])
        now = self.now
        if now is not self._trace_now:
            self._trace_now = now
            self._trace_t = _number_text(round(now, 9))
        fields["t"] = self._trace_t
        self.trace.append(line[0] % fields)

    def _security_event(self, node: _Node, exc: SwarmLinkError) -> str:
        """Count and trace a rejection; returns it as a receive outcome."""
        name = type(exc).__name__
        self.security_events.bump(name)
        self._trace("security", node=node.id, error=name, detail=str(exc))
        return f"rejected_{name}"

    # ---- node and link lifecycle ------------------------------------------

    def _node_down(self, node: _Node) -> None:
        self._down.add(node.id)
        self._covering_cache.clear()
        self._trace("node_down", node=node.id)

    def _apply_link_event(self, ev) -> None:
        self.profiles[ev.link] = dc_replace(self.profiles[ev.link], **ev.set)
        self._trace("link_event", link=ev.link, set=dict(sorted(ev.set.items())))

    def _neighbours(self, node_id: int, link: str) -> List[int]:
        key = (node_id, link)
        found = self._neighbour_index.get(key)
        if found is None:
            covers = self.profiles[link].covers
            here = self.nodes[node_id].position
            found = [
                other for other in self.node_order
                if other != node_id and covers(links.distance(here, self.nodes[other].position))
            ]
            self._neighbour_index[key] = found
        return found

    def _live_neighbours(self, node_id: int, link: str) -> List[int]:
        found = self._neighbours(node_id, link)
        down = self._down
        return [n for n in found if n not in down] if down else found

    def _covering(self, node_id: int, dest: Optional[int]) -> FrozenSet[str]:
        """The names of the links that cover a send from `node_id` to `dest`
        (None broadcasts): for a broadcast, unbounded links (whose neighbour
        lists are not built) and links with a live neighbour; for a unicast,
        the links whose range holds `dest`. With no live peer at all, or a
        down `dest`, every link covers, and the send reaches nobody."""
        key = (node_id, dest)
        found = self._covering_cache.get(key)
        if found is None:
            down = self._down
            if dest in down or len(down) + 1 == len(self.node_order):
                found = frozenset(self.profiles)
            elif dest is None:
                found = frozenset(
                    name for name, p in self.profiles.items()
                    if p.range_m is None or any(n not in down for n in self._neighbours(node_id, name))
                )
            else:
                dist = links.distance(self.nodes[node_id].position, self.nodes[dest].position)
                found = frozenset(name for name, p in self.profiles.items() if p.covers(dist))
            self._covering_cache[key] = found
        return found

    # ---- handshake orchestration -------------------------------------------

    def _start_handshake(self, uav_id: int) -> None:
        g = self.gcs
        if g.id in self._down or g.table.has_session(uav_id):
            return
        timeout = self.sc.protocol.handshake_timeout_s
        offer = handshake.gcs_start_handshake(
            self.roster, g.sig_key, g.table, uav_id, self.rng_keys, self.now, timeout
        )
        self.counters.bump("handshake_attempts")
        self._trace("handshake_offer", uav=uav_id, attempt=g.hs_attempts[uav_id])
        self._enqueue(g, _TxItem("offer", offer.to_bytes(), uav_id, offer))
        self._schedule(self.now + timeout + _EPS, "timer", partial(self._handshake_timeout, uav_id))

    def _handshake_timeout(self, uav_id: int) -> None:
        g = self.gcs
        if g.id in self._down or g.table.has_session(uav_id):
            return
        g.table.expire_pending(self.now)
        if g.hs_attempts[uav_id] <= self.sc.protocol.handshake_retries:
            g.hs_attempts[uav_id] += 1
            self.counters.bump("handshake_retries")
            self._start_handshake(uav_id)
        elif uav_id not in g.unreachable:
            g.unreachable.append(uav_id)
            self._trace("unreachable", uav=uav_id)

    def _rx_offer(self, node: _Node, offer: handshake.KeyOffer) -> None:
        if node.role != "uav":
            return
        response, session_key = handshake.uav_on_offer(
            self.roster, node.id, node.sig_key, offer, self.rng_keys,
            verify_signatures=self.sc.security.verify_signatures,
        )
        node.session_key = session_key
        self.installed_keys.append((node.id, session_key.bytes_))
        self._trace("session_uav", node=node.id)
        self._enqueue(node, _TxItem("response", response.to_bytes(), offer.sender_id, response))

    def _rx_response(self, node: _Node, response: handshake.KeyResponse) -> None:
        if node.role != "gcs":
            return
        session_key = handshake.gcs_on_response(
            self.roster, node.table, response, self.now,
            verify_signatures=self.sc.security.verify_signatures,
        )
        uav_id = response.sender_id
        self.installed_keys.append((node.id, session_key.bytes_))
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
        g.window._drop_past_epochs(g.keyring)
        for tap in self.taps:
            tap.on_epoch(bkey)
        self._trace("rotate", epoch=bkey.epoch, not_after=round(bkey.not_after, 9))
        self._schedule(bkey.not_after, "timer", self._rotation_due)

    def _rotation_due(self) -> None:
        # The one pending rotation, queued by the epoch it ends.
        g = self.gcs
        if g.id in self._down:
            return
        self._generate_epoch()
        g.unacked = {}
        for uav_id in g.table.sessioned_ids():
            self._send_rekey(uav_id)

    def _send_rekey(self, uav_id: int) -> None:
        g = self.gcs
        bkey = g.source.current
        message = rekey.wrap_for(g.table.key_for(uav_id), g.id, uav_id, bkey, self.rng_keys)
        g.unacked[uav_id] = _TxItem("rekey", message.to_bytes(), uav_id, message)
        self.counters.bump("rekeys_sent")
        self._enqueue(g, g.unacked[uav_id])
        self._ensure_resend_timer()

    def _ensure_resend_timer(self) -> None:
        interval = self.sc.protocol.rekey_resend_interval_s
        if interval is not None and not self._resend_active:
            self._resend_active = True
            self._schedule(self.now + interval, "timer", self._resend_due)

    def _resend_due(self) -> None:
        self._resend_active = False
        g = self.gcs
        if g.id in self._down or not g.unacked:
            return
        for uav_id in sorted(g.unacked):
            self.counters.bump("rekey_resends")
            self._enqueue(g, g.unacked[uav_id])
        self._ensure_resend_timer()

    def _rx_rekey(self, node: _Node, message: rekey.RekeyMessage) -> None:
        if node.role != "uav" or node.session_key is None:
            self.counters.bump("rekey_without_session")
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
            self.counters.bump("rekey_duplicates")
            bkey = current
        else:
            self.counters.bump("rekeys_installed")
            node.window._drop_past_epochs(node.keyring)
            self._trace("rekey_installed", node=node.id, epoch=bkey.epoch)
        ack = rekey.RekeyAck(uav_id=node.id, epoch=bkey.epoch)
        self._enqueue(node, _TxItem("ack", ack.to_bytes(), self.gcs.id, ack))

    def _rx_ack(self, node: _Node, ack: rekey.RekeyAck) -> None:
        if node.role != "gcs":
            return
        if ack.uav_id in node.unacked and ack.epoch == node.source.current.epoch:
            del node.unacked[ack.uav_id]
            self.counters.bump("acks_received")

    # ---- traffic -----------------------------------------------------------

    def _traffic_event(self, sender_id: int) -> None:
        if sender_id in self._down:
            return
        node = self.nodes[sender_id]
        sc = self.sc
        uid = len(self.audit.originated) + 1
        payload = uid.to_bytes(8, "big") + bytes(sc.traffic.payload_bytes - 8)
        message = codec.TelemetryMessage(TELEMETRY_MSG_ID, sender_id, payload)
        # The denominator of every delivery ratio: counted even when the
        # stack cannot ship it yet, so a dead relay shows up as loss.
        self.audit.record_send(uid, sender_id, self.now)
        if sc.mode == "mesh":
            if node.keyring.current is None:
                self.counters.bump("tx_skipped_no_key")
                return
        else:
            ready = node.session_key is not None if node.role == "uav" else node.table.sessioned_ids()
            if not ready:
                self.counters.bump("tx_skipped_no_session")
                return
        for frame in codec.compose_frames([message], self._min_mtu):
            sends = self._seal(node, frame)
            self.counters.bump("frames_sealed", len(sends))
            self._enqueue_data(node, sends, frame)

    def _seal(self, node: _Node, frame: codec.Frame) -> _Sends:
        """Seal one of the node's own frames for each of its destinations."""
        sc, state, counters = self.sc, node.mesh, node.counters
        if sc.mode == "star":
            if node.role == "uav":
                return ((self.gcs.id, mesh.star_uplink(state, node.session_key, counters, frame)),)
            return mesh.star_fanout(state, node.table, counters, frame)
        return ((None, mesh.originate(state, node.keyring, counters, frame, sc.protocol.hop_limit)),)

    def _enqueue_data(self, node: _Node, sends: _Sends, frame=None) -> None:
        """The one place data packets are queued. Packets just sealed from
        `frame` are shown to the taps; forwards come without."""
        for dest, packet in sends:
            if frame is not None:
                for tap in self.taps:
                    tap.on_seal(packet, frame)
            self._enqueue(node, _TxItem("data", packet.to_bytes(), dest, packet))

    # ---- transmission ------------------------------------------------------

    def _enqueue(self, node: _Node, item: _TxItem) -> None:
        if node.id in self._down:
            return
        self.counters.bump("tx_enqueued")
        node.txq.append(item)
        self._pump(node)

    def _pump(self, node: _Node) -> None:
        if node.id in self._down or not node.txq or self._on_air(node):
            return
        while node.txq:
            item = node.txq[0]
            covering = self._covering(node.id, item.dest)
            prev_active = node.selector.active
            try:
                profile = node.selector.select(self.profiles, covering, self.now)
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
            elif profile.name in covering and item.dest not in self._down:
                receivers = (item.dest,)
            else:
                receivers = ()
            meter = node.meters.get(profile.name)
            result = links.transmit(
                profile, len(item.data), self.now, receivers, self.rng_loss, meter
            )
            if isinstance(result, links.Deferred):
                if math.isinf(result.until):
                    self._drop(node, "duty_budget")
                    continue
                self.counters.bump("tx_deferrals")
                self._trace("defer", node=node.id, link=profile.name, until=round(result.until, 9))
                self._reserve_tx_done(node, result.until)
                return
            node.txq.popleft()
            self._complete_tx(node, item, profile, result)
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
            heapq.heappush(self._heap, (end[0], end[1], "tx_done", partial(self._tx_done, node)))
            node.tx_done_queued = True
        return True

    def _drop(self, node: _Node, reason: str) -> None:
        item = node.txq.popleft()
        self.counters.bump("tx_dropped")
        self._trace("drop", node=node.id, reason=reason, item=item.kind)

    def _complete_tx(
        self, node: _Node, item: _TxItem, profile: links.LinkProfile, result: links.TransmitResult
    ) -> None:
        counts = self.counters.values
        counts["tx_sent"] = counts.get("tx_sent", 0) + 1
        self.per_link_tx[profile.name] += 1
        if item.kind == "data":
            self.per_link_data_tx[profile.name] += 1
        self.wire_bytes["data" if item.kind == "data" else "control"] += len(item.data)
        meter = node.meters.get(profile.name)
        if meter is not None:
            use = self.duty_use.setdefault((node.id, profile.name), [0.0, 0.0])
            use[0] = max(use[0], meter.used_airtime(self.now) / meter.budget())
            use[1] += result.airtime_s
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
            counts["rx_events"] = counts.get("rx_events", 0) + len(delivered)
            message = item.message if data is item.data else None
            deliver = partial(self._deliver, "rx_processed", delivered, data, message)
            self._schedule(result.arrival, "rx", deliver)
        if result.lost:
            counts["rx_lost"] = counts.get("rx_lost", 0) + len(result.lost)
        self._reserve_tx_done(node, self.now + result.airtime_s)

    def _reserve_tx_done(self, node: _Node, end: float) -> None:
        """Reserve the heap key of the tx_done at `end`, as _schedule would
        number it, and queue the event only if a send waits behind it: the
        end of a send, or the time a deferred send may go."""
        node.tx_end = (end, self._eseq)
        self._eseq += 1
        node.tx_done_queued = False
        if node.txq:
            self._on_air(node)  # the running event comes first, so this queues it

    def _tx_done(self, node: _Node) -> None:
        node.tx_end = None
        self._pump(node)

    # ---- receive dispatch ----------------------------------------------------

    def _deliver(
        self, counter: str, receivers: Sequence[int], data: bytes,
        message, outcomes: Optional[Counters] = None,
    ) -> None:
        """The one receive path: hand one event's bytes to its receiver ids.
        Down receivers are set aside, bytes that come without their message
        are parsed once (the first byte picks the message class and its
        handler), in mesh mode duplicate receivers are dropped in one step,
        and the handler runs for each receiver left, in order; a
        SwarmLinkError it raises is recorded as a security event here and
        nowhere else. Tallies each outcome in `outcomes` if given."""
        self.counters.bump(counter, len(receivers))
        if self._down:
            live = [rid for rid in receivers if rid not in self._down]
            if len(live) < len(receivers):
                self.counters.bump("rx_ignored_down", len(receivers) - len(live))
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
            self.counters.bump("rx_unparseable", len(receivers))
            return
        if self.sc.mode == "mesh" and isinstance(message, codec.WirePacket):
            fresh = mesh._fresh_receivers(receivers, self._dedup, message)
            duplicates = len(receivers) - len(fresh)
            if duplicates:
                self.counters.bump("rx_duplicates", duplicates)
                if outcomes is not None:
                    outcomes.bump("rejected_dedup", duplicates)
            receivers = fresh
        handler = entry[1]
        for receiver_id in receivers:
            node = self.nodes[receiver_id]
            try:
                outcome = handler(node, message)
            except SwarmLinkError as exc:
                outcome = self._security_event(node, exc)
            if outcomes is not None and outcome is not None:
                outcomes.bump(outcome)

    def inject(self, receiver_ids: Sequence[int], data: bytes, outcomes: Counters) -> None:
        """Hand a tap's bytes to its receivers now, in one event, tallying each outcome."""
        self.counters.bump("adv_rx_events", len(receiver_ids))
        deliver = partial(self._deliver, "adv_rx_processed", receiver_ids, data, None, outcomes)
        self._schedule(self.now, "advrx", deliver)

    def _rx_data_mesh(self, node: _Node, packet: codec.WirePacket) -> str:
        result = mesh.handle_rx(node.mesh, node.keyring, node.window, packet, self.now)
        self._deliver_frame(node, result.deliver)
        if result.forward is not None:
            jitter_max = self.sc.protocol.forward_jitter_max_s
            delay = self.rng_jitter.uniform(0.0, jitter_max) if jitter_max > 0 else 0.0
            forward = ((None, result.forward),)
            self._schedule(self.now + delay, "timer", partial(self._enqueue_data, node, forward))
        return "delivered_new"

    def _rx_data_star(self, node: _Node, packet: codec.WirePacket) -> str:
        if packet.epoch != 0:
            raise UnknownEpoch(f"epoch {packet.epoch} in star mode")
        key = node.table.key_for(packet.origin) if node.role == "gcs" else node.session_key
        if key is None:
            raise NoSession(f"node {node.id} has no session")
        frame = codec.open_with_key(key, node.window, packet)
        self._deliver_frame(node, frame)
        if node.role == "gcs":
            fanout = mesh.star_fanout(
                node.mesh, node.table, node.counters, frame, exclude_id=packet.origin
            )
            self._enqueue_data(node, fanout, frame)
        return "delivered_new"

    def _deliver_frame(self, node: _Node, frame: codec.Frame) -> None:
        for message in frame.messages:
            try:
                if len(message.payload) < 8:
                    raise UnknownMessage("payload too short to carry a message uid")
                uid = int.from_bytes(message.payload[:8], "big")
                self.audit.record_delivery(uid, node.id, self.now)
            except UnknownMessage as exc:
                self._security_event(node, exc)

    # ---- run and report -------------------------------------------------------

    def run(self) -> dict:
        heap, duration = self._heap, self.sc.duration_s
        while heap and heap[0][0] <= duration + _EPS:
            self._event = event = heapq.heappop(heap)
            self.now = max(self.now, event[0])
            event[3]()
        self.now = duration
        # rx and advrx events are partials of _deliver over all their receivers.
        rx_in_flight = sum(len(e[3].args[1]) for e in self._heap if e[2] == "rx")
        adv_in_flight = sum(len(e[3].args[1]) for e in self._heap if e[2] == "advrx")
        return self._build_report(rx_in_flight, adv_in_flight)

    def _build_report(self, rx_in_flight: int, adv_in_flight: int) -> dict:
        sc = self.sc
        c = self.counters
        node_ids = tuple(self.node_order)
        uav_ids = tuple(n.id for n in sc.uavs())
        pairs = self.audit.pair_stats(node_ids)
        sent_total = sum(p["sent"] for p in pairs.values())
        got_total = sum(p["delivered"] for p in pairs.values())
        # The UAV-to-UAV subset of `pairs`: every UAV's sends count once per other UAV.
        sent_by = self.audit.sent_by
        uav_sent = sum(sent_by.get(u, 0) for u in uav_ids) * (len(uav_ids) - 1)
        uav_got = sum(
            pairs[f"{src}->{dst}"]["delivered"]
            for src in uav_ids if src in sent_by
            for dst in uav_ids if dst != src
        )
        queued = sum(len(n.txq) for n in self.nodes.values())
        dropped = c.get("tx_dropped")
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
        duty = {
            f"{node_id}:{link_name}": {
                "max_window_utilization": round(peak, 9),
                "budget_s": self.nodes[node_id].meters[link_name].budget(),
                "total_airtime_s": round(airtime, 9),
            }
            for (node_id, link_name), (peak, airtime) in sorted(self.duty_use.items())
        }
        # One sorted latency list at a time: each is summarised, then dropped.
        uav_latency = latency_summary(self.audit.latencies_between(uav_ids, uav_ids))
        latency = latency_summary(self.audit.latencies())
        session_times = sorted(t for _key, t in self.gcs.table.established.values())
        source = self.gcs.source
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
                "epochs_reached": source.current.epoch if source and source.current else 0,
                "rekeys_sent": c.get("rekeys_sent"),
                "rekeys_installed": c.get("rekeys_installed"),
                "rekey_resends": c.get("rekey_resends"),
                "rekey_duplicates": c.get("rekey_duplicates"),
                "acks_received": c.get("acks_received"),
            },
            "traffic": {
                "messages_originated": len(self.audit.originated),
                "frames_sealed": c.get("frames_sealed"),
                "messages_delivered": latency["count"] + self.audit.duplicate_deliveries,
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
            "latency": latency,
            "latency_uav_to_uav": uav_latency,
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
