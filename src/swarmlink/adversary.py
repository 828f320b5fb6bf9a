"""Adversaries as taps on the simulated air.

Adversaries act on wire bytes only. Their outcomes (keys compromised,
plaintexts recovered, replays delivered) are computed from what they
captured plus ground truth, never asserted.

A tap is active from its spec's start_s until its end_s (the end of the
run when unset) and sees the run through three hooks:

- on_epoch(bkey): the ground station minted a broadcast epoch;
- on_air(item, result, data) -> bytes: a transmission is on the air while
  the tap is active; returns the bytes its receivers get, `data` unless
  the tap rewrites them. `item.message` is the message the honest bytes
  `item.data` were serialised from, so a tap never parses them;
- report(): what the tap obtained, under `name` in the run report.

A tap sends bytes of its own with `sim.inject(receiver_ids, data, tally)`
down the honest receive path, where `tally(outcome, n=1)` hears their
fate; `sim.chain(times, step)` runs its timed steps.

The simulation builds its taps in scenario order, so their draws from the
adversary RNG follow that order.

What a tap keeps is values, each held once: the replay injector's log
shares one object among equal payloads and one among equal receiver
tuples. The eavesdropper keeps nothing per packet: its ground truth is the
simulation's delivery ledger.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from . import codec, crypto, handshake, metrics
from .errors import SwarmLinkError


class Tap:
    """An adversary's active window and no-op hooks."""

    name = ""

    def __init__(self, spec, sim) -> None:
        self.sim = sim
        self.start = spec.start_s
        self.end = spec.end_s if spec.end_s is not None else sim.sc.duration_s

    def active(self, now: float) -> bool:
        return self.start <= now < self.end

    def on_epoch(self, bkey) -> None:
        pass

    def on_air(self, item, result, data: bytes) -> bytes:
        return data


class Eavesdrop(Tap):
    """Counts the data packets on the air and opens those it holds a key
    for as they pass: epoch 0 of a plaintext run under crypto.NULL_KEY,
    and each leaked epoch under the key built from its leaked bytes.

    A packet is recovered when it opens and every message of its frame
    carries a tag that names a message its source sent: the rule the
    delivery ledger applies to a delivery (`DeliveryAudit._number`). So a
    forged packet that opens, or a forward of one, is observed but not
    recovered, and the tap keeps nothing per packet. An honest copy was
    sealed under the leaked or null key's bytes, so it opens to its seal's
    frame (see codec.py) and the tap decrypts none.
    """

    name = "eavesdrop"

    def __init__(self, spec, sim) -> None:
        super().__init__(spec, sim)
        # epoch -> the key the tap reads it under: one built once from each
        # leaked epoch's bytes, or the null key of a plaintext run's epoch 0
        # (Scenario.validate keeps leaks out of a plaintext run, and leaked
        # epochs start at 1).
        self.keys = {} if sim.sc.security.encryption else {0: crypto.NULL_KEY}
        self.observed: Dict[str, int] = {}
        self.recovered: Dict[str, int] = {}

    def on_epoch(self, bkey) -> None:
        if bkey.epoch in self.sim.sc.security.leak_epochs:
            self.keys[bkey.epoch] = crypto.SymmetricKey(bkey.key.bytes_, crypto.KeyPurpose.BROADCAST)
            self.sim.trace.add(self.sim.now, "key_leaked", epoch=bkey.epoch)

    def on_air(self, item, result, data: bytes) -> bytes:
        if item.kind != "data":
            return data
        packet = item.message  # the bytes on the air, already parsed
        ekey = str(packet.epoch)
        self.observed[ekey] = self.observed.get(ekey, 0) + 1
        key = self.keys.get(packet.epoch)
        if key is None:
            return data
        try:
            for message in codec._open_frame(key, packet).messages:
                self.sim.audit._number(message.source_node, message.payload)
        except SwarmLinkError:
            return data
        self.recovered[ekey] = self.recovered.get(ekey, 0) + 1
        return data

    def report(self) -> Dict[str, object]:
        return {
            "observed_packets": sum(self.observed.values()),
            "observed_by_epoch": self.observed,
            "recovered_packets": sum(self.recovered.values()),
            "recovered_by_epoch": self.recovered,
            "leaked_epochs": sorted(e for e in self.keys if e),
        }


class KeySubstitution(Tap):
    """Swaps the ephemeral key in every handshake offer and response for its own."""

    name = "mitm"

    def __init__(self, spec, sim) -> None:
        super().__init__(spec, sim)
        self.keypair = crypto.keypair_from_seed(sim.rng_adv.randbytes(crypto.SEED_LEN), "agreement")
        self.substituted_offers = 0
        self.substituted_responses = 0
        # nonce -> {gcs, uav, gcs_eph, uav_eph}
        self.handshakes: Dict[bytes, Dict[str, object]] = {}

    def on_air(self, item, result, data: bytes) -> bytes:
        if item.kind not in ("offer", "response"):
            return data
        msg = item.message  # the honest offer or response, as sent
        record = self.handshakes.setdefault(msg.nonce, {})
        if item.kind == "offer":
            self.substituted_offers += 1
            record["gcs"] = msg.sender_id
            record["uav"] = msg.recipient_id
            record["gcs_eph"] = msg.ephemeral_pub
        else:
            self.substituted_responses += 1
            record.setdefault("gcs", msg.recipient_id)
            record.setdefault("uav", msg.sender_id)
            record["uav_eph"] = msg.ephemeral_pub
        forged = type(msg)(
            sender_id=msg.sender_id,
            recipient_id=msg.recipient_id,
            ephemeral_pub=self.keypair.public_point,
            nonce=msg.nonce,
            signature=msg.signature,  # stale: signs the honest key, not ours
        )
        self.sim.trace.add(self.sim.now, "mitm_substitute", item=item.kind, nonce=msg.nonce.hex())
        return forged.to_bytes()

    def report(self) -> Dict[str, object]:
        candidates = set()
        for nonce, record in self.handshakes.items():
            # Both hooks set the ids, so every record has them.
            context = handshake._session_context(record["gcs"], record["uav"], nonce)
            for eph_field in ("gcs_eph", "uav_eph"):
                eph = record.get(eph_field)
                if eph is None:
                    continue
                try:
                    shared = crypto.ecdh_shared_secret(self.keypair, eph)
                except SwarmLinkError:
                    continue
                candidates.add(crypto.derive_key(shared, context).bytes_)
        installed = self.sim.installed_keys
        return {
            "substituted_offers": self.substituted_offers,
            "substituted_responses": self.substituted_responses,
            "handshakes_touched": len(self.handshakes),
            "installed_keys_checked": len(installed),
            "compromised_keys": sum(1 for _node, key in installed if key in candidates),
        }


class ReplayInjector(Tap):
    """Records delivered data packets and re-sends one at random times.

    The injection times are drawn when the tap is built and run as a chain.

    A record is a transmission's bytes and its receivers. Every record
    stays for the whole run: each injection draws one uniformly over all
    of them, and that draw fixes the adversary RNG sequence. Equal records
    are many (a flood forwards the same bytes to the same neighbours over
    and over), so each payload and each receiver tuple goes through a
    canonicalising dict of its kind and equal ones share one object.
    """

    name = "replay"

    def __init__(self, spec, sim) -> None:
        super().__init__(spec, sim)
        # Each recorded transmission's bytes and its receivers, as two
        # parallel lists.
        self.recorded: List[bytes] = []
        self.recorded_rx: List[Tuple[int, ...]] = []
        # Each distinct value -> its first recorded copy, which every later
        # equal record shares.
        self.payloads: Dict[bytes, bytes] = {}
        self.receiver_tuples: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        self.injections = 0
        self.noops = 0
        self.outcomes = metrics.Counters()
        window = max(self.end - self.start, 0.0)
        times = sorted(self.start + sim.rng_adv.random() * window for _ in range(spec.injections))
        sim.chain(iter(times), self.inject)

    def on_air(self, item, result, data: bytes) -> bytes:
        delivered = result.delivered
        if item.kind == "data" and delivered:
            payload = item.data
            self.recorded.append(self.payloads.setdefault(payload, payload))
            self.recorded_rx.append(self.receiver_tuples.setdefault(delivered, delivered))
        return data

    def inject(self) -> None:
        sim = self.sim
        if not self.recorded:
            self.noops += 1
            return
        pick = sim.rng_adv.randrange(len(self.recorded))
        rx_ids = self.recorded_rx[pick]
        self.injections += 1
        sim.trace.add(sim.now, "replay_inject", receivers=list(rx_ids))
        sim.inject(rx_ids, self.recorded[pick], self.outcomes.bump)

    def report(self) -> Dict[str, object]:
        outcomes = self.outcomes.values
        return {
            "injections": self.injections,
            "noops": self.noops,
            "rejected": {
                k[len("rejected_"):]: v
                for k, v in sorted(outcomes.items())
                if k.startswith("rejected_")
            },
            "delivered_new": outcomes.get("delivered_new", 0),
            "duplicate_deliveries": self.sim.audit.duplicate_deliveries,
        }


TAPS = {
    "eavesdrop": Eavesdrop,
    "mitm_key_substitution": KeySubstitution,
    "replay_injector": ReplayInjector,
}
