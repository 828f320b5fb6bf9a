"""What a finished run recorded: its report dict (`build`) and trace lines (`Trace`).

Reports and traces contain no wall-clock values; each trace line is exactly
`json.dumps(entry, sort_keys=True)` of its time, its kind and the fields
TRACE_KINDS declares for that kind, no more and no fewer. It is written from a
`%`-style template compiled per kind at import, keys in sorted order and the
kind inlined: a string value is escaped as json escapes it, a number goes in
as metrics._number_text writes it (the report's scalar text too), and a list
or dict is encoded by one JSONEncoder built at import, save a list of exact
ints (no bool), joined from their str() as json writes them. The time's text
is encoded once per `now` object, so an int and a float time never share one.
A refusal's security line (`Trace.add_refusal`) goes through `add` once per
`now` object, error and detail; a repeat, as the receivers one event refuses
alike give, is the text kept before and after the node id around its own id.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Dict, FrozenSet, Optional, Tuple

from .metrics import _number_text, latency_summary

# A value's JSON text, exactly what `json.dumps(value, sort_keys=True)`
# writes, from an encoder built once instead of once per line. No circular
# check: a trace value is a fresh scalar, list or dict.
_encode_line = json.JSONEncoder(sort_keys=True, check_circular=False).encode


# Every trace event kind and the JSON type of each of its fields. Each line
# also carries "t", the simulated time rounded to 9 places, and "event".
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


def _list_text(value: list) -> str:
    """A list's JSON text: an int's is its str(), so a list of exact ints
    (a bool is not one) is joined directly; any other goes to the encoder."""
    for item in value:
        if type(item) is not int:
            return _encode_line(value)
    return "[" + ", ".join(map(str, value)) + "]"


# JSON type -> the function that gives a value's text; an int's text is
# its str(), which `%s` takes as is.
_ENCODERS = {
    str: encode_basestring_ascii,
    float: _number_text,
    list: _list_text,
    dict: _encode_line,
}

# What precedes the node id in a security line. In an escaped string every
# quote follows a backslash, so `node"` is never in one: this is the key.
_NODE_KEY = '"node": '


def _compile_line(kind: str, fields: Dict[str, type]) -> Tuple[str, FrozenSet[str], Tuple]:
    """(template, field names, (name, encoder) per field that needs one)."""
    texts = {name: f"%({name})s" for name in (*fields, "t")}
    texts["event"] = encode_basestring_ascii(kind)
    template = "{" + ", ".join(f"{encode_basestring_ascii(key)}: {texts[key]}" for key in sorted(texts)) + "}"
    encoders = tuple((name, _ENCODERS[t]) for name, t in fields.items() if t is not int)
    return template, frozenset(fields), encoders


_TRACE_LINES = {kind: _compile_line(kind, fields) for kind, fields in TRACE_KINDS.items()}


class Trace(list):
    """A run's trace lines, in the order they were written."""

    __slots__ = (
        "_now", "_t",  # the `now` whose "t" text add() encoded last, and that text
        "_stamp_now", "_stamps",  # the `now` of add_refusal()'s stamps, and (error, detail) -> (head, tail)
    )

    def __init__(self) -> None:
        super().__init__()
        self._now: Optional[float] = None
        self._t = ""
        self._stamp_now: Optional[float] = None
        self._stamps: Dict[Tuple[str, str], Tuple[str, str]] = {}

    def add(self, now: float, kind: str, **fields) -> None:
        """Append one line of a kind TRACE_KINDS declares, with exactly its fields."""
        line = _TRACE_LINES.get(kind)
        if line is None or fields.keys() != line[1]:
            wanted = sorted(TRACE_KINDS.get(kind, ()))
            raise TypeError(f"trace kind {kind!r} takes {wanted}, got {sorted(fields)}")
        for name, encode in line[2]:
            fields[name] = encode(fields[name])
        if now is not self._now:
            self._now = now
            self._t = _number_text(round(now, 9))
        fields["t"] = self._t
        self.append(line[0] % fields)

    def add_refusal(self, now: float, node: int, error: str, detail: str) -> None:
        """`add(now, "security", node=node, error=error, detail=detail)`,
        rendered through add() once per `now` object, error and detail: a
        repeat writes the kept text before and after the node id around
        its own id."""
        if now is not self._stamp_now:
            self._stamp_now = now
            self._stamps.clear()
        stamp = self._stamps.get((error, detail))
        if stamp is not None:
            self.append(stamp[0] + str(node) + stamp[1])
            return
        self.add(now, "security", node=node, error=error, detail=detail)
        line = self[-1]
        cut = line.index(_NODE_KEY) + len(_NODE_KEY)
        self._stamps[error, detail] = (line[:cut], line[cut + len(str(node)):])


# Every count a run keeps (Simulation.counts), by the report block and key
# that show it; one count may show in more than one block.
SHOWN_COUNTS: Dict[str, Dict[str, str]] = {
    "handshakes": {"attempts": "handshake_attempts", "retries": "handshake_retries",
                   "established": "sessions_established"},
    "broadcast": {key: key for key in (
        "rekeys_sent", "rekeys_installed", "rekey_resends", "rekey_duplicates", "acks_received")},
    "traffic": {"frames_sealed": "frames_sealed", "skipped_no_key": "tx_skipped_no_key",
                "skipped_no_session": "tx_skipped_no_session"},
    "links": {"deferrals": "tx_deferrals"},
    "conservation": {key: key for key in (
        "tx_enqueued", "tx_dropped", "tx_deferrals", "rx_events", "rx_processed", "rx_lost",
        "adv_rx_events", "adv_rx_processed")},
}
# The counts a run keeps that no report shows yet.
UNREPORTED_COUNTS = ("rx_unparseable", "rx_ignored_down", "rx_duplicates", "rekey_without_session")
COUNT_NAMES = tuple(dict.fromkeys(
    [*(name for keys in SHOWN_COUNTS.values() for name in keys.values()), *UNREPORTED_COUNTS]
))


def build(sim, rx_in_flight: int, adv_in_flight: int) -> dict:
    """The report of a finished run, with the receptions still in flight.
    It is read-only: pairs with equal delivery counts share one entry dict."""
    sc = sim.sc
    counts = sim.counts
    shown = {block: {key: counts[name] for key, name in keys.items()} for block, keys in SHOWN_COUNTS.items()}
    audit = sim.audit
    node_ids = tuple(sim.node_order)
    uav_ids = tuple(n.id for n in sc.uavs())
    # One sorted latency list at a time: each is summarised, then dropped.
    uav_latency = latency_summary(audit.latencies_between(uav_ids, uav_ids))
    latency = latency_summary(audit.latencies())
    # Each message goes to every node but its source, and none delivers its
    # own: sent is messages x (N - 1), delivered one per latency; UAVs alike.
    originated = sum(map(len, audit.sent.values()))
    sent_total = originated * (len(node_ids) - 1)
    got_total = latency["count"]
    uav_sent = sum(len(audit.sent.get(u, ())) for u in uav_ids) * (len(uav_ids) - 1)
    uav_got = uav_latency["count"]
    queued = sum(len(n.txq) for n in sim.nodes.values())
    tx_sent = sum(sim.per_link_tx.values())
    conservation = {
        **shown["conservation"],
        "tx_sent": tx_sent,
        "queued_at_end": queued,
        "rx_in_flight_at_end": rx_in_flight,
        "adv_rx_in_flight_at_end": adv_in_flight,
        "balanced": (
            counts["tx_enqueued"] == tx_sent + counts["tx_dropped"] + queued
            and counts["rx_events"] == counts["rx_processed"] + rx_in_flight
            and counts["adv_rx_events"] == counts["adv_rx_processed"] + adv_in_flight
        ),
    }
    duty = {
        f"{node_id}:{link_name}": {
            "max_window_utilization": round(meter.peak_use, 9),
            "budget_s": meter.budget(),
            "total_airtime_s": round(meter.total_airtime_s, 9),
        }
        for node_id, node in sorted(sim.nodes.items())
        for link_name, meter in sorted(node.meters.items())
        if meter.sends
    }
    session_times = sorted(t for _key, t in sim.sessions.established.values())
    source = sim.key_source
    return {
        "scenario": sc.name,
        "seed": sc.seed,
        "mode": sc.mode,
        "duration_s": sc.duration_s,
        "nodes": len(node_ids),
        "handshakes": {
            **shown["handshakes"],
            "unreachable": sorted(sim.unreachable),
            "last_established_s": session_times[-1] if session_times else None,
            "all_established": len(session_times) == len(uav_ids),
        },
        "broadcast": {
            **shown["broadcast"],
            "epochs_reached": source.current.epoch if source and source.current else 0,
        },
        "traffic": {
            **shown["traffic"],
            "messages_originated": originated,
            "messages_delivered": got_total + audit.duplicate_deliveries,
        },
        "delivery": {
            "pairs": audit.pair_stats(node_ids),
            "sent": sent_total,
            "delivered": got_total,
            "overall_ratio": (got_total / sent_total) if sent_total else 0.0,
            "uav_to_uav": {
                "sent": uav_sent,
                "delivered": uav_got,
                "ratio": (uav_got / uav_sent) if uav_sent else 0.0,
            },
            "duplicate_deliveries": audit.duplicate_deliveries,
        },
        "latency": latency,
        "latency_uav_to_uav": uav_latency,
        "security_events": dict(sorted(sim.security_events.items())),
        "links": {
            **shown["links"],
            "per_link_tx": dict(sorted(sim.per_link_tx.items())),
            "per_link_data_tx": dict(sorted(sim.per_link_data_tx.items())),
            "switches": sum(n.selector.switches for n in sim.nodes.values()),
            "wire_bytes": dict(sorted(sim.wire_bytes.items())),
        },
        "duty_cycle": duty,
        "adversary": {tap.name: tap.report() for tap in sim.taps},
        "conservation": conservation,
    }
