"""Run metrics: collection during simulation and deterministic reporting.

Reports are plain dicts rendered with sorted keys, so two runs of the same
scenario and seed produce byte-identical JSON. Latency percentiles use the
nearest-rank method on the sorted sample; no field ever depends on wall
clock or iteration order of unordered containers.

`render_json` writes exactly the bytes of `json.dumps(report,
sort_keys=True, indent=2)`, but not through it: `indent` makes Python
3.11's json leave its C encoder for the pure-Python one, which first
lists every token of the document as its own str. The per-pair block
grows as N^2, so that list would be the memory peak of a 49-node run,
and at 400 nodes it takes 122 MB to write a 14 MB report. Here a dict
whose values are all scalars (every per-pair entry) is filled into one
`%`-template per shape, its sorted keys and depth, compiled once; every
other dict or list is joined one level at a time, each distinct value
object of a level rendered once and its text reused for every key that
holds it (equal per-pair entries are one dict). Scalars get json's own
text: `encode_basestring_ascii`, a finite number's repr, else NaN or
Infinity (`_number_text`, which the trace lines in report.py use too). It
takes only what reports hold: dicts with str keys (a str subclass too,
as json takes it), lists, and values of exactly str, int, float, bool or
None. Any other key or value, a tuple or a subclass among them, raises
TypeError. A report is read-only: equal entries share one object, so a
change to one would show under every key that holds it. A container that
holds itself ends in RecursionError, where json raises ValueError.

The delivery ledger owns message identity: a message is its source and its
number in that source's sequence, from 1, whose 8-byte big-endian tag opens
its payload. Per source it keeps each message's send time (`array('d')`)
and a bitmask of the nodes it reached, and, in delivery order, the latency
(`array('d')`) and node (`array('H')`, ids are u16) of each first delivery.
No object exists per message or node pair: `pair_stats` counts a source's
destinations when asked, and pairs with equal (sent, delivered) counts
share one entry dict, so the report holds one dict per distinct entry,
not per pair. Report cost grows with pairs plus deliveries, never
messages x nodes; the report holds one sorted latency list at a time.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional, Tuple

from .errors import UnknownMessage

_TAG_BYTES = 8  # a message's number in its source's sequence, big-endian, opens its payload


def percentile(sorted_values: List[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile of an already sorted sample."""
    if not sorted_values:
        return None
    rank = max(1, math.ceil(len(sorted_values) * fraction))
    return sorted_values[rank - 1]


@dataclass
class DeliveryAudit:
    """Ground truth of which message reached which node: the delivery ledger."""

    # source -> send time of each message it originated; message n is slot n - 1.
    sent: Dict[int, array] = field(default_factory=dict)
    # node -> its bit in `reach`, by first delivery: ids up to 65535 are too sparse for bits.
    node_bits: Dict[int, int] = field(default_factory=dict)
    reach: Dict[int, List[int]] = field(default_factory=dict)  # source -> bits of nodes each message reached
    # source -> (latency, destination) of each first delivery of its messages, in delivery order.
    rows: Dict[int, Tuple[array, array]] = field(default_factory=dict)
    duplicate_deliveries: int = 0

    def record_send(self, source: int, t: float) -> bytes:
        """Note that `source` sent a message at `t`; returns the tag its payload opens with."""
        times = self.sent.get(source)
        if times is None:
            times = self.sent[source] = array("d")
            self.reach[source] = []
            self.rows[source] = (array("d"), array("H"))
        times.append(t)
        self.reach[source].append(0)
        return len(times).to_bytes(_TAG_BYTES, "big")

    def record_delivery(self, source: int, payload: bytes, node: int, t: float) -> None:
        """Record `node` receiving the message of `source` that `payload`'s tag
        names, or a repeat; raises UnknownMessage if `source` sent no such message."""
        if len(payload) < _TAG_BYTES:
            raise UnknownMessage("payload too short to carry a message tag")
        times = self.sent.get(source, ())
        number = int.from_bytes(payload[:_TAG_BYTES], "big")
        if not 0 < number <= len(times):
            raise UnknownMessage(f"node {source} never sent message {number}")
        bit = self.node_bits.setdefault(node, 1 << len(self.node_bits))
        reach = self.reach[source]
        if reach[number - 1] & bit:
            self.duplicate_deliveries += 1
            return
        reach[number - 1] |= bit
        latencies, dests = self.rows[source]
        latencies.append(t - times[number - 1])
        dests.append(node)

    def pair_stats(self, node_ids: Tuple[int, ...]) -> Dict[str, Dict[str, float]]:
        """Sent/delivered counts and ratio from each sender in `node_ids` to
        each other one. Pairs with equal counts share one entry dict."""
        out: Dict[str, Dict[str, float]] = {}
        entries: Dict[Tuple[int, int], Dict[str, float]] = {}  # (sent, delivered) -> its one entry
        dests = sorted(node_ids)
        for src in sorted(set(node_ids) & self.sent.keys()):
            n_sent = len(self.sent[src])
            got = Counter(self.rows[src][1])
            for dst in dests:
                if dst != src:
                    n_got = got.get(dst, 0)
                    entry = entries.get((n_sent, n_got))
                    if entry is None:
                        ratio = n_got / n_sent
                        entry = entries[n_sent, n_got] = {"sent": n_sent, "delivered": n_got, "ratio": ratio}
                    out[f"{src}->{dst}"] = entry
        return out

    def latencies(self) -> List[float]:
        return sorted(chain.from_iterable(latencies for latencies, _dests in self.rows.values()))

    def latencies_between(self, sources: Tuple[int, ...], dests: Tuple[int, ...]) -> List[float]:
        dst_set = set(dests)
        out: List[float] = []
        for src in set(sources) & self.rows.keys():
            latencies, row_dests = self.rows[src]
            out.extend(compress(latencies, map(dst_set.__contains__, row_dests)))
        out.sort()
        return out


@dataclass
class Counters:
    """Flat event tallies; every increment happens exactly once per event."""

    values: Dict[str, int] = field(default_factory=dict)

    def bump(self, key: str, by: int = 1) -> None:
        self.values[key] = self.values.get(key, 0) + by

    def get(self, key: str) -> int:
        return self.values.get(key, 0)


def latency_summary(sorted_latencies: List[float]) -> Dict[str, object]:
    n = len(sorted_latencies)
    # The mean folds left to right, the sum `sum()` gives on Python 3.11,
    # on every Python (3.12 compensates `sum()` over floats).
    total = 0
    for latency in sorted_latencies:
        total += latency
    return {
        "count": n,
        "mean_s": (total / n) if n else None,
        "p50_s": percentile(sorted_latencies, 0.50),
        "p95_s": percentile(sorted_latencies, 0.95),
        "max_s": sorted_latencies[-1] if n else None,
    }


def render_json(report: dict) -> str:
    """Canonical JSON: `json.dumps(report, sort_keys=True, indent=2)` plus a newline."""
    return _text(report, 0) + "\n"


def _number_text(x: float) -> str:
    """An int's or float's JSON text, as json.dumps writes it: its repr
    when finite, else NaN, Infinity or -Infinity."""
    if x - x == 0:
        return repr(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


_INDENT = "  "
# Exact type -> its JSON text.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _number_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
# (sorted str keys, depth) -> the %-template of a dict of scalars. Reports
# have a handful of shapes; past the cap a new shape is built every time.
_TEMPLATES: Dict[Tuple[Tuple[str, ...], int], str] = {}
_MAX_TEMPLATES = 256


def _text(value, depth: int) -> str:
    """`value`'s JSON text at nesting `depth`, as json.dumps(sort_keys=True, indent=2) writes it."""
    kind = type(value)
    scalar = _SCALAR_TEXT.get(kind)
    if scalar is not None:
        return scalar(value)
    if kind is dict:
        return _dict_text(value, depth)
    if kind is list:
        if not value:
            return "[]"
        return _joined("[", [_text(item, depth + 1) for item in value], "]", depth)
    raise TypeError(f"a report holds no {kind.__name__}")


def _dict_text(d: dict, depth: int) -> str:
    if not d:
        return "{}"
    keys = sorted(d)
    values = [d[key] for key in keys]
    try:
        texts = tuple([_SCALAR_TEXT[type(value)](value) for value in values])
    except KeyError:  # a container among the values: join this level
        # Each value object is rendered once at depth + 1; every key that
        # holds it reuses the text. The memo lives for this level only, so
        # its depth is fixed and `values` keeps every id it holds alive.
        seen: Dict[int, str] = {}
        texts = []
        for key, value in zip(keys, values):
            text = seen.get(id(value))
            if text is None:
                text = seen[id(value)] = _text(value, depth + 1)
            texts.append(f"{_key_text(key)}: {text}")
        return _joined("{", texts, "}", depth)
    keys = tuple(keys)
    return (_TEMPLATES.get((keys, depth)) or _leaf_template(keys, depth)) % texts


def _leaf_template(keys: tuple, depth: int) -> str:
    template = _joined("{", [_key_text(key).replace("%", "%%") + ": %s" for key in keys], "}", depth)
    if len(_TEMPLATES) < _MAX_TEMPLATES:
        _TEMPLATES[keys, depth] = template
    return template


def _joined(opening: str, texts: List[str], closing: str, depth: int) -> str:
    """The container at `depth` whose item texts are `texts`, which it
    takes over: the brackets go onto the first and last item, so the
    container's text is built by one join, not copied again."""
    inner = "\n" + _INDENT * (depth + 1)
    texts[0] = opening + inner + texts[0]
    texts[-1] += "\n" + _INDENT * depth + closing
    return ("," + inner).join(texts)


def _key_text(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"report keys are str, not {type(key).__name__}")
    return encode_basestring_ascii(key)


def render_csv(report: dict) -> str:
    """Flatten per-pair delivery stats into spreadsheet rows."""
    lines = ["scenario,seed,mode,src,dst,sent,delivered,ratio"]
    meta = (report["scenario"], report["seed"], report["mode"])
    for pair in sorted(report["delivery"]["pairs"]):
        stats = report["delivery"]["pairs"][pair]
        src, dst = pair.split("->")
        lines.append(
            f"{meta[0]},{meta[1]},{meta[2]},{src},{dst},"
            f"{stats['sent']},{stats['delivered']},{stats['ratio']:.6f}"
        )
    return "\n".join(lines) + "\n"
