"""Run metrics: collection during simulation and deterministic reporting.

Reports are plain dicts rendered with sorted keys, so two runs of the same
scenario and seed produce byte-identical JSON. Latency percentiles use the
nearest-rank method on the sorted sample; no field ever depends on wall
clock or iteration order of unordered containers.

The delivery ledger keeps each fact once, in the shape the report reads:
per message its source, origination time and a bitmask of the nodes it
reached; per source its message count; per (source, destination) pair the
latency of each first delivery. Report cost grows with pairs plus
deliveries, never messages x nodes.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Tuple

from .errors import UnknownMessage


def percentile(sorted_values: List[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile of an already sorted sample."""
    if not sorted_values:
        return None
    rank = max(1, math.ceil(len(sorted_values) * fraction))
    return sorted_values[rank - 1]


@dataclass
class DeliveryAudit:
    """Ground truth of which message reached which node: the delivery ledger."""

    originated: Dict[int, Tuple[int, float]] = field(default_factory=dict)  # uid -> (source, t)
    sent_by: Dict[int, int] = field(default_factory=dict)  # source -> messages originated
    # node -> its bit in `reach`, by first delivery: ids up to 65535 are too sparse for bits.
    node_bits: Dict[int, int] = field(default_factory=dict)
    reach: Dict[int, int] = field(default_factory=dict)  # uid -> bits of nodes reached
    # (source, destination) -> latency of each first delivery
    pair_latencies: Dict[Tuple[int, int], array] = field(default_factory=dict)
    duplicate_deliveries: int = 0

    def record_send(self, uid: int, source: int, t: float) -> None:
        self.originated[uid] = (source, t)
        self.sent_by[source] = self.sent_by.get(source, 0) + 1

    def record_delivery(self, uid: int, node: int, t: float) -> None:
        """Record `node` receiving `uid`, or a repeat; raises UnknownMessage if none sent it."""
        if uid not in self.originated:
            raise UnknownMessage(f"message uid {uid} was never originated")
        bit = self.node_bits.setdefault(node, 1 << len(self.node_bits))
        reach = self.reach.get(uid, 0)
        if reach & bit:
            self.duplicate_deliveries += 1
            return
        self.reach[uid] = reach | bit
        source, t_tx = self.originated[uid]
        latencies = self.pair_latencies.get((source, node))
        if latencies is None:
            latencies = self.pair_latencies[(source, node)] = array("d")
        latencies.append(t - t_tx)

    def pair_stats(self, node_ids: Tuple[int, ...]) -> Dict[str, Dict[str, float]]:
        """Sent/delivered counts and ratio from each sender in `node_ids` to each other one."""
        out: Dict[str, Dict[str, float]] = {}
        dests = sorted(node_ids)
        for src in sorted(set(node_ids) & self.sent_by.keys()):
            n_sent = self.sent_by[src]
            for dst in dests:
                if dst != src:
                    n_got = len(self.pair_latencies.get((src, dst), ()))
                    out[f"{src}->{dst}"] = {"sent": n_sent, "delivered": n_got, "ratio": n_got / n_sent}
        return out

    def latencies(self) -> List[float]:
        return sorted(chain.from_iterable(self.pair_latencies.values()))

    def latencies_between(self, sources: Tuple[int, ...], dests: Tuple[int, ...]) -> List[float]:
        src_set, dst_set = set(sources), set(dests)
        return sorted(chain.from_iterable(
            latencies for (src, dst), latencies in self.pair_latencies.items()
            if src in src_set and dst in dst_set
        ))


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
    """Canonical JSON: sorted keys, stable float repr, trailing newline."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


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
