"""Outside-in per-module tracer for swarmlink.

`ModuleTracer` replaces the public functions and methods of the
`swarmlink` modules with timing wrappers, from outside the package: no
file under `src/` knows it exists. Every wrapper records a span edge
(caller span, callee span) with its call count, inclusive time and self
time, i.e. its duration minus the part its child spans cover. Spans stay
in memory, aggregated per edge, and are written out when the benchmark
ends. `restore()` puts every original back, including the aliases other
modules hold (`sim.render_json`, `sim.latency_summary`, ...).

A few public methods are deliberately left unwrapped: they cost less than
the wrapper itself and are called once per receiver or per event, so
wrapping them would mostly measure the tracer. Their time lands in the
caller's self time. `UNWRAPPED` lists them; the self-tests check that every
public callable is either wrapped or listed there.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# (module, qualified name) -> group. A group is one per-layer metric
# family: "<layer>.<what>", and its layer is the part before the first dot.
SPANS: Dict[Tuple[str, str], str] = {
    ("scenario", "scenario_from_dict"): "scenario.load",
    ("scenario", "load_scenario"): "scenario.load",
    ("scenario", "Scenario.validate"): "scenario.load",
    ("scenario", "Scenario.sender_ids"): "scenario.load",
    ("links", "transmit"): "links.transmit",
    ("links", "LinkSelector.select"): "links.select",
    ("links", "LinkSelector.update_health"): "links.select",
    ("links", "DutyCycleMeter.used_airtime"): "links.duty",
    ("links", "DutyCycleMeter.budget"): "links.duty",
    ("links", "DutyCycleMeter.allows"): "links.duty",
    ("links", "DutyCycleMeter.earliest_allowed"): "links.duty",
    ("links", "DutyCycleMeter.record"): "links.duty",
    ("links", "default_profiles"): "links.setup",
    ("links", "distance"): "links.setup",
    ("codec", "WirePacket.from_bytes"): "codec.parse",
    ("codec", "Frame.from_bytes"): "codec.open",
    ("codec", "WirePacket.to_bytes"): "codec.encode",
    ("codec", "WirePacket.forwarded"): "codec.encode",
    ("codec", "Frame.to_bytes"): "codec.encode",
    ("codec", "compose_frames"): "codec.encode",
    ("codec", "frame_capacity"): "codec.encode",
    ("codec", "seal_packet"): "codec.seal",
    ("codec", "seal_with_key"): "codec.seal",
    ("codec", "seal_packet_plain"): "codec.seal",
    ("codec", "open_packet"): "codec.open",
    ("codec", "open_with_key"): "codec.open",
    ("codec", "open_packet_plain"): "codec.open",
    ("codec", "ReplayWindow.check"): "codec.open",
    ("codec", "ReplayWindow.accept"): "codec.open",
    ("codec", "PacketCounters.next_for"): "codec.seal",
    ("crypto", "aead_seal"): "crypto.aead",
    ("crypto", "aead_open"): "crypto.aead",
    ("crypto", "keypair_from_seed"): "crypto.asym",
    ("crypto", "sign"): "crypto.asym",
    ("crypto", "verify"): "crypto.asym",
    ("crypto", "ecdh_shared_secret"): "crypto.asym",
    ("crypto", "derive_key"): "crypto.asym",
    ("mesh", "handle_rx"): "mesh.handle_rx",
    ("mesh", "originate"): "mesh.originate",
    ("mesh", "originate_plain"): "mesh.originate",
    ("mesh", "star_uplink"): "mesh.star",
    ("mesh", "star_fanout"): "mesh.star",
    ("handshake", "gcs_start_handshake"): "handshake.protocol",
    ("handshake", "uav_on_offer"): "handshake.protocol",
    ("handshake", "gcs_on_response"): "handshake.protocol",
    ("handshake", "_HandshakeMessage.from_bytes"): "handshake.wire",
    ("handshake", "_HandshakeMessage.to_bytes"): "handshake.wire",
    ("handshake", "SessionTable.key_for"): "handshake.table",
    ("handshake", "SessionTable.sessioned_ids"): "handshake.table",
    ("handshake", "SessionTable.expire_pending"): "handshake.table",
    ("rekey", "wrap_for"): "rekey.wrap",
    ("rekey", "unwrap"): "rekey.unwrap",
    ("rekey", "distribute"): "rekey.wrap",
    ("rekey", "KeyRing.key_for_epoch"): "rekey.key_lookup",
    ("rekey", "KeyRing.install"): "rekey.install",
    ("rekey", "BroadcastKeySource.new_epoch"): "rekey.install",
    ("rekey", "RekeyMessage.from_bytes"): "rekey.wire",
    ("rekey", "RekeyMessage.to_bytes"): "rekey.wire",
    ("rekey", "RekeyAck.from_bytes"): "rekey.wire",
    ("rekey", "RekeyAck.to_bytes"): "rekey.wire",
    ("metrics", "DeliveryAudit.record_send"): "metrics.record",
    ("metrics", "DeliveryAudit.record_delivery"): "metrics.record",
    ("metrics", "DeliveryAudit.pair_stats"): "metrics.report",
    ("metrics", "DeliveryAudit.latencies"): "metrics.report",
    ("metrics", "DeliveryAudit.latencies_between"): "metrics.report",
    ("metrics", "latency_summary"): "metrics.report",
    ("metrics", "percentile"): "metrics.report",
    ("metrics", "render_json"): "metrics.report",
    ("metrics", "render_csv"): "metrics.report",
}

# Public callables left unwrapped because they are cheaper than a wrapper.
UNWRAPPED = frozenset(
    {
        ("scenario", "Scenario.gcs"),
        ("scenario", "Scenario.uavs"),
        ("scenario", "Scenario.node_ids"),
        ("links", "LinkProfile.airtime_s"),
        ("links", "LinkProfile.covers"),
        ("codec", "TelemetryMessage.serialized_len"),
        ("codec", "Frame.serialized_len"),
        ("codec", "WirePacket.nonce"),
        ("codec", "WirePacket.aad"),
        ("codec", "WirePacket.header_bytes"),
        ("codec", "WirePacket.wire_len"),
        ("crypto", "AeadBox.to_bytes"),
        ("crypto", "AeadBox.from_bytes"),
        ("mesh", "DedupCache.seen"),
        ("mesh", "DedupCache.add"),
        ("mesh", "MeshState.take_seq"),
        ("handshake", "SwarmRoster.public_key_of"),
        ("handshake", "_HandshakeMessage.signed_payload"),
        ("handshake", "SessionTable.has_session"),
        ("rekey", "BroadcastKeySource.expired"),
        ("metrics", "Counters.bump"),
        ("metrics", "Counters.get"),
    }
)

TRACED_MODULES = ("scenario", "links", "codec", "crypto", "mesh", "handshake", "rekey", "metrics")
PACKAGE = "swarmlink"

ROOT = "sim"  # name of the span that encloses a traced pass


def public_callables(module) -> List[str]:
    """Qualified names of the functions and methods a module defines publicly.

    Covers public module-level functions, and the public methods,
    classmethods and staticmethods of every class the module defines; a
    private base class counts too, since its public subclasses inherit them.
    """
    names = []
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not name.startswith("_"):
            names.append(name)
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    names.append(f"{name}.{attr}")
    return sorted(names)


class ModuleTracer:
    """Wraps swarmlink's public callables and aggregates span edges.

    Use as a context manager: wrapping happens on enter and every original
    is restored on exit, even when the traced code raised. Wrapped calls
    made outside any other wrapped call are children of the outer span
    `sim`, which stands for everything the tracer does not wrap.
    """

    def __init__(self, observers: Optional[Dict[str, Callable]] = None) -> None:
        # group -> callback(args, result), called after each wrapped call of
        # the group, for counts read at the boundary such as receivers scanned.
        self.observers = observers or {}
        # (caller, callee) -> [calls, inclusive_s, self_s]
        self.edges: Dict[Tuple[str, str], List[float]] = {}
        self._names: List[str] = [ROOT]  # open span names
        self._child: List[float] = [0.0]  # child time of each open span
        self._patches: List[Tuple[object, str, object]] = []
        self._group: Dict[str, str] = {}  # span name -> group

    # ---- wrapping --------------------------------------------------------

    def __enter__(self) -> "ModuleTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        importlib.import_module(PACKAGE)
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        replaced: Dict[int, object] = {}  # id(original function) -> wrapper
        for (mod_name, qualname), group in SPANS.items():
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                func = raw.__func__
                wrapped = type(raw)(self._wrap(func, f"{mod_name}.{qualname}", group))
                replaced[id(func)] = wrapped.__func__
            else:
                func = raw
                wrapped = self._wrap(func, f"{mod_name}.{qualname}", group)
                replaced[id(func)] = wrapped
            self._patch(owner, attr, wrapped)
        # Names other modules imported directly, e.g. sim's render_json.
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._names[1:] = []
        self._child[1:] = []

    def _wrap(self, func, span: str, group: str):
        self._group[span] = group
        names, child, edges = self._names, self._child, self.edges
        observer = self.observers.get(group)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            caller = names[-1]
            names.append(span)
            child.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                names.pop()
                inner = child.pop()
                child[-1] += elapsed
                edge = edges.get((caller, span))
                if edge is None:
                    edges[(caller, span)] = [1, elapsed, elapsed - inner]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
                    edge[2] += elapsed - inner
            if observer is not None:
                observer(args, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = func.__name__
        wrapper.__qualname__ = func.__qualname__
        wrapper.__doc__ = func.__doc__
        wrapper.__module__ = func.__module__
        return wrapper

    # ---- outer spans and results ---------------------------------------------

    def reset(self) -> None:
        """Forget recorded spans, e.g. before a fresh traced pass."""
        self.edges.clear()
        self._names[1:] = []
        self._child[:] = [0.0]

    def root_self_s(self, wall_s: float) -> float:
        """Self time of the outer span: wall time minus all wrapped top-level calls."""
        return wall_s - self._child[0]

    def groups(self) -> Dict[str, Dict[str, float]]:
        """Per group: calls entering it from outside the group, their
        inclusive time, and the self time of all the group's spans."""
        out: Dict[str, Dict[str, float]] = {}
        for (caller, callee), (calls, incl, self_s) in self.edges.items():
            group = self._group[callee]
            slot = out.setdefault(group, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            slot["self_s"] += self_s
            if self._group.get(caller) != group:
                slot["calls"] += calls
                slot["incl_s"] += incl
        return out

    def span_records(self) -> List[dict]:
        """Every aggregated span edge, sorted by self time, for writing out."""
        rows = [
            {"caller": caller, "span": callee, "calls": int(c), "inclusive_s": i, "self_s": s}
            for (caller, callee), (c, i, s) in self.edges.items()
        ]
        rows.sort(key=lambda r: r["self_s"], reverse=True)
        return rows
