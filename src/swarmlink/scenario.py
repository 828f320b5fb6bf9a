"""Scenario configuration: schema, JSON loading, and validation.

A scenario fixes everything a run needs: nodes and positions, link
profiles, protocol timers, traffic, adversaries, and the seed. Validation
reports the offending field by path so a bad file fails fast with a
message naming the constraint instead of surfacing mid-run.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import lru_cache, partial
from typing import Callable, Dict, Optional, Tuple, Union, get_args, get_origin, get_type_hints

from . import wire
from .links import Band, LinkProfile, default_profiles
from .errors import ValidationError

ADVERSARY_KINDS = ("eavesdrop", "mitm_key_substitution", "replay_injector")
MODES = ("mesh", "star")
# Link fields a timed event may rewrite mid-run.
MUTABLE_LINK_FIELDS = ("loss_prob", "bitrate_bps", "base_latency_s")


@dataclass(frozen=True)
class NodeSpec:
    id: int
    role: str  # "gcs" or "uav"
    position: Tuple[float, float]
    down_at_s: Optional[float] = None  # node powers off at this time


@dataclass(frozen=True)
class TrafficSpec:
    senders: Union[str, Tuple[int, ...]] = "uavs"  # "uavs", "all", "gcs", or ids
    rate_hz: float = 1.0
    payload_bytes: int = 32
    start_s: float = 2.0
    stop_s: Optional[float] = None


@dataclass(frozen=True)
class AdversarySpec:
    kind: str
    start_s: float = 0.0
    end_s: Optional[float] = None
    # replay_injector: how many recorded packets to re-send.
    injections: int = 100


@dataclass(frozen=True)
class SecuritySpec:
    encryption: bool = True
    verify_signatures: bool = True
    # Epochs whose broadcast key is handed to the eavesdropper, to measure
    # exactly how far one leaked key reaches.
    leak_epochs: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ProtocolSpec:
    key_lifetime_s: float = 60.0
    grace_window_s: float = 5.0
    hop_limit: int = 8
    handshake_timeout_s: float = 5.0
    handshake_retries: int = 3  # further attempts after the first
    rekey_resend_interval_s: Optional[float] = 1.0  # None disables resends
    dedup_capacity: int = 1024
    forward_jitter_max_s: float = 0.010  # uniform rebroadcast delay in mesh


@dataclass(frozen=True)
class LinkPolicySpec:
    mode: str = "adaptive"  # or "pinned"
    pinned_link: Optional[str] = None
    health_threshold: float = 0.5
    hysteresis_s: float = 2.0
    ewma_alpha: float = 0.2


@dataclass(frozen=True)
class LinkEvent:
    """Scripted mid-run change to one link profile, e.g. jamming as loss."""

    at_s: float
    link: str
    set: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    duration_s: float
    nodes: Tuple[NodeSpec, ...]
    links: Dict[str, LinkProfile]
    mode: str = "mesh"  # or "star"
    protocol: ProtocolSpec = ProtocolSpec()
    traffic: TrafficSpec = TrafficSpec()
    security: SecuritySpec = SecuritySpec()
    adversaries: Tuple[AdversarySpec, ...] = ()
    link_events: Tuple[LinkEvent, ...] = ()
    link_policy: LinkPolicySpec = LinkPolicySpec()

    def gcs(self) -> NodeSpec:
        return next(n for n in self.nodes if n.role == "gcs")

    def uavs(self) -> Tuple[NodeSpec, ...]:
        return tuple(n for n in self.nodes if n.role == "uav")

    def node_ids(self) -> Tuple[int, ...]:
        return tuple(n.id for n in self.nodes)

    def sender_ids(self) -> Tuple[int, ...]:
        sel = self.traffic.senders
        if sel == "uavs":
            return tuple(n.id for n in self.uavs())
        if sel == "all":
            return self.node_ids()
        if sel == "gcs":
            return (self.gcs().id,)
        return tuple(sel)

    def validate(self) -> None:
        if not self.name:
            raise ValidationError("name", "must be nonempty")
        if not isinstance(self.seed, int):
            raise ValidationError("seed", "must be an integer")
        if self.duration_s <= 0:
            raise ValidationError("duration_s", "must be positive")
        if self.mode not in MODES:
            raise ValidationError("mode", f"{self.mode!r} not one of {MODES}")
        self._validate_nodes()
        self._validate_links()
        self._validate_protocol()
        self._validate_traffic()
        self._validate_security()
        self._validate_adversaries()
        self._validate_link_events()
        self._validate_link_policy()

    def _validate_nodes(self) -> None:
        if not self.nodes:
            raise ValidationError("nodes", "scenario needs nodes")
        gcs_count = sum(1 for n in self.nodes if n.role == "gcs")
        if gcs_count != 1:
            raise ValidationError("nodes", f"exactly one gcs required, found {gcs_count}")
        seen = set()
        for i, n in enumerate(self.nodes):
            path = f"nodes[{i}]"
            if n.role not in ("gcs", "uav"):
                raise ValidationError(f"{path}.role", f"{n.role!r} not 'gcs' or 'uav'")
            if not 0 <= n.id <= wire.NODE_ID_MAX:
                raise ValidationError(f"{path}.id", f"{n.id} outside [0, {wire.NODE_ID_MAX}]")
            if n.id in seen:
                raise ValidationError(f"{path}.id", f"duplicate node id {n.id}")
            seen.add(n.id)
            if len(n.position) != 2:
                raise ValidationError(f"{path}.position", "must be [x, y]")
            if n.down_at_s is not None and n.down_at_s < 0:
                raise ValidationError(f"{path}.down_at_s", "must be nonnegative")
        if not any(n.role == "uav" for n in self.nodes):
            raise ValidationError("nodes", "at least one uav required")

    def _validate_links(self) -> None:
        if not self.links:
            raise ValidationError("links", "scenario needs at least one link")
        for name, profile in self.links.items():
            if profile.name != name:
                raise ValidationError(f"links.{name}", "profile name must match its key")

    def _validate_protocol(self) -> None:
        p = self.protocol
        checks = [
            ("key_lifetime_s", p.key_lifetime_s > 0),
            ("grace_window_s", p.grace_window_s >= 0),
            ("hop_limit", 0 <= p.hop_limit <= 255),
            ("handshake_timeout_s", p.handshake_timeout_s > 0),
            ("handshake_retries", p.handshake_retries >= 0),
            ("dedup_capacity", p.dedup_capacity >= 1),
            ("forward_jitter_max_s", p.forward_jitter_max_s >= 0),
        ]
        for fname, ok in checks:
            if not ok:
                raise ValidationError(f"protocol.{fname}", "out of range")
        if p.rekey_resend_interval_s is not None and p.rekey_resend_interval_s <= 0:
            raise ValidationError("protocol.rekey_resend_interval_s", "must be positive or null")

    def _validate_traffic(self) -> None:
        t = self.traffic
        if isinstance(t.senders, str):
            if t.senders not in ("uavs", "all", "gcs"):
                raise ValidationError("traffic.senders", f"{t.senders!r} unknown")
        else:
            ids = set(self.node_ids())
            for sender in t.senders:
                if sender not in ids:
                    raise ValidationError("traffic.senders", f"unknown node id {sender}")
        if t.rate_hz < 0:
            raise ValidationError("traffic.rate_hz", "must be nonnegative")
        if not 8 <= t.payload_bytes <= 255:
            # 8 bytes carry the delivery-audit uid; 255 is the frame field cap.
            raise ValidationError("traffic.payload_bytes", "must lie in [8, 255]")
        # One message must fit a frame on the tightest configured link.
        from .codec import PER_MESSAGE_OVERHEAD, frame_capacity

        tightest = min(frame_capacity(p.mtu_bytes) for p in self.links.values())
        max_payload = tightest - 1 - PER_MESSAGE_OVERHEAD
        if t.payload_bytes > max_payload:
            raise ValidationError(
                "traffic.payload_bytes",
                f"{t.payload_bytes} exceeds {max_payload}, the most the smallest-MTU link carries",
            )
        if t.start_s < 0:
            raise ValidationError("traffic.start_s", "must be nonnegative")
        if t.stop_s is not None and t.stop_s < t.start_s:
            raise ValidationError("traffic.stop_s", "must be >= start_s")

    def _validate_security(self) -> None:
        for epoch in self.security.leak_epochs:
            if epoch < 1:
                raise ValidationError("security.leak_epochs", "epochs start at 1")

    def _validate_adversaries(self) -> None:
        for i, adv in enumerate(self.adversaries):
            path = f"adversaries[{i}]"
            if adv.kind not in ADVERSARY_KINDS:
                raise ValidationError(f"{path}.kind", f"{adv.kind!r} not one of {ADVERSARY_KINDS}")
            if any(earlier.kind == adv.kind for earlier in self.adversaries[:i]):
                raise ValidationError(f"{path}.kind", f"{adv.kind!r} given more than once")
            if adv.start_s < 0:
                raise ValidationError(f"{path}.start_s", "must be nonnegative")
            if adv.end_s is not None and adv.end_s < adv.start_s:
                raise ValidationError(f"{path}.end_s", "must be >= start_s")
            if adv.injections < 0:
                raise ValidationError(f"{path}.injections", "must be nonnegative")

    def _validate_link_events(self) -> None:
        for i, ev in enumerate(self.link_events):
            path = f"link_events[{i}]"
            if ev.at_s < 0:
                raise ValidationError(f"{path}.at_s", "must be nonnegative")
            if ev.link not in self.links:
                raise ValidationError(f"{path}.link", f"unknown link {ev.link!r}")
            if not ev.set:
                raise ValidationError(f"{path}.set", "must change at least one field")
            for fname, value in ev.set.items():
                if fname not in MUTABLE_LINK_FIELDS:
                    raise ValidationError(f"{path}.set.{fname}", "not a mutable link field")
                # Apply to a copy now so a bad value fails at validation time.
                try:
                    replace(self.links[ev.link], **{fname: value})
                except (ValidationError, TypeError) as exc:
                    raise ValidationError(f"{path}.set.{fname}", str(exc)) from None

    def _validate_link_policy(self) -> None:
        lp = self.link_policy
        if lp.mode not in ("adaptive", "pinned"):
            raise ValidationError("link_policy.mode", f"{lp.mode!r} not 'adaptive' or 'pinned'")
        if lp.mode == "pinned":
            if lp.pinned_link is None:
                raise ValidationError("link_policy.pinned_link", "required when mode is 'pinned'")
            if lp.pinned_link not in self.links:
                raise ValidationError("link_policy.pinned_link", f"unknown link {lp.pinned_link!r}")
        if not 0 <= lp.health_threshold <= 1:
            raise ValidationError("link_policy.health_threshold", "must lie in [0, 1]")
        if lp.hysteresis_s < 0:
            raise ValidationError("link_policy.hysteresis_s", "must be nonnegative")
        if not 0 < lp.ewma_alpha <= 1:
            raise ValidationError("link_policy.ewma_alpha", "must lie in (0, 1]")


def _converter(hint) -> Optional[Callable]:
    """How a JSON value becomes a field of type `hint`: objects become
    nested dataclasses (or link profiles), arrays become tuples; None
    means the value is taken as it is."""
    if is_dataclass(hint):
        return partial(_build, hint)
    if get_origin(hint) is dict:
        return _links_from_dict if get_args(hint)[1] is LinkProfile else (lambda v, _p: dict(v))
    for h in (hint, *get_args(hint)):  # inside Optional[...] and Union[...] too
        if get_origin(h) is tuple:
            args = get_args(h)
            return partial(_to_tuple, _converter(args[0]) if args[-1] is Ellipsis else None)
    return None


def _to_tuple(item: Optional[Callable], value, path: str):
    if not isinstance(value, list):
        return value
    if item is None:
        return tuple(value)
    return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))


@lru_cache(maxsize=None)
def _field_table(cls) -> Tuple[Dict[str, Optional[Callable]], Tuple[str, ...]]:
    """A dataclass's fields with their converters, and its required fields."""
    hints = get_type_hints(cls)
    converters = {f.name: _converter(hints[f.name]) for f in fields(cls)}
    required = tuple(
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    )
    return converters, required


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(path or "json", "must be an object")
    return value


def _build(cls, data, path: str, defaults: Optional[dict] = None):
    """Build dataclass `cls` from the JSON object at `path`.

    A field comes from the object, else from `defaults`, else from the
    dataclass's own default. Unknown keys and missing required fields
    raise ValidationError naming their path.
    """
    where = f"{path}." if path else ""
    converters, required = _field_table(cls)
    kwargs = dict(defaults) if defaults else {}
    for key, value in _object(data, path).items():
        if key not in converters:
            raise ValidationError(f"{where}{key}", "unknown field")
        convert = converters[key]
        kwargs[key] = value if convert is None else convert(value, f"{where}{key}")
    for name in required:
        if name not in kwargs:
            raise ValidationError(f"{where}{name}", "missing required field")
    try:
        return cls(**kwargs)
    except ValidationError as exc:  # __post_init__ names the bare field
        raise ValidationError(f"{where}{exc.field}", exc.message) from None


def _links_from_dict(data, path: str) -> Dict[str, LinkProfile]:
    """Each link's fields override the default profile of its band, which
    defaults to the link's name."""
    profiles = {}
    for name, link in _object(data, path).items():
        where = f"{path}.{name}"
        overrides = dict(_object(link, where))
        band_name = overrides.pop("band", name)
        try:
            band = Band(band_name)
        except ValueError:
            raise ValidationError(f"{where}.band", f"{band_name!r} unknown") from None
        base = {**vars(default_profiles()[band.value]), "name": name, "band": band}
        profiles[name] = _build(LinkProfile, overrides, where, base)
    return profiles


def scenario_from_dict(data: dict) -> Scenario:
    """Build and validate a Scenario from parsed JSON."""
    scenario = _build(Scenario, data, "")
    scenario.validate()
    return scenario


def load_scenario(path: str) -> Scenario:
    """Load and validate a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError("json", f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError("json", f"{path}: top level must be an object")
    return scenario_from_dict(data)
