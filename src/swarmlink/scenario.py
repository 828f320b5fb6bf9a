"""Scenario configuration: schema, JSON loading, and validation.

A scenario fixes everything a run needs: nodes and positions, link
profiles, protocol timers, traffic, adversaries, and the seed. A field's
type carries its own constraints (Annotated bounds, Literal choices), and
JSON is read against those types in one pass. `Scenario.validate` holds the
rules that tie fields together and runs whenever a Scenario is built.
Either way a bad file fails fast with an error naming the field path and
the constraint instead of surfacing mid-run.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import lru_cache, partial
from typing import Annotated, Callable, Dict, Literal, Optional, Tuple, Union
from typing import get_args, get_origin, get_type_hints

from . import wire
from .codec import PER_MESSAGE_OVERHEAD, frame_capacity
from .errors import ValidationError
from .links import LinkProfile, LinkSelector, default_profiles
from .mesh import DEDUP_CAPACITY

# Bounds ride on field types as Annotated[type, (test, what the value must be)].
Positive = Annotated[float, (lambda v: v > 0, "positive")]
NonNeg = Annotated[float, (lambda v: v >= 0, "nonnegative")]
Count = Annotated[int, (lambda v: v >= 0, "nonnegative")]
NodeId = Annotated[int, (lambda v: 0 <= v <= wire.NODE_ID_MAX, f"in [0, {wire.NODE_ID_MAX}]")]
_NONEMPTY = (bool, "nonempty")

AdversaryKind = Literal["eavesdrop", "mitm_key_substitution", "replay_injector"]
ADVERSARY_KINDS = get_args(AdversaryKind)
# Link fields a timed event may rewrite mid-run.
MutableLinkField = Literal["loss_prob", "bitrate_bps", "base_latency_s"]


@dataclass(frozen=True)
class NodeSpec:
    id: NodeId
    role: Literal["gcs", "uav"]
    position: Tuple[float, float]
    down_at_s: Optional[NonNeg] = None  # node powers off at this time


@dataclass(frozen=True)
class TrafficSpec:
    senders: Union[Literal["uavs", "all", "gcs"], Tuple[int, ...]] = "uavs"  # or node ids
    rate_hz: NonNeg = 1.0
    # 8 bytes carry the delivery ledger's per-source message tag; 255 is the frame field cap.
    payload_bytes: Annotated[int, (lambda v: 8 <= v <= 255, "in [8, 255]")] = 32
    start_s: NonNeg = 2.0
    stop_s: Optional[float] = None


@dataclass(frozen=True)
class AdversarySpec:
    kind: AdversaryKind
    start_s: NonNeg = 0.0
    end_s: Optional[float] = None
    # replay_injector: how many recorded packets to re-send.
    injections: Count = 100


@dataclass(frozen=True)
class SecuritySpec:
    encryption: bool = True
    verify_signatures: bool = True
    # Epochs whose broadcast key is handed to the eavesdropper, to measure
    # exactly how far one leaked key reaches.
    leak_epochs: Tuple[Annotated[int, (lambda v: v >= 1, "an epoch; epochs start at 1")], ...] = ()


@dataclass(frozen=True)
class ProtocolSpec:
    key_lifetime_s: Positive = 60.0
    grace_window_s: NonNeg = 5.0
    hop_limit: Annotated[int, (lambda v: 0 <= v <= 255, "in [0, 255]")] = 8
    handshake_timeout_s: Positive = 5.0
    handshake_retries: Count = 3  # further attempts after the first
    rekey_resend_interval_s: Optional[Positive] = 1.0  # None disables resends
    dedup_capacity: Annotated[int, (lambda v: v >= 1, "at least 1")] = DEDUP_CAPACITY
    forward_jitter_max_s: NonNeg = 0.010  # uniform rebroadcast delay in mesh


@dataclass(frozen=True)
class LinkPolicySpec:
    pinned_link: Optional[str] = None  # None adapts; a link name pins every send to it
    health_threshold: Annotated[float, (lambda v: 0 <= v <= 1, "in [0, 1]")] = LinkSelector.health_threshold
    hysteresis_s: NonNeg = LinkSelector.hysteresis_s
    ewma_alpha: Annotated[float, (lambda v: 0 < v <= 1, "in (0, 1]")] = LinkSelector.ewma_alpha


@dataclass(frozen=True)
class LinkEvent:
    """Scripted mid-run change to one link profile, e.g. jamming as loss."""

    at_s: NonNeg
    link: str
    set: Annotated[Dict[MutableLinkField, float], _NONEMPTY] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    name: Annotated[str, _NONEMPTY]
    seed: int
    duration_s: Positive
    nodes: Tuple[NodeSpec, ...]
    links: Dict[str, LinkProfile]
    mode: Literal["mesh", "star"] = "mesh"
    protocol: ProtocolSpec = ProtocolSpec()
    traffic: TrafficSpec = TrafficSpec()
    security: SecuritySpec = SecuritySpec()
    adversaries: Tuple[AdversarySpec, ...] = ()
    link_events: Tuple[LinkEvent, ...] = ()
    link_policy: LinkPolicySpec = LinkPolicySpec()

    def __post_init__(self) -> None:
        # dataclasses.replace builds anew, so an override is checked too.
        self.validate()

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
        """The rules that tie fields together. A field's own type and bounds
        are checked where JSON is read, as in-program callers pass typed values."""
        gcs_count = sum(1 for n in self.nodes if n.role == "gcs")
        if gcs_count != 1:
            raise ValidationError("nodes", f"exactly one gcs required, found {gcs_count}")
        if not self.uavs():
            raise ValidationError("nodes", "at least one uav required")
        seen = set()
        for i, n in enumerate(self.nodes):
            if n.id in seen:
                raise ValidationError(f"nodes[{i}].id", f"duplicate node id {n.id}")
            seen.add(n.id)
        if not self.links:  # the MTU rule below needs one
            raise ValidationError("links", "at least one link required")
        for name, profile in self.links.items():
            if profile.name != name:
                raise ValidationError(f"links.{name}", "profile name must match its key")
        if not self.security.encryption and self.mode != "mesh":
            raise ValidationError("security.encryption", "plaintext baseline requires mesh mode")
        if self.security.leak_epochs and not (self.mode == "mesh" and self.security.encryption):
            raise ValidationError("security.leak_epochs", "only an encrypted mesh has broadcast epochs to leak")
        self._validate_traffic()
        for i, adv in enumerate(self.adversaries):
            if any(earlier.kind == adv.kind for earlier in self.adversaries[:i]):
                raise ValidationError(f"adversaries[{i}].kind", f"{adv.kind!r} given more than once")
            if adv.end_s is not None and adv.end_s < adv.start_s:
                raise ValidationError(f"adversaries[{i}].end_s", "must be >= start_s")
        self._validate_link_events()
        lp = self.link_policy
        if lp.pinned_link is not None and lp.pinned_link not in self.links:
            raise ValidationError("link_policy.pinned_link", f"unknown link {lp.pinned_link!r}")
        # A repeating step too small to move the clock would rerun one instant forever.
        steps = {
            "traffic.rate_hz": 1.0 / self.traffic.rate_hz if self.traffic.rate_hz > 0 else None,
            "protocol.key_lifetime_s": self.protocol.key_lifetime_s,
            "protocol.rekey_resend_interval_s": self.protocol.rekey_resend_interval_s,
        }
        for path, step in steps.items():
            if step is not None and self.duration_s + step == self.duration_s:
                raise ValidationError(path, f"a step of {step} s cannot move a clock at {self.duration_s} s")

    def _validate_traffic(self) -> None:
        t = self.traffic
        if not isinstance(t.senders, str):
            ids, seen = set(self.node_ids()), set()
            for sender in t.senders:
                if sender not in ids:
                    raise ValidationError("traffic.senders", f"unknown node id {sender}")
                if sender in seen:  # it would send at twice the rate
                    raise ValidationError("traffic.senders", f"duplicate node id {sender}")
                seen.add(sender)
        # One message must fit a frame on the tightest configured link.
        tightest = min(frame_capacity(p.mtu_bytes) for p in self.links.values())
        max_payload = tightest - 1 - PER_MESSAGE_OVERHEAD
        if t.payload_bytes > max_payload:
            raise ValidationError(
                "traffic.payload_bytes",
                f"{t.payload_bytes} exceeds {max_payload}, the most the smallest-MTU link carries",
            )
        if t.stop_s is not None and t.stop_s < t.start_s:
            raise ValidationError("traffic.stop_s", "must be >= start_s")

    def _validate_link_events(self) -> None:
        for i, ev in enumerate(self.link_events):
            path = f"link_events[{i}]"
            if ev.link not in self.links:
                raise ValidationError(f"{path}.link", f"unknown link {ev.link!r}")
            for fname, value in ev.set.items():
                # Apply to a copy now so a bad value fails at validation time.
                try:
                    replace(self.links[ev.link], **{fname: value})
                except ValidationError as exc:
                    raise ValidationError(f"{path}.set.{fname}", exc.message) from None


# ---- reading JSON against the field types -----------------------------------

_FLOAT_MAX = sys.float_info.max
_TYPE_NAMES = {int: "an integer", str: "a string", bool: "true or false"}


def _reader(hint) -> Callable:
    """The function of (value, path) that reads a JSON value as type `hint`.

    It checks the value's type and bounds in the same pass and raises
    ValidationError naming `path` when either fails: bool is not an int,
    and a float must be finite. Scalars are kept as given, so 6 stays an
    int; arrays become tuples, objects dicts or dataclasses.
    """
    origin, args = get_origin(hint), get_args(hint)
    if is_dataclass(hint):
        return partial(_build, hint)
    if origin is Annotated:
        return partial(_bounded, _reader(args[0]), hint.__metadata__)
    if origin is Literal:
        return partial(_choice, args)
    if origin is Union:  # Optional[T] too: None is read as type(None)
        return partial(_either, tuple(_reader(a) for a in args))
    if origin is tuple:  # Tuple[T, ...], or a fixed Tuple[T, T] of one item type
        return partial(_array, _reader(args[0]), None if args[-1] is Ellipsis else len(args))
    if origin is dict:
        if args[1] is LinkProfile:
            return _links_from_dict
        return partial(_mapping, _reader(args[0]), _reader(args[1]))
    if hint is float:
        return _finite
    return partial(_exact, hint)


def _exact(kind: type, value, path: str):
    if type(value) is not kind:
        raise ValidationError(path, f"must be {_TYPE_NAMES.get(kind, kind.__name__)}, not {value!r}")
    return value


def _finite(value, path: str):
    if type(value) not in (int, float) or not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise ValidationError(path, f"must be a finite number, not {value!r}")
    return value


def _bounded(read: Callable, checks, value, path: str):
    value = read(value, path)
    for test, what in checks:
        if not test(value):
            raise ValidationError(path, f"must be {what}, not {value!r}")
    return value


def _choice(choices: tuple, value, path: str):
    if value not in choices:
        raise ValidationError(path, f"{value!r} not one of {choices}")
    return value


def _either(readers: tuple, value, path: str):
    """The members take disjoint JSON kinds, so at most one reads the value;
    a value that none reads fails as it fails the first member."""
    for read in readers[1:]:
        try:
            return read(value, path)
        except ValidationError:
            pass
    return readers[0](value, path)


def _array(read: Callable, size: Optional[int], value, path: str) -> tuple:
    if type(value) is not list or size is not None and len(value) != size:
        what = "an array" if size is None else f"an array of {size}"
        raise ValidationError(path, f"must be {what}, not {value!r}")
    return tuple([read(item, f"{path}[{i}]") for i, item in enumerate(value)])


def _mapping(read_key: Callable, read_value: Callable, value, path: str) -> dict:
    items = _object(value, path).items()
    return {read_key(k, f"{path}.{k}"): read_value(v, f"{path}.{k}") for k, v in items}


class _JsonObject(dict):
    """A JSON object as read from a file, with the first key it repeats, if
    any; json keeps only the last value of a repeated key."""

    repeated: Optional[str] = None


def _json_object(pairs: list) -> _JsonObject:
    obj = _JsonObject(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _value in pairs:
            if key in seen:
                obj.repeated = key
                break
            seen.add(key)
    return obj


def _object(value, path: str) -> dict:
    """Every JSON object is read here: it must be one, and repeat no key."""
    if not isinstance(value, dict):
        raise ValidationError(path or "json", "must be an object")
    repeated = getattr(value, "repeated", None)
    if repeated is not None:
        raise ValidationError(f"{path}.{repeated}" if path else repeated, "duplicate key")
    return value


@lru_cache(maxsize=None)
def _field_table(cls) -> Tuple[Dict[str, Callable], Tuple[str, ...]]:
    """A dataclass's fields with their readers, and its required fields."""
    hints = get_type_hints(cls, include_extras=True)
    readers = {f.name: _reader(hints[f.name]) for f in fields(cls)}
    required = tuple(
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    )
    return readers, required


def _build(cls, data, path: str, defaults: Optional[dict] = None):
    """Build dataclass `cls` from the JSON object at `path`.

    A field comes from the object, else from `defaults`, else from the
    dataclass's own default. Unknown keys and missing required fields
    raise ValidationError naming their path.
    """
    where = f"{path}." if path else ""
    readers, required = _field_table(cls)
    kwargs = dict(defaults) if defaults else {}
    for key, value in _object(data, path).items():
        read = readers.get(key)
        if read is None:
            raise ValidationError(f"{where}{key}", "unknown field")
        kwargs[key] = read(value, f"{where}{key}")
    for name in required:
        if name not in kwargs:
            raise ValidationError(f"{where}{name}", "missing required field")
    try:
        return cls(**kwargs)
    except ValidationError as exc:  # LinkProfile.__post_init__ names the bare field
        raise ValidationError(f"{where}{exc.field}", exc.message) from None


def _links_from_dict(data, path: str) -> Dict[str, LinkProfile]:
    """Each link's fields override the default profile of its band, which
    defaults to the link's name."""
    profiles = {}
    for name, link in _object(data, path).items():
        where = f"{path}.{name}"
        overrides = dict(_object(link, where))
        band = overrides.pop("band", name)
        default = default_profiles().get(band) if isinstance(band, str) else None
        if default is None:
            raise ValidationError(f"{where}.band", f"{band!r} unknown")
        profiles[name] = _build(LinkProfile, overrides, where, {**vars(default), "name": name})
    return profiles


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from parsed JSON, checking every field and rule."""
    return _build(Scenario, data, "")


def load_scenario(path: str) -> Scenario:
    """Load and validate a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_json_object)
        except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, or nested too deep
            raise ValidationError("json", f"{path}: {exc}") from None
    return scenario_from_dict(data)
