"""Authenticated pairwise key agreement between the ground station and UAVs.

The ground station opens a handshake by sending a signed ephemeral public
key and a fresh 16-byte nonce. The UAV verifies the signature against the
pre-provisioned roster, replies with its own signed ephemeral key echoing
the nonce, and both sides derive the same session key from the ECDH shared
secret. Signatures cover (sender, recipient, ephemeral_pub, nonce), so an
attacker who substitutes the ephemeral key cannot produce a valid message
without a roster signing key.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from . import crypto, wire
from .errors import (
    Expired,
    NoSession,
    SignatureError,
    UnknownHandshake,
    UnknownNode,
    ValidationError,
)

HANDSHAKE_NONCE_LEN = 16
HANDSHAKE_WIRE_LEN = 1 + 2 + 2 + crypto.PUBLIC_LEN + HANDSHAKE_NONCE_LEN + crypto.SIGNATURE_LEN

# Session keys on both sides are bound to this label plus the pair of node
# ids and the handshake nonce, so no two handshakes derive the same key.
_KDF_LABEL = b"swarmlink/session/v1"


def _check_node_id(node_id: int, what: str) -> None:
    if not 0 <= node_id <= wire.NODE_ID_MAX:
        raise ValidationError(what, f"{node_id} outside [0, {wire.NODE_ID_MAX}]")


@dataclass(frozen=True)
class SwarmRoster:
    """Pre-provisioned identities: node ids and their signature public keys."""

    gcs_id: int
    uav_ids: Tuple[int, ...]
    sig_public_keys: Mapping[int, bytes]

    def __post_init__(self) -> None:
        _check_node_id(self.gcs_id, "gcs_id")
        if not self.uav_ids:
            raise ValidationError("uav_ids", "roster needs at least one UAV")
        seen = set()
        for uav_id in self.uav_ids:
            _check_node_id(uav_id, "uav_ids")
            if uav_id == self.gcs_id or uav_id in seen:
                raise ValidationError("uav_ids", f"duplicate or GCS-colliding id {uav_id}")
            seen.add(uav_id)
        for node_id in (self.gcs_id, *self.uav_ids):
            key = self.sig_public_keys.get(node_id)
            if key is None:
                raise ValidationError("sig_public_keys", f"missing key for node {node_id}")
            if len(key) != crypto.PUBLIC_LEN:
                raise ValidationError("sig_public_keys", f"bad key length for node {node_id}")

    def public_key_of(self, node_id: int) -> bytes:
        try:
            return self.sig_public_keys[node_id]
        except KeyError:
            raise UnknownNode(f"node {node_id} not in roster") from None


def _signed_payload(sender_id: int, recipient_id: int, ephemeral_pub: bytes, nonce: bytes) -> bytes:
    return struct.pack(">HH", sender_id, recipient_id) + ephemeral_pub + nonce


def _session_context(gcs_id: int, uav_id: int, nonce: bytes) -> bytes:
    return _KDF_LABEL + struct.pack(">HH", gcs_id, uav_id) + nonce


@dataclass(frozen=True)
class _HandshakeMessage:
    sender_id: int
    recipient_id: int
    ephemeral_pub: bytes
    nonce: bytes
    signature: bytes

    MSG_TYPE = 0x00  # overridden by subclasses

    def __post_init__(self) -> None:
        _check_node_id(self.sender_id, "sender_id")
        _check_node_id(self.recipient_id, "recipient_id")
        if len(self.ephemeral_pub) != crypto.PUBLIC_LEN:
            raise ValidationError("ephemeral_pub", "must be 32 bytes")
        if len(self.nonce) != HANDSHAKE_NONCE_LEN:
            raise ValidationError("nonce", "must be 16 bytes")
        if len(self.signature) != crypto.SIGNATURE_LEN:
            raise ValidationError("signature", "must be 64 bytes")

    def signed_payload(self) -> bytes:
        return _signed_payload(self.sender_id, self.recipient_id, self.ephemeral_pub, self.nonce)

    def to_bytes(self) -> bytes:
        return (
            bytes([self.MSG_TYPE])
            + struct.pack(">HH", self.sender_id, self.recipient_id)
            + self.ephemeral_pub
            + self.nonce
            + self.signature
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "_HandshakeMessage":
        if len(data) != HANDSHAKE_WIRE_LEN:
            raise ValidationError("wire", f"expected {HANDSHAKE_WIRE_LEN} bytes, got {len(data)}")
        if data[0] != cls.MSG_TYPE:
            raise ValidationError("msg_type", f"expected {cls.MSG_TYPE:#04x}, got {data[0]:#04x}")
        sender_id, recipient_id = struct.unpack(">HH", data[1:5])
        off = 5
        ephemeral_pub = data[off : off + crypto.PUBLIC_LEN]
        off += crypto.PUBLIC_LEN
        nonce = data[off : off + HANDSHAKE_NONCE_LEN]
        off += HANDSHAKE_NONCE_LEN
        signature = data[off:]
        return cls(sender_id, recipient_id, ephemeral_pub, nonce, signature)


class KeyOffer(_HandshakeMessage):
    """GCS -> UAV: signed ephemeral public key opening a handshake."""

    MSG_TYPE = wire.MSG_KEY_OFFER


class KeyResponse(_HandshakeMessage):
    """UAV -> GCS: signed ephemeral public key completing a handshake."""

    MSG_TYPE = wire.MSG_KEY_RESPONSE


@dataclass
class PendingHandshake:
    uav_id: int
    ephemeral: crypto.AgreementKeyPair
    deadline: float


@dataclass
class SessionTable:
    """GCS-side record of pending handshakes and established session keys."""

    established: Dict[int, Tuple[crypto.SymmetricKey, float]] = field(default_factory=dict)
    pending: Dict[bytes, PendingHandshake] = field(default_factory=dict)

    def key_for(self, uav_id: int) -> crypto.SymmetricKey:
        try:
            return self.established[uav_id][0]
        except KeyError:
            raise NoSession(f"no session with node {uav_id}") from None

    def has_session(self, uav_id: int) -> bool:
        return uav_id in self.established

    def sessioned_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self.established))

    def expire_pending(self, now: float) -> Tuple[int, ...]:
        """Drop pending entries whose deadline has passed; return their UAV ids."""
        dead = [nonce for nonce, entry in self.pending.items() if entry.deadline < now]
        expired = tuple(self.pending.pop(nonce).uav_id for nonce in dead)
        return expired


def gcs_start_handshake(
    roster: SwarmRoster,
    gcs_sig_key: crypto.SignatureKeyPair,
    table: SessionTable,
    uav_id: int,
    rng: random.Random,
    now: float,
    timeout_s: float,
) -> KeyOffer:
    """Create a signed offer for one UAV and record the pending handshake."""
    if uav_id not in roster.uav_ids:
        raise UnknownNode(f"node {uav_id} not in roster")
    ephemeral = crypto.keypair_from_seed(rng.randbytes(crypto.SEED_LEN), "agreement")
    nonce = rng.randbytes(HANDSHAKE_NONCE_LEN)
    payload = _signed_payload(roster.gcs_id, uav_id, ephemeral.public_point, nonce)
    offer = KeyOffer(
        sender_id=roster.gcs_id,
        recipient_id=uav_id,
        ephemeral_pub=ephemeral.public_point,
        nonce=nonce,
        signature=crypto.sign(gcs_sig_key, payload),
    )
    table.pending[nonce] = PendingHandshake(uav_id=uav_id, ephemeral=ephemeral, deadline=now + timeout_s)
    return offer


def uav_on_offer(
    roster: SwarmRoster,
    my_id: int,
    my_sig_key: crypto.SignatureKeyPair,
    offer: KeyOffer,
    rng: random.Random,
    verify_signatures: bool = True,
) -> Tuple[KeyResponse, crypto.SymmetricKey]:
    """Verify an offer, answer it, and derive the session key (UAV side).

    `verify_signatures=False` exists only so experiments can demonstrate what
    the signature check is defending against. Never disable it in service.
    """
    if offer.recipient_id != my_id:
        raise UnknownNode(f"offer addressed to {offer.recipient_id}, not {my_id}")
    if offer.sender_id != roster.gcs_id:
        raise UnknownNode(f"offer claims sender {offer.sender_id}, expected GCS {roster.gcs_id}")
    if verify_signatures:
        gcs_pub = roster.public_key_of(offer.sender_id)
        if not crypto.verify(gcs_pub, offer.signed_payload(), offer.signature):
            raise SignatureError(f"offer signature invalid for handshake nonce {offer.nonce.hex()}")
    ephemeral = crypto.keypair_from_seed(rng.randbytes(crypto.SEED_LEN), "agreement")
    shared = crypto.ecdh_shared_secret(ephemeral, offer.ephemeral_pub)
    session_key = crypto.derive_key(shared, _session_context(offer.sender_id, my_id, offer.nonce))
    payload = _signed_payload(my_id, offer.sender_id, ephemeral.public_point, offer.nonce)
    response = KeyResponse(
        sender_id=my_id,
        recipient_id=offer.sender_id,
        ephemeral_pub=ephemeral.public_point,
        nonce=offer.nonce,
        signature=crypto.sign(my_sig_key, payload),
    )
    return response, session_key


def gcs_on_response(
    roster: SwarmRoster,
    table: SessionTable,
    response: KeyResponse,
    now: float,
    verify_signatures: bool = True,
) -> crypto.SymmetricKey:
    """Verify a response against its pending offer and install the session key."""
    entry = table.pending.get(response.nonce)
    if entry is None:
        raise UnknownHandshake(f"no pending handshake for nonce {response.nonce.hex()}")
    if entry.uav_id != response.sender_id:
        raise UnknownHandshake(
            f"nonce {response.nonce.hex()} pending for node {entry.uav_id}, not {response.sender_id}"
        )
    if now > entry.deadline:
        del table.pending[response.nonce]
        raise Expired(f"response from node {response.sender_id} arrived after deadline")
    if verify_signatures:
        uav_pub = roster.public_key_of(response.sender_id)
        if not crypto.verify(uav_pub, response.signed_payload(), response.signature):
            raise SignatureError(f"response signature invalid for node {response.sender_id}")
    shared = crypto.ecdh_shared_secret(entry.ephemeral, response.ephemeral_pub)
    session_key = crypto.derive_key(
        shared, _session_context(roster.gcs_id, response.sender_id, response.nonce)
    )
    del table.pending[response.nonce]
    table.established[response.sender_id] = (session_key, now)
    return session_key
