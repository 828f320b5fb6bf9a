"""Rolling broadcast key: generation, wrapped distribution, and receive-side
key rings.

The ground station owns the broadcast key. Epochs count up from 1 and each
epoch's key is drawn fresh, never derived from the previous one, so holding
one epoch's key says nothing about later epochs. Keys rotate on a timeout;
each rotation is delivered to every sessioned UAV as an AEAD box sealed
under that UAV's pairwise session key. Receivers keep the previous key for
a short grace window so frames sealed just before a rotation still open.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional

from . import crypto, wire
from .errors import NoSession, StaleEpoch, UnknownEpoch, ValidationError

EPOCH_MAX = 0xFFFFFFFF

# Wrapped payload: epoch(4) || key(32) || not_after(8, IEEE-754 big-endian).
_WRAP_PLAINTEXT_LEN = 4 + crypto.KEY_LEN + 8
_WRAP_AAD_LABEL = b"swarmlink/rekey/v1"

ACK_WIRE_LEN = 1 + 2 + 4


@dataclass(frozen=True)
class BroadcastKey:
    """One epoch of the swarm-wide telemetry key."""

    epoch: int
    key: crypto.SymmetricKey
    not_after: float

    def __post_init__(self) -> None:
        if not 1 <= self.epoch <= EPOCH_MAX:
            raise ValidationError("epoch", f"{self.epoch} outside [1, {EPOCH_MAX}]")


@dataclass(frozen=True)
class RekeyMessage:
    """GCS -> UAV: one epoch's broadcast key sealed under the session key."""

    gcs_id: int
    uav_id: int
    nonce: bytes
    box: crypto.AeadBox

    def to_bytes(self) -> bytes:
        sealed = self.box.to_bytes()
        return (
            bytes([wire.MSG_REKEY])
            + struct.pack(">HH", self.gcs_id, self.uav_id)
            + self.nonce
            + struct.pack(">H", len(sealed))
            + sealed
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "RekeyMessage":
        header = 1 + 2 + 2 + crypto.NONCE_LEN + 2
        if len(data) < header:
            raise ValidationError("wire", "rekey message truncated")
        if data[0] != wire.MSG_REKEY:
            raise ValidationError("msg_type", f"expected {wire.MSG_REKEY:#04x}, got {data[0]:#04x}")
        gcs_id, uav_id = struct.unpack(">HH", data[1:5])
        nonce = data[5 : 5 + crypto.NONCE_LEN]
        (box_len,) = struct.unpack(">H", data[5 + crypto.NONCE_LEN : header])
        sealed = data[header:]
        if len(sealed) != box_len:
            raise ValidationError("box_len", f"declared {box_len}, carried {len(sealed)}")
        if box_len < crypto.TAG_LEN:
            raise ValidationError("box_len", f"{box_len} bytes cannot hold the {crypto.TAG_LEN}-byte tag")
        return cls(gcs_id=gcs_id, uav_id=uav_id, nonce=nonce, box=crypto.AeadBox.from_bytes(sealed))


@dataclass(frozen=True)
class RekeyAck:
    """UAV -> GCS: confirms installation of one epoch."""

    uav_id: int
    epoch: int

    def to_bytes(self) -> bytes:
        return bytes([wire.MSG_REKEY_ACK]) + struct.pack(">HI", self.uav_id, self.epoch)

    @classmethod
    def from_bytes(cls, data: bytes) -> "RekeyAck":
        if len(data) != ACK_WIRE_LEN:
            raise ValidationError("wire", f"expected {ACK_WIRE_LEN} bytes, got {len(data)}")
        if data[0] != wire.MSG_REKEY_ACK:
            raise ValidationError("msg_type", f"expected {wire.MSG_REKEY_ACK:#04x}, got {data[0]:#04x}")
        uav_id, epoch = struct.unpack(">HI", data[1:])
        return cls(uav_id=uav_id, epoch=epoch)


def _wrap_aad(gcs_id: int, uav_id: int) -> bytes:
    return _WRAP_AAD_LABEL + struct.pack(">HH", gcs_id, uav_id)


class BroadcastKeySource:
    """GCS-side epoch counter and key generator."""

    def __init__(self, key_lifetime_s: float):
        if key_lifetime_s <= 0:
            raise ValidationError("key_lifetime_s", "must be positive")
        self.key_lifetime_s = key_lifetime_s
        self.current: Optional[BroadcastKey] = None

    def new_epoch(self, rng: random.Random, now: float) -> BroadcastKey:
        """Draw a fresh key for the next epoch (1 if none exists yet)."""
        epoch = 1 if self.current is None else self.current.epoch + 1
        if epoch > EPOCH_MAX:
            raise ValidationError("epoch", "epoch counter exhausted")
        key = crypto.SymmetricKey(
            bytes_=rng.randbytes(crypto.KEY_LEN), purpose=crypto.KeyPurpose.BROADCAST
        )
        self.current = BroadcastKey(epoch=epoch, key=key, not_after=now + self.key_lifetime_s)
        return self.current

    def expired(self, now: float) -> bool:
        return self.current is not None and now >= self.current.not_after


def wrap_for(
    session_key: crypto.SymmetricKey,
    gcs_id: int,
    uav_id: int,
    bkey: BroadcastKey,
    rng: random.Random,
) -> RekeyMessage:
    """Seal one epoch's key for one UAV under its pairwise session key."""
    plaintext = struct.pack(">I", bkey.epoch) + bkey.key.bytes_ + struct.pack(">d", bkey.not_after)
    nonce = rng.randbytes(crypto.NONCE_LEN)
    box = crypto.aead_seal(session_key, nonce, plaintext, _wrap_aad(gcs_id, uav_id))
    return RekeyMessage(gcs_id=gcs_id, uav_id=uav_id, nonce=nonce, box=box)


@dataclass
class KeyRing:
    """Receive-side key state: current epoch plus the previous one in grace."""

    current: Optional[BroadcastKey] = None
    previous: Optional[BroadcastKey] = None
    grace_until: float = -math.inf

    def install(self, bkey: BroadcastKey, now: float, grace_window_s: float) -> None:
        """Adopt a newer epoch; the old current stays usable until grace expiry."""
        if self.current is not None and bkey.epoch <= self.current.epoch:
            raise StaleEpoch(
                f"epoch {bkey.epoch} not newer than installed epoch {self.current.epoch}",
                bkey.epoch,
            )
        self.previous = self.current
        self.current = bkey
        self.grace_until = now + grace_window_s

    def key_for_epoch(self, epoch: int, now: float) -> crypto.SymmetricKey:
        if self.current is not None and epoch == self.current.epoch:
            return self.current.key
        if (
            self.previous is not None
            and epoch == self.previous.epoch
            and now <= self.grace_until
        ):
            return self.previous.key
        raise UnknownEpoch(f"no usable key for epoch {epoch}")


def unwrap(
    session_key: crypto.SymmetricKey,
    message: RekeyMessage,
    keyring: KeyRing,
    now: float,
    grace_window_s: float,
) -> BroadcastKey:
    """Open a rekey box and install its key (UAV side).

    A tampered box raises AuthError and leaves the ring untouched; an epoch
    at or below the installed one raises StaleEpoch, which also covers the
    benign case of a retransmitted rekey that already took effect.
    """
    plaintext = crypto.aead_open(
        session_key, message.nonce, message.box, _wrap_aad(message.gcs_id, message.uav_id)
    )
    if len(plaintext) != _WRAP_PLAINTEXT_LEN:
        raise ValidationError("rekey_payload", f"expected {_WRAP_PLAINTEXT_LEN} bytes")
    (epoch,) = struct.unpack(">I", plaintext[:4])
    key_bytes = plaintext[4 : 4 + crypto.KEY_LEN]
    (not_after,) = struct.unpack(">d", plaintext[4 + crypto.KEY_LEN :])
    bkey = BroadcastKey(
        epoch=epoch,
        key=crypto.SymmetricKey(bytes_=key_bytes, purpose=crypto.KeyPurpose.BROADCAST),
        not_after=not_after,
    )
    keyring.install(bkey, now, grace_window_s)
    return bkey


def distribute(
    source: BroadcastKeySource,
    sessions: Dict[int, crypto.SymmetricKey],
    gcs_id: int,
    rng: random.Random,
) -> List[RekeyMessage]:
    """Wrap the current key for every sessioned UAV, in ascending id order."""
    if source.current is None:
        raise NoSession("no broadcast key generated yet")
    return [
        wrap_for(sessions[uav_id], gcs_id, uav_id, source.current, rng)
        for uav_id in sorted(sessions)
    ]
