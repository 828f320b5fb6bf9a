"""Cryptographic primitives: X25519 agreement, Ed25519 signatures, HKDF-SHA-256
key derivation, and AES-256-GCM authenticated encryption.

All operations are pure functions of their inputs; randomness enters only
through explicit 32-byte seeds drawn by the caller, so every simulation run is
replayable. Backed by PyCA cryptography; NIST P-256 ECDH/ECDSA would be a
drop-in alternative behind the same contracts.

Serialized sizes: public points and verification keys 32 bytes, signatures
64 bytes, AEAD tags 16 bytes appended after the ciphertext.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .errors import AuthError, EmptyContext, InvalidPoint

SEED_LEN = 32
KEY_LEN = 32
PUBLIC_LEN = 32
SIGNATURE_LEN = 64
NONCE_LEN = 12
TAG_LEN = 16


class KeyPurpose(enum.Enum):
    SESSION = "session"
    BROADCAST = "broadcast"


@dataclass(frozen=True)
class AgreementKeyPair:
    """X25519 key pair; the private scalar never leaves the owning node."""

    private_scalar: bytes
    public_point: bytes

    def __repr__(self) -> str:  # keep the scalar out of logs and tracebacks
        return f"AgreementKeyPair(public_point={self.public_point.hex()})"


@dataclass(frozen=True)
class SignatureKeyPair:
    """Ed25519 key pair; the signing key is held only by its owner."""

    private_key: bytes
    public_key: bytes

    def __repr__(self) -> str:
        return f"SignatureKeyPair(public_key={self.public_key.hex()})"


@dataclass(frozen=True)
class SymmetricKey:
    """32-byte symmetric key tagged with its purpose.

    Its AES-256-GCM context is built once, with the key, and reused by every
    seal and open under it; equality, hash and repr ignore it."""

    bytes_: bytes = field(repr=False)
    purpose: KeyPurpose = KeyPurpose.SESSION
    _aead: AESGCM = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.bytes_) != KEY_LEN:
            raise ValueError(f"symmetric key must be {KEY_LEN} bytes")
        object.__setattr__(self, "_aead", AESGCM(self.bytes_))

    def __repr__(self) -> str:  # never emit key bytes
        return f"SymmetricKey(purpose={self.purpose.value})"

    def __reduce__(self):  # the context cannot be pickled; a copy builds its own
        return (SymmetricKey, (self.bytes_, self.purpose))


@dataclass(frozen=True)
class AeadBox:
    """AES-GCM output: ciphertext plus the 16-byte tag appended after it.

    It keeps that joined blob once known, as AES-GCM returned it or as the
    first to_bytes built it, so a box is joined at most once; equality,
    hash and repr ignore it."""

    ciphertext: bytes
    tag: bytes

    _blob = None  # kept state, not a field

    def __post_init__(self):
        if len(self.tag) != TAG_LEN:
            raise ValueError(f"tag must be {TAG_LEN} bytes")

    @classmethod
    def _of_sealed(cls, sealed: bytes) -> "AeadBox":
        box = cls(ciphertext=sealed[:-TAG_LEN], tag=sealed[-TAG_LEN:])
        box.__dict__["_blob"] = sealed
        return box

    def to_bytes(self) -> bytes:
        blob = self._blob
        if blob is None:
            blob = self.ciphertext + self.tag
            self.__dict__["_blob"] = blob
        return blob

    @classmethod
    def from_bytes(cls, data: bytes) -> "AeadBox":
        if len(data) < TAG_LEN:
            raise ValueError("AEAD box shorter than its tag")
        return cls._of_sealed(bytes(data))


def keypair_from_seed(seed: bytes, kind: str) -> AgreementKeyPair | SignatureKeyPair:
    """Deterministically build a key pair from a 32-byte seed.

    Identical (seed, kind) always yields the identical pair, which is what
    makes handshakes replayable under a seeded RNG.
    """
    if len(seed) != SEED_LEN:
        raise ValueError(f"seed must be {SEED_LEN} bytes")
    if kind == "agreement":
        priv = X25519PrivateKey.from_private_bytes(seed)
        return AgreementKeyPair(
            private_scalar=seed,
            public_point=priv.public_key().public_bytes_raw(),
        )
    if kind == "signature":
        priv = Ed25519PrivateKey.from_private_bytes(seed)
        return SignatureKeyPair(
            private_key=seed,
            public_key=priv.public_key().public_bytes_raw(),
        )
    raise ValueError(f"unknown key kind {kind!r}")


def ecdh_shared_secret(my_private: bytes, peer_public: bytes) -> bytes:
    """X25519 Diffie-Hellman output; symmetric in the two key pairs.

    Raises InvalidPoint for undecodable values and for low-order points that
    would produce an all-zero shared secret.
    """
    if len(peer_public) != PUBLIC_LEN:
        raise InvalidPoint(f"public point must be {PUBLIC_LEN} bytes")
    try:
        pub = X25519PublicKey.from_public_bytes(peer_public)
        return X25519PrivateKey.from_private_bytes(my_private).exchange(pub)
    except InvalidPoint:
        raise
    except Exception as exc:
        raise InvalidPoint(str(exc)) from exc


def sign(key: bytes, message: bytes) -> bytes:
    """Ed25519 signature (64 bytes) over the message."""
    return Ed25519PrivateKey.from_private_bytes(key).sign(message)


def verify(key: bytes, message: bytes, sig: bytes) -> bool:
    """True iff sig is a valid signature over message under key.

    Never raises: malformed keys or signatures return False.
    """
    try:
        Ed25519PublicKey.from_public_bytes(key).verify(sig, message)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


def derive_key(
    shared_secret: bytes, context: bytes, purpose: KeyPurpose = KeyPurpose.SESSION
) -> SymmetricKey:
    """HKDF-SHA-256 over the shared secret, bound to a context string.

    Distinct contexts yield independent keys; the handshake context binds the
    key to both identities and the handshake nonce.
    """
    if not context:
        raise EmptyContext("derive_key context must be nonempty")
    okm = HKDF(
        algorithm=hashes.SHA256(), length=KEY_LEN, salt=None, info=context
    ).derive(shared_secret)
    return SymmetricKey(bytes_=okm, purpose=purpose)


def aead_seal(key: SymmetricKey, nonce: bytes, plaintext: bytes, aad: bytes) -> AeadBox:
    """AES-256-GCM encrypt; the 16-byte tag is split out of the sealed blob."""
    if len(nonce) != NONCE_LEN:
        raise ValueError(f"nonce must be {NONCE_LEN} bytes")
    return AeadBox._of_sealed(key._aead.encrypt(nonce, plaintext, aad or None))


def aead_open(key: SymmetricKey, nonce: bytes, box: AeadBox, aad: bytes) -> bytes:
    """AES-256-GCM decrypt-and-verify.

    Raises AuthError on any modification of ciphertext, tag, nonce, or aad;
    callers treat that as a security event, not an I/O failure.
    """
    if len(nonce) != NONCE_LEN:
        raise ValueError(f"nonce must be {NONCE_LEN} bytes")
    try:
        return key._aead.decrypt(nonce, box.to_bytes(), aad or None)
    except InvalidTag as exc:
        raise AuthError("AEAD authentication failed") from exc
