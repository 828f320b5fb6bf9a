"""Cryptographic primitives: X25519 agreement, Ed25519 signatures, HKDF-SHA-256
key derivation, and AES-256-GCM authenticated encryption.

The plaintext baseline is a key, not a mode: `NULL_KEY`, of purpose NULL,
seals and opens on the same path through the null cipher.

All operations are pure functions of their inputs; randomness enters only
through explicit 32-byte seeds drawn by the caller, so every simulation run is
replayable. Backed by PyCA cryptography; NIST P-256 ECDH/ECDSA would be a
drop-in alternative behind the same contracts.

Serialized sizes: public points and verification keys 32 bytes, signatures
64 bytes, AEAD tags 16 bytes appended after the ciphertext.
"""
from __future__ import annotations

import enum
import types
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

from .errors import AuthError, EmptyContext, InvalidPoint, ValidationError

SEED_LEN = 32
KEY_LEN = 32
PUBLIC_LEN = 32
SIGNATURE_LEN = 64
NONCE_LEN = 12
TAG_LEN = 16


class KeyPurpose(enum.Enum):
    SESSION = "session"
    BROADCAST = "broadcast"
    NULL = "null"  # the null cipher: no secrecy, no integrity


# The null cipher, with the two calls of an AESGCM context that seal and
# open make: the plaintext goes out with an all-zero tag, and any tag opens.
_NULL_CIPHER = types.SimpleNamespace(
    encrypt=lambda nonce, plaintext, aad: plaintext + bytes(TAG_LEN),
    decrypt=lambda nonce, sealed, aad: sealed[:-TAG_LEN],
)


@dataclass(frozen=True)
class AgreementKeyPair:
    """X25519 key pair; the private scalar never leaves the owning node.

    The scalar is parsed once, with the pair, and the parsed key serves
    every agreement under it; equality, hash and repr ignore it."""

    private_scalar: bytes
    public_point: bytes = field(init=False)
    _private: X25519PrivateKey = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        private = X25519PrivateKey.from_private_bytes(self.private_scalar)
        object.__setattr__(self, "_private", private)
        object.__setattr__(self, "public_point", private.public_key().public_bytes_raw())

    def __repr__(self) -> str:  # keep the scalar out of logs and tracebacks
        return f"AgreementKeyPair(public_point={self.public_point.hex()})"

    def __reduce__(self):  # the parsed key cannot be pickled; a copy parses its own
        return (AgreementKeyPair, (self.private_scalar,))


@dataclass(frozen=True)
class SignatureKeyPair:
    """Ed25519 key pair; the signing key is held only by its owner, parsed once."""

    private_key: bytes
    public_key: bytes = field(init=False)
    _private: Ed25519PrivateKey = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        private = Ed25519PrivateKey.from_private_bytes(self.private_key)
        object.__setattr__(self, "_private", private)
        object.__setattr__(self, "public_key", private.public_key().public_bytes_raw())

    def __repr__(self) -> str:
        return f"SignatureKeyPair(public_key={self.public_key.hex()})"

    def __reduce__(self):
        return (SignatureKeyPair, (self.private_key,))


@dataclass(frozen=True)
class SymmetricKey:
    """32-byte symmetric key tagged with its purpose.

    Its AES-256-GCM context, or the null cipher for purpose NULL, is built
    once, with the key, and reused by every seal and open under it;
    equality, hash and repr ignore it."""

    bytes_: bytes = field(repr=False)
    purpose: KeyPurpose = KeyPurpose.SESSION
    _aead: AESGCM = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.bytes_) != KEY_LEN:
            raise ValueError(f"symmetric key must be {KEY_LEN} bytes")
        aead = _NULL_CIPHER if self.purpose is KeyPurpose.NULL else AESGCM(self.bytes_)
        object.__setattr__(self, "_aead", aead)

    def __repr__(self) -> str:  # never emit key bytes
        return f"SymmetricKey(purpose={self.purpose.value})"

    def __reduce__(self):  # the context cannot be pickled; a copy builds its own
        return (SymmetricKey, (self.bytes_, self.purpose))


NULL_KEY = SymmetricKey(bytes(KEY_LEN), KeyPurpose.NULL)


@dataclass(frozen=True)
class AeadBox:
    """AES-GCM output: ciphertext plus the 16-byte tag appended after it."""

    ciphertext: bytes
    tag: bytes

    def __init__(self, ciphertext: bytes, tag: bytes) -> None:
        if len(tag) != TAG_LEN:
            raise ValidationError("box", f"tag must be {TAG_LEN} bytes")
        # The class is frozen: the fields go straight into the instance dict.
        fields = self.__dict__
        fields["ciphertext"] = ciphertext
        fields["tag"] = tag

    def to_bytes(self) -> bytes:
        return self.ciphertext + self.tag

    @classmethod
    def from_bytes(cls, data: bytes) -> "AeadBox":
        if len(data) < TAG_LEN:
            raise ValidationError("box", f"{len(data)} bytes cannot hold the {TAG_LEN}-byte tag")
        return cls(ciphertext=bytes(data[:-TAG_LEN]), tag=bytes(data[-TAG_LEN:]))


def keypair_from_seed(seed: bytes, kind: str) -> AgreementKeyPair | SignatureKeyPair:
    """Deterministically build a key pair from a 32-byte seed.

    Identical (seed, kind) always yields the identical pair, which is what
    makes handshakes replayable under a seeded RNG.
    """
    if len(seed) != SEED_LEN:
        raise ValueError(f"seed must be {SEED_LEN} bytes")
    if kind == "agreement":
        return AgreementKeyPair(seed)
    if kind == "signature":
        return SignatureKeyPair(seed)
    raise ValueError(f"unknown key kind {kind!r}")


def ecdh_shared_secret(mine: AgreementKeyPair, peer_public: bytes) -> bytes:
    """X25519 Diffie-Hellman output; symmetric in the two key pairs.

    Raises InvalidPoint for undecodable values and for low-order points that
    would produce an all-zero shared secret.
    """
    if len(peer_public) != PUBLIC_LEN:
        raise InvalidPoint(f"public point must be {PUBLIC_LEN} bytes")
    try:
        pub = X25519PublicKey.from_public_bytes(peer_public)
        return mine._private.exchange(pub)
    except InvalidPoint:
        raise
    except Exception as exc:
        raise InvalidPoint(str(exc)) from exc


def sign(signer: SignatureKeyPair, message: bytes) -> bytes:
    """Ed25519 signature (64 bytes) over the message."""
    return signer._private.sign(message)


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
    sealed = key._aead.encrypt(nonce, plaintext, aad or None)
    return AeadBox(ciphertext=sealed[:-TAG_LEN], tag=sealed[-TAG_LEN:])


def aead_open(key: SymmetricKey, nonce: bytes, box: AeadBox, aad: bytes) -> bytes:
    """AES-256-GCM decrypt-and-verify.

    Raises AuthError on any modification of ciphertext, tag, nonce, or aad;
    callers treat that as a security event, not an I/O failure. Under
    NULL_KEY nothing is verified: the ciphertext is the plaintext.
    """
    if len(nonce) != NONCE_LEN:
        raise ValueError(f"nonce must be {NONCE_LEN} bytes")
    try:
        return key._aead.decrypt(nonce, box.to_bytes(), aad or None)
    except InvalidTag as exc:
        raise AuthError("AEAD authentication failed") from exc
