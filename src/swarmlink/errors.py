"""Exception types shared across the stack.

Security failures (AuthError, SignatureError, ReplayError, ...) are ordinary
exceptions here; the simulator catches them and records security events rather
than treating them as I/O failures.
"""


class SwarmLinkError(Exception):
    """Base class for all package errors."""


class InvalidPoint(SwarmLinkError):
    """Peer public value failed decoding or curve validation."""


class EmptyContext(SwarmLinkError):
    """Key derivation called with an empty context string."""


class AuthError(SwarmLinkError):
    """AEAD authentication failed: tampering, wrong key, or wrong epoch."""


class SignatureError(SwarmLinkError):
    """Handshake signature did not verify (possible MITM)."""


class UnknownNode(SwarmLinkError):
    """Node id not present in the swarm roster."""


class UnknownHandshake(SwarmLinkError):
    """Response nonce does not match any pending handshake."""


class Expired(SwarmLinkError):
    """Handshake response arrived after its deadline."""


class NoSession(SwarmLinkError):
    """No established pairwise session key for the target node."""


class StaleEpoch(SwarmLinkError):
    """Rekey message carries an epoch at or below the installed one; `epoch`
    holds it, so callers can tell a benign resend of the installed key from a replay."""

    def __init__(self, message: str, epoch: int):
        self.epoch = epoch
        super().__init__(message)


class UnknownEpoch(SwarmLinkError):
    """No live key for the packet's epoch."""


class ReplayError(SwarmLinkError):
    """Packet counter already seen or older than the replay window."""


class UnknownMessage(SwarmLinkError):
    """Delivered telemetry has no 8-byte message tag, or one its source never handed out."""


class NoBroadcastKey(SwarmLinkError):
    """Node has not been provisioned with a broadcast key yet."""


class CounterExhausted(SwarmLinkError):
    """Per-epoch nonce counter reached 2^48; rotation required."""


class MessageTooLarge(SwarmLinkError):
    """A single telemetry message cannot fit any frame at this MTU."""


class MtuExceeded(SwarmLinkError):
    """Packet larger than the link MTU."""


class NoViableLink(SwarmLinkError):
    """No configured link is healthy and in range, and no fallback exists."""


class ValidationError(SwarmLinkError):
    """Scenario failed validation; `field` holds the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")
