"""Exception types shared across the package, and the abort reasons they carry."""

import enum


class LravError(Exception):
    """Base class for all package errors."""


# --- device model -----------------------------------------------------------

class LockedEntry(LravError):
    """Write attempted to a locked PMP entry (or one guarded by a locked TOR chain)."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"pmp entry {index} is locked until reset")


class ReservedCombination(LravError):
    """R=0/W=1 permission encodings are reserved by the PMP register format."""


class AccessFault(LravError):
    """Memory access denied; carries the first faulting address."""

    def __init__(self, addr: int, message: str | None = None):
        self.addr = addr
        super().__init__(message or f"access fault at {addr:#010x}")


class OutOfRange(LravError):
    """Address range is not mapped by any memory region."""


# --- measurement / quotes ---------------------------------------------------

class InvalidRange(LravError):
    """Attestation range is empty or not covered by mapped memory."""


class GateViolation(LravError):
    """Signing gate refused: the key region is not locked execute-only."""


class InsufficientEntropy(LravError):
    """Identity generation needs at least 32 bytes of seed entropy."""


# --- provisioning -----------------------------------------------------------

class ParseError(LravError):
    """Trust-store or profile parse failure; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class DuplicatePeer(LravError):
    """Trust store defines the same peer id twice."""


class UnknownPeer(LravError):
    """Peer id is not provisioned in the trust store."""


# --- transport --------------------------------------------------------------

class FrameError(LravError):
    """Base class for frame decoding failures."""


class BadMagic(FrameError):
    pass


class BadVersion(FrameError):
    pass


class Oversize(FrameError):
    pass


class Truncated(FrameError):
    """More bytes are needed to complete the frame; not fatal on a stream."""


class ChannelClosed(LravError):
    pass


class TransportTimeout(LravError):
    pass


# --- crypto / protocol ------------------------------------------------------

class AuthenticationFailed(LravError):
    """AEAD authentication tag did not verify."""


class WeakPoint(LravError):
    """Key agreement produced (or would produce) an all-zero shared secret."""


class MalformedMessage(LravError):
    """Wire message failed structural validation."""


class ProtocolStateError(LravError):
    """Message fed to a session in the wrong phase; session state unchanged."""


class AbortReason(enum.IntEnum):
    """On-wire reason codes carried by courtesy error frames."""

    BAD_TAG = 0x01
    BAD_SIGNATURE = 0x02
    MEASUREMENT_MISMATCH = 0x03
    MALFORMED = 0x04
    WEAK_POINT = 0x05


class ProtocolAbort(LravError):
    """Session aborted; carries the on-wire reason code (an AbortReason)."""

    def __init__(self, reason, message: str | None = None):
        self.reason = reason
        super().__init__(message or f"session aborted: {reason.name}")
