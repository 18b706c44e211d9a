"""Three-message mutual attestation and secure-channel bootstrap.

    M1  A -> B : n_A || q_A || AR
    M2  B -> A : n_B || q_B || AR || AE_K(Q_B || sig_B(H(Q_B||n_A||n_B||q_B||q_A)))
    M3  A -> B : AE_K(Q_A || sig_A(H(Q_A||n_A||n_B||q_A||q_B)))

K is derived from the X25519 shared secret and both nonces; the transcript
signatures bind quotes, nonces, and both DH points (note the swapped point
order between M2 and M3). Every verification failure terminates the session
with one of the on-wire abort reason codes. Sessions are single-owner; a
device may run many concurrently.

When each side measures: A produces its quote (`produce_own_quote`) right
after sending M1, so it measures while B measures, and hands it to
`process_m2`. A's quote therefore reflects A's memory as of just after M1;
the M3 transcript signature binds it to both nonces. B measures only after
X25519 and the point check, so a weak-point M1 costs it no measurement and
no signature. B screens out small-order points before it generates its
ephemeral, so those cost it no X25519 work either.
"""

from __future__ import annotations

import enum
from os import urandom
from typing import NamedTuple, Optional

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey

from . import secretbox
from .crtm import measure, sha3_256
from .device import DeviceState
from .errors import (
    AbortReason,
    AuthenticationFailed,
    MalformedMessage,
    ProtocolAbort,
    ProtocolStateError,
    WeakPoint,
)
from .quote import (
    QUOTE_WIRE_BYTES,
    SIGNATURE_BYTES,
    Quote,
    sign_quote_gated,
    sign_transcript_gated,
    signature_valid,
    stage_outgoing_quote,
    verify_quote,
)

NONCE_BYTES = 32
POINT_BYTES = 32
AR_FLAG = 0x01
_AR = bytes([AR_FLAG])
M1_BYTES = NONCE_BYTES + POINT_BYTES + 1  # 65
INNER_BYTES = QUOTE_WIRE_BYTES + SIGNATURE_BYTES  # 180
BOX_BYTES = INNER_BYTES + secretbox.TAG_BYTES  # 196
M2_BYTES = NONCE_BYTES + POINT_BYTES + 1 + BOX_BYTES  # 261

_KDF_LABEL = b"LIRA-V/1/KDF"
_AE_LABEL = b"LIRA-V/1/AE"

_P25519 = 2**255 - 19
# u-coordinates of Curve25519's points of order 1, 2, 4 and 8, including the
# non-canonical p and p + 1 (RFC 7748 section 6.1; libsodium's blocklist).
# X25519 with any of them yields all zeros for every scalar.
_SMALL_ORDER = frozenset({
    0, 1, _P25519 - 1, _P25519, _P25519 + 1,
    0xB8495F16056286FDB1329CEB8D09DA6AC49FF1FAE35616AEB8413B7C7AEBE0,
    0x57119FD0DD4E22D8868E1C58C45C44045BEF839C55B1D0B1248C50A3BC959C5F,
})


class Direction(enum.IntEnum):
    """AE nonce domain separator; one value per encrypted protocol message."""

    M2 = 0x02
    M3 = 0x03


class Role(enum.Enum):
    INITIATOR = "initiator"
    RESPONDER = "responder"


class Phase(enum.Enum):
    START = "start"
    SENT_M1 = "sent-m1"
    SENT_M2 = "sent-m2"
    ESTABLISHED = "established"
    ABORTED = "aborted"


# --- wire messages ----------------------------------------------------------

def _unpack_hello(data: bytes, name: str, size: int) -> tuple[bytes, bytes, bytes]:
    """Nonce, point and the rest of an M1 or M2 payload, after the length and AR-flag checks."""
    if len(data) != size:
        raise MalformedMessage(f"{name} must be {size} bytes, got {len(data)}")
    if data[64] != AR_FLAG:
        raise MalformedMessage(f"bad attestation-request flag {data[64]:#04x}")
    return data[:32], data[32:64], data[65:]


class WireM1(NamedTuple):
    nonce: bytes
    point: bytes

    def pack(self) -> bytes:
        return self.nonce + self.point + _AR

    @classmethod
    def unpack(cls, data: bytes) -> "WireM1":
        nonce, point, _ = _unpack_hello(data, "M1", M1_BYTES)
        return cls(nonce, point)


class WireM2(NamedTuple):
    nonce: bytes
    point: bytes
    box: bytes

    def pack(self) -> bytes:
        return self.nonce + self.point + _AR + self.box

    @classmethod
    def unpack(cls, data: bytes) -> "WireM2":
        return cls(*_unpack_hello(data, "M2", M2_BYTES))


class WireM3(NamedTuple):
    box: bytes

    def pack(self) -> bytes:
        return self.box

    @classmethod
    def unpack(cls, data: bytes) -> "WireM3":
        # Length is deliberately unchecked: a truncated box fails the
        # authentication tag, which is the abort path the protocol defines.
        return cls(data)


# --- session state ----------------------------------------------------------

class SessionState:
    def __init__(
        self,
        role: Role,
        peer_id: str,
        phase: Phase = Phase.START,
        my_nonce: bytes = b"",
        peer_nonce: bytes = b"",
        peer_point: bytes = b"",
        k: Optional[bytes] = None,
        abort_reason: Optional[AbortReason] = None,
    ):
        self.role = role
        self.peer_id = peer_id
        self.phase = phase
        self.my_nonce = my_nonce
        self.peer_nonce = peer_nonce
        self.peer_point = peer_point
        self.k = k
        self.abort_reason = abort_reason
        # our X25519 scalar, held only until K is derived, and our point;
        # the generator is looked up at call time, so a patched one is used
        self.scalar: Optional[X25519PrivateKey] = X25519PrivateKey.generate()
        self.my_point = self.scalar.public_key().public_bytes_raw()

    def nonces(self) -> tuple[bytes, bytes]:
        """(n_A, n_B) regardless of which side we are."""
        if self.role is Role.INITIATOR:
            return self.my_nonce, self.peer_nonce
        return self.peer_nonce, self.my_nonce

    def session_key(self) -> bytes:
        """The established channel key; only released once the run completed."""
        if self.phase is not Phase.ESTABLISHED or self.k is None:
            raise ProtocolStateError("session key is not released before Established")
        return self.k

    def snapshot(self) -> dict:
        """Inspection view for logs and tests; contains no secret material."""
        return {
            "role": self.role.value,
            "phase": self.phase.value,
            "peer_id": self.peer_id,
            "my_nonce": self.my_nonce.hex(),
            "peer_nonce": self.peer_nonce.hex(),
            "peer_point": self.peer_point.hex(),
            "has_session_key": self.k is not None,
            "ephemeral_secret_cleared": self.scalar is None,
            "abort_reason": self.abort_reason.name if self.abort_reason else None,
        }

    def abort(self, reason: Optional[AbortReason]) -> None:
        """End the session short of Established: drop K and the X25519 scalar."""
        self.phase, self.abort_reason = Phase.ABORTED, reason
        self.k = self.scalar = None

    def __repr__(self):
        return f"SessionState({self.role.value}, {self.phase.value}, peer={self.peer_id!r})"


def _abort(st: SessionState, reason: AbortReason, message: str | None = None):
    st.abort(reason)
    raise ProtocolAbort(reason, message)


# --- key schedule -----------------------------------------------------------

def derive_session_key(shared_secret: bytes, n_a: bytes, n_b: bytes) -> bytes:
    """K = SHA3-256(label || shared || n_A || n_B); symmetric on both sides."""
    if len(shared_secret) != 32:
        raise ValueError("shared secret must be 32 bytes")
    if shared_secret == bytes(32):
        raise WeakPoint("all-zero shared secret")
    return sha3_256(_KDF_LABEL + shared_secret + n_a + n_b)


def ae_nonce(direction: Direction, n_a: bytes, n_b: bytes) -> bytes:
    """Deterministic 24-byte box nonce; unique per (session, direction)."""
    material = _AE_LABEL + bytes([direction]) + n_a + n_b
    return sha3_256(material)[:secretbox.NONCE_BYTES]


def ae_seal(k: bytes, direction: Direction, n_a: bytes, n_b: bytes, plaintext: bytes) -> bytes:
    return secretbox.seal(k, ae_nonce(direction, n_a, n_b), plaintext)


def ae_open(k: bytes, direction: Direction, n_a: bytes, n_b: bytes, box: bytes) -> bytes:
    return secretbox.open_box(k, ae_nonce(direction, n_a, n_b), box)


def transcript_hash(
    quote_bytes: bytes,
    n_first: bytes,
    n_second: bytes,
    q_first: bytes,
    q_second: bytes,
) -> bytes:
    """SHA3-256 over the signed transcript, operands in per-message order."""
    if len(quote_bytes) != QUOTE_WIRE_BYTES:
        raise ValueError(f"quote bytes must be {QUOTE_WIRE_BYTES} bytes")
    for part in (n_first, n_second, q_first, q_second):
        if len(part) != 32:
            raise ValueError("nonces and points must be 32 bytes")
    return sha3_256(quote_bytes + n_first + n_second + q_first + q_second)


def is_small_order(point: bytes) -> bool:
    """True if `point` is a small-order X25519 encoding; the ignored top bit is masked."""
    return (int.from_bytes(point, "little") & ~(1 << 255)) in _SMALL_ORDER


def _agree(st: SessionState, point: bytes) -> None:
    """X25519 with the peer's point, then K; a degenerate point aborts WEAK_POINT.

    The ephemeral scalar is cleared whatever the outcome.
    """
    assert st.scalar is not None
    st.peer_point = point
    try:
        shared = st.scalar.exchange(X25519PublicKey.from_public_bytes(point))
        st.k = derive_session_key(shared, *st.nonces())
    except (ValueError, WeakPoint) as exc:  # backend rejects low-order/zero results
        _abort(st, AbortReason.WEAK_POINT, str(exc))
    finally:
        st.scalar = None


def produce_own_quote(dev: DeviceState) -> bytes:
    """Measure, sign in the gate, and stage through AA memory (116 bytes)."""
    with dev.lock:
        measurement = measure(dev.memory, dev.attest_config)
        own = sign_quote_gated(dev, measurement)
        return stage_outgoing_quote(dev, own.to_wire())


def _seal_flight(dev: DeviceState, st: SessionState, direction: Direction, staged: bytes) -> bytes:
    """Our box: the staged quote and the gated transcript signature, sealed under K.

    Our own point comes first in the transcript we sign.
    """
    n_a, n_b = st.nonces()
    digest = transcript_hash(staged, n_a, n_b, st.my_point, st.peer_point)
    sig = sign_transcript_gated(dev, digest)
    return ae_seal(st.k, direction, n_a, n_b, staged + sig)


def _open_flight(dev: DeviceState, st: SessionState, direction: Direction, box: bytes) -> None:
    """Open the peer's box, then check its transcript signature and its quote."""
    n_a, n_b = st.nonces()
    try:
        inner = ae_open(st.k, direction, n_a, n_b, box)
    except AuthenticationFailed:
        _abort(st, AbortReason.BAD_TAG, f"{direction.name} box failed authentication")
    if len(inner) != INNER_BYTES:
        _abort(st, AbortReason.MALFORMED, f"inner plaintext must be {INNER_BYTES} bytes")
    quote_bytes, sig = inner[:QUOTE_WIRE_BYTES], inner[QUOTE_WIRE_BYTES:]
    peer = dev.trust.get(st.peer_id)
    digest = transcript_hash(quote_bytes, n_a, n_b, st.peer_point, st.my_point)
    if not signature_valid(peer.verify_key, digest, sig):
        _abort(st, AbortReason.BAD_SIGNATURE, "transcript signature rejected")
    try:
        peer_quote = Quote.from_wire(quote_bytes)
    except MalformedMessage as exc:
        _abort(st, AbortReason.MALFORMED, str(exc))
    reason = verify_quote(peer.verify_key, peer_quote, *peer.expected)
    if reason is AbortReason.BAD_SIGNATURE:
        _abort(st, reason, "quote signature rejected")
    if reason is not None:
        _abort(st, reason, f"{st.peer_id}: unexpected measurement")


# --- protocol operations ----------------------------------------------------

def initiate(dev: DeviceState, peer_id: str) -> tuple[SessionState, WireM1]:
    """A's first flight: fresh nonce and ephemeral point plus the AR flag."""
    st = SessionState(role=Role.INITIATOR, peer_id=dev.trust.resolve(peer_id))
    st.my_nonce = urandom(NONCE_BYTES)
    st.phase = Phase.SENT_M1
    return st, WireM1(st.my_nonce, st.my_point)


def respond_m1(
    dev: DeviceState, m1: WireM1, peer_id: str | None = None
) -> tuple[SessionState, WireM2]:
    """B's flight: derive K, then measure, sign, and return the sealed quote.

    M1 carries no identity (the paper leaves peer naming to the channel, e.g.
    IP address), so the caller names the peer; with a single provisioned peer
    it may be omitted.
    """
    peer_id = dev.trust.resolve(peer_id)
    if is_small_order(m1.point):  # before any X25519 work; _agree stays the backstop
        raise ProtocolAbort(AbortReason.WEAK_POINT, "small-order X25519 point")

    st = SessionState(role=Role.RESPONDER, peer_id=peer_id)
    st.my_nonce = urandom(NONCE_BYTES)
    st.peer_nonce = m1.nonce
    _agree(st, m1.point)
    box = _seal_flight(dev, st, Direction.M2, produce_own_quote(dev))
    st.phase = Phase.SENT_M2
    return st, WireM2(st.my_nonce, st.my_point, box)


def process_m2(
    dev: DeviceState, st: SessionState, m2: WireM2, staged: bytes
) -> tuple[SessionState, WireM3]:
    """A validates B's flight, then answers with its staged quote.

    `staged` is A's own quote from `produce_own_quote`, made after M1 was sent.
    """
    if st.role is not Role.INITIATOR or st.phase is not Phase.SENT_M1:
        raise ProtocolStateError(f"M2 not acceptable in phase {st.phase.value}")
    st.peer_nonce = m2.nonce
    _agree(st, m2.point)
    _open_flight(dev, st, Direction.M2, m2.box)
    box = _seal_flight(dev, st, Direction.M3, staged)
    st.phase = Phase.ESTABLISHED
    return st, WireM3(box)


def process_m3(dev: DeviceState, st: SessionState, m3: WireM3) -> SessionState:
    """B validates A's flight; only then is the session key released."""
    if st.role is not Role.RESPONDER or st.phase is not Phase.SENT_M2:
        raise ProtocolStateError(f"M3 not acceptable in phase {st.phase.value}")
    assert st.k is not None
    _open_flight(dev, st, Direction.M3, m3.box)
    st.phase = Phase.ESTABLISHED
    return st
