"""Drives one protocol session over a transport endpoint.

Each role is straight-line code, and every session that does not establish
ends in `_early_end` with one `Outcome`: TIMEOUT for a receive deadline,
CLOSED for a channel closed under a send or a receive, FAILED for an
undecodable frame, PEER_ABORTED for the peer's error frame (recorded, never
trusted), or ABORTED for a local abort (`reason`), which first sends one
plaintext courtesy error frame (type 0xFF, one reason byte). Any session
state is left ABORTED with K and the X25519 scalar dropped
(`SessionState.abort`).
A caller error is the caller's mistake, not the peer's, and propagates: an
unprovisioned peer (`UnknownPeer`), a device whose gate will not sign
(`GateViolation`), a message fed in the wrong phase (`ProtocolStateError`).
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass
from typing import Optional

from . import transport
from .crtm import sha3_256
from .device import DeviceState
from .errors import (
    ChannelClosed,
    FrameError,
    MalformedMessage,
    ProtocolAbort,
    TransportTimeout,
)
from .protocol import (
    AbortReason,
    SessionState,
    WireM1,
    WireM2,
    WireM3,
    initiate,
    process_m2,
    process_m3,
    produce_own_quote,
    respond_m1,
)


class Outcome(enum.Enum):
    """How a session ended."""

    ESTABLISHED = "established"
    ABORTED = "aborted"  # by us, for `reason`
    PEER_ABORTED = "peer-aborted"  # `reason` is None for a missing or unknown reason byte
    TIMEOUT = "timeout"
    CLOSED = "closed"  # the channel closed under a send or a receive
    FAILED = "failed"  # an undecodable frame


@dataclass
class SessionResult:
    outcome: Outcome
    state: Optional[SessionState] = None
    reason: Optional[AbortReason] = None
    error: Optional[str] = None

    @property
    def established(self) -> bool:
        return self.outcome is Outcome.ESTABLISHED

    @property
    def peer_reported(self) -> bool:
        return self.outcome is Outcome.PEER_ABORTED

    @property
    def session_key(self) -> bytes:
        assert self.state is not None
        return self.state.session_key()

    def describe(self) -> str:
        if self.outcome in (Outcome.ESTABLISHED, Outcome.TIMEOUT):
            return self.outcome.value
        if self.outcome in (Outcome.CLOSED, Outcome.FAILED):
            return f"{self.outcome.value} ({self.error})"
        if self.outcome is Outcome.PEER_ABORTED:
            return f"aborted (peer reported {getattr(self.reason, 'name', 'UNKNOWN')})"
        return f"aborted ({self.reason.name})"


def key_fingerprint(key: bytes) -> str:
    """Loggable 8-hex-char identifier for a session key; never the key itself."""
    return sha3_256(key).hex()[:8]


class _PeerAbort(Exception):
    """The peer's error frame; `reason` is None for a missing or unknown reason byte."""

    def __init__(self, payload: bytes):
        super().__init__()
        try:
            self.reason = AbortReason(payload[0])
        except (IndexError, ValueError):
            self.reason = None


_EARLY_ENDS = (TransportTimeout, ChannelClosed, FrameError, _PeerAbort, ProtocolAbort)


def _early_end(ep, st: SessionState | None, exc: Exception) -> SessionResult:
    """The result of a session that ended before Established (see the module docstring)."""
    reason = getattr(exc, "reason", None)
    if st is not None:
        st.abort(reason)
    if isinstance(exc, TransportTimeout):
        return SessionResult(Outcome.TIMEOUT, st)
    if isinstance(exc, ChannelClosed):
        return SessionResult(Outcome.CLOSED, st, error=str(exc))
    if isinstance(exc, FrameError):
        return SessionResult(Outcome.FAILED, st, error=str(exc))
    if isinstance(exc, _PeerAbort):
        return SessionResult(Outcome.PEER_ABORTED, st, reason)
    try:  # a local ProtocolAbort
        ep.send_frame(transport.MSG_ERROR, bytes([reason]))
    except ChannelClosed:
        pass
    return SessionResult(Outcome.ABORTED, st, reason, str(exc))


def _recv(ep, msg_type: int, wire, timeout: float):
    """The next message, parsed; anything else raises one of `_EARLY_ENDS`."""
    frame = ep.recv_frame(timeout)
    if frame.msg_type == transport.MSG_ERROR:
        raise _PeerAbort(frame.payload)
    if frame.msg_type != msg_type:
        raise ProtocolAbort(AbortReason.MALFORMED, f"unexpected frame type {frame.msg_type:#04x}")
    try:
        return wire.unpack(frame.payload)
    except MalformedMessage as exc:
        raise ProtocolAbort(AbortReason.MALFORMED, str(exc)) from None


def run_initiator(
    dev: DeviceState,
    ep,
    peer_id: str,
    timeout: float = transport.DEFAULT_TIMEOUT,
) -> SessionResult:
    """Run the A role to completion over an open endpoint.

    A measures right after sending M1, while the responder measures too.
    """
    st, m1 = initiate(dev, peer_id)
    try:
        ep.send_frame(transport.MSG_M1, m1.pack())
        staged = produce_own_quote(dev)
        m2 = _recv(ep, transport.MSG_M2, WireM2, timeout)
        st, m3 = process_m2(dev, st, m2, staged)
        ep.send_frame(transport.MSG_M3, m3.pack())
    except _EARLY_ENDS as exc:
        return _early_end(ep, st, exc)
    return SessionResult(Outcome.ESTABLISHED, st)


def run_responder(
    dev: DeviceState,
    ep,
    peer_id: str | None = None,
    timeout: float = transport.DEFAULT_TIMEOUT,
) -> SessionResult:
    """Run the B role for one session over an open endpoint.

    `timeout` bounds the whole session: M1 and M3 must both arrive within
    `timeout` of the call, so a peer that sends each frame late holds B for
    one deadline, not two.
    """
    deadline = time.monotonic() + timeout
    st = None
    try:
        m1 = _recv(ep, transport.MSG_M1, WireM1, timeout)
        st, m2 = respond_m1(dev, m1, peer_id)
        ep.send_frame(transport.MSG_M2, m2.pack())
        m3 = _recv(ep, transport.MSG_M3, WireM3, deadline - time.monotonic())
        process_m3(dev, st, m3)
    except _EARLY_ENDS as exc:
        return _early_end(ep, st, exc)
    return SessionResult(Outcome.ESTABLISHED, st)


def run_pair(
    dev_a: DeviceState,
    dev_b: DeviceState,
    *,
    a_hook: Optional[transport.FrameHook] = None,
    b_hook: Optional[transport.FrameHook] = None,
    timeout: float = transport.DEFAULT_TIMEOUT,
) -> tuple[SessionResult, SessionResult]:
    """One handshake over an in-process channel: B on a worker thread, A inline.

    Each hook becomes the send hook of that side's endpoint. Peer ids are the
    devices' own ids. Both ends close once both roles are done. Returns
    (A's result, B's result). A caller error in either role is raised here,
    as itself; that role's end closes first, so the other role ends at once.
    """
    ep_a, ep_b = transport.channel_pair()
    ep_a.send_hook, ep_b.send_hook = a_hook, b_hook
    res_b: list[SessionResult | Exception] = []

    def respond():
        try:
            res_b.append(run_responder(dev_b, ep_b, dev_a.device_id, timeout))
        except Exception as exc:
            res_b.append(exc)
            ep_b.close()

    worker = threading.Thread(target=respond)
    worker.start()
    try:
        res_a = run_initiator(dev_a, ep_a, dev_b.device_id, timeout)
    except BaseException:
        ep_a.close()
        raise
    finally:
        worker.join()
        ep_a.close()
        ep_b.close()
    if isinstance(res_b[0], Exception):
        raise res_b[0]
    return res_a, res_b[0]
