"""Drives one protocol session over a transport endpoint.

On any local abort a single plaintext error frame (type 0xFF, one reason
byte) is sent as a courtesy; a received error frame is recorded but never
trusted. Timeouts and closed channels are reported distinctly so the attack
harness can tell non-response from rejection.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Optional

from . import transport
from .device import DeviceState
from .errors import (
    ChannelClosed,
    FrameError,
    MalformedMessage,
    ProtocolAbort,
    TransportTimeout,
    UnknownPeer,
)
from .protocol import (
    AbortReason,
    Phase,
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


@dataclass
class SessionResult:
    established: bool
    state: Optional[SessionState] = None
    reason: Optional[AbortReason] = None
    peer_reported: bool = False
    timed_out: bool = False
    closed: bool = False  # the channel closed under a send or a receive
    error: Optional[str] = None

    @property
    def session_key(self) -> bytes:
        assert self.state is not None
        return self.state.session_key()

    def describe(self) -> str:
        if self.established:
            return "established"
        if self.timed_out:
            return "timeout"
        if self.closed:
            return f"closed ({self.error})"
        if self.reason is not None:
            source = "peer reported " if self.peer_reported else ""
            return f"aborted ({source}{self.reason.name})"
        return f"failed ({self.error})"


def key_fingerprint(key: bytes) -> str:
    """Loggable 8-hex-char identifier for a session key; never the key itself."""
    return hashlib.sha3_256(key).hexdigest()[:8]


def _send_error(ep, reason: AbortReason) -> None:
    try:
        ep.send_frame(transport.MSG_ERROR, bytes([reason]))
    except (ChannelClosed, OSError):
        pass


def _peer_error_result(st: SessionState | None, payload: bytes) -> SessionResult:
    try:
        reason = AbortReason(payload[0])
    except (IndexError, ValueError):  # empty payload or unknown reason byte
        reason = None
    if st is not None:
        st.phase = Phase.ABORTED
        st.abort_reason = reason
    return SessionResult(False, st, reason=reason, peer_reported=True)


def _local_abort(ep, st: SessionState | None, reason: AbortReason, detail: str) -> SessionResult:
    if st is not None:
        st.phase = Phase.ABORTED
        st.abort_reason = reason
    _send_error(ep, reason)
    return SessionResult(False, st, reason=reason, error=detail)


def _recv_message(ep, st: SessionState | None, msg_type: int, wire, timeout: float):
    """Receive and parse the next protocol message.

    Returns (message, None), or (None, result) when the session ends here:
    timeout, closed channel, undecodable frame, peer error frame, or an
    unexpected or malformed message.
    """
    try:
        frame = ep.recv_frame(timeout)
    except TransportTimeout:
        return None, SessionResult(False, st, timed_out=True)
    except ChannelClosed as exc:
        return None, SessionResult(False, st, closed=True, error=str(exc))
    except FrameError as exc:
        return None, SessionResult(False, st, error=str(exc))
    if frame.msg_type == transport.MSG_ERROR:
        return None, _peer_error_result(st, frame.payload)
    if frame.msg_type != msg_type:
        detail = f"unexpected frame type {frame.msg_type:#04x}"
        return None, _local_abort(ep, st, AbortReason.MALFORMED, detail)
    try:
        return wire.unpack(frame.payload), None
    except MalformedMessage as exc:
        return None, _local_abort(ep, st, AbortReason.MALFORMED, str(exc))


def run_initiator(
    dev: DeviceState,
    ep,
    peer_id: str,
    timeout: float = transport.DEFAULT_TIMEOUT,
) -> SessionResult:
    """Run the A role to completion over an open endpoint.

    A measures right after sending M1, while the responder measures too.
    """
    st, m1 = initiate(dev, peer_id)  # UnknownPeer is a caller error; let it raise
    ep.send_frame(transport.MSG_M1, m1.pack())
    staged = produce_own_quote(dev)
    m2, ended = _recv_message(ep, st, transport.MSG_M2, WireM2, timeout)
    if ended is not None:
        return ended
    try:
        st, m3 = process_m2(dev, st, m2, staged)
    except ProtocolAbort as exc:
        return _local_abort(ep, st, exc.reason, str(exc))
    ep.send_frame(transport.MSG_M3, m3.pack())
    return SessionResult(True, st)


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
    m1, ended = _recv_message(ep, None, transport.MSG_M1, WireM1, timeout)
    if ended is not None:
        return ended
    try:
        st, m2 = respond_m1(dev, m1, peer_id)
    except ProtocolAbort as exc:
        return _local_abort(ep, None, exc.reason, str(exc))
    except UnknownPeer as exc:
        return _local_abort(ep, None, AbortReason.MALFORMED, str(exc))
    try:
        ep.send_frame(transport.MSG_M2, m2.pack())
    except ChannelClosed as exc:  # the peer left after M1: fail this session only
        return SessionResult(False, st, closed=True, error=str(exc))
    m3, ended = _recv_message(ep, st, transport.MSG_M3, WireM3, deadline - time.monotonic())
    if ended is not None:
        return ended
    try:
        st = process_m3(dev, st, m3)
    except ProtocolAbort as exc:
        return _local_abort(ep, st, exc.reason, str(exc))
    return SessionResult(True, st)


def run_pair(
    dev_a: DeviceState,
    dev_b: DeviceState,
    *,
    a_hooks=(),
    b_hooks=(),
    timeout: float = transport.DEFAULT_TIMEOUT,
) -> tuple[SessionResult, SessionResult]:
    """One handshake over an in-memory channel: B on a worker thread, A inline.

    Each hook becomes a send hook on that side's endpoint. Peer ids are the
    devices' own ids. Returns (A's result, B's result).
    """
    ep_a, ep_b = transport.channel_pair()
    for hook in a_hooks:
        ep_a.add_send_hook(hook)
    for hook in b_hooks:
        ep_b.add_send_hook(hook)
    res_b: list[SessionResult] = []
    worker = threading.Thread(
        target=lambda: res_b.append(run_responder(dev_b, ep_b, dev_a.device_id, timeout))
    )
    worker.start()
    try:
        res_a = run_initiator(dev_a, ep_a, dev_b.device_id, timeout)
    finally:
        worker.join()
    return res_a, res_b[0]
