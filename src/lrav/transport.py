"""Length-prefixed framing over byte-stream endpoints: TCP and in-process.

Frame layout (all integers big-endian):

    magic   4 bytes  "LRAV"
    version 1 byte   0x01
    type    1 byte   0x01=M1  0x02=M2  0x03=M3  0xFF=error
    length  4 bytes  payload byte count, capped at 65536
    payload

The in-process channel (`channel_pair`) is a `socket.socketpair()`, so it
has the kernel's stream semantics, as TCP does. Any endpoint takes one
send hook, so tests can drop, duplicate, reorder or mutate frames. The hook
is set before a run starts, never mid-run.
"""

from __future__ import annotations

import socket
import struct
import time
from typing import Callable, Iterable, NamedTuple

from .errors import BadMagic, BadVersion, ChannelClosed, Oversize, TransportTimeout, Truncated

MAGIC = b"LRAV"
VERSION = 0x01
HEADER_BYTES = 10
MAX_PAYLOAD = 65536
DEFAULT_TIMEOUT = 5.0
# The longest timeout: CPython passes a socket's timeout to poll(2) in
# milliseconds as a C int, so a longer one wraps: 4294968 s (2**32 + 704 ms)
# times out after 0.7 s.
MAX_TIMEOUT_S = 2_147_483

MSG_M1 = 0x01
MSG_M2 = 0x02
MSG_M3 = 0x03
MSG_ERROR = 0xFF
_VALID_TYPES = frozenset({MSG_M1, MSG_M2, MSG_M3, MSG_ERROR})

_HEADER = struct.Struct(">4sBBI")

FrameHook = Callable[[bytes], Iterable[bytes]]


def _check_timeout(timeout: float) -> float:
    if not timeout <= MAX_TIMEOUT_S:  # also true for nan
        raise ValueError(f"timeout must be at most {MAX_TIMEOUT_S} seconds, got {timeout!r}")
    return timeout


class Frame(NamedTuple):
    msg_type: int
    payload: bytes


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    if msg_type not in _VALID_TYPES:
        raise ValueError(f"unknown frame type {msg_type:#04x}")
    if len(payload) > MAX_PAYLOAD:
        raise Oversize(f"payload of {len(payload)} bytes exceeds cap {MAX_PAYLOAD}")
    return _HEADER.pack(MAGIC, VERSION, msg_type, len(payload)) + payload


def decode_frame(data: bytes) -> tuple[Frame, bytes]:
    """Decode exactly one frame; returns it plus unconsumed stream bytes.

    Truncated means "feed me more bytes" and is the only non-fatal outcome.
    A type byte outside the version-1 set is reported as BadVersion, since
    the valid type set is defined by the protocol version.
    """
    probe = min(len(data), len(MAGIC))
    if data[:probe] != MAGIC[:probe]:
        raise BadMagic(f"bad frame magic {data[:probe]!r}")
    if len(data) < HEADER_BYTES:
        raise Truncated("incomplete frame header")
    _, version, msg_type, length = _HEADER.unpack_from(data)  # magic checked above
    if version != VERSION:
        raise BadVersion(f"unsupported frame version {version:#04x}")
    if msg_type not in _VALID_TYPES:
        raise BadVersion(f"unknown frame type {msg_type:#04x} for version 1")
    if length > MAX_PAYLOAD:
        raise Oversize(f"declared payload of {length} bytes exceeds cap {MAX_PAYLOAD}")
    if len(data) < HEADER_BYTES + length:
        raise Truncated("incomplete frame payload")
    end = HEADER_BYTES + length
    return Frame(msg_type, data[HEADER_BYTES:end]), data[end:]


class TcpEndpoint:
    """One side of a framed byte stream over a connected socket.

    `send_hook`, if set, sees each encoded frame before it goes out and
    returns the frames to send in its place; unset, a frame goes out as is.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._rx = b""
        self.send_hook: FrameHook | None = None

    def send_frame(self, msg_type: int, payload: bytes) -> None:
        frames = (encode_frame(msg_type, payload),)
        if self.send_hook is not None:
            frames = self.send_hook(frames[0])
        try:
            for data in frames:
                self._sock.sendall(data)
        except OSError as exc:
            raise ChannelClosed(str(exc)) from exc

    def recv_frame(self, timeout: float = DEFAULT_TIMEOUT) -> Frame:
        """Next frame; TransportTimeout unless all of it arrives within `timeout`.

        The deadline covers the whole frame, so a peer that drips bytes
        cannot hold the receiver past it. Zero or less has already expired.
        """
        deadline = time.monotonic() + _check_timeout(timeout)
        while True:
            try:
                frame, rest = decode_frame(self._rx)
            except Truncated:
                remaining = deadline - time.monotonic()
                chunk = self._recv_chunk(remaining) if remaining > 0 else None
                if chunk is None:
                    raise TransportTimeout(f"no frame within {timeout:.1f}s") from None
                self._rx += chunk
                continue
            self._rx = rest
            return frame

    def _recv_chunk(self, timeout: float) -> bytes | None:
        """Next chunk of bytes, or None if none arrives within `timeout` seconds."""
        try:
            self._sock.settimeout(timeout)
            chunk = self._sock.recv(4096)
        except socket.timeout:
            return None
        except OSError as exc:
            raise ChannelClosed(str(exc)) from exc
        if chunk == b"":
            raise ChannelClosed("peer closed the connection")
        return chunk

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class MemoryEndpoint(TcpEndpoint):
    """One side of an in-process channel: a `socket.socketpair()` end."""


def channel_pair() -> tuple[MemoryEndpoint, MemoryEndpoint]:
    """Two connected in-process endpoints; the caller closes both."""
    a, b = socket.socketpair()
    return MemoryEndpoint(a), MemoryEndpoint(b)


class TcpListener:
    """A listening socket that several threads may accept on at once."""

    def __init__(self, host: str, port: int):
        # the family of the host's first address, as create_server defaults to IPv4;
        # SO_REUSEADDR, and the socket is closed if bind fails
        family = socket.getaddrinfo(host, port, type=socket.SOCK_STREAM)[0][0]
        self._sock = socket.create_server((host, port), family=family)

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()[:2]

    def accept(self, timeout: float | None = None) -> TcpEndpoint:
        """Next connection; with a timeout, TransportTimeout if none arrives in time.

        Without one the shared socket stays blocking and untouched, so
        concurrent acceptors make no per-call mode switch.
        """
        if timeout is not None:
            self._sock.settimeout(_check_timeout(timeout))
        try:
            conn, _ = self._sock.accept()
        except socket.timeout:
            raise TransportTimeout("no incoming connection") from None
        return TcpEndpoint(conn)

    def close(self) -> None:
        self._sock.close()


def dial(host: str, port: int, timeout: float = DEFAULT_TIMEOUT) -> TcpEndpoint:
    sock = socket.create_connection((host, port), timeout=_check_timeout(timeout))
    return TcpEndpoint(sock)
