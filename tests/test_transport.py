import math
import random
import socket
import threading
import time

import pytest

from lrav import transport
from lrav.errors import (
    BadMagic,
    BadVersion,
    ChannelClosed,
    Oversize,
    TransportTimeout,
    Truncated,
)
from lrav.transport import (
    MSG_M1,
    MSG_M2,
    TcpListener,
    channel_pair,
    decode_frame,
    dial,
    encode_frame,
)


class TestFrameCodec:
    def test_m1_frame_is_75_bytes(self):
        assert len(encode_frame(MSG_M1, bytes(65))) == 75  # 4+1+1+4+65

    def test_roundtrip(self, rng):
        for _ in range(200):
            msg_type = rng.choice([0x01, 0x02, 0x03, 0xFF])
            payload = rng.randbytes(rng.randrange(0, 300))
            frame, rest = decode_frame(encode_frame(msg_type, payload))
            assert frame == (msg_type, payload)
            assert rest == b""

    def test_bad_magic(self):
        data = b"XRAV" + encode_frame(MSG_M1, b"x")[4:]
        with pytest.raises(BadMagic):
            decode_frame(data)
        # an early mismatch is reported before the header completes
        with pytest.raises(BadMagic):
            decode_frame(b"XR")

    def test_bad_version(self):
        data = bytearray(encode_frame(MSG_M1, b"x"))
        data[4] = 0x02
        with pytest.raises(BadVersion):
            decode_frame(bytes(data))

    def test_unknown_type_rejected(self):
        data = bytearray(encode_frame(MSG_M1, b"x"))
        data[5] = 0x7A
        with pytest.raises(BadVersion):
            decode_frame(bytes(data))

    def test_oversize(self):
        header = transport._HEADER.pack(b"LRAV", 1, MSG_M1, transport.MAX_PAYLOAD + 1)
        with pytest.raises(Oversize):
            decode_frame(header)
        with pytest.raises(Oversize):
            encode_frame(MSG_M1, bytes(transport.MAX_PAYLOAD + 1))

    def test_truncated_header_and_payload(self):
        full = encode_frame(MSG_M2, b"hello world")
        for cut in (4, 5, 9, 10, len(full) - 1):
            with pytest.raises(Truncated):
                decode_frame(full[:cut])

    def test_concatenation_is_self_delimiting(self, rng):
        frames = [
            (rng.choice([1, 2, 3, 0xFF]), rng.randbytes(rng.randrange(0, 100)))
            for _ in range(20)
        ]
        stream = b"".join(encode_frame(t, p) for t, p in frames)
        decoded = []
        while stream:
            frame, stream = decode_frame(stream)
            decoded.append((frame.msg_type, frame.payload))
        assert decoded == frames

    def test_fuzz_smoke_only_known_outcomes(self):
        rng = random.Random(0xF022)
        for _ in range(10_000):
            data = rng.randbytes(rng.randrange(0, 40))
            try:
                frame, rest = decode_frame(data)
                assert len(frame.payload) <= transport.MAX_PAYLOAD
            except (BadMagic, BadVersion, Oversize, Truncated):
                pass


class TestMemoryChannel:
    @pytest.fixture
    def pair(self):
        a, b = channel_pair()
        yield a, b
        a.close()
        b.close()

    def test_roundtrip(self, pair):
        a, b = pair
        a.send_frame(MSG_M1, b"ping")
        assert b.recv_frame(timeout=1.0) == (MSG_M1, b"ping")
        b.send_frame(MSG_M2, b"pong")
        assert a.recv_frame(timeout=1.0) == (MSG_M2, b"pong")

    def test_drop_hook_times_out_receiver(self, pair):
        a, b = pair
        a.send_hook = lambda data: ()
        a.send_frame(MSG_M1, b"lost")
        with pytest.raises(TransportTimeout):
            b.recv_frame(timeout=0.05)

    def test_duplicate_hook_delivers_twice(self, pair):
        a, b = pair
        a.send_hook = lambda data: (data, data)
        a.send_frame(MSG_M1, b"twice")
        assert b.recv_frame(timeout=0.5).payload == b"twice"
        assert b.recv_frame(timeout=0.5).payload == b"twice"

    def test_reorder_hook(self, pair):
        held = []

        def hold_then_swap(data):
            if not held:
                held.append(data)
                return ()
            return (data, held.pop())

        a, b = pair
        a.send_hook = hold_then_swap
        a.send_frame(MSG_M1, b"first")
        a.send_frame(MSG_M2, b"second")
        assert b.recv_frame(timeout=0.5).payload == b"second"
        assert b.recv_frame(timeout=0.5).payload == b"first"

    def test_mutate_hook_corrupts_payload(self, pair):
        def flip(data):
            body = bytearray(data)
            body[-1] ^= 0xFF
            return (bytes(body),)

        a, b = pair
        a.send_hook = flip
        a.send_frame(MSG_M1, b"\x00")
        assert b.recv_frame(timeout=0.5).payload == b"\xff"

    def test_closed_channel(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(ChannelClosed):
            a.send_frame(MSG_M1, b"late")
        with pytest.raises(ChannelClosed):
            b.recv_frame(timeout=0.5)

    def test_send_after_peer_close_fails(self, pair):
        # as over TCP, a frame the peer can no longer read is not sent silently
        a, b = pair
        b.close()
        with pytest.raises(ChannelClosed):
            a.send_frame(MSG_M1, b"unheard")


class TestTcp:
    def test_loopback_roundtrip(self):
        listener = TcpListener("127.0.0.1", 0)
        host, port = listener.address
        got = {}

        def server():
            ep = listener.accept(timeout=2.0)
            got["frame"] = ep.recv_frame(timeout=2.0)
            ep.send_frame(MSG_M2, b"reply")
            ep.close()

        worker = threading.Thread(target=server)
        worker.start()
        client = dial(host, port, timeout=2.0)
        client.send_frame(MSG_M1, b"hello")
        assert client.recv_frame(timeout=2.0) == (MSG_M2, b"reply")
        worker.join()
        client.close()
        listener.close()
        assert got["frame"] == (MSG_M1, b"hello")

    def test_recv_timeout(self):
        listener = TcpListener("127.0.0.1", 0)
        host, port = listener.address
        accepted = {}
        background = threading.Thread(
            target=lambda: accepted.update(ep=listener.accept(timeout=2.0))
        )
        background.start()
        client = dial(host, port, timeout=2.0)
        background.join()  # hold the accepted endpoint open, send nothing
        with pytest.raises(TransportTimeout):
            client.recv_frame(timeout=0.05)
        client.close()
        accepted["ep"].close()
        listener.close()


@pytest.mark.parametrize("timeout", [4294967.796, math.inf, math.nan], ids=["wraps", "inf", "nan"])
def test_timeouts_the_socket_layer_cannot_take_are_refused(timeout):
    # 4294967.796 s is 2**32 ms + 500 ms, which a socket's poll(2) wraps to 0.5 s
    listener = TcpListener("127.0.0.1", 0)
    a, b = channel_pair()
    try:
        start = time.monotonic()
        with pytest.raises(ValueError, match="at most 2147483 seconds"):
            dial(*listener.address, timeout=timeout).close()
        with pytest.raises(ValueError, match="at most 2147483 seconds"):
            a.recv_frame(timeout)
        with pytest.raises(ValueError, match="at most 2147483 seconds"):
            listener.accept(timeout=timeout).close()
        assert time.monotonic() - start < 0.25
    finally:
        a.close()
        b.close()
        listener.close()


@pytest.mark.parametrize("timeout", [0, -1.0])
def test_an_expired_deadline_is_a_timeout(timeout):
    # run_responder passes what is left of its deadline, which may be nothing
    a, b = channel_pair()
    try:
        with pytest.raises(TransportTimeout):
            a.recv_frame(timeout)
    finally:
        a.close()
        b.close()


def test_recv_deadline_covers_the_whole_frame():
    # a peer dripping one byte per 0.1 s must not hold a 0.5 s receive open
    mine, peer = socket.socketpair()
    ep = transport.TcpEndpoint(mine)
    frame = encode_frame(MSG_M1, bytes(65))
    stop = threading.Event()

    def drip():
        for i in range(20):  # 2 s of drip, a fraction of the frame
            if stop.wait(0.1):
                return
            peer.sendall(frame[i:i + 1])

    dripper = threading.Thread(target=drip)
    dripper.start()
    start = time.monotonic()
    try:
        with pytest.raises(TransportTimeout):
            ep.recv_frame(timeout=0.5)
        assert time.monotonic() - start < 0.75
    finally:
        stop.set()
        dripper.join(timeout=5)
        ep.close()
        peer.close()
    assert not dripper.is_alive()
