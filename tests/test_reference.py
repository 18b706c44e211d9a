"""An independent reference for the handshake's wire bytes.

It rebuilds the golden transcript's three frames from the protocol
description in `lrav.protocol` and `lrav.transport`, with no lrav code:
hashlib for SHA3-256 (KDF, box nonces, transcript hash, CRTM chain) and
libsodium for X25519, Ed25519 and XSalsa20-Poly1305.
"""

import ctypes
import hashlib
import random
import struct

import pytest

from conftest import libsodium
from oracles import GOLDEN_TRANSCRIPT, recursive_chain_digest

FLASH_BASE = 0x2000_0000
BLOCK = 1024
AR = b"\x01"


def frame(msg_type: int, payload: bytes) -> bytes:
    return b"LRAV" + struct.pack(">BBI", 1, msg_type, len(payload)) + payload


class Party:
    """One side's long-term key, firmware quote and session draws."""

    def __init__(self, lib, seed_entropy: bytes, firmware: bytes, draws: random.Random):
        self.lib = lib
        self.pk, self.sk = ctypes.create_string_buffer(32), ctypes.create_string_buffer(64)
        seed = hashlib.sha3_256(seed_entropy).digest()
        assert lib.crypto_sign_ed25519_seed_keypair(self.pk, self.sk, seed) == 0
        self.scalar = draws.randbytes(32)
        self.nonce = draws.randbytes(32)
        point = ctypes.create_string_buffer(32)
        assert lib.crypto_scalarmult_curve25519_base(point, self.scalar) == 0
        self.point = point.raw
        pack = struct.pack(">QQI", FLASH_BASE, FLASH_BASE + len(firmware), BLOCK)
        pack += recursive_chain_digest(firmware, BLOCK)
        self.quote = pack + self.sign(pack)

    def sign(self, message: bytes) -> bytes:
        sig = ctypes.create_string_buffer(64)
        assert self.lib.crypto_sign_ed25519_detached(
            sig, None, message, ctypes.c_ulonglong(len(message)), self.sk) == 0
        return sig.raw

    def shared(self, peer_point: bytes) -> bytes:
        out = ctypes.create_string_buffer(32)
        assert self.lib.crypto_scalarmult_curve25519(out, self.scalar, peer_point) == 0
        return out.raw

    def flight(self, direction: int, key: bytes, n_a: bytes, n_b: bytes, peer: "Party") -> bytes:
        """Our quote and transcript signature (our point first), boxed under K."""
        digest = hashlib.sha3_256(self.quote + n_a + n_b + self.point + peer.point).digest()
        inner = self.quote + self.sign(digest)
        nonce = hashlib.sha3_256(b"LIRA-V/1/AE" + bytes([direction]) + n_a + n_b).digest()[:24]
        box = ctypes.create_string_buffer(16 + len(inner))
        assert self.lib.crypto_secretbox_easy(
            box, inner, ctypes.c_ulonglong(len(inner)), nonce, key) == 0
        return box.raw


def test_reference_reproduces_golden_transcript():
    lib = libsodium()
    if lib is None:
        pytest.skip("libsodium.so.23 not available")
    draws = random.Random(0x601D)  # A ephemeral, A nonce, B ephemeral, B nonce
    firmware = random.Random(0xF1).randbytes(16 * 1024)
    a = Party(lib, b"A" * 32, firmware[:8192], draws)
    b = Party(lib, b"B" * 32, firmware[8192:], draws)
    n_a, n_b = a.nonce, b.nonce
    key = hashlib.sha3_256(b"LIRA-V/1/KDF" + b.shared(a.point) + n_a + n_b).digest()
    assert key == hashlib.sha3_256(b"LIRA-V/1/KDF" + a.shared(b.point) + n_a + n_b).digest()

    frames = [
        frame(0x01, n_a + a.point + AR),
        frame(0x02, n_b + b.point + AR + b.flight(0x02, key, n_a, n_b, a)),
        frame(0x03, a.flight(0x03, key, n_a, n_b, b)),
    ]
    assert [len(f) for f in frames] == [75, 271, 206]
    assert hashlib.sha256(b"".join(frames)).hexdigest() == GOLDEN_TRANSCRIPT
