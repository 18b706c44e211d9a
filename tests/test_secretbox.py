import ctypes
import hashlib
import random
import struct

import pytest

from lrav import _native, secretbox
from lrav.errors import AuthenticationFailed
from lrav.secretbox import open_box, seal

from conftest import libsodium
from oracles import (
    hsalsa20_oracle, salsa_core_block, salsa_expansion, salsa_rounds, xsalsa20_oracle,
)

NATIVE = _native.EXT
# the pure-Python oracle twin, then the native implementation
XORS = [xsalsa20_oracle, NATIVE.xsalsa20_xor]

# "Cryptography in NaCl", section 10: HSalsa20 of the Curve25519 shared secret
# gives firstkey, HSalsa20 of firstkey and the nonce's first 16 bytes secondkey.
NACL_SHARED = bytes.fromhex("4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742")
NACL_FIRSTKEY = bytes.fromhex("1b27556473e985d462cd51197a9a46c76009549eac6474f206c4ee0844f68389")
NACL_NONCE = bytes.fromhex("69696ee955b62b73cd62bda875fc73d68219e0036b7a0b37")
NACL_SECONDKEY = bytes.fromhex("dc908dda0b9344a953629b733820778880f3ceb421bb61b91cbd4c3e66256ce4")


class TestSalsaCore:
    """Known answers from the Salsa20 and NaCl papers, and the expansion's layout."""

    def test_core_matches_the_salsa20_spec_examples(self):
        # Salsa20 specification, section 8: the Salsa20 hash of two 64-byte inputs
        examples = [
            (bytes([211, 159, 13, 115, 76, 55, 82, 183, 3, 117, 222, 37, 191, 187, 234, 136,
                    49, 237, 179, 48, 1, 106, 178, 219, 175, 199, 166, 48, 86, 16, 179, 207,
                    31, 240, 32, 63, 15, 83, 93, 161, 116, 147, 48, 113, 238, 55, 204, 36,
                    79, 201, 235, 79, 3, 81, 156, 47, 203, 26, 244, 243, 88, 118, 104, 54]),
             bytes([109, 42, 178, 168, 156, 240, 248, 238, 168, 196, 190, 203, 26, 110, 170, 154,
                    29, 29, 150, 26, 150, 30, 235, 249, 190, 163, 251, 48, 69, 144, 51, 57,
                    118, 40, 152, 157, 180, 57, 27, 94, 107, 42, 236, 35, 27, 111, 114, 114,
                    219, 236, 232, 135, 111, 155, 110, 18, 24, 232, 95, 158, 179, 19, 48, 202])),
            (bytes([88, 118, 104, 54, 79, 201, 235, 79, 3, 81, 156, 47, 203, 26, 244, 243,
                    191, 187, 234, 136, 211, 159, 13, 115, 76, 55, 82, 183, 3, 117, 222, 37,
                    86, 16, 179, 207, 49, 237, 179, 48, 1, 106, 178, 219, 175, 199, 166, 48,
                    238, 55, 204, 36, 31, 240, 32, 63, 15, 83, 93, 161, 116, 147, 48, 113]),
             bytes([179, 19, 48, 202, 219, 236, 232, 135, 111, 155, 110, 18, 24, 232, 95, 158,
                    26, 110, 170, 154, 109, 42, 178, 168, 156, 240, 248, 238, 168, 196, 190, 203,
                    69, 144, 51, 57, 29, 29, 150, 26, 150, 30, 235, 249, 190, 163, 251, 48,
                    27, 111, 114, 114, 118, 40, 152, 157, 180, 57, 27, 94, 107, 42, 236, 35])),
        ]
        for given, expected in examples:
            assert salsa_core_block(list(struct.unpack("<16I", given))) == expected

    def test_hsalsa20_matches_the_nacl_vectors(self):
        assert hsalsa20_oracle(NACL_SHARED, bytes(16)) == NACL_FIRSTKEY
        assert hsalsa20_oracle(NACL_FIRSTKEY, NACL_NONCE[:16]) == NACL_SECONDKEY

    def test_stream_matches_the_nacl_vector(self):
        # NaCl's stream3 test: the first 32 keystream bytes under firstkey
        expected = bytes.fromhex("eea6a7251c1e72916d11c2cb214d3c252539121d8e234e652d651fa4c8cff880")
        for xor in XORS:
            assert xor(NACL_FIRSTKEY, NACL_NONCE, bytes(32)) == expected

    def test_native_stream_matches_the_nacl_4mib_vector(self):
        # NaCl's stream test: SHA-256 of 4 MiB of keystream, past 2^16 blocks
        stream = NATIVE.xsalsa20_xor(NACL_FIRSTKEY, NACL_NONCE, bytes(4 << 20))
        assert hashlib.sha256(stream).hexdigest() == (
            "662b9d0e3463029156069b12f918691a98f7dfb2ca0393c96bbfc6b1fbd630a2")

    def test_zero_state_is_a_fixed_point_of_the_rounds(self):
        assert salsa_rounds([0] * 16) == [0] * 16
        # ... so the core of the zero state is zero (feed-forward adds zero)
        assert salsa_core_block([0] * 16) == bytes(64)

    def test_expansion_constants_break_the_fixed_point(self):
        # with the "expand 32-byte k" constants in place, a zero key and zero
        # input must not produce a zero keystream block
        state = salsa_expansion((0,) * 8, (0,) * 4)
        assert salsa_core_block(state) != bytes(64)

    def test_expansion_layout(self):
        state = salsa_expansion(tuple(range(1, 9)), (100, 101, 102, 103))
        assert state[0] == struct.unpack("<I", b"expa")[0]
        assert state[5] == struct.unpack("<I", b"nd 3")[0]
        assert state[10] == struct.unpack("<I", b"2-by")[0]
        assert state[15] == struct.unpack("<I", b"te k")[0]
        assert state[1:5] == [1, 2, 3, 4] and state[11:15] == [5, 6, 7, 8]
        assert state[6:10] == [100, 101, 102, 103]

    def test_stream_prefix_consistency(self):
        # slicing a longer stream equals generating a shorter one
        key, nonce = b"k" * 32, b"n" * 24
        for xor in XORS:
            long = xor(key, nonce, bytes(257))
            for length in (0, 1, 63, 64, 65, 128, 200):
                assert xor(key, nonce, bytes(length)) == long[:length]

    def test_hsalsa20_input_validation(self):
        with pytest.raises(ValueError):
            hsalsa20_oracle(b"short", b"x" * 16)
        with pytest.raises(ValueError):
            hsalsa20_oracle(b"k" * 32, b"x" * 15)
        for xor in XORS:
            with pytest.raises(ValueError):
                xor(b"k" * 31, b"n" * 24, b"data")
            with pytest.raises(ValueError):
                xor(b"k" * 32, b"n" * 23, b"data")


class TestSecretbox:
    def test_roundtrip_various_sizes(self, rng):
        key, nonce = rng.randbytes(32), rng.randbytes(24)
        for size in (0, 1, 63, 64, 65, 180, 500):
            plaintext = rng.randbytes(size)
            boxed = seal(key, nonce, plaintext)
            assert len(boxed) == size + 16
            assert open_box(key, nonce, boxed) == plaintext

    def test_every_region_is_authenticated(self, rng):
        key, nonce = rng.randbytes(32), rng.randbytes(24)
        boxed = bytearray(seal(key, nonce, rng.randbytes(180)))
        for _ in range(60):
            pos, bit = rng.randrange(len(boxed)), rng.randrange(8)
            boxed[pos] ^= 1 << bit
            with pytest.raises(AuthenticationFailed):
                open_box(key, nonce, bytes(boxed))
            boxed[pos] ^= 1 << bit
        assert open_box(key, nonce, bytes(boxed)) is not None

    def test_wrong_nonce_or_key_fails(self, rng):
        key, nonce = rng.randbytes(32), rng.randbytes(24)
        boxed = seal(key, nonce, b"payload")
        with pytest.raises(AuthenticationFailed):
            open_box(key, bytes(24), boxed)
        with pytest.raises(AuthenticationFailed):
            open_box(bytes(32), nonce, boxed)

    def test_truncated_box_fails(self, rng):
        key, nonce = rng.randbytes(32), rng.randbytes(24)
        boxed = seal(key, nonce, b"payload")
        for cut in (0, 10, 16, len(boxed) - 1):
            with pytest.raises(AuthenticationFailed):
                open_box(key, nonce, boxed[:cut])

    def test_distinct_nonces_give_unrelated_ciphertexts(self, rng):
        key = rng.randbytes(32)
        plaintext = bytes(64)
        c1 = seal(key, rng.randbytes(24), plaintext)
        c2 = seal(key, rng.randbytes(24), plaintext)
        assert c1[16:] != c2[16:]

    def test_deterministic_for_fixed_inputs(self):
        key, nonce = b"\x01" * 32, b"\x02" * 24
        assert seal(key, nonce, b"msg") == seal(key, nonce, b"msg")


DIFFERENTIAL_SIZES = [*range(301), 4095, 4096, 4097]


def test_native_matches_python_stream_and_boxes(monkeypatch):
    rng = random.Random(0xD1FF)
    cases = [(rng.randbytes(32), rng.randbytes(24), rng.randbytes(n)) for n in DIFFERENTIAL_SIZES]
    native_boxes = [seal(key, nonce, msg) for key, nonce, msg in cases]
    for key, nonce, msg in cases:
        assert NATIVE.xsalsa20_xor(key, nonce, msg) == xsalsa20_oracle(key, nonce, msg), len(msg)
    monkeypatch.setattr(secretbox, "_xsalsa20_xor", xsalsa20_oracle)
    for (key, nonce, msg), boxed in zip(cases, native_boxes):
        assert seal(key, nonce, msg) == boxed, len(msg)
        assert open_box(key, nonce, boxed) == msg


def test_native_matches_libsodium_hsalsa20_and_stream():
    lib = libsodium()
    if lib is None:
        pytest.skip("libsodium.so.23 not available")
    rng = random.Random(0x50D1)
    for size in DIFFERENTIAL_SIZES:
        key, nonce, msg = rng.randbytes(32), rng.randbytes(24), rng.randbytes(size)
        subkey = ctypes.create_string_buffer(32)
        assert lib.crypto_core_hsalsa20(subkey, nonce[:16], key, None) == 0
        assert hsalsa20_oracle(key, nonce[:16]) == subkey.raw
        stream = ctypes.create_string_buffer(max(size, 1))
        assert lib.crypto_stream_xsalsa20(stream, ctypes.c_ulonglong(size), nonce, key) == 0
        assert NATIVE.xsalsa20_xor(key, nonce, bytes(size)) == stream.raw[:size], size
        xored = ctypes.create_string_buffer(max(size, 1))
        assert lib.crypto_stream_xsalsa20_xor(xored, msg, ctypes.c_ulonglong(size), nonce, key) == 0
        assert NATIVE.xsalsa20_xor(key, nonce, msg) == xored.raw[:size], size


def test_matches_system_libsodium():
    # an independent implementation of the same construction, byte for byte
    lib = libsodium()
    if lib is None:
        pytest.skip("libsodium.so.23 not available")
    rng = random.Random(0x5A17)
    for size in DIFFERENTIAL_SIZES:
        key, nonce, msg = rng.randbytes(32), rng.randbytes(24), rng.randbytes(size)
        theirs = ctypes.create_string_buffer(size + 16)
        assert lib.crypto_secretbox_easy(theirs, msg, ctypes.c_ulonglong(size), nonce, key) == 0
        ours = seal(key, nonce, msg)
        assert ours == theirs.raw, size
        assert open_box(key, nonce, theirs.raw) == msg
        opened = ctypes.create_string_buffer(max(size, 1))
        assert lib.crypto_secretbox_open_easy(
            opened, ours, ctypes.c_ulonglong(size + 16), nonce, key) == 0
        assert opened.raw[:size] == msg
