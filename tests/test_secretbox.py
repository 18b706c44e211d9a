import ctypes
import random
import struct

import pytest

from lrav.errors import AuthenticationFailed
from lrav.secretbox import (
    _columnround,
    _core_block,
    _doubleround,
    _expansion,
    _rowround,
    _xsalsa20_stream,
    hsalsa20,
    open_box,
    seal,
)


def transpose(state):
    return [state[4 * c + r] for r in range(4) for c in range(4)]


class TestSalsaCore:
    """Structural checks straight from the function family's definition."""

    def test_columnround_is_transposed_rowround(self):
        rng = random.Random(1)
        for _ in range(200):
            state = [rng.getrandbits(32) for _ in range(16)]
            assert _columnround(state) == transpose(_rowround(transpose(state)))

    def test_doubleround_is_row_after_column(self):
        rng = random.Random(2)
        state = [rng.getrandbits(32) for _ in range(16)]
        assert _doubleround(state) == _rowround(_columnround(state))

    def test_zero_state_is_a_fixed_point_of_the_rounds(self):
        assert _doubleround([0] * 16) == [0] * 16
        # ... so the core of the zero state is zero (feed-forward adds zero)
        assert _core_block([0] * 16) == bytes(64)

    def test_expansion_constants_break_the_fixed_point(self):
        # with the "expand 32-byte k" constants in place, a zero key and zero
        # input must not produce a zero keystream block
        state = _expansion((0,) * 8, (0,) * 4)
        assert _core_block(state) != bytes(64)

    def test_expansion_layout(self):
        state = _expansion(tuple(range(1, 9)), (100, 101, 102, 103))
        assert state[0] == struct.unpack("<I", b"expa")[0]
        assert state[5] == struct.unpack("<I", b"nd 3")[0]
        assert state[10] == struct.unpack("<I", b"2-by")[0]
        assert state[15] == struct.unpack("<I", b"te k")[0]
        assert state[1:5] == [1, 2, 3, 4] and state[11:15] == [5, 6, 7, 8]
        assert state[6:10] == [100, 101, 102, 103]

    def test_stream_prefix_consistency(self):
        # slicing a longer stream equals generating a shorter one
        key, nonce = b"k" * 32, b"n" * 24
        long = _xsalsa20_stream(key, nonce, 257)
        for length in (0, 1, 63, 64, 65, 128, 200):
            assert _xsalsa20_stream(key, nonce, length) == long[:length]

    def test_hsalsa20_input_validation(self):
        with pytest.raises(ValueError):
            hsalsa20(b"short", b"x" * 16)
        with pytest.raises(ValueError):
            hsalsa20(b"k" * 32, b"x" * 15)


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


def _libsodium():
    try:
        lib = ctypes.CDLL("libsodium.so.23")
    except OSError:
        return None
    if lib.sodium_init() < 0:
        return None
    return lib


def test_matches_system_libsodium():
    # an independent implementation of the same construction, byte for byte
    lib = _libsodium()
    if lib is None:
        pytest.skip("libsodium.so.23 not available")
    rng = random.Random(0x5A17)
    for size in [*range(301), 4095, 4096, 4097]:
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
