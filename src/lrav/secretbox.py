"""XSalsa20-Poly1305 secretbox (NaCl construction).

No maintained Python binding for this construction was available, so the
XSalsa20 stream comes from lrav's C accelerator (``lrav._native``), written
from the Salsa20 family definition, with a pure-Python twin below as the
fallback; Poly1305 comes from the cryptography package. Box layout follows
NaCl: 16-byte tag, then the ciphertext. The one-time Poly1305 key is the
first 32 bytes of keystream; the message is encrypted with the remainder.
"""

from __future__ import annotations

import struct

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.poly1305 import Poly1305

from ._native import EXT
from .errors import AuthenticationFailed

KEY_BYTES = 32
NONCE_BYTES = 24
TAG_BYTES = 16

_MASK = 0xFFFF_FFFF
# "expand 32-byte k"
_SIGMA = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
_POLY_KEY_PAD = bytes(32)
# One double round: the column round, then the row round. Each (a, b, c, d)
# names the state words that play y0..y3 in one quarterround.
_QUARTERS = (
    (0, 4, 8, 12), (5, 9, 13, 1), (10, 14, 2, 6), (15, 3, 7, 11),
    (0, 1, 2, 3), (5, 6, 7, 4), (10, 11, 8, 9), (15, 12, 13, 14),
)


def _rounds(state):
    """Ten Salsa20 double rounds, without the feed-forward addition."""
    x = list(state)
    for _ in range(10):
        for a, b, c, d in _QUARTERS:
            t = (x[a] + x[d]) & _MASK
            x[b] ^= ((t << 7) | (t >> 25)) & _MASK
            t = (x[b] + x[a]) & _MASK
            x[c] ^= ((t << 9) | (t >> 23)) & _MASK
            t = (x[c] + x[b]) & _MASK
            x[d] ^= ((t << 13) | (t >> 19)) & _MASK
            t = (x[d] + x[c]) & _MASK
            x[a] ^= ((t << 18) | (t >> 14)) & _MASK
    return x


def _expansion(key_words, input_words):
    """Constants on the diagonal, key words at 1-4 and 11-14, input at 6-9."""
    k, n = key_words, input_words
    return [_SIGMA[0], *k[:4], _SIGMA[1], *n, _SIGMA[2], *k[4:], _SIGMA[3]]


def _core_block(state) -> bytes:
    """Salsa20 core: the rounds plus the feed-forward addition."""
    return struct.pack("<16I", *((z + x) & _MASK for z, x in zip(_rounds(state), state)))


def _py_hsalsa20(key: bytes, input16: bytes) -> bytes:
    """HSalsa20 subkey derivation: diagonal/input words, no feed-forward."""
    if len(key) != KEY_BYTES or len(input16) != 16:
        raise ValueError("hsalsa20 needs a 32-byte key and 16-byte input")
    z = _rounds(_expansion(struct.unpack("<8I", key), struct.unpack("<4I", input16)))
    return struct.pack("<8I", z[0], z[5], z[10], z[15], z[6], z[7], z[8], z[9])


def _py_xsalsa20_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """data XOR the XSalsa20 keystream (64-bit block counter from 0)."""
    if len(nonce) != NONCE_BYTES:
        raise ValueError("nonce must be 24 bytes")
    subkey = struct.unpack("<8I", _py_hsalsa20(key, nonce[:16]))
    n0, n1 = struct.unpack("<2I", nonce[16:])
    n = len(data)
    stream = b"".join(
        _core_block(_expansion(subkey, (n0, n1, i & _MASK, i >> 32)))
        for i in range((n + 63) // 64)
    )
    xored = int.from_bytes(data, "little") ^ int.from_bytes(stream[:n], "little")
    return xored.to_bytes(n, "little")


_xsalsa20_xor = EXT.xsalsa20_xor if EXT is not None else _py_xsalsa20_xor


def seal(key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """Encrypt and authenticate; returns tag || ciphertext (+16 bytes)."""
    out = _xsalsa20_xor(key, nonce, _POLY_KEY_PAD + plaintext)
    ciphertext = out[32:]
    return Poly1305.generate_tag(out[:32], ciphertext) + ciphertext


def open_box(key: bytes, nonce: bytes, boxed: bytes) -> bytes:
    """Authenticate and decrypt; raises AuthenticationFailed on any mismatch."""
    if len(boxed) < TAG_BYTES:
        raise AuthenticationFailed("box shorter than the authentication tag")
    tag, ciphertext = boxed[:TAG_BYTES], boxed[TAG_BYTES:]
    out = _xsalsa20_xor(key, nonce, _POLY_KEY_PAD + ciphertext)
    try:
        Poly1305.verify_tag(out[:32], ciphertext, tag)
    except InvalidSignature as exc:
        raise AuthenticationFailed("authentication tag mismatch") from exc
    return out[32:]
