"""XSalsa20-Poly1305 secretbox (NaCl construction).

No maintained Python binding for this construction was available, so the
XSalsa20 stream comes from lrav's C accelerator (``lrav._native``), written
from the Salsa20 family definition; Poly1305 comes from the cryptography
package. Box layout follows NaCl: 16-byte tag, then the ciphertext. The
one-time Poly1305 key is the first 32 bytes of keystream; the message is
encrypted with the remainder.
"""

from __future__ import annotations

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.poly1305 import Poly1305

from ._native import EXT
from .errors import AuthenticationFailed

NONCE_BYTES = 24
TAG_BYTES = 16

_POLY_KEY_PAD = bytes(32)
_xsalsa20_xor = EXT.xsalsa20_xor


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
