"""Quote signing behind the execute-only gate, and lrav's one Ed25519 verifier.

A quote binds the measured digest AND the attested range/block size under
the device's Ed25519 signing key, so a prover cannot substitute a
differently-scoped measurement. Wire form is the 52-byte measurement pack
followed by the 64-byte signature (116 bytes total).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey

from . import device, pmp
from .crtm import MEASUREMENT_BYTES, Measurement, measurement_equals
from .device import QSK_BASE, QSK_REGION_SIZE, STAGING_ADDR, DeviceState
from .errors import AbortReason, GateViolation, MalformedMessage

SIGNATURE_BYTES = 64
QUOTE_WIRE_BYTES = MEASUREMENT_BYTES + SIGNATURE_BYTES  # 116
SEED_BYTES = 32


def verification_key(seed: bytes) -> bytes:
    """The 32-byte Ed25519 verification key of a 32-byte signing seed."""
    return Ed25519PrivateKey.from_private_bytes(seed).public_key().public_bytes_raw()


class _QuoteFields(NamedTuple):
    measurement: Measurement
    signature: bytes


class Quote(_QuoteFields):
    __slots__ = ()

    def __new__(cls, measurement: Measurement, signature: bytes):
        if len(signature) != SIGNATURE_BYTES:
            raise ValueError(f"signature must be {SIGNATURE_BYTES} bytes")
        return _QuoteFields.__new__(cls, measurement, signature)

    def to_wire(self) -> bytes:
        return self.measurement.pack() + self.signature

    @classmethod
    def from_wire(cls, data: bytes) -> "Quote":
        if len(data) != QUOTE_WIRE_BYTES:
            raise MalformedMessage(f"quote must be {QUOTE_WIRE_BYTES} bytes, got {len(data)}")
        try:
            measurement = Measurement.unpack(data[:MEASUREMENT_BYTES])
        except Exception as exc:
            raise MalformedMessage(f"bad quote contents: {exc}") from exc
        return cls(measurement, data[MEASUREMENT_BYTES:])


def _gate_is_intact(bank: pmp.PmpBank) -> bool:
    """The key window must be execute-only for untrusted machine mode."""
    return all(
        config is not None and config.execute and not config.read and not config.write
        for _, config in pmp.pieces(bank, QSK_BASE, QSK_REGION_SIZE)
    )


def _wipe(buf: bytearray) -> None:
    buf[:] = bytes(len(buf))


def _gated_sign(dev: DeviceState, message: bytes, *, reuse_quote: bool = False) -> bytes:
    """The single QSK entry point.

    Refuses (GateViolation) unless boot finished and the key window really is
    locked execute-only: execute-allowed plus read-denied is the trust-anchor
    precondition for key secrecy. The seed is sliced from the key window into
    one buffer, which is wiped before returning; deeper cache/register
    effects are out of scope.

    With reuse_quote, `message` is a measurement pack: Ed25519 is deterministic
    (RFC 8032 5.1.6), so the last quote signature is returned again for the
    same 52 bytes, after the same gate checks, instead of being recomputed.
    """
    with dev.lock:
        if not dev.boot_complete:
            raise GateViolation("device has not completed boot")
        if not _gate_is_intact(dev.bank):
            raise GateViolation("QSK window is not locked execute-only")
        if reuse_quote and dev.last_quote is not None and dev.last_quote[0] == message:
            return dev.last_quote[1]
        seed_buf = bytearray(dev.memory.view(QSK_BASE, SEED_BYTES))  # the one copy
        try:
            signature = Ed25519PrivateKey.from_private_bytes(seed_buf).sign(message)
        finally:
            _wipe(seed_buf)
        if reuse_quote:
            dev.last_quote = (message, signature)
        return signature


def sign_quote_gated(dev: DeviceState, measurement: Measurement) -> Quote:
    """Sign a measurement inside the X-only gate; deterministic per input."""
    return Quote(measurement, _gated_sign(dev, measurement.pack(), reuse_quote=True))


def sign_transcript_gated(dev: DeviceState, digest: bytes) -> bytes:
    """Sign a 32-byte transcript hash with the same gated QSK."""
    if len(digest) != 32:
        raise ValueError("transcript digest must be 32 bytes")
    return _gated_sign(dev, digest)


def signature_valid(verify_key: bytes, message: bytes, signature: bytes) -> bool:
    """Whether `signature` is `verify_key`'s Ed25519 signature of `message`."""
    try:
        Ed25519PublicKey.from_public_bytes(verify_key).verify(signature, message)
    except (InvalidSignature, ValueError):
        return False
    return True


# Quote verification is a pure function of its three inputs, and an honest
# peer presents the same quote every session. Only a peer whose transcript
# signature verified reaches this memo, so unauthenticated input cannot fill it.
_signature_valid = functools.lru_cache(maxsize=32)(signature_valid)


def verify_quote(verify_key: bytes, quote: Quote, *expected: Measurement) -> AbortReason | None:
    """None if the signature verifies and the measurement equals any of `expected`.

    Otherwise the abort reason, BAD_SIGNATURE checked first. The signature is
    checked once, however many expectations (authorised firmwares) there are.
    """
    if not _signature_valid(bytes(verify_key), quote.measurement.pack(), bytes(quote.signature)):
        return AbortReason.BAD_SIGNATURE
    if not any(measurement_equals(quote.measurement, m) for m in expected):
        return AbortReason.MEASUREMENT_MISMATCH
    return None


def stage_outgoing_quote(dev: DeviceState, wire: bytes) -> bytes:
    """Park a wire quote in AA-readable SRAM and read it back for transmission.

    This is the attestation agent's staging buffer: plain untrusted memory.
    A resident adversary (dev.quote_staging_hook) may overwrite it between
    the store and the load; the agent transmits whatever it reads back.
    """
    if len(wire) != QUOTE_WIRE_BYTES:
        raise MalformedMessage(f"staged quote must be {QUOTE_WIRE_BYTES} bytes")
    device.mem_access(dev, pmp.Access.WRITE, STAGING_ADDR, data=wire)
    if dev.quote_staging_hook is not None:
        dev.quote_staging_hook(dev)
    return device.mem_access(dev, pmp.Access.READ, STAGING_ADDR, length=QUOTE_WIRE_BYTES)
