"""Core root of trust for measurement: chained block hashing of physical memory.

The digest over blocks B_0..B_k of the attested range is the backward chain

    D_k = H(B_k)
    D_j = H(B_j || D_{j+1})

with H = SHA3-256 and the final block possibly short. The measurer runs as
trusted ROM code, so it reads the image directly rather than through the
PMP-gated untrusted path.
"""

from __future__ import annotations

import struct
from _operator import _compare_digest  # what hmac.compare_digest falls back to
from typing import NamedTuple

from ._native import EXT
from .errors import InvalidRange, OutOfRange
from .memory import MemoryImage

_chained_sha3_256 = EXT.chained_sha3_256

DIGEST_BYTES = 32

# start (8 BE) || end (8 BE) || block size (4 BE); digest follows in pack()
_CONFIG_STRUCT = struct.Struct(">QQI")
MEASUREMENT_BYTES = _CONFIG_STRUCT.size + DIGEST_BYTES  # 52


class _AttestationConfigFields(NamedTuple):
    start_addr: int
    end_addr: int
    block_size: int


class AttestationConfig(_AttestationConfigFields):
    """Attested physical range [start_addr, end_addr) and hash block size."""

    __slots__ = ()

    def __new__(cls, start_addr: int, end_addr: int, block_size: int):
        if start_addr < 0 or end_addr > 0xFFFF_FFFF_FFFF_FFFF:
            raise InvalidRange("addresses out of range")
        if start_addr >= end_addr:
            raise InvalidRange(f"empty attested range [{start_addr:#x}, {end_addr:#x})")
        if block_size < 1:
            raise InvalidRange(f"block size must be >= 1: {block_size}")
        if block_size > 0xFFFF_FFFF:  # a quote packs it in 4 bytes
            raise InvalidRange(f"block size must fit in 4 bytes: {block_size}")
        return _AttestationConfigFields.__new__(cls, start_addr, end_addr, block_size)


class Measurement(NamedTuple):
    """CRTM digest bound to the config; `unpack` and the trust store check the digest length."""

    digest: bytes
    config: AttestationConfig

    def pack(self) -> bytes:
        cfg = self.config
        return (
            _CONFIG_STRUCT.pack(cfg.start_addr, cfg.end_addr, cfg.block_size)
            + self.digest
        )

    @classmethod
    def unpack(cls, data: bytes) -> "Measurement":
        if len(data) != MEASUREMENT_BYTES:
            raise ValueError(f"measurement must be {MEASUREMENT_BYTES} bytes")
        start, end, block = _CONFIG_STRUCT.unpack(data[:_CONFIG_STRUCT.size])
        return cls(data[_CONFIG_STRUCT.size:], AttestationConfig(start, end, block))


def _read_attested(image: MemoryImage, config: AttestationConfig) -> memoryview:
    """Read-only view of [start, end), which must lie inside one region (no copy).

    Large-copy allocations would otherwise dominate the timings the
    benchmarks assert.
    """
    try:
        view = image.view(config.start_addr, config.end_addr - config.start_addr)
    except OutOfRange as exc:
        raise InvalidRange(str(exc)) from exc
    return view.toreadonly()


def sha3_256(data: bytes) -> bytes:
    """Plain SHA3-256 of non-empty `data` (ValueError if empty): a one-block chain.

    lrav's only SHA3-256, so no process loads hashlib and a second OpenSSL.
    """
    return _chained_sha3_256(data, len(data))


def measure(image: MemoryImage, config: AttestationConfig) -> Measurement:
    """Compute the chained digest of the configured range (trusted ROM path)."""
    data = _read_attested(image, config)
    return Measurement(_chained_sha3_256(data, config.block_size), config)


def measurement_equals(a: Measurement, b: Measurement) -> bool:
    """Constant-time equality over digest and config together."""
    return _compare_digest(a.pack(), b.pack())
