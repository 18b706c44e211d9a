"""Scaling benchmarks: CRTM measurement time and work.

Absolute numbers are host-dependent; the properties of interest are ratios:
time is linear in attested bytes (2x memory -> 2x time), the work (attested
bytes hashed) is exactly linear, and block size has only a small effect.
Samples for all configurations are collected interleaved within each
iteration so clock-speed drift hits every configuration equally.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass

from .crtm import AttestationConfig, measure
from .device import FLASH_BASE
from .memory import MemoryImage, Region, RegionKind

KIB = 1024
MIB = 1024 * 1024

CRTM_SIZES = [1 * KIB << i for i in range(13)]  # 1 KiB .. 4 MiB doubling
CRTM_BLOCKS = [1 * KIB, 2 * KIB, 4 * KIB]


@dataclass
class CrtmSample:
    size: int
    block: int
    times: list[float]
    work_bytes: int

    @property
    def mean(self) -> float:
        return statistics.fmean(self.times)


def _flash_image(size: int) -> MemoryImage:
    return MemoryImage([Region(FLASH_BASE, RegionKind.FLASH, bytearray(os.urandom(size)))])


def crtm_bench(
    iters: int,
    sizes: list[int] | None = None,
    blocks: list[int] | None = None,
) -> list[CrtmSample]:
    sizes = sizes or CRTM_SIZES
    blocks = blocks or CRTM_BLOCKS
    images = {size: _flash_image(size) for size in sizes}
    combos = [(size, block) for size in sizes for block in blocks]
    samples = {}
    for size, block in combos:
        measure(images[size], AttestationConfig(FLASH_BASE, FLASH_BASE + size, block))  # warm-up
        samples[(size, block)] = CrtmSample(size, block, [], size)  # work: the attested bytes
    for _ in range(iters):
        for size, block in combos:
            config = AttestationConfig(FLASH_BASE, FLASH_BASE + size, block)
            start = time.perf_counter()
            measure(images[size], config)
            samples[(size, block)].times.append(time.perf_counter() - start)
    return [samples[c] for c in combos]


def _human_size(n: int) -> str:
    if n % MIB == 0:
        return f"{n // MIB}MB"
    return f"{n // KIB}KB"


def format_text(crtm: list[CrtmSample], iters: int) -> str:
    """One row per size, one column per block, from crtm_bench's size-major samples."""
    width = len({s.block for s in crtm})  # crtm_bench samples every size at every block
    rows = [crtm[i:i + width] for i in range(0, len(crtm), width)]
    header = "total".rjust(8) + "".join(f"b={_human_size(s.block)}".rjust(12) for s in rows[0])
    header += "work-bytes".rjust(12)
    lines = [f"CRTM measurement, mean seconds over {iters} iterations", header]
    for row in rows:
        cells = "".join(f"{s.mean:.6f}".rjust(12) for s in row)
        lines.append(_human_size(row[0].size).rjust(8) + cells + f"{row[0].work_bytes}".rjust(12))
    return "\n".join(lines)


def format_csv(crtm: list[CrtmSample]) -> str:
    lines = ["kind,size_bytes,block_bytes,mean_seconds,work_bytes"]
    for s in crtm:
        lines.append(f"crtm,{s.size},{s.block},{s.mean:.9f},{s.work_bytes}")
    return "\n".join(lines)
