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
from .memory import MemoryImage, Region, RegionKind
from .provisioning import FLASH_BASE

KIB = 1024
MIB = 1024 * 1024

CRTM_SIZES = [1 * KIB << i for i in range(13)]  # 1 KiB .. 4 MiB doubling
CRTM_BLOCKS = [1 * KIB, 2 * KIB, 4 * KIB]
DEFAULT_ITERS = 20


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
    sizes: list[int] | None = None,
    blocks: list[int] | None = None,
    iters: int = DEFAULT_ITERS,
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
    lines = [f"CRTM measurement, mean seconds over {iters} iterations"]
    blocks = sorted({s.block for s in crtm})
    by_size: dict[int, dict[int, CrtmSample]] = {}
    for s in crtm:
        by_size.setdefault(s.size, {})[s.block] = s
    header = "total".rjust(8) + "".join(f"b={_human_size(b)}".rjust(12) for b in blocks)
    header += "work-bytes".rjust(12)
    lines.append(header)
    for size in sorted(by_size):
        row = _human_size(size).rjust(8)
        for b in blocks:
            sample = by_size[size].get(b)
            row += (f"{sample.mean:.6f}" if sample else "-").rjust(12)
        any_sample = next(iter(by_size[size].values()))
        row += f"{any_sample.work_bytes}".rjust(12)
        lines.append(row)
    return "\n".join(lines)


def format_csv(crtm: list[CrtmSample]) -> str:
    lines = ["kind,size_bytes,block_bytes,mean_seconds,work_bytes"]
    for s in crtm:
        lines.append(f"crtm,{s.size},{s.block},{s.mean:.9f},{s.work_bytes}")
    return "\n".join(lines)
