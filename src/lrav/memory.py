"""Flat physical memory map built from non-overlapping typed regions."""

from __future__ import annotations

import enum
import mmap
from dataclasses import dataclass, field

from .errors import AccessFault, OutOfRange


class RegionKind(enum.Enum):
    ROM = "rom"
    FLASH = "flash"
    SRAM = "sram"


@dataclass
class Region:
    base: int
    kind: RegionKind
    # Flash is an anonymous mmap: it reads as zero and takes host memory only
    # for the pages written, the firmware's. ROM and SRAM are small bytearrays.
    data: bytearray | mmap.mmap

    @property
    def end(self) -> int:
        return self.base + len(self.data)

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.base <= addr and addr + length <= self.end


@dataclass
class MemoryImage:
    """Ordered, non-overlapping regions addressed by physical address."""

    regions: list[Region] = field(default_factory=list)

    def __post_init__(self):
        self.regions.sort(key=lambda r: r.base)
        prev_end = 0
        for region in self.regions:
            if region.base < prev_end:
                raise ValueError(f"region at {region.base:#010x} overlaps the previous one")
            prev_end = region.end

    def region_at(self, addr: int) -> Region:
        for region in self.regions:
            if region.contains(addr):
                return region
        raise OutOfRange(f"address {addr:#010x} is not mapped")

    def region_for(self, addr: int, length: int) -> Region:
        """Region covering [addr, addr+length); OutOfRange if split or unmapped."""
        region = self.region_at(addr)
        if not region.contains(addr, length):
            raise OutOfRange(
                f"range [{addr:#010x}, {addr + length:#010x}) crosses a region boundary"
            )
        return region

    def read(self, addr: int, length: int) -> bytes:
        region = self.region_for(addr, length)
        off = addr - region.base
        return bytes(region.data[off:off + length])

    def write(self, addr: int, data: bytes) -> None:
        """Raw store used by construction-time and trusted code paths.

        ROM is mask-programmed: even trusted code cannot store to it after
        construction (use load_rom for that).
        """
        region = self.region_for(addr, len(data))
        if region.kind is RegionKind.ROM:
            raise AccessFault(addr, f"rom region is immutable ({addr:#010x})")
        off = addr - region.base
        region.data[off:off + len(data)] = data

    def load_rom(self, addr: int, data: bytes) -> None:
        """Place mask-ROM contents; only valid while building a device."""
        region = self.region_for(addr, len(data))
        if region.kind is not RegionKind.ROM:
            raise ValueError(f"{addr:#010x} is not in a rom region")
        off = addr - region.base
        region.data[off:off + len(data)] = data

    def zero_volatile(self) -> None:
        for region in self.regions:
            if region.kind is RegionKind.SRAM:
                region.data[:] = bytes(len(region.data))
