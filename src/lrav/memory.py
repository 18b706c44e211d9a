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

    def region_for(self, addr: int, length: int) -> Region:
        """Region covering [addr, addr+length); OutOfRange if split or unmapped."""
        for region in self.regions:
            if region.base <= addr < region.end:
                if addr + length > region.end:
                    raise OutOfRange(
                        f"range [{addr:#010x}, {addr + length:#010x}) crosses a region boundary"
                    )
                return region
        raise OutOfRange(f"address {addr:#010x} is not mapped")

    def view(self, addr: int, length: int) -> memoryview:
        """Writable view of [addr, addr+length) in its region's storage (no copy)."""
        region = self.region_for(addr, length)
        off = addr - region.base
        return memoryview(region.data)[off:off + length]

    def read(self, addr: int, length: int) -> bytes:
        return bytes(self.view(addr, length))

    def write(self, addr: int, data: bytes) -> None:
        """Raw store used by construction-time and trusted code paths.

        ROM is mask-programmed: even trusted code cannot store to it after
        construction (use load_rom for that).
        """
        if self.region_for(addr, len(data)).kind is RegionKind.ROM:
            raise AccessFault(addr, f"rom region is immutable ({addr:#010x})")
        self.view(addr, len(data))[:] = data

    def load_rom(self, addr: int, data: bytes) -> None:
        """Place mask-ROM contents; only valid while building a device."""
        if self.region_for(addr, len(data)).kind is not RegionKind.ROM:
            raise ValueError(f"{addr:#010x} is not in a rom region")
        self.view(addr, len(data))[:] = data

    def zero_volatile(self) -> None:
        for region in self.regions:
            if region.kind is RegionKind.SRAM:
                region.data[:] = bytes(len(region.data))
