"""Physical memory protection register bank.

Models an 8-entry PMP bank for a machine-mode-only device: per-entry R/W/X
permission bits, the four address-matching modes, and the lock bit that makes
an entry immutable (and its checks binding on M-mode) until reset.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import LockedEntry, ReservedCombination

PMP_ENTRIES = 8
_WORD_MASK = 0xFFFF_FFFF


class AddrMode(enum.IntEnum):
    """Address-matching mode, 2-bit A field of the config byte."""

    OFF = 0
    TOR = 1
    NA4 = 2
    NAPOT = 3


class Access(enum.Enum):
    READ = "r"
    WRITE = "w"
    EXECUTE = "x"


class PmpConfig(NamedTuple):
    """One pmpcfg byte: bit0=R, bit1=W, bit2=X, bits3-4=A, bit7=L."""

    read: bool = False
    write: bool = False
    execute: bool = False
    addr_mode: AddrMode = AddrMode.OFF
    lock: bool = False

    def allows(self, access: Access) -> bool:
        if access is Access.READ:
            return self.read
        if access is Access.WRITE:
            return self.write
        return self.execute


class PmpEntry:
    def __init__(self, config: PmpConfig, addr_reg: int):
        self.config = config
        self.addr_reg = addr_reg  # physical address >> 2


class PmpBank:
    """Fixed bank of 8 PMP entries with lock-until-reset write semantics."""

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        """Reset-time release: drops every entry, including locked ones."""
        self.entries = [PmpEntry(PmpConfig(), 0) for _ in range(PMP_ENTRIES)]


def configure(bank: PmpBank, index: int, config: PmpConfig, addr_reg: int) -> PmpBank:
    """Write (config, addr_reg) to one entry, honouring lock semantics.

    Raises LockedEntry when the entry itself is locked, or when the entry
    above is locked in TOR mode (its base would move). A real core silently
    drops such writes; raising keeps attack attempts observable. Raises
    ReservedCombination for the R=0/W=1 encoding.
    """
    if not 0 <= index < PMP_ENTRIES:
        raise IndexError(f"pmp index {index} out of range")
    if config.write and not config.read:
        raise ReservedCombination(f"R=0,W=1 is reserved (entry {index})")
    if bank.entries[index].config.lock:
        raise LockedEntry(index)
    if index + 1 < PMP_ENTRIES:
        above = bank.entries[index + 1].config
        if above.lock and above.addr_mode is AddrMode.TOR:
            raise LockedEntry(index, f"pmp entry {index} is the base of a locked TOR entry")
    bank.entries[index] = PmpEntry(config, addr_reg & _WORD_MASK)
    return bank


def match_range(bank: PmpBank, index: int) -> tuple[int, int] | None:
    """Byte-address interval [lo, hi] matched by one entry, or None.

    TOR with top <= base matches nothing. NAPOT size is decoded from the
    trailing-ones pattern of the address register: k trailing ones select a
    2^(k+3)-byte naturally aligned region.
    """
    if not 0 <= index < PMP_ENTRIES:
        raise IndexError(f"pmp index {index} out of range")
    entry = bank.entries[index]
    mode = entry.config.addr_mode
    a = entry.addr_reg
    if mode is AddrMode.OFF:
        return None
    if mode is AddrMode.NA4:
        base = a << 2
        return (base, base + 3)
    if mode is AddrMode.TOR:
        prev = bank.entries[index - 1].addr_reg if index > 0 else 0
        lo, top = prev << 2, a << 2
        if top <= lo:
            return None
        return (lo, top - 1)
    k = (~a & (a + 1)).bit_length() - 1  # NAPOT: trailing ones (32 for all-ones)
    base = (a & ~((1 << (k + 1)) - 1) & _WORD_MASK) << 2
    size = 1 << (k + 3)
    return (base, base + size - 1)


def pieces(bank: PmpBank, addr: int, length: int):
    """Split [addr, addr+length) where any entry's range begins or ends.

    Yields (piece_start, config) in address order. One entry decides every
    byte of a piece: the lowest-index matching one. config is that entry's
    config when it is locked, or None where machine mode is unconstrained
    (no match, or the deciding entry is unlocked). The bank is decoded once.
    """
    end = addr + length
    ranges = []
    for index in range(PMP_ENTRIES):
        rng = match_range(bank, index)
        if rng is not None:
            ranges.append((rng[0], rng[1] + 1, bank.entries[index].config))
    cuts = sorted({b for lo, hi, _ in ranges for b in (lo, hi) if addr < b < end})
    for start in [addr, *cuts]:
        config = next((c for lo, hi, c in ranges if lo <= start < hi), None)
        yield start, config if config is not None and config.lock else None


def check(bank: PmpBank, access: Access, addr: int, length: int = 1) -> bool:
    """True if the access is allowed at every byte of [addr, addr+length).

    Lowest-index matching entry decides. Unlocked entries do not constrain
    machine mode (the only privilege level modelled); locked entries bind it
    via their R/W/X bits. No match means the M-mode default: allow.
    """
    return all(c is None or c.allows(access) for _, c in pieces(bank, addr, length))


def napot_addr_reg(base: int, size: int) -> int:
    """Encode a naturally aligned power-of-two region into an address register."""
    if size < 8 or size & (size - 1):
        raise ValueError(f"NAPOT size must be a power of two >= 8: {size}")
    if base % size:
        raise ValueError(f"base {base:#x} not aligned to size {size:#x}")
    return ((base >> 2) | ((size >> 3) - 1)) & _WORD_MASK
