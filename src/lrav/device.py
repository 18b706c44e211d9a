"""Simulated constrained device: memory map, PMP bank, reset.

Trusted ROM routines are host-level functions that touch memory directly;
everything an adversary can do goes through mem_access / pmp.configure, where
the PMP bank arbitrates. Both run in machine mode.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from . import pmp
from .errors import AccessFault
from .memory import MemoryImage

if TYPE_CHECKING:  # import cycle: quote/provisioning build on DeviceState
    from .crtm import AttestationConfig
    from .provisioning import TrustStore


# The one memory map of every device: ROM (trust store, then the QSK window
# near its end), flash holding the firmware, and SRAM.
ROM_BASE = 0x0000_1000
ROM_SIZE = 16 * 1024
FLASH_BASE = 0x2000_0000
FLASH_SIZE = 4 * 1024 * 1024
SRAM_BASE = 0x8000_0000
SRAM_SIZE = 16 * 1024

# QSK key material occupies one NAPOT-alignable 64-byte ROM window:
# 32-byte signing seed followed by the 32-byte verification key.
QSK_BASE = ROM_BASE + ROM_SIZE - 0x100
QSK_REGION_SIZE = 64
QSK_PMP_INDEX = 0  # highest-priority entry, claimed by boot ROM

# Where the attestation agent stages an outgoing wire quote (plain SRAM,
# deliberately writable by untrusted code).
STAGING_ADDR = SRAM_BASE + 0x100


@dataclass
class DeviceState:
    # The signing seed lives only in `memory`, in the ROM key window.
    device_id: str
    memory: MemoryImage
    bank: pmp.PmpBank
    trust: "TrustStore"
    attest_config: "AttestationConfig"
    boot_complete: bool = False
    quote_staging_hook: Optional[Callable[["DeviceState"], None]] = None
    # (measurement pack, signature) of the last quote signed; no key material.
    # Read and written under `lock` by the gate, cleared by reset like SRAM.
    last_quote: Optional[tuple[bytes, bytes]] = None
    lock: threading.RLock = field(default_factory=threading.RLock, repr=False)

    def __repr__(self):  # never leak key material through debug output
        return f"DeviceState(id={self.device_id!r}, boot_complete={self.boot_complete})"


def mem_access(
    dev: DeviceState,
    access: pmp.Access,
    addr: int,
    *,
    length: int | None = None,
    data: bytes | None = None,
) -> bytes | None:
    """Untrusted-path memory access, gated by one PMP check over the range.

    Reads return the stored bytes; writes return None. ROM regions reject
    writes regardless of PMP state. Raises AccessFault at the first denied
    address, OutOfRange if the range is unmapped or crosses regions.
    """
    if access is pmp.Access.WRITE:
        if data is None:
            raise ValueError("write access requires data")
        length = len(data)
    if length is None or length <= 0:
        raise ValueError("access length must be positive")

    view = dev.memory.view(addr, length)  # OutOfRange before any PMP verdict
    if not pmp.check(dev.bank, access, addr, length):
        raise AccessFault(next(
            start for start, config in pmp.pieces(dev.bank, addr, length)
            if config is not None and not config.allows(access)
        ))
    if access is pmp.Access.WRITE:
        dev.memory.write(addr, data)  # AccessFault on ROM, whatever the PMP says
        return None
    return bytes(view)


def rom_boot(dev: DeviceState) -> None:
    """Start-up ROM: claim the QSK window with a locked execute-only entry."""
    config = pmp.PmpConfig(execute=True, addr_mode=pmp.AddrMode.NAPOT, lock=True)
    addr_reg = pmp.napot_addr_reg(QSK_BASE, QSK_REGION_SIZE)
    pmp.configure(dev.bank, QSK_PMP_INDEX, config, addr_reg)
    dev.boot_complete = True


def device_reset(dev: DeviceState) -> DeviceState:
    """CPU reset: release every PMP lock, zero SRAM, re-run boot ROM."""
    with dev.lock:
        dev.boot_complete = False
        dev.last_quote = None
        dev.bank.clear()
        dev.memory.zero_volatile()
        rom_boot(dev)
    return dev
