import pytest

from lrav import pmp
from lrav.device import QSK_BASE, QSK_REGION_SIZE, ROM_BASE, SRAM_BASE, device_reset, mem_access
from lrav.errors import AccessFault, LockedEntry, OutOfRange
from lrav.memory import MemoryImage, Region, RegionKind
from lrav.pmp import Access


class TestMemoryImage:
    def test_regions_sorted_and_disjoint(self):
        image = MemoryImage([
            Region(0x2000, RegionKind.SRAM, bytearray(16)),
            Region(0x1000, RegionKind.ROM, bytearray(16)),
        ])
        assert [r.base for r in image.regions] == [0x1000, 0x2000]
        with pytest.raises(ValueError):
            MemoryImage([
                Region(0x1000, RegionKind.ROM, bytearray(32)),
                Region(0x1010, RegionKind.SRAM, bytearray(32)),
            ])

    def test_read_write_roundtrip(self):
        image = MemoryImage([Region(0x100, RegionKind.SRAM, bytearray(64))])
        image.write(0x110, b"hello")
        assert image.read(0x110, 5) == b"hello"

    def test_rom_rejects_even_raw_writes(self):
        image = MemoryImage([Region(0x100, RegionKind.ROM, bytearray(64))])
        with pytest.raises(AccessFault):
            image.write(0x100, b"x")
        image.load_rom(0x100, b"mask")  # construction-time programming works
        assert image.read(0x100, 4) == b"mask"

    def test_unmapped_and_straddling(self):
        image = MemoryImage([Region(0x100, RegionKind.SRAM, bytearray(16))])
        with pytest.raises(OutOfRange):
            image.read(0x90, 4)
        with pytest.raises(OutOfRange):
            image.read(0x10C, 8)


class TestMemAccess:
    def test_sram_write_readback(self, device_pair):
        dev, _ = device_pair
        mem_access(dev, Access.WRITE, SRAM_BASE + 0x10, data=b"\xaa\xbb")
        assert mem_access(dev, Access.READ, SRAM_BASE + 0x10, length=2) == b"\xaa\xbb"

    def test_qsk_read_denied_after_boot(self, device_pair):
        dev, _ = device_pair
        with pytest.raises(AccessFault) as exc:
            mem_access(dev, Access.READ, QSK_BASE, length=1)
        assert exc.value.addr == QSK_BASE

    def test_rom_write_denied(self, device_pair):
        dev, _ = device_pair
        with pytest.raises(AccessFault):
            mem_access(dev, Access.WRITE, ROM_BASE, data=b"evil")

    def test_unmapped_is_out_of_range(self, device_pair):
        dev, _ = device_pair
        with pytest.raises(OutOfRange):
            mem_access(dev, Access.READ, 0x0, length=1)


class TestReset:
    def test_lock_released_then_rom_relocks(self, device_pair):
        dev, _ = device_pair
        with pytest.raises(LockedEntry):
            pmp.configure(dev.bank, 0, pmp.PmpConfig(read=True), 0)
        device_reset(dev)
        # ROM re-claimed entry 0 for itself; it is locked again
        entry = dev.bank.entries[0]
        assert entry.config.lock and entry.config.execute and not entry.config.read
        assert dev.boot_complete

    def test_qsk_denied_after_every_reset(self, device_pair):
        dev, _ = device_pair
        for _ in range(3):
            device_reset(dev)
            assert not pmp.check(dev.bank, Access.READ, QSK_BASE)
            assert pmp.check(dev.bank, Access.EXECUTE, QSK_BASE)

    def test_sram_zeroed_flash_preserved(self, device_pair):
        dev, _ = device_pair
        mem_access(dev, Access.WRITE, SRAM_BASE, data=b"\xff" * 8)
        flash_before = dev.memory.read(dev.attest_config.start_addr, 64)
        device_reset(dev)
        assert mem_access(dev, Access.READ, SRAM_BASE, length=8) == bytes(8)
        assert dev.memory.read(dev.attest_config.start_addr, 64) == flash_before

    def test_skipped_rom_boot_leaves_window_open(self, device_pair):
        dev, _ = device_pair
        device_reset(dev)
        dev.bank.clear()  # a boot that skipped the lock step
        assert dev.boot_complete
        assert pmp.check(dev.bank, Access.READ, QSK_BASE)


class TestTrustAnchorInvariants:
    def test_qsk_secrecy_over_whole_window(self, device_pair):
        # G2: every byte of the key window faults on untrusted read and write
        dev, _ = device_pair
        for addr in range(QSK_BASE, QSK_BASE + QSK_REGION_SIZE):
            with pytest.raises(AccessFault):
                mem_access(dev, Access.READ, addr, length=1)
            with pytest.raises(AccessFault):
                mem_access(dev, Access.WRITE, addr, data=b"\x00")

    def test_trust_store_rom_is_immutable(self, device_pair):
        # G1: the expected-measurement store sits in ROM and survives attacks
        dev, _ = device_pair
        stored = dev.memory.read(ROM_BASE, 64)
        assert stored.startswith(b"peer ")
        for offset in (0, 13, 63):
            with pytest.raises(AccessFault):
                mem_access(dev, Access.WRITE, ROM_BASE + offset, data=b"\x00")
        assert dev.memory.read(ROM_BASE, 64) == stored

    def test_qsk_window_inside_rom(self, device_pair):
        dev, _ = device_pair
        region = dev.memory.region_for(QSK_BASE, QSK_REGION_SIZE)
        assert region.kind is RegionKind.ROM
