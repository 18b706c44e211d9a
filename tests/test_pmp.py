import random
from types import SimpleNamespace

import pytest

from lrav import pmp
from lrav.device import QSK_BASE, mem_access
from lrav.errors import AccessFault, LockedEntry, ReservedCombination
from lrav.memory import MemoryImage, Region, RegionKind
from lrav.pmp import PMP_ENTRIES, Access, AddrMode, PmpBank, PmpConfig
from lrav.quote import _gate_is_intact

from oracles import napot_range_oracle, per_byte_check, tor_range_oracle


class TestConfigure:
    def test_locked_entry_rejects_rewrite(self):
        bank = PmpBank()
        locked = PmpConfig(execute=True, addr_mode=AddrMode.NAPOT, lock=True)
        pmp.configure(bank, 0, locked, 0x13C7)
        with pytest.raises(LockedEntry):
            pmp.configure(bank, 0, PmpConfig(read=True, addr_mode=AddrMode.NAPOT), 0)

    def test_unlocked_entry_is_mutable(self):
        bank = PmpBank()
        config = PmpConfig(read=True, write=True, addr_mode=AddrMode.TOR)
        pmp.configure(bank, 3, config, 0x100)
        pmp.configure(bank, 3, config, 0x200)
        assert bank.entries[3].addr_reg == 0x200

    def test_reserved_combination(self):
        bank = PmpBank()
        with pytest.raises(ReservedCombination):
            pmp.configure(bank, 1, PmpConfig(read=False, write=True,
                                             addr_mode=AddrMode.NAPOT), 0)

    def test_locked_tor_guards_entry_below(self):
        bank = PmpBank()
        tor_locked = PmpConfig(read=True, addr_mode=AddrMode.TOR, lock=True)
        pmp.configure(bank, 4, tor_locked, 0x800)
        with pytest.raises(LockedEntry):
            pmp.configure(bank, 3, PmpConfig(read=True, addr_mode=AddrMode.NA4), 0x10)
        # entry below a locked non-TOR entry stays writable
        napot_locked = PmpConfig(read=True, addr_mode=AddrMode.NAPOT, lock=True)
        pmp.configure(bank, 6, napot_locked, 0x3)
        pmp.configure(bank, 5, PmpConfig(read=True, addr_mode=AddrMode.NA4), 0x10)

    def test_lock_monotonicity_under_random_writes(self):
        rng = random.Random(7)
        bank = PmpBank()
        frozen: dict[int, tuple] = {}
        for _ in range(500):
            index = rng.randrange(8)
            config = PmpConfig(
                read=rng.random() < 0.7,
                write=False,
                execute=rng.random() < 0.5,
                addr_mode=AddrMode(rng.randrange(4)),
                lock=rng.random() < 0.3,
            )
            try:
                pmp.configure(bank, index, config, rng.getrandbits(32))
            except LockedEntry:
                pass
            for i, snap in frozen.items():
                entry = bank.entries[i]
                assert (entry.config, entry.addr_reg) == snap
            for i, entry in enumerate(bank.entries):
                if entry.config.lock and i not in frozen:
                    frozen[i] = (entry.config, entry.addr_reg)


class TestMatchRange:
    def test_off_matches_nothing(self):
        bank = PmpBank()
        bank.entries[0].addr_reg = 0xDEAD
        assert pmp.match_range(bank, 0) is None

    def test_napot_spec_example(self):
        # 64-byte region at 0x2000_0000: addr_reg = (base>>2) | 0b111
        bank = PmpBank()
        pmp.configure(bank, 0, PmpConfig(read=True, addr_mode=AddrMode.NAPOT),
                      (0x2000_0000 >> 2) | 0b111)
        assert pmp.match_range(bank, 0) == (0x2000_0000, 0x2000_003F)
        assert pmp.match_range(bank, 0) == napot_range_oracle((0x2000_0000 >> 2) | 0b111)

    def test_tor_at_index_zero(self):
        bank = PmpBank()
        pmp.configure(bank, 0, PmpConfig(read=True, addr_mode=AddrMode.TOR), 0x400)
        assert pmp.match_range(bank, 0) == (0x0000_0000, 0x0000_0FFF)

    def test_tor_empty_interval(self):
        bank = PmpBank()
        pmp.configure(bank, 0, PmpConfig(read=True, addr_mode=AddrMode.TOR), 0x100)
        pmp.configure(bank, 1, PmpConfig(read=True, addr_mode=AddrMode.TOR), 0x100)
        assert pmp.match_range(bank, 1) is None

    def test_na4(self):
        bank = PmpBank()
        pmp.configure(bank, 2, PmpConfig(read=True, addr_mode=AddrMode.NA4), 0x40)
        assert pmp.match_range(bank, 2) == (0x100, 0x103)

    def test_napot_against_oracle_sample(self):
        bank = PmpBank()
        rng = random.Random(3)
        for _ in range(4096):
            addr_reg = rng.getrandbits(16) if rng.random() < 0.5 else rng.getrandbits(32)
            pmp.configure(bank, 1, PmpConfig(read=True, addr_mode=AddrMode.NAPOT), addr_reg)
            assert pmp.match_range(bank, 1) == napot_range_oracle(addr_reg)

    def test_tor_against_oracle_sample(self):
        bank = PmpBank()
        rng = random.Random(4)
        for _ in range(2048):
            prev, top = rng.getrandbits(16), rng.getrandbits(16)
            pmp.configure(bank, 0, PmpConfig(addr_mode=AddrMode.OFF), prev)
            pmp.configure(bank, 1, PmpConfig(read=True, addr_mode=AddrMode.TOR), top)
            assert pmp.match_range(bank, 1) == tor_range_oracle(prev, top)


class TestCheck:
    @staticmethod
    def xonly_bank(base=0x2000_0000, lock=True):
        bank = PmpBank()
        pmp.configure(
            bank, 0,
            PmpConfig(execute=True, addr_mode=AddrMode.NAPOT, lock=lock),
            pmp.napot_addr_reg(base, 64),
        )
        return bank

    def test_locked_xonly_denies_read_allows_execute(self):
        bank = self.xonly_bank()
        assert not pmp.check(bank, Access.READ, 0x2000_0000)
        assert not pmp.check(bank, Access.WRITE, 0x2000_0010)
        assert pmp.check(bank, Access.EXECUTE, 0x2000_003F)

    def test_unlocked_entry_does_not_constrain_m_mode(self):
        bank = self.xonly_bank(lock=False)
        assert pmp.check(bank, Access.READ, 0x2000_0000)
        assert pmp.check(bank, Access.WRITE, 0x2000_0000)

    def test_no_match_defaults_to_allow(self):
        bank = PmpBank()
        assert pmp.check(bank, Access.WRITE, 0x8000_0000)

    def test_lowest_index_priority_exhaustive(self):
        # two overlapping locked entries over a 64-byte toy map: the verdict at
        # every address equals the verdict of the lower-index entry alone
        perms = [(r, w, x) for r in (0, 1) for w in (0, 1) for x in (0, 1) if not (w and not r)]
        for r0, w0, x0 in perms:
            for r1, w1, x1 in perms:
                both, first = PmpBank(), PmpBank()
                lo = PmpConfig(bool(r0), bool(w0), bool(x0), AddrMode.NAPOT, True)
                hi = PmpConfig(bool(r1), bool(w1), bool(x1), AddrMode.NAPOT, True)
                pmp.configure(both, 0, lo, pmp.napot_addr_reg(0, 64))
                pmp.configure(both, 1, hi, pmp.napot_addr_reg(0, 64))
                pmp.configure(first, 0, lo, pmp.napot_addr_reg(0, 64))
                for addr in range(64):
                    for access in Access:
                        assert pmp.check(both, access, addr) == pmp.check(first, access, addr)


def test_napot_addr_reg_inverse():
    for size_log in range(3, 16):
        size = 1 << size_log
        base = 7 * size
        reg = pmp.napot_addr_reg(base, size)
        assert napot_range_oracle(reg) == (base, base + size - 1)


class TestRangeCheckEquivalence:
    """The range check, mem_access faults and the signing gate against the
    per-byte oracle, on random banks built through configure."""

    LOW = QSK_BASE & ~0xFFF  # random entries cover the 4 KiB around the key window
    WINDOW = 0x1000

    def random_bank(self, rng):
        bank = PmpBank()
        if rng.random() < 0.4:  # a locked execute-only key window, as boot sets up
            xonly = PmpConfig(execute=True, addr_mode=AddrMode.NAPOT, lock=True)
            pmp.configure(bank, rng.randrange(4), xonly, pmp.napot_addr_reg(QSK_BASE, 64))
        writes = []
        if rng.random() < 0.5:  # a TOR chain: each entry's base is the one below
            first = rng.randrange(PMP_ENTRIES - 1)
            top = (self.LOW >> 2) + rng.randrange(self.WINDOW >> 2)
            for index in range(first, min(PMP_ENTRIES, first + rng.randrange(2, 5))):
                writes.append((index, AddrMode.TOR, top))
                top += rng.randrange(-4, 64)
        for _ in range(rng.randrange(1, 8)):
            writes.append((rng.randrange(PMP_ENTRIES), AddrMode(rng.randrange(4)), None))
        rng.shuffle(writes)
        for index, mode, addr_reg in writes:
            if addr_reg is None and mode is AddrMode.NAPOT:
                size = 8 << rng.randrange(7)
                addr_reg = pmp.napot_addr_reg(self.LOW + rng.randrange(self.WINDOW // size) * size,
                                              size)
            elif addr_reg is None:
                addr_reg = (self.LOW >> 2) + rng.randrange(self.WINDOW >> 2)
            read = rng.random() < 0.6
            config = PmpConfig(read=read, write=read and rng.random() < 0.5,
                               execute=rng.random() < 0.5, addr_mode=mode,
                               lock=rng.random() < 0.5)
            try:
                pmp.configure(bank, index, config, addr_reg)
            except LockedEntry:
                pass
        return bank

    def test_range_check_matches_per_byte_oracle(self):
        rng = random.Random(0x1AA5)
        memory = MemoryImage([Region(self.LOW, RegionKind.SRAM, bytearray(self.WINDOW + 0x200))])
        gate_verdicts = set()
        straddled = 0
        for _ in range(2000):
            bank = self.random_bank(rng)
            dev = SimpleNamespace(bank=bank, memory=memory)
            bounds = sorted({b for i in range(PMP_ENTRIES) if (r := pmp.match_range(bank, i))
                             for b in (r[0], r[1] + 1) if self.LOW <= b < self.LOW + self.WINDOW})
            for access in Access:
                length = rng.randrange(1, 301)
                if bounds and rng.random() < 0.75:
                    addr = max(self.LOW, rng.choice(bounds) - rng.randrange(length))
                else:
                    addr = self.LOW + rng.randrange(self.WINDOW)
                straddled += any(addr < b < addr + length for b in bounds)
                denied = next((a for a in range(addr, addr + length)
                               if not per_byte_check(bank, access, a)), None)
                assert pmp.check(bank, access, addr, length) == (denied is None)
                kwargs = {"data": bytes(length)} if access is Access.WRITE else {"length": length}
                try:
                    mem_access(dev, access, addr, **kwargs)
                    fault = None
                except AccessFault as exc:
                    fault = exc.addr
                assert fault == denied, (access, hex(addr), length)
            expected_gate = all(
                per_byte_check(bank, Access.EXECUTE, a)
                and not per_byte_check(bank, Access.READ, a)
                and not per_byte_check(bank, Access.WRITE, a)
                for a in range(QSK_BASE, QSK_BASE + 64)
            )
            assert _gate_is_intact(bank) == expected_gate
            gate_verdicts.add(expected_gate)
        assert gate_verdicts == {True, False}
        assert straddled > 3000
