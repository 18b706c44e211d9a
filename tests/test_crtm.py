import hashlib
import random
import sys
import threading

import pytest

from lrav import crtm
from lrav.crtm import AttestationConfig, Measurement, measure, measurement_equals
from lrav.errors import InvalidRange
from lrav.memory import MemoryImage, Region, RegionKind
from lrav.provisioning import FLASH_BASE

from conftest import flash_image
from oracles import iterative_chain_digest, recursive_chain_digest

SIZES = [1, 31, 32, 33, 100, 1023, 1024, 1025, 2048, 4095, 4096, 4097, 8000, 8192]
BLOCKS = [32, 1024, 4096]
# The native kernel's grid (TestNativeKernel): block sizes around the rate and
# around a second tail permutation, chains that reuse every lane.
CHAIN_BLOCKS = [1, 31, 32, 33, 103, 104, 105, 135, 136, 137, 271, 272, 273, 1024, 4096]
CHAIN_COUNTS = [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 20]


def digest_of(firmware: bytes, block: int) -> bytes:
    config = AttestationConfig(FLASH_BASE, FLASH_BASE + len(firmware), block)
    return measure(flash_image(firmware), config).digest


class TestOracleEquivalence:
    def test_all_size_block_combinations(self, rng):
        for size in SIZES:
            data = rng.randbytes(size)
            for block in BLOCKS:
                assert digest_of(data, block) == recursive_chain_digest(data, block), (size, block)

    def test_python_fallback_matches_accelerator(self, rng):
        for _ in range(50):
            size = rng.randrange(1, 10000)
            block = rng.choice([1, 7, 32, 100, 1024, 4096])
            data = rng.randbytes(size)
            assert crtm._chained_sha3_256(data, block) == iterative_chain_digest(data, block)

    def test_two_block_example(self):
        # 2 KB region, 1 KB blocks: digest == H(B0 || H(B1))
        data = bytes(range(256)) * 8
        b0, b1 = data[:1024], data[1024:]
        expected = hashlib.sha3_256(b0 + hashlib.sha3_256(b1).digest()).digest()
        assert digest_of(data, 1024) == expected

    def test_single_block_terminal_case(self):
        data = b"\x5a" * 1024
        assert digest_of(data, 1024) == hashlib.sha3_256(data).digest()

    def test_chaining_structure_enters_the_hash(self):
        # same bytes, different block size => different digest, even all-zero
        data = bytes(4096)
        assert digest_of(data, 1024) != digest_of(data, 4096)


class TestSensitivity:
    def test_any_single_bit_flip_changes_digest(self, rng):
        data = bytearray(rng.randbytes(4096))
        baseline = digest_of(bytes(data), 1024)
        for _ in range(120):
            pos, bit = rng.randrange(4096), rng.randrange(8)
            data[pos] ^= 1 << bit
            assert digest_of(bytes(data), 1024) != baseline
            data[pos] ^= 1 << bit

    def test_out_of_range_bytes_are_ignored(self, rng):
        firmware = bytearray(rng.randbytes(8192))
        config = AttestationConfig(FLASH_BASE + 2048, FLASH_BASE + 6144, 1024)
        baseline = measure(flash_image(bytes(firmware)), config).digest
        for pos in [0, 2047, 6144, 8191]:
            firmware[pos] ^= 0xFF
            assert measure(flash_image(bytes(firmware)), config).digest == baseline


class TestAttestedRange:
    def test_range_must_lie_inside_one_region(self):
        # two regions that meet at FLASH_BASE + 4096: each measures alone
        image = MemoryImage([
            Region(FLASH_BASE, RegionKind.FLASH, bytearray(4096)),
            Region(FLASH_BASE + 4096, RegionKind.FLASH, bytearray(4096)),
        ])
        measure(image, AttestationConfig(FLASH_BASE, FLASH_BASE + 4096, 1024))
        measure(image, AttestationConfig(FLASH_BASE + 4096, FLASH_BASE + 8192, 1024))
        for start, end in ((FLASH_BASE + 2048, FLASH_BASE + 6144),  # across the seam
                           (FLASH_BASE + 4096, FLASH_BASE + 8193)):  # past the end
            with pytest.raises(InvalidRange, match="crosses a region boundary"):
                measure(image, AttestationConfig(start, end, 1024))

    def test_reads_the_image_without_a_copy(self):
        image = flash_image(bytes(4096))
        view = crtm._read_attested(image, AttestationConfig(FLASH_BASE + 1, FLASH_BASE + 9, 4))
        assert view.readonly and view.obj is image.regions[0].data and len(view) == 8


class TestConfigValidation:
    def test_empty_range_rejected(self):
        with pytest.raises(InvalidRange):
            AttestationConfig(FLASH_BASE, FLASH_BASE, 1024)

    def test_zero_block_rejected(self):
        with pytest.raises(InvalidRange):
            AttestationConfig(FLASH_BASE, FLASH_BASE + 1024, 0)

    def test_block_size_must_fit_the_quote(self):
        # a quote packs the block size in 4 bytes: the largest that fits still packs
        largest = AttestationConfig(FLASH_BASE, FLASH_BASE + 1024, 0xFFFF_FFFF)
        assert Measurement(bytes(32), largest).pack()[16:20] == b"\xff" * 4
        with pytest.raises(InvalidRange, match="4 bytes"):
            AttestationConfig(FLASH_BASE, FLASH_BASE + 1024, 0x1_0000_0000)

    def test_unmapped_range_rejected(self):
        config = AttestationConfig(0x100, 0x200, 32)
        with pytest.raises(InvalidRange):
            measure(flash_image(b"\x00" * 64), config)

    def test_range_partially_unmapped(self):
        config = AttestationConfig(FLASH_BASE, FLASH_BASE + 128, 32)
        with pytest.raises(InvalidRange):
            measure(flash_image(bytes(64)), config)


class TestMeasurementEquality:
    def test_identical(self):
        config = AttestationConfig(0x0, 0x40, 16)
        a = Measurement(b"\x11" * 32, config)
        assert measurement_equals(a, Measurement(b"\x11" * 32, config))

    def test_config_is_part_of_identity(self):
        a = Measurement(b"\x11" * 32, AttestationConfig(0x0, 0x40, 16))
        b = Measurement(b"\x11" * 32, AttestationConfig(0x0, 0x40, 32))
        assert not measurement_equals(a, b)

    def test_last_byte_differs(self):
        config = AttestationConfig(0x0, 0x40, 16)
        a = Measurement(b"\x11" * 32, config)
        b = Measurement(b"\x11" * 31 + b"\x12", config)
        assert not measurement_equals(a, b)

    def test_pack_layout(self):
        m = Measurement(bytes(range(32)), AttestationConfig(0x2000_0000, 0x2001_0000, 1024))
        packed = m.pack()
        assert len(packed) == 52
        assert packed[:8] == (0x2000_0000).to_bytes(8, "big")
        assert packed[8:16] == (0x2001_0000).to_bytes(8, "big")
        assert packed[16:20] == (1024).to_bytes(4, "big")
        assert packed[20:] == bytes(range(32))
        assert Measurement.unpack(packed) == m


def test_determinism(rng):
    data = rng.randbytes(5000)
    assert digest_of(data, 1024) == digest_of(data, 1024)


native = crtm._chained_sha3_256

# FIPS 202 SHA3-256 examples (NIST "SHA3-256" example values)
FIPS202 = {
    b"abc": "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532",
    b"\xa3" * 200: "79f38adec5c20307a98ef76e8324afbfd46cfd81b22e3973c65fa1bd9de31787",
}


class TestNativeKernel:
    """The multi-lane sponge against hashlib and the pure-Python chain.

    Block sizes sit around the 136-byte rate and around the point where a
    block's remainder plus the 32-byte chain value spills into a second
    permutation; chains of up to 20 blocks put a block on every lane and
    reuse each lane several times.
    """

    def test_one_block_equals_sha3_256(self, rng):
        for n in [*range(1, 301), 4095, 4096, 4097]:
            data = rng.randbytes(n)
            assert native(data, 1 << 20) == hashlib.sha3_256(data).digest(), n

    def test_fips202_examples(self):
        for message, digest in FIPS202.items():
            assert native(message, len(message)).hex() == digest
            assert iterative_chain_digest(message, len(message)).hex() == digest

    def test_chains_equal_the_python_chain(self, rng):
        for block in CHAIN_BLOCKS:
            for count in CHAIN_COUNTS:
                for last in {block, 1, block // 2 + 1}:
                    data = rng.randbytes((count - 1) * block + last)
                    assert native(data, block) == iterative_chain_digest(data, block), (block, count, last)

    def test_unaligned_memoryview(self, rng):
        region = bytearray(rng.randbytes(9000))
        for offset in (1, 3, 7):
            view = memoryview(region)[offset:offset + 8191]
            for block in (100, 1024):
                assert native(view, block) == iterative_chain_digest(bytes(view), block)

    def test_concurrent_calls_share_nothing(self):
        images = [random.Random(seed).randbytes(256 * 1024 + seed) for seed in range(4)]
        expected = [iterative_chain_digest(image, 1024) for image in images]
        results: list[list[bytes]] = [[] for _ in images]

        def work(k):
            for _ in range(10):
                results[k].append(native(images[k], 1024))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k, got in enumerate(results):
            assert got == [expected[k]] * 10
