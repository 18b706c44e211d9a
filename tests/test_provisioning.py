import json

import pytest

from lrav.crtm import AttestationConfig
from lrav.errors import AccessFault, DuplicatePeer, InsufficientEntropy, ParseError, UnknownPeer
from lrav.provisioning import (
    FLASH_BASE,
    FLASH_SIZE,
    DeviceProfile,
    TrustStore,
    TrustedPeer,
    build_device,
    compute_expected,
    format_trust_record,
    gen_identity,
    load_profile,
    load_trust_store,
    parse_trust_store,
    save_profile,
)

from conftest import flash_image


class TestIdentity:
    def test_deterministic_under_fixed_seed(self):
        a = gen_identity(b"\x07" * 32)
        b = gen_identity(b"\x07" * 32)
        assert a.public == b.public and a.rom_bytes() == b.rom_bytes()

    def test_random_identities_differ(self):
        assert gen_identity().public != gen_identity().public

    def test_sign_verify_self_test(self):
        from cryptography.hazmat.primitives.asymmetric.ed25519 import (
            Ed25519PrivateKey,
            Ed25519PublicKey,
        )

        key = gen_identity(b"\x55" * 40)
        seed = key.rom_bytes()[:32]
        sig = Ed25519PrivateKey.from_private_bytes(seed).sign(b"self-test")
        Ed25519PublicKey.from_public_bytes(key.public).verify(sig, b"self-test")

    def test_insufficient_entropy(self):
        with pytest.raises(InsufficientEntropy):
            gen_identity(b"short")


class TestComputeExpected:
    CONFIG = AttestationConfig(FLASH_BASE, FLASH_BASE + 4096, 1024)

    def test_matches_live_measurement(self, rng):
        firmware = rng.randbytes(4096)
        from lrav.crtm import measure

        image = flash_image(firmware)
        assert compute_expected(image, self.CONFIG) == measure(image, self.CONFIG)

    def test_flipped_bit_differs(self, rng):
        firmware = bytearray(rng.randbytes(4096))
        before = compute_expected(flash_image(bytes(firmware)), self.CONFIG)
        firmware[2000] ^= 0x20
        after = compute_expected(flash_image(bytes(firmware)), self.CONFIG)
        assert before.digest != after.digest

    def test_block_size_changes_expected(self, rng):
        firmware = rng.randbytes(4096)
        small = compute_expected(flash_image(firmware), self.CONFIG)
        big = compute_expected(
            flash_image(firmware), AttestationConfig(FLASH_BASE, FLASH_BASE + 4096, 4096)
        )
        assert small.digest != big.digest


def sample_store(rng) -> TrustStore:
    key_a = gen_identity(b"\x01" * 32).public
    key_b = gen_identity(b"\x02" * 32).public
    cfg1 = AttestationConfig(FLASH_BASE, FLASH_BASE + 0x10000, 1024)
    cfg2 = AttestationConfig(FLASH_BASE, FLASH_BASE + 0x10000, 4096)
    from lrav.crtm import Measurement

    return TrustStore({
        "alpha": TrustedPeer(key_a, (Measurement(rng.randbytes(32), cfg1),)),
        "beta": TrustedPeer(
            key_b,
            (Measurement(rng.randbytes(32), cfg1), Measurement(rng.randbytes(32), cfg2)),
        ),
    })


class TestTrustStoreFormat:
    def test_resolve_names_a_provisioned_or_the_sole_peer(self, rng):
        store = sample_store(rng)
        with pytest.raises(UnknownPeer, match="2 peers are provisioned"):
            store.resolve(None)
        with pytest.raises(UnknownPeer, match="0 peers are provisioned"):
            TrustStore({}).resolve(None)
        assert TrustStore({"beta": store.get("beta")}).resolve(None) == "beta"
        assert store.resolve("alpha") == "alpha"
        with pytest.raises(UnknownPeer, match="peer 'nobody' is not provisioned"):
            store.resolve("nobody")

    def test_roundtrip(self, rng, tmp_path):
        store = sample_store(rng)
        path = tmp_path / "trust.store"
        path.write_text(store.canonical_text())
        loaded = load_trust_store(path)
        assert loaded.canonical_text() == store.canonical_text()
        for peer_id in ("alpha", "beta"):
            assert loaded.get(peer_id) == store.get(peer_id)

    def test_save_is_canonical(self, rng, tmp_path):
        store = sample_store(rng)
        path = tmp_path / "trust.store"
        path.write_text(store.canonical_text())
        text = path.read_text()
        path.write_text(load_trust_store(path).canonical_text())
        assert path.read_text() == text

    def test_comments_and_blank_lines(self, rng):
        store = sample_store(rng)
        text = "# header comment\n\n" + store.canonical_text().replace(
            "peer beta", "# interleaved\npeer beta"
        )
        assert parse_trust_store(text).canonical_text() == store.canonical_text()

    def test_duplicate_peer(self, rng):
        store = sample_store(rng)
        text = store.canonical_text() + "\n" + format_trust_record(
            "alpha", bytes(32), store.get("alpha").expected
        )
        with pytest.raises(DuplicatePeer):
            parse_trust_store(text)

    def test_truncated_hex_reports_line(self, rng):
        lines = sample_store(rng).canonical_text().splitlines()
        key_line = next(i for i, l in enumerate(lines) if l.startswith("key "))
        lines[key_line] = lines[key_line][:-2]  # chop one hex byte
        with pytest.raises(ParseError) as exc:
            parse_trust_store("\n".join(lines))
        assert exc.value.line == key_line + 1

    def test_missing_key_and_expect(self):
        with pytest.raises(ParseError):
            parse_trust_store("peer lonely\nexpect 0 40 16 " + "00" * 32)
        with pytest.raises(ParseError):
            parse_trust_store("peer lonely\nkey " + "00" * 32)

    def test_expect_block_a_quote_cannot_encode(self):
        with pytest.raises(ParseError, match="4 bytes") as exc:
            parse_trust_store(f"peer big\nkey {'00' * 32}\nexpect 0 40 4294967296 {'00' * 32}")
        assert exc.value.line == 3

    def test_unknown_directive(self):
        with pytest.raises(ParseError) as exc:
            parse_trust_store("banana split")
        assert exc.value.line == 1

    def test_store_has_no_mutation_api(self, rng):
        store = sample_store(rng)
        with pytest.raises(TypeError):
            store._entries["mallory"] = store.get("alpha")  # mappingproxy


class TestProfile:
    def test_roundtrip(self, tmp_path):
        profile = DeviceProfile(
            device_id="gamma",
            qsk_seed=b"\x09" * 32,
            attest=AttestationConfig(FLASH_BASE, FLASH_BASE + 0x4000, 2048),
            firmware="fw.bin",
        )
        path = tmp_path / "gamma.json"
        save_profile(path, profile)
        assert load_profile(path) == profile

    def test_bad_profile_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"device_id": "x"}')
        with pytest.raises(ValueError):
            load_profile(path)

    def test_saved_profile_has_no_memory_map(self, tmp_path):
        path = tmp_path / "gamma.json"
        save_profile(path, DeviceProfile(
            "gamma", b"\x09" * 32, AttestationConfig(FLASH_BASE, FLASH_BASE + 64, 64)))
        assert set(json.loads(path.read_text())) == {"device_id", "qsk_seed", "attest", "firmware"}

    # the "memory" section every profile carried before the map was fixed
    FIXED_MAP = {
        "rom_base": "0x1000", "rom_size": "0x4000", "flash_base": "0x20000000",
        "flash_size": "0x400000", "sram_base": "0x80000000", "sram_size": "0x4000",
        "qsk_base": "0x4f00",
    }

    def profile_with_memory(self, tmp_path, memory):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "device_id": "old", "qsk_seed": "09" * 32,
            "attest": {"start": "0x20000000", "end": "0x20001000", "block": 1024},
            "memory": memory, "firmware": None,
        }))
        return path

    def test_old_profile_with_the_fixed_map_loads(self, tmp_path):
        path = self.profile_with_memory(tmp_path, self.FIXED_MAP)
        assert load_profile(path) == DeviceProfile(
            "old", b"\x09" * 32, AttestationConfig(FLASH_BASE, FLASH_BASE + 0x1000, 1024))

    @pytest.mark.parametrize("name, value", [
        ("qsk_base", "0x4f40"), ("flash_size", "0x400"), ("sram_base", "0x90000000"),
        ("ram_base", "0x0"),
    ])
    def test_profile_with_another_memory_map_is_refused(self, tmp_path, name, value):
        path = self.profile_with_memory(tmp_path, {**self.FIXED_MAP, name: value})
        with pytest.raises(ValueError, match=f"memory {name}={value} is not the fixed memory map"):
            load_profile(path)


    def test_memory_section_that_is_not_a_map_is_a_bad_profile(self, tmp_path):
        for memory in (None, ["rom_base"], {"rom_base": 4096}):
            with pytest.raises(ValueError, match="bad device profile"):
                load_profile(self.profile_with_memory(tmp_path, memory))


class TestBuiltDeviceRom:
    def test_trust_store_bytes_live_in_rom(self, device_pair):
        dev, _ = device_pair
        text = dev.trust.canonical_text().encode()
        assert dev.memory.read(0x1000, len(text)) == text

    def test_rom_backing_rejects_mutation(self, device_pair):
        from lrav.device import mem_access
        from lrav.pmp import Access

        dev, _ = device_pair
        text = dev.trust.canonical_text().encode()
        with pytest.raises(AccessFault):
            mem_access(dev, Access.WRITE, 0x1000, data=b"peer mallory")
        assert dev.memory.read(0x1000, len(text)) == text

    def test_oversized_firmware_rejected(self, rng):
        profile = DeviceProfile(
            device_id="tiny",
            qsk_seed=b"\x01" * 32,
            attest=AttestationConfig(FLASH_BASE, FLASH_BASE + 1024, 256),
        )
        store = TrustStore({
            "peer": TrustedPeer(
                gen_identity(b"\x03" * 32).public,
                (compute_expected(
                    flash_image(bytes(1024)),
                    AttestationConfig(FLASH_BASE, FLASH_BASE + 1024, 256),
                ),),
            )
        })
        with pytest.raises(ValueError, match="exceeds flash size"):
            build_device(profile, store, bytes(FLASH_SIZE + 1))
