import ast
import ctypes
import random
import types
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from lrav import pmp, quote
from lrav.crtm import MEASUREMENT_BYTES, AttestationConfig, Measurement, measure
from lrav.device import QSK_BASE, STAGING_ADDR, device_reset
from lrav.errors import AbortReason, GateViolation, MalformedMessage
from lrav.quote import (
    QUOTE_WIRE_BYTES,
    SEED_BYTES,
    Quote,
    sign_quote_gated,
    sign_transcript_gated,
    signature_valid,
    stage_outgoing_quote,
    verification_key,
    verify_quote,
)

from conftest import libsodium


def own_measurement(dev) -> Measurement:
    return measure(dev.memory, dev.attest_config)


def seed_of(dev) -> bytes:
    return dev.memory.read(QSK_BASE, SEED_BYTES)  # trusted path, test-only


def public_key(dev) -> bytes:
    return verification_key(seed_of(dev))


class TestSigningGate:
    def test_honest_quote_verifies(self, device_pair):
        dev, _ = device_pair
        m = own_measurement(dev)
        q = sign_quote_gated(dev, m)
        assert verify_quote(public_key(dev), q, m) is None

    def test_deterministic_signatures(self, device_pair):
        dev, _ = device_pair
        m = own_measurement(dev)
        assert sign_quote_gated(dev, m).to_wire() == sign_quote_gated(dev, m).to_wire()

    def test_gate_refuses_when_boot_skipped_locking(self, device_pair):
        dev, _ = device_pair
        device_reset(dev)
        dev.bank.clear()  # a boot that skipped the lock step
        with pytest.raises(GateViolation):
            sign_quote_gated(dev, own_measurement(dev))

    def test_gate_refuses_before_boot(self, device_pair):
        dev, _ = device_pair
        dev.boot_complete = False
        with pytest.raises(GateViolation):
            sign_quote_gated(dev, own_measurement(dev))

    def test_gate_soundness_on_misconfigured_windows(self, device_pair):
        # absent, unlocked, or not-X-only key windows must all refuse
        dev, _ = device_pair
        m = own_measurement(dev)
        reg = pmp.napot_addr_reg(QSK_BASE, 64)

        def boot_with(config):
            device_reset(dev)
            dev.bank.clear()  # a boot that skipped the lock step
            if config is not None:
                pmp.configure(dev.bank, 0, config, reg)

        for config in [
            None,  # no entry at all
            pmp.PmpConfig(execute=True, addr_mode=pmp.AddrMode.NAPOT, lock=False),
            pmp.PmpConfig(read=True, execute=True, addr_mode=pmp.AddrMode.NAPOT, lock=True),
            pmp.PmpConfig(read=True, write=True, execute=True, addr_mode=pmp.AddrMode.NAPOT, lock=True),
            pmp.PmpConfig(execute=False, addr_mode=pmp.AddrMode.NAPOT, lock=True),
        ]:
            boot_with(config)
            with pytest.raises(GateViolation):
                sign_quote_gated(dev, m)
        device_reset(dev)
        assert verify_quote(public_key(dev), sign_quote_gated(dev, m), m) is None

    def test_gate_wipes_local_seed_buffer(self, device_pair, monkeypatch):
        dev, _ = device_pair
        captured = []
        real_wipe = quote._wipe

        def wipe_spy(buf):
            assert bytes(buf) != bytes(len(buf)), "buffer should hold the seed pre-wipe"
            captured.append(buf)
            real_wipe(buf)

        monkeypatch.setattr(quote, "_wipe", wipe_spy)
        sign_quote_gated(dev, own_measurement(dev))
        assert captured, "gate did not route its key buffer through the wipe"
        assert all(bytes(b) == bytes(len(b)) for b in captured)

    def test_signer_gets_only_the_wiped_buffer(self, device_pair, monkeypatch):
        dev, _ = device_pair
        received = []
        real = quote.Ed25519PrivateKey.from_private_bytes

        def spy(seed):
            received.append(seed)
            return real(seed)

        monkeypatch.setattr(quote, "Ed25519PrivateKey", types.SimpleNamespace(from_private_bytes=spy))
        sign_transcript_gated(dev, bytes(32))
        sign_quote_gated(dev, Measurement(bytes(32), dev.attest_config))  # fresh: signed, not reused
        assert len(received) == 2
        assert all(bytes(seed) == bytes(SEED_BYTES) for seed in received)

    def test_only_memory_holds_the_seed(self, device_pair):
        dev, _ = device_pair
        seed = seed_of(dev)
        sign_quote_gated(dev, own_measurement(dev))
        for name, value in vars(dev).items():  # every attribute, also any added later
            if name == "memory":
                continue
            for held in (value, *getattr(value, "__dict__", {}).values()):
                assert not (isinstance(held, (bytes, bytearray)) and seed in held), name

    def test_transcript_signing_uses_same_gate(self, device_pair):
        dev, _ = device_pair
        device_reset(dev)
        dev.bank.clear()  # a boot that skipped the lock step
        with pytest.raises(GateViolation):
            sign_transcript_gated(dev, bytes(32))
        device_reset(dev)
        sig = sign_transcript_gated(dev, bytes(32))
        assert len(sig) == 64


class TestQuoteSignatureReuse:
    def test_reset_refuses_and_clears_the_slot(self, device_pair):
        dev, _ = device_pair
        m = own_measurement(dev)
        sign_quote_gated(dev, m)
        device_reset(dev)
        dev.bank.clear()  # a boot that skipped the lock step
        assert dev.last_quote is None
        with pytest.raises(GateViolation):
            sign_quote_gated(dev, m)

    def test_gate_still_runs_with_a_signature_in_the_slot(self, device_pair):
        dev, _ = device_pair
        m = own_measurement(dev)
        sign_quote_gated(dev, m)
        dev.boot_complete = False
        with pytest.raises(GateViolation):
            sign_quote_gated(dev, m)
        dev.boot_complete = True
        dev.bank.clear()  # the window unlocked as a reset leaves it, slot kept
        assert dev.last_quote is not None
        with pytest.raises(GateViolation):
            sign_quote_gated(dev, m)

    def test_reused_signature_equals_cold_and_libsodium(self, device_pair):
        dev, _ = device_pair
        m = own_measurement(dev)
        cold = sign_quote_gated(dev, m).signature
        assert dev.last_quote == (m.pack(), cold)
        reused = sign_quote_gated(dev, m).signature
        device_reset(dev)
        assert reused == cold == sign_quote_gated(dev, m).signature
        other = Measurement(bytes(32), m.config)  # a new measurement is signed afresh
        assert sign_quote_gated(dev, other).signature == quote._gated_sign(dev, other.pack())
        lib = libsodium()
        if lib is None:
            pytest.skip("libsodium.so.23 not available")
        seed = seed_of(dev)
        pk, sk = ctypes.create_string_buffer(32), ctypes.create_string_buffer(64)
        assert lib.crypto_sign_ed25519_seed_keypair(pk, sk, seed) == 0
        theirs = ctypes.create_string_buffer(64)
        message = m.pack()
        assert lib.crypto_sign_ed25519_detached(
            theirs, None, message, ctypes.c_ulonglong(len(message)), sk) == 0
        assert pk.raw == public_key(dev) and theirs.raw == reused


class TestVerifyQuote:
    def test_measurement_mismatch(self, device_pair):
        dev, _ = device_pair
        m = own_measurement(dev)
        q = sign_quote_gated(dev, m)
        wrong = Measurement(m.digest[:-1] + bytes([m.digest[-1] ^ 1]), m.config)
        assert verify_quote(public_key(dev), q, wrong) is AbortReason.MEASUREMENT_MISMATCH

    def test_bad_signature(self, device_pair):
        dev, _ = device_pair
        m = own_measurement(dev)
        q = sign_quote_gated(dev, m)
        flipped = bytearray(q.signature)
        flipped[10] ^= 0x04
        tampered = Quote(m, bytes(flipped))
        assert verify_quote(public_key(dev), tampered, m) is AbortReason.BAD_SIGNATURE

    def test_never_throws_on_junk_key(self, device_pair):
        dev, _ = device_pair
        m = own_measurement(dev)
        q = sign_quote_gated(dev, m)
        assert verify_quote(b"\x00" * 32, q, m) in (
            AbortReason.BAD_SIGNATURE,
            AbortReason.MEASUREMENT_MISMATCH,
        )

    def test_soundness_on_random_instances(self):
        # Accept exactly when the digests match AND the signature came from
        # the matching key; both conditions checked independently.
        rng = random.Random(99)
        config = AttestationConfig(0x1000, 0x2000, 256)
        for i in range(50):
            seed_signer = rng.randbytes(32)
            quoted = Measurement(rng.randbytes(32), config)
            expected = quoted if i % 2 == 0 else Measurement(rng.randbytes(32), config)
            right_key = i % 3 != 0
            key = verification_key(seed_signer if right_key else rng.randbytes(32))
            sig = Ed25519PrivateKey.from_private_bytes(seed_signer).sign(quoted.pack())
            verdict = verify_quote(key, Quote(quoted, sig), expected)
            should_accept = right_key and quoted.digest == expected.digest
            assert (verdict is None) == should_accept



def bit_flips(data: bytes):
    """`data` with one bit flipped, for every bit in turn."""
    for i in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[i // 8] ^= 1 << (i % 8)
        yield bytes(flipped)


class TestSignatureValid:
    def test_agrees_with_libsodium(self, rng):
        # honest signatures, and every single-bit flip of signature, message and key
        lib = libsodium()
        if lib is None:
            pytest.skip("libsodium.so.23 not available")
        for size in (32, MEASUREMENT_BYTES):  # a transcript digest, a measurement pack
            seed, message = rng.randbytes(32), rng.randbytes(size)
            key = verification_key(seed)
            sig = Ed25519PrivateKey.from_private_bytes(seed).sign(message)
            cases = [(key, message, sig)]
            cases += [(key, message, flipped) for flipped in bit_flips(sig)]
            cases += [(key, flipped, sig) for flipped in bit_flips(message)]
            cases += [(flipped, message, sig) for flipped in bit_flips(key)]
            for k, m, s in cases:
                theirs = lib.crypto_sign_ed25519_verify_detached(s, m, len(m), k) == 0
                assert signature_valid(k, m, s) == theirs, (k.hex(), m.hex(), s.hex())
            assert signature_valid(key, message, sig)

    def test_only_quote_imports_ed25519(self):
        # lrav signs and verifies Ed25519 in quote.py alone
        ed25519 = "cryptography.hazmat.primitives.asymmetric.ed25519"
        importers = set()
        for path in Path(quote.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = {alias.name for alias in node.names}
                elif isinstance(node, ast.ImportFrom):  # also `from ...asymmetric import ed25519`
                    names = {node.module, *(f"{node.module}.{a.name}" for a in node.names)}
                else:
                    continue
                if ed25519 in names:
                    importers.add(path.name)
        assert importers == {"quote.py"}


class TestVerifyMemo:
    def test_cached_accept_keeps_every_rejection(self, device_pair):
        dev, other = device_pair
        quote._signature_valid.cache_clear()
        m = own_measurement(dev)
        q = sign_quote_gated(dev, m)
        assert verify_quote(public_key(dev), q, m) is None
        flipped = bytearray(q.signature)
        flipped[0] ^= 0x01
        assert verify_quote(public_key(dev), Quote(m, bytes(flipped)), m) \
            is AbortReason.BAD_SIGNATURE
        wrong = Measurement(bytes(32), m.config)
        assert verify_quote(public_key(dev), q, wrong) is AbortReason.MEASUREMENT_MISMATCH
        assert verify_quote(public_key(other), q, m) is AbortReason.BAD_SIGNATURE
        assert verify_quote(public_key(dev), q, m) is None

    def test_accepts_bytes_like_arguments(self, device_pair):
        dev, _ = device_pair
        m = own_measurement(dev)
        sig = sign_quote_gated(dev, m).signature
        for kind in (bytearray, memoryview):
            q = Quote(m, kind(bytearray(sig)))
            assert verify_quote(kind(bytearray(public_key(dev))), q, m) is None


class TestWireForm:
    def test_quote_wire_is_116_bytes(self, device_pair):
        dev, _ = device_pair
        wire = sign_quote_gated(dev, own_measurement(dev)).to_wire()
        assert len(wire) == QUOTE_WIRE_BYTES == 116
        assert Quote.from_wire(wire).to_wire() == wire

    def test_from_wire_rejects_bad_contents(self):
        with pytest.raises(MalformedMessage):
            Quote.from_wire(bytes(116))  # start == end inside: invalid config
        with pytest.raises(MalformedMessage):
            Quote.from_wire(bytes(50))


class TestStaging:
    def test_honest_staging_roundtrips(self, device_pair):
        dev, _ = device_pair
        wire = sign_quote_gated(dev, own_measurement(dev)).to_wire()
        assert stage_outgoing_quote(dev, wire) == wire

    def test_staging_hook_tampers_transmission(self, device_pair):
        from lrav.device import mem_access

        dev, _ = device_pair
        dev.quote_staging_hook = lambda d: mem_access(
            d, pmp.Access.WRITE, STAGING_ADDR, data=bytes(QUOTE_WIRE_BYTES)
        )
        wire = sign_quote_gated(dev, own_measurement(dev)).to_wire()
        assert stage_outgoing_quote(dev, wire) == bytes(QUOTE_WIRE_BYTES)


class TestNoKeyExfiltration:
    def test_public_surfaces_never_contain_seed(self, device_pair):
        dev, _ = device_pair
        seed = seed_of(dev)
        surfaces = [
            repr(dev),
            repr(sign_quote_gated(dev, own_measurement(dev))),
            sign_quote_gated(dev, own_measurement(dev)).to_wire().hex(),
            dev.trust.canonical_text(),
        ]
        for surface in surfaces:
            assert seed.hex() not in surface
            assert seed not in surface.encode()
