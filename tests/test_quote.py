import ctypes
import random

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from lrav import pmp, quote
from lrav.crtm import AttestationConfig, Measurement, measure
from lrav.device import device_reset
from lrav.errors import GateViolation, MalformedMessage
from lrav.quote import (
    QUOTE_WIRE_BYTES,
    Quote,
    QuoteSigningKey,
    QuoteVerdict,
    sign_quote_gated,
    sign_transcript_gated,
    stage_outgoing_quote,
    verify_quote,
)

from conftest import libsodium


def own_measurement(dev) -> Measurement:
    return measure(dev.memory, dev.attest_config)


class TestSigningGate:
    def test_honest_quote_verifies(self, device_pair):
        dev, _ = device_pair
        m = own_measurement(dev)
        q = sign_quote_gated(dev, m)
        assert verify_quote(dev.identity.public, q, m) is QuoteVerdict.ACCEPT

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
        reg = pmp.napot_addr_reg(dev.qsk_base, 64)

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
        assert verify_quote(dev.identity.public, sign_quote_gated(dev, m), m) is QuoteVerdict.ACCEPT

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
        seed = dev.memory.read(dev.qsk_base, 32)  # trusted path, test-only
        pk, sk = ctypes.create_string_buffer(32), ctypes.create_string_buffer(64)
        assert lib.crypto_sign_ed25519_seed_keypair(pk, sk, seed) == 0
        theirs = ctypes.create_string_buffer(64)
        message = m.pack()
        assert lib.crypto_sign_ed25519_detached(
            theirs, None, message, ctypes.c_ulonglong(len(message)), sk) == 0
        assert pk.raw == dev.identity.public and theirs.raw == reused


class TestVerifyQuote:
    def test_measurement_mismatch(self, device_pair):
        dev, _ = device_pair
        m = own_measurement(dev)
        q = sign_quote_gated(dev, m)
        wrong = Measurement(m.digest[:-1] + bytes([m.digest[-1] ^ 1]), m.config)
        assert verify_quote(dev.identity.public, q, wrong) is QuoteVerdict.MEASUREMENT_MISMATCH

    def test_bad_signature(self, device_pair):
        dev, _ = device_pair
        m = own_measurement(dev)
        q = sign_quote_gated(dev, m)
        flipped = bytearray(q.signature)
        flipped[10] ^= 0x04
        tampered = Quote(m, bytes(flipped))
        assert verify_quote(dev.identity.public, tampered, m) is QuoteVerdict.BAD_SIGNATURE

    def test_never_throws_on_junk_key(self, device_pair):
        dev, _ = device_pair
        m = own_measurement(dev)
        q = sign_quote_gated(dev, m)
        assert verify_quote(b"\x00" * 32, q, m) in (
            QuoteVerdict.BAD_SIGNATURE,
            QuoteVerdict.MEASUREMENT_MISMATCH,
        )

    def test_soundness_on_random_instances(self):
        # Accept exactly when the digests match AND the signature came from
        # the matching key; both conditions checked independently.
        rng = random.Random(99)
        config = AttestationConfig(0x1000, 0x2000, 256)
        for i in range(50):
            seed_signer = rng.randbytes(32)
            signer = QuoteSigningKey(seed_signer)
            quoted = Measurement(rng.randbytes(32), config)
            expected = quoted if i % 2 == 0 else Measurement(rng.randbytes(32), config)
            right_key = i % 3 != 0
            key = signer.public if right_key else QuoteSigningKey(rng.randbytes(32)).public
            sig = Ed25519PrivateKey.from_private_bytes(seed_signer).sign(quoted.pack())
            verdict = verify_quote(key, Quote(quoted, sig), expected)
            should_accept = right_key and quoted.digest == expected.digest
            assert (verdict is QuoteVerdict.ACCEPT) == should_accept


class TestVerifyMemo:
    def test_cached_accept_keeps_every_rejection(self, device_pair):
        dev, other = device_pair
        quote._signature_valid.cache_clear()
        m = own_measurement(dev)
        q = sign_quote_gated(dev, m)
        assert verify_quote(dev.identity.public, q, m) is QuoteVerdict.ACCEPT
        flipped = bytearray(q.signature)
        flipped[0] ^= 0x01
        assert verify_quote(dev.identity.public, Quote(m, bytes(flipped)), m) \
            is QuoteVerdict.BAD_SIGNATURE
        wrong = Measurement(bytes(32), m.config)
        assert verify_quote(dev.identity.public, q, wrong) is QuoteVerdict.MEASUREMENT_MISMATCH
        assert verify_quote(other.identity.public, q, m) is QuoteVerdict.BAD_SIGNATURE
        assert verify_quote(dev.identity.public, q, m) is QuoteVerdict.ACCEPT

    def test_accepts_bytes_like_arguments(self, device_pair):
        dev, _ = device_pair
        m = own_measurement(dev)
        sig = sign_quote_gated(dev, m).signature
        for kind in (bytearray, memoryview):
            q = Quote(m, kind(bytearray(sig)))
            assert verify_quote(kind(bytearray(dev.identity.public)), q, m) is QuoteVerdict.ACCEPT


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
            d, pmp.Access.WRITE, d.staging_addr, data=bytes(QUOTE_WIRE_BYTES)
        )
        wire = sign_quote_gated(dev, own_measurement(dev)).to_wire()
        assert stage_outgoing_quote(dev, wire) == bytes(QUOTE_WIRE_BYTES)


class TestNoKeyExfiltration:
    def test_public_surfaces_never_contain_seed(self, device_pair):
        dev, _ = device_pair
        seed = dev.memory.read(dev.qsk_base, 32)  # trusted path, test-only
        surfaces = [
            repr(dev),
            repr(dev.identity),
            str(dev.identity),
            repr(sign_quote_gated(dev, own_measurement(dev))),
            sign_quote_gated(dev, own_measurement(dev)).to_wire().hex(),
            dev.trust.canonical_text(),
        ]
        for surface in surfaces:
            assert seed.hex() not in surface
            assert seed not in surface.encode()
