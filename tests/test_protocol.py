import hashlib
import random
import threading

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey

import lrav.protocol
from lrav import quote
from lrav.crtm import Measurement
from lrav.device import mem_access
from lrav.errors import (
    AuthenticationFailed,
    MalformedMessage,
    ProtocolAbort,
    ProtocolStateError,
    UnknownPeer,
    WeakPoint,
)
from lrav.pmp import Access
from lrav.protocol import (
    AbortReason,
    Direction,
    Phase,
    Role,
    SessionState,
    WireM1,
    WireM2,
    WireM3,
    ae_nonce,
    ae_open,
    ae_seal,
    derive_session_key,
    initiate,
    process_m2,
    process_m3,
    produce_own_quote,
    respond_m1,
    transcript_hash,
)
from lrav.provisioning import TrustedPeer, TrustStore, provision_pair
from lrav.runner import run_pair

from oracles import GOLDEN_TRANSCRIPT

# sha3_256 over 244 zero bytes, computed once with hashlib and frozen
ZERO_TRANSCRIPT = "ad17cb196f25d881e83209846061c9a70457aa2a6d5a5b2dc92d958673cef874"


def honest_run(dev_a, dev_b):
    st_a, m1 = initiate(dev_a, "beta")
    st_b, m2 = respond_m1(dev_b, m1, "alpha")
    st_a, m3 = process_m2(dev_a, st_a, m2, produce_own_quote(dev_a))
    st_b = process_m3(dev_b, st_b, m3)
    return st_a, st_b, (m1, m2, m3)


# every small-order table entry, with the top bit that X25519 ignores clear and set
SMALL_ORDER_POINTS = [
    (u | top).to_bytes(32, "little")
    for u in sorted(lrav.protocol._SMALL_ORDER) for top in (0, 1 << 255)
]


def test_small_order_table_matches_the_backend():
    assert len(SMALL_ORDER_POINTS) == 14
    key = X25519PrivateKey.generate()
    for point in SMALL_ORDER_POINTS:
        assert lrav.protocol.is_small_order(point)
        with pytest.raises(ValueError):
            key.exchange(X25519PublicKey.from_public_bytes(point))
    honest = X25519PrivateKey.generate().public_key().public_bytes_raw()
    assert not lrav.protocol.is_small_order(honest)


def test_golden_wire_transcript(monkeypatch):
    draws = random.Random(0x601D)  # A draws before M1 is sent, B after it arrives
    monkeypatch.setattr(lrav.protocol, "urandom", draws.randbytes)
    monkeypatch.setattr(
        lrav.protocol.X25519PrivateKey, "generate",
        lambda: lrav.protocol.X25519PrivateKey.from_private_bytes(draws.randbytes(32)),
    )
    firmware = random.Random(0xF1).randbytes(16 * 1024)
    dev_a, dev_b = provision_pair(firmware[:8192], firmware[8192:])
    frames = []

    def tap(data):
        frames.append(data)
        return (data,)

    res_a, res_b = run_pair(dev_a, dev_b, a_hook=tap, b_hook=tap)
    assert res_a.established and res_b.established
    assert [len(f) for f in frames] == [75, 271, 206]
    assert hashlib.sha256(b"".join(frames)).hexdigest() == GOLDEN_TRANSCRIPT


class TestWireSizes:
    def test_m1_is_65_bytes(self, device_pair):
        dev_a, _ = device_pair
        _, m1 = initiate(dev_a, "beta")
        assert len(m1.pack()) == 65

    def test_m2_is_261_bytes(self, device_pair):
        dev_a, dev_b = device_pair
        _, m1 = initiate(dev_a, "beta")
        _, m2 = respond_m1(dev_b, m1, "alpha")
        assert len(m2.pack()) == 261
        assert len(m2.box) == 196  # 180-byte plaintext + 16-byte tag

    def test_m3_is_196_bytes(self, device_pair):
        dev_a, dev_b = device_pair
        st_a, m1 = initiate(dev_a, "beta")
        _, m2 = respond_m1(dev_b, m1, "alpha")
        _, m3 = process_m2(dev_a, st_a, m2, produce_own_quote(dev_a))
        assert len(m3.pack()) == 196


class TestHonestRun:
    def test_both_sides_establish_with_equal_keys(self, device_pair):
        st_a, st_b, _ = honest_run(*device_pair)
        assert st_a.phase is Phase.ESTABLISHED and st_b.phase is Phase.ESTABLISHED
        assert st_a.session_key() == st_b.session_key()

    def test_ephemeral_scalars_cleared(self, device_pair):
        st_a, st_b, _ = honest_run(*device_pair)
        assert st_a.scalar is None and st_b.scalar is None
        for snap in (st_a.snapshot(), st_b.snapshot()):
            assert snap["ephemeral_secret_cleared"] is True
            assert "secret" not in str(snap) or "cleared" in str(snap)

    def test_key_not_released_before_established(self, device_pair):
        dev_a, dev_b = device_pair
        st_a, m1 = initiate(dev_a, "beta")
        st_b, m2 = respond_m1(dev_b, m1, "alpha")
        with pytest.raises(ProtocolStateError):
            st_b.session_key()  # B must validate M3 first
        st_a, m3 = process_m2(dev_a, st_a, m2, produce_own_quote(dev_a))
        process_m3(dev_b, st_b, m3)
        assert st_b.session_key()

    def test_snapshot_never_contains_key_material(self, device_pair):
        st_a, st_b, _ = honest_run(*device_pair)
        key_hex = st_a.session_key().hex()
        for st in (st_a, st_b):
            assert key_hex not in str(st.snapshot())
            assert key_hex not in repr(st)


class TestEd25519Count:
    """Ed25519 operations per handshake, both sides summed, counted at the
    `cryptography` names that quote.py, lrav's only Ed25519 code, calls."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"sign": 0, "verify": 0}

        class Signer:
            def __init__(self, key):
                self._key = key

            @classmethod
            def from_private_bytes(cls, data):
                return cls(Ed25519PrivateKey.from_private_bytes(data))

            def sign(self, message):
                counts["sign"] += 1
                return self._key.sign(message)

        class Verifier:
            def __init__(self, key):
                self._key = key

            @classmethod
            def from_public_bytes(cls, data):
                return cls(Ed25519PublicKey.from_public_bytes(data))

            def verify(self, signature, message):
                counts["verify"] += 1
                self._key.verify(signature, message)

        monkeypatch.setattr(quote, "Ed25519PrivateKey", Signer)
        monkeypatch.setattr(quote, "Ed25519PublicKey", Verifier)
        quote._signature_valid.cache_clear()
        return counts

    def handshake(self, dev_a, dev_b, counts) -> dict:
        counts.update(sign=0, verify=0)
        res_a, res_b = run_pair(dev_a, dev_b)
        assert res_a.established and res_b.established
        return dict(counts)

    def test_warm_handshake_signs_and_verifies_transcripts_only(self, device_pair, counts):
        assert self.handshake(*device_pair, counts) == {"sign": 4, "verify": 4}
        assert self.handshake(*device_pair, counts) == {"sign": 2, "verify": 2}

    def test_two_expected_measurements_verify_the_quote_once(self, device_pair, counts):
        dev_a, dev_b = device_pair
        peer = dev_a.trust.get("beta")
        other = Measurement(bytes(32), peer.expected[0].config)
        dev_a.trust = TrustStore({"beta": TrustedPeer(peer.verify_key, (other, *peer.expected))})
        assert self.handshake(dev_a, dev_b, counts) == {"sign": 4, "verify": 4}


class TestFreshness:
    def test_initiate_samples_fresh_values(self, device_pair):
        dev_a, _ = device_pair
        _, m1_first = initiate(dev_a, "beta")
        _, m1_second = initiate(dev_a, "beta")
        assert m1_first.nonce != m1_second.nonce
        assert m1_first.point != m1_second.point

    def test_unknown_peer(self, device_pair):
        dev_a, _ = device_pair
        with pytest.raises(UnknownPeer):
            initiate(dev_a, "mallory")

    @staticmethod
    def established_then_flipped(dev_a, dev_b, flipped):
        """One honest session, then one attested flash bit flipped on `flipped`."""
        res_a, res_b = run_pair(dev_a, dev_b)
        assert res_a.established and res_b.established
        addr = flipped.attest_config.start_addr
        byte = mem_access(flipped, Access.READ, addr, length=1)[0]
        mem_access(flipped, Access.WRITE, addr, data=bytes([byte ^ 0x01]))

    def test_flip_on_responder_after_a_session_is_seen(self, device_pair):
        # the next session must measure again, not answer with the earlier quote
        dev_a, dev_b = device_pair
        self.established_then_flipped(dev_a, dev_b, dev_b)
        res_a, res_b = run_pair(dev_a, dev_b)
        assert (res_a.reason, res_a.peer_reported) == (AbortReason.MEASUREMENT_MISMATCH, False)
        assert (res_b.reason, res_b.peer_reported) == (AbortReason.MEASUREMENT_MISMATCH, True)

    def test_flip_on_initiator_after_a_session_is_seen(self, device_pair):
        # M3 is the last flight: A has established before B's verdict, which
        # A never hears
        dev_a, dev_b = device_pair
        self.established_then_flipped(dev_a, dev_b, dev_a)
        res_a, res_b = run_pair(dev_a, dev_b)
        assert (res_b.reason, res_b.peer_reported) == (AbortReason.MEASUREMENT_MISMATCH, False)
        assert res_a.established

    def test_session_asking_during_an_older_measurement_measures_again(
        self, device_pair, monkeypatch
    ):
        # B of session 1 has digested its memory and is held; one attested bit
        # of B flips; B of session 2 asks for a quote; then session 1 goes on.
        # Session 1 reports the memory it read; session 2 must read it again.
        dev_a, dev_b = device_pair
        measured, asked, release = threading.Event(), threading.Event(), threading.Event()
        real_measure, real_quote = lrav.protocol.measure, lrav.protocol.produce_own_quote

        def held_measure(image, config):
            result = real_measure(image, config)
            if image is dev_b.memory and not measured.is_set():
                measured.set()
                assert release.wait(5.0)
            return result

        def noted_quote(dev):
            if dev is dev_b and measured.is_set():  # session 2's B asks
                asked.set()
            return real_quote(dev)

        monkeypatch.setattr(lrav.protocol, "measure", held_measure)
        monkeypatch.setattr(lrav.protocol, "produce_own_quote", noted_quote)
        results = {}
        first, second = (
            threading.Thread(target=lambda n=n: results.update({n: run_pair(dev_a, dev_b)}))
            for n in (1, 2)
        )
        first.start()
        try:
            assert measured.wait(5.0)
            addr = dev_b.attest_config.start_addr
            byte = mem_access(dev_b, Access.READ, addr, length=1)[0]
            mem_access(dev_b, Access.WRITE, addr, data=bytes([byte ^ 0x01]))
            second.start()
            assert asked.wait(5.0)
        finally:
            release.set()
            for thread in (first, second):
                if thread.ident is not None:
                    thread.join()
        assert results[1][0].established and results[1][1].established
        res_a, res_b = results[2]
        assert (res_a.reason, res_a.peer_reported) == (AbortReason.MEASUREMENT_MISMATCH, False)
        assert (res_b.reason, res_b.peer_reported) == (AbortReason.MEASUREMENT_MISMATCH, True)


class TestRespondM1:
    def test_bad_ar_flag_is_malformed(self, device_pair):
        dev_a, _ = device_pair
        _, m1 = initiate(dev_a, "beta")
        raw = bytearray(m1.pack())
        raw[64] = 0x00
        with pytest.raises(MalformedMessage):
            WireM1.unpack(bytes(raw))

    def test_wrong_length_is_malformed(self):
        with pytest.raises(MalformedMessage):
            WireM1.unpack(bytes(64))

    def test_zero_point_aborts_weak_point(self, device_pair, monkeypatch):
        # an unauthenticated 65-byte M1 with a small-order point must not buy
        # X25519 work, a measurement or a signature
        calls = {"measure": 0, "sign_quote_gated": 0, "generate": 0, "exchange": 0}
        for name in ("measure", "sign_quote_gated"):
            real = getattr(lrav.protocol, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(lrav.protocol, name, counted)

        class CountedKey:
            def __init__(self, key):
                self.key = key

            def public_key(self):
                return self.key.public_key()

            def exchange(self, peer):
                calls["exchange"] += 1
                return self.key.exchange(peer)

        real_generate = X25519PrivateKey.generate

        def generate():
            calls["generate"] += 1
            return CountedKey(real_generate())

        monkeypatch.setattr(lrav.protocol.X25519PrivateKey, "generate", generate)
        dev_a, dev_b = device_pair
        for point in SMALL_ORDER_POINTS:
            with pytest.raises(ProtocolAbort) as exc:
                respond_m1(dev_b, WireM1(bytes(32), point), "alpha")
            assert exc.value.reason is AbortReason.WEAK_POINT
        assert calls == {"measure": 0, "sign_quote_gated": 0, "generate": 0, "exchange": 0}
        point = real_generate().public_key().public_bytes_raw()
        respond_m1(dev_b, WireM1(bytes(32), point), "alpha")  # the counters do count
        assert calls == {"measure": 1, "sign_quote_gated": 1, "generate": 1, "exchange": 1}

    def test_single_provisioned_peer_is_implied(self, device_pair):
        dev_a, dev_b = device_pair
        _, m1 = initiate(dev_a, "beta")
        st_b, _ = respond_m1(dev_b, m1)  # no peer_id needed
        assert st_b.peer_id == "alpha"

    def test_two_provisioned_peers_need_a_named_peer(self, device_pair):
        dev_a, dev_b = device_pair
        alpha = dev_b.trust.get("alpha")
        dev_b.trust = TrustStore({"alpha": alpha, "gamma": alpha})
        _, m1 = initiate(dev_a, "beta")
        with pytest.raises(UnknownPeer):
            respond_m1(dev_b, m1, None)


class TestProcessM2Aborts:
    def test_small_order_point_is_weak_point(self, device_pair):
        dev_a, dev_b = device_pair
        _, m1 = initiate(dev_a, "beta")
        _, m2 = respond_m1(dev_b, m1, "alpha")
        staged = produce_own_quote(dev_a)
        for point in SMALL_ORDER_POINTS:
            st_a, _ = initiate(dev_a, "beta")
            with pytest.raises(ProtocolAbort) as exc:
                process_m2(dev_a, st_a, WireM2(m2.nonce, point, m2.box), staged)
            assert exc.value.reason is AbortReason.WEAK_POINT
            assert st_a.phase is Phase.ABORTED and st_a.scalar is None

    def test_flipped_box_bit_is_bad_tag(self, device_pair):
        dev_a, dev_b = device_pair
        st_a, m1 = initiate(dev_a, "beta")
        _, m2 = respond_m1(dev_b, m1, "alpha")
        box = bytearray(m2.box)
        box[100] ^= 0x01
        with pytest.raises(ProtocolAbort) as exc:
            process_m2(dev_a, st_a, WireM2(m2.nonce, m2.point, bytes(box)), produce_own_quote(dev_a))
        assert exc.value.reason is AbortReason.BAD_TAG
        assert st_a.phase is Phase.ABORTED

    def test_tampered_responder_memory_is_measurement_mismatch(self, device_pair):
        from lrav.device import mem_access
        from lrav.pmp import Access

        dev_a, dev_b = device_pair
        addr = dev_b.attest_config.start_addr + 17
        byte = mem_access(dev_b, Access.READ, addr, length=1)
        mem_access(dev_b, Access.WRITE, addr, data=bytes([byte[0] ^ 0x80]))
        st_a, m1 = initiate(dev_a, "beta")
        _, m2 = respond_m1(dev_b, m1, "alpha")
        with pytest.raises(ProtocolAbort) as exc:
            process_m2(dev_a, st_a, m2, produce_own_quote(dev_a))
        assert exc.value.reason is AbortReason.MEASUREMENT_MISMATCH

    def test_replayed_m2_payload_reencrypted_is_bad_signature(self, device_pair):
        # Black-box, a replay dies at the AEAD (K and the box nonce both mix
        # n_A). To show the stale nonce is also caught by the signed
        # transcript, re-encrypt session 1's signed payload under session 2's
        # correct key: sigma_B still covers the old n_A and must be rejected.
        dev_a, dev_b = device_pair
        st_a1, m1 = initiate(dev_a, "beta")
        st_b1, m2_old = respond_m1(dev_b, m1, "alpha")
        st_a1, _ = process_m2(dev_a, st_a1, m2_old, produce_own_quote(dev_a))
        n_a1, n_b1 = st_a1.nonces()
        inner_old = ae_open(st_a1.session_key(), Direction.M2, n_a1, n_b1, m2_old.box)

        st_a2, m1_2 = initiate(dev_a, "beta")  # fresh n_A
        st_b2, m2_2 = respond_m1(dev_b, m1_2, "alpha")
        n_a2, n_b2 = st_b2.nonces()
        forged_box = ae_seal(st_b2.k, Direction.M2, n_a2, n_b2, inner_old)
        with pytest.raises(ProtocolAbort) as exc:
            process_m2(dev_a, st_a2, WireM2(m2_2.nonce, m2_2.point, forged_box), produce_own_quote(dev_a))
        assert exc.value.reason is AbortReason.BAD_SIGNATURE

    def test_no_expected_measurement_matching_is_measurement_mismatch(self, device_pair):
        dev_a, dev_b = device_pair
        peer = dev_a.trust.get("beta")
        wrong = tuple(Measurement(bytes([i]) * 32, peer.expected[0].config) for i in (1, 2))
        dev_a.trust = TrustStore({"beta": TrustedPeer(peer.verify_key, wrong)})
        res_a, res_b = run_pair(dev_a, dev_b)
        assert (res_a.reason, res_a.peer_reported) == (AbortReason.MEASUREMENT_MISMATCH, False)
        assert (res_b.reason, res_b.peer_reported) == (AbortReason.MEASUREMENT_MISMATCH, True)

    def test_replayed_m2_black_box_is_bad_tag(self, device_pair):
        dev_a, dev_b = device_pair
        st_a1, m1 = initiate(dev_a, "beta")
        _, m2_old = respond_m1(dev_b, m1, "alpha")
        st_a2, _ = initiate(dev_a, "beta")
        with pytest.raises(ProtocolAbort) as exc:
            process_m2(dev_a, st_a2, m2_old, produce_own_quote(dev_a))
        assert exc.value.reason is AbortReason.BAD_TAG


class TestProcessM3Aborts:
    def test_truncated_box_is_bad_tag(self, device_pair):
        dev_a, dev_b = device_pair
        st_a, m1 = initiate(dev_a, "beta")
        st_b, m2 = respond_m1(dev_b, m1, "alpha")
        _, m3 = process_m2(dev_a, st_a, m2, produce_own_quote(dev_a))
        with pytest.raises(ProtocolAbort) as exc:
            process_m3(dev_b, st_b, WireM3(m3.box[:100]))
        assert exc.value.reason is AbortReason.BAD_TAG

    def test_cross_session_signature_splice_is_bad_signature(self, device_pair):
        dev_a, dev_b = device_pair
        st_a1, st_b1, (_, _, m3_old) = honest_run(dev_a, dev_b)
        n_a1, n_b1 = st_a1.nonces()
        inner_old = ae_open(st_a1.session_key(), Direction.M3, n_a1, n_b1, m3_old.box)

        st_a2, m1 = initiate(dev_a, "beta")
        st_b2, m2 = respond_m1(dev_b, m1, "alpha")
        st_a2, _ = process_m2(dev_a, st_a2, m2, produce_own_quote(dev_a))
        n_a2, n_b2 = st_a2.nonces()
        forged = ae_seal(st_a2.session_key(), Direction.M3, n_a2, n_b2, inner_old)
        with pytest.raises(ProtocolAbort) as exc:
            process_m3(dev_b, st_b2, WireM3(forged))
        assert exc.value.reason is AbortReason.BAD_SIGNATURE


class TestKeySchedule:
    def test_kdf_is_symmetric_and_nonce_bound(self):
        shared, n_a, n_b = b"\x42" * 32, b"\x01" * 32, b"\x02" * 32
        assert derive_session_key(shared, n_a, n_b) == derive_session_key(shared, n_a, n_b)
        assert derive_session_key(shared, n_a, n_b) != derive_session_key(shared, n_a, b"\x03" * 32)

    def test_kdf_rejects_zero_secret(self):
        with pytest.raises(WeakPoint):
            derive_session_key(bytes(32), b"\x01" * 32, b"\x02" * 32)

    def test_transcript_hash_order_matters(self):
        q1, q2 = b"\x0a" * 32, b"\x0b" * 32
        quote_bytes = bytes(116)
        n = bytes(32)
        assert transcript_hash(quote_bytes, n, n, q1, q2) != transcript_hash(quote_bytes, n, n, q2, q1)

    def test_transcript_hash_pinned_vector(self):
        assert transcript_hash(bytes(116), bytes(32), bytes(32), bytes(32), bytes(32)).hex() == ZERO_TRANSCRIPT

    def test_transcript_hash_rejects_bad_widths(self):
        with pytest.raises(ValueError):
            transcript_hash(b"", bytes(32), bytes(32), bytes(32), bytes(32))
        with pytest.raises(ValueError):
            transcript_hash(bytes(116), bytes(31), bytes(32), bytes(32), bytes(32))


class TestAe:
    def test_roundtrip(self, rng):
        k, n_a, n_b = rng.randbytes(32), rng.randbytes(32), rng.randbytes(32)
        plaintext = rng.randbytes(180)
        box = ae_seal(k, Direction.M2, n_a, n_b, plaintext)
        assert len(box) == 196
        assert ae_open(k, Direction.M2, n_a, n_b, box) == plaintext

    def test_direction_mismatch_fails(self, rng):
        k, n_a, n_b = rng.randbytes(32), rng.randbytes(32), rng.randbytes(32)
        box = ae_seal(k, Direction.M3, n_a, n_b, rng.randbytes(180))
        with pytest.raises(AuthenticationFailed):
            ae_open(k, Direction.M2, n_a, n_b, box)

    def test_nonces_never_collide_across_sessions(self, rng):
        seen = set()
        for _ in range(10_000):
            n_a, n_b = rng.randbytes(32), rng.randbytes(32)
            for direction in (Direction.M2, Direction.M3):
                seen.add(ae_nonce(direction, n_a, n_b))
        assert len(seen) == 20_000

    def test_directions_differ_within_one_session(self, rng):
        n_a, n_b = rng.randbytes(32), rng.randbytes(32)
        assert ae_nonce(Direction.M2, n_a, n_b) != ae_nonce(Direction.M3, n_a, n_b)


class TestStateMachineSafety:
    def build_states(self, device_pair):
        """One SessionState per (role-appropriate) phase."""
        dev_a, dev_b = device_pair
        states = []
        st, m1 = initiate(dev_a, "beta")
        fresh = SessionState(role=Role.INITIATOR, peer_id="beta")
        states.append(("initiator-start", dev_a, fresh))
        states.append(("initiator-sent-m1", dev_a, st))
        st_b, m2 = respond_m1(dev_b, m1, "alpha")
        states.append(("responder-sent-m2", dev_b, st_b))
        st_a2, st_b2, _ = honest_run(dev_a, dev_b)
        states.append(("initiator-established", dev_a, st_a2))
        states.append(("responder-established", dev_b, st_b2))
        aborted = SessionState(role=Role.INITIATOR, peer_id="beta", phase=Phase.ABORTED)
        states.append(("initiator-aborted", dev_a, aborted))
        return states, m2

    def test_out_of_phase_messages_leave_state_unchanged(self, device_pair):
        states, valid_m2 = self.build_states(device_pair)
        dummy_m3 = WireM3(bytes(196))
        for name, dev, st in states:
            m2_ok = st.role is Role.INITIATOR and st.phase is Phase.SENT_M1
            m3_ok = st.role is Role.RESPONDER and st.phase is Phase.SENT_M2
            if not m2_ok:
                before = (st.phase, st.abort_reason)
                with pytest.raises(ProtocolStateError):
                    process_m2(dev, st, valid_m2, produce_own_quote(dev))
                assert (st.phase, st.abort_reason) == before, name
            if not m3_ok:
                before = (st.phase, st.abort_reason)
                with pytest.raises(ProtocolStateError):
                    process_m3(dev, st, dummy_m3)
                assert (st.phase, st.abort_reason) == before, name
