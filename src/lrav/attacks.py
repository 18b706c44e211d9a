"""Executable adversary scenarios with expected detection verdicts.

Each scenario builds an honest world, applies one scripted adversary action
(memory writes, PMP writes, frame drops/replays/mutations, message forgery),
and reports the observed verdict. Adversary actions go through the untrusted
device surface (mem_access, pmp.configure), transport hooks, and public
protocol functions only; splice/forgery scenarios additionally grant the
adversary session keys or plaintexts to show that even then the transcript
binding holds. Verdicts are deterministic for a fixed seed.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Callable, Optional

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey

from . import pmp, transport
from .device import FLASH_BASE, QSK_BASE, ROM_BASE, STAGING_ADDR, DeviceState, mem_access
from .errors import AccessFault, LockedEntry, ProtocolAbort
from .protocol import (
    AbortReason,
    Direction,
    WireM2,
    WireM3,
    ae_open,
    ae_seal,
    derive_session_key,
    initiate,
    process_m2,
    process_m3,
    produce_own_quote,
    respond_m1,
)
from .provisioning import provision_pair
from .quote import QUOTE_WIRE_BYTES
from .runner import Outcome, run_pair

ATTACK_TIMEOUT = 0.3  # short: non-response scenarios resolve by timing out


class VerdictKind(enum.Enum):
    ESTABLISHED = "established"
    ABORTED = "aborted"
    ACCESS_FAULT = "access-fault"
    LOCKED_ENTRY = "locked-entry"
    TIMEOUT = "timeout"
    AUDIT_OK = "audit-ok"
    AUDIT_FAIL = "audit-fail"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    reason: Optional[AbortReason] = None

    def __str__(self):
        if self.reason is not None:
            return f"{self.kind.value}({self.reason.name})"
        return self.kind.value


@dataclass(frozen=True)
class Scenario:
    name: str
    expected: Verdict
    run: Callable[[random.Random], Verdict]


def run_scenario(scenario: Scenario, seed: int = 0) -> Verdict:
    return scenario.run(random.Random(seed))


# --- honest-world scaffolding -------------------------------------------------

_ATTESTED_BYTES = 8 * 1024


def _honest_pair(rng: random.Random) -> tuple[DeviceState, DeviceState]:
    """Two mutually provisioned devices with random (seeded) firmware."""
    return provision_pair(rng.randbytes(_ATTESTED_BYTES), rng.randbytes(_ATTESTED_BYTES))


def _initiator_verdict(dev_a: DeviceState, dev_b: DeviceState, **hooks) -> Verdict:
    """A's verdict on one run of the pair (a_hook and b_hook as for run_pair)."""
    res_a, _ = run_pair(dev_a, dev_b, timeout=ATTACK_TIMEOUT, **hooks)
    if res_a.outcome is Outcome.ESTABLISHED:
        return Verdict(VerdictKind.ESTABLISHED)
    if res_a.outcome is Outcome.TIMEOUT:
        return Verdict(VerdictKind.TIMEOUT)
    return Verdict(VerdictKind.ABORTED, res_a.reason)


def _verdict(action: Callable, *args, **kwargs) -> Verdict:
    """Run one adversary step: the detection it meets, or ESTABLISHED if none."""
    try:
        action(*args, **kwargs)
    except LockedEntry:
        return Verdict(VerdictKind.LOCKED_ENTRY)
    except AccessFault:
        return Verdict(VerdictKind.ACCESS_FAULT)
    except ProtocolAbort as exc:
        return Verdict(VerdictKind.ABORTED, exc.reason)
    return Verdict(VerdictKind.ESTABLISHED)  # the attack succeeded: a failure


def _open_session(dev_a: DeviceState, dev_b: DeviceState):
    """M1 and M2 exchanged directly: (A's state, B's state, M1, M2)."""
    st_a, m1 = initiate(dev_a, "beta")
    st_b, m2 = respond_m1(dev_b, m1, "alpha")
    return st_a, st_b, m1, m2


# --- adversary actions ---------------------------------------------------------
# Confinement rule: these touch devices only through mem_access / pmp.configure
# in the untrusted context, transport hooks, and public protocol functions.
# The confinement test inspects every module-level `_adv_*` function.

def _adv_rewrite_qsk_pmp(dev: DeviceState) -> Verdict:
    """[A1] try to retarget the locked QSK PMP entry at the attacker's memory."""
    grabby = pmp.PmpConfig(read=True, write=True, execute=True,
                           addr_mode=pmp.AddrMode.NAPOT, lock=False)
    return _verdict(pmp.configure, dev.bank, 0, grabby, pmp.napot_addr_reg(FLASH_BASE, 64))


def _adv_read_qsk(dev: DeviceState) -> Verdict:
    """[G2] read the signing-key window from untrusted machine mode."""
    return _verdict(mem_access, dev, pmp.Access.READ, QSK_BASE, length=32)


def _adv_write_rom(dev: DeviceState) -> Verdict:
    """[G1] overwrite the expected-measurement store held in ROM."""
    return _verdict(mem_access, dev, pmp.Access.WRITE, ROM_BASE, data=b"peer mallory")


def _adv_tamper_firmware(dev: DeviceState, rng: random.Random) -> None:
    """Flip one bit somewhere in the attested flash range (plain memory)."""
    addr = FLASH_BASE + rng.randrange(_ATTESTED_BYTES)
    current = mem_access(dev, pmp.Access.READ, addr, length=1)
    mem_access(dev, pmp.Access.WRITE, addr, data=bytes([current[0] ^ (1 << rng.randrange(8))]))


def _adv_zeroize_staged_quote(dev: DeviceState) -> None:
    """[A3] zeroize the agent's staged quote in untrusted memory before transmission."""
    mem_access(dev, pmp.Access.WRITE, STAGING_ADDR, data=bytes(QUOTE_WIRE_BYTES))


def _adv_drop_all(data: bytes):
    """[A2] the device's responses never reach the network."""
    return ()


def _adv_bitflip(rng: random.Random, region: slice):
    """Flip one bit inside a chosen byte range of the next matching frame."""

    def hook(data: bytes):
        body = bytearray(data)
        indices = range(*region.indices(len(body)))
        pos = indices[rng.randrange(len(indices))]
        body[pos] ^= 1 << rng.randrange(8)
        return (bytes(body),)

    return hook


def _adv_splice_m3(dev_a, dev_b, old_inner: bytes) -> Verdict:
    """Cross-session splice: replay an old M3 plaintext inside a new session.

    The adversary is granted the new session's key (worst case) and still
    cannot make B accept the stale signature: both nonces and both DH points
    are inside the signed transcript.
    """
    st_a, st_b, _m1, m2 = _open_session(dev_a, dev_b)
    st_a, _m3 = process_m2(dev_a, st_a, m2, produce_own_quote(dev_a))
    n_a, n_b = st_a.nonces()
    forged = ae_seal(st_a.k, Direction.M3, n_a, n_b, old_inner)
    return _verdict(process_m3, dev_b, st_b, WireM3(forged))


def _adv_swap_point(dev_a, dev_b) -> Verdict:
    """Swap B's DH point in M2 for an attacker point, re-encrypting honestly.

    The attacker can compute the key A will derive (it owns the substituted
    point) and is even granted B's plaintext, yet the transcript signature
    pins the original q_B.
    """
    st_a, st_b, m1, m2 = _open_session(dev_a, dev_b)
    attacker = X25519PrivateKey.generate()
    attacker_point = attacker.public_key().public_bytes_raw()
    n_a, n_b = st_b.nonces()
    inner = ae_open(st_b.k, Direction.M2, n_a, n_b, m2.box)  # granted plaintext
    k_prime = derive_session_key(
        attacker.exchange(X25519PublicKey.from_public_bytes(m1.point)), n_a, n_b
    )
    forged = WireM2(m2.nonce, attacker_point, ae_seal(k_prime, Direction.M2, n_a, n_b, inner))
    return _verdict(process_m2, dev_a, st_a, forged, produce_own_quote(dev_a))


# --- scenario runners -----------------------------------------------------------

def _on_device(adversary: Callable[[DeviceState], Verdict]):
    """Scenario runner that applies a device-only action to A of an honest pair."""

    def run(rng):
        dev_a, _ = _honest_pair(rng)
        return adversary(dev_a)

    return run


def _scn_firmware_tamper(rng):
    """Flip one attested flash bit on the responder, then attest."""
    dev_a, dev_b = _honest_pair(rng)
    _adv_tamper_firmware(dev_b, rng)
    return _initiator_verdict(dev_a, dev_b)


def _scn_quote_overwrite(rng):
    dev_a, dev_b = _honest_pair(rng)
    dev_b.quote_staging_hook = _adv_zeroize_staged_quote
    return _initiator_verdict(dev_a, dev_b)


def _scn_non_response(rng):
    """B's responses never reach the network (removable-storage analogue)."""
    return _initiator_verdict(*_honest_pair(rng), b_hook=_adv_drop_all)


def _scn_message_drop(rng):
    """Drop the initiator's first flight."""
    return _initiator_verdict(*_honest_pair(rng), a_hook=_adv_drop_all)


def _scn_ciphertext_bitflip(rng):
    """Flip one ciphertext bit inside M2."""
    # M2 payload: nonce(32) point(32) ar(1) box(196); flip inside the box,
    # past the frame header (10 bytes).
    box = slice(10 + 65, None)
    return _initiator_verdict(*_honest_pair(rng), b_hook=_adv_bitflip(rng, box))


def _scn_m2_replay(rng):
    """Substitute a recorded M2 from an earlier session."""
    dev_a, dev_b = _honest_pair(rng)
    recorded: list[bytes] = []

    def record_m2(data: bytes):
        recorded.append(data)
        return (data,)

    res_a, res_b = run_pair(dev_a, dev_b, b_hook=record_m2, timeout=ATTACK_TIMEOUT)
    if not (res_a.established and res_b.established and recorded):
        return Verdict(VerdictKind.AUDIT_FAIL)

    def replay_m2(data: bytes):  # substitute the stale flight for the fresh one
        return (recorded[0],)

    return _initiator_verdict(dev_a, dev_b, b_hook=replay_m2)


def _scn_m3_splice(rng):
    dev_a, dev_b = _honest_pair(rng)
    st_a, st_b, _m1, m2 = _open_session(dev_a, dev_b)
    st_a, m3 = process_m2(dev_a, st_a, m2, produce_own_quote(dev_a))
    process_m3(dev_b, st_b, m3)
    n_a, n_b = st_a.nonces()
    old_inner = ae_open(st_a.session_key(), Direction.M3, n_a, n_b, m3.box)
    return _adv_splice_m3(dev_a, dev_b, old_inner)


def _scn_q_swap(rng):
    return _adv_swap_point(*_honest_pair(rng))


def _scn_nonce_reuse_audit(rng):
    """Honest-rule audit: nonces and DH points are never reused by a device."""
    dev_a, dev_b = _honest_pair(rng)
    tapped: list[bytes] = []

    def tap(data: bytes):
        tapped.append(data)
        return (data,)

    for _ in range(6):
        res_a, res_b = run_pair(dev_a, dev_b, a_hook=tap, b_hook=tap, timeout=ATTACK_TIMEOUT)
        if not (res_a.established and res_b.established):
            return Verdict(VerdictKind.AUDIT_FAIL)
    hellos = [
        frame.payload for frame, _ in map(transport.decode_frame, tapped)
        if frame.msg_type in (transport.MSG_M1, transport.MSG_M2)
    ]
    seen = {p[:32] for p in hellos} | {p[32:64] for p in hellos}  # nonces, DH points
    return Verdict(VerdictKind.AUDIT_OK) if len(seen) == 2 * len(hellos) else Verdict(VerdictKind.AUDIT_FAIL)


def catalog() -> list[Scenario]:
    """The built-in scenario set; every expected verdict is a detection."""
    aborted = lambda reason: Verdict(VerdictKind.ABORTED, reason)
    return [
        Scenario("pmp-lock-rewrite", Verdict(VerdictKind.LOCKED_ENTRY),
                 _on_device(_adv_rewrite_qsk_pmp)),
        Scenario("qsk-read-attempt", Verdict(VerdictKind.ACCESS_FAULT), _on_device(_adv_read_qsk)),
        Scenario("rom-write-attempt", Verdict(VerdictKind.ACCESS_FAULT),
                 _on_device(_adv_write_rom)),
        Scenario("firmware-tamper", aborted(AbortReason.MEASUREMENT_MISMATCH),
                 _scn_firmware_tamper),
        Scenario("quote-overwrite", aborted(AbortReason.MALFORMED), _scn_quote_overwrite),
        Scenario("non-response", Verdict(VerdictKind.TIMEOUT), _scn_non_response),
        Scenario("message-drop", Verdict(VerdictKind.TIMEOUT), _scn_message_drop),
        Scenario("ciphertext-bitflip", aborted(AbortReason.BAD_TAG), _scn_ciphertext_bitflip),
        Scenario("m2-replay", aborted(AbortReason.BAD_TAG), _scn_m2_replay),
        Scenario("m3-cross-session-splice", aborted(AbortReason.BAD_SIGNATURE), _scn_m3_splice),
        Scenario("q-value-swap", aborted(AbortReason.BAD_SIGNATURE), _scn_q_swap),
        Scenario("nonce-reuse-audit", Verdict(VerdictKind.AUDIT_OK), _scn_nonce_reuse_audit),
    ]
