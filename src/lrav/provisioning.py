"""Offline phase: identities, expected measurements, trust stores, profiles.

Trust-store file format (line-based UTF-8, `#` comments, blank-line
separated records, canonical on save):

    peer <id>
    key <64 hex chars>
    expect <start-hex> <end-hex> <block-decimal> <64 hex chars>

Every peer needs a key line and at least one expect line. The parsed store
is immutable and its canonical text is embedded in device ROM, mirroring
verification material provisioned into trusted read-only storage.
"""

from __future__ import annotations

import hashlib
import json
import secrets
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

from . import crtm
from .device import DeviceState, device_reset
from .errors import DuplicatePeer, InsufficientEntropy, InvalidRange, ParseError, UnknownPeer
from .memory import MemoryImage, Region, RegionKind
from .pmp import PmpBank
from .quote import QuoteSigningKey

MIN_ENTROPY_BYTES = 32
MAX_PEER_ID_BYTES = 64

# The one memory map of every device: ROM (trust store, then the QSK window
# near its end), flash holding the firmware, and SRAM.
ROM_BASE = 0x0000_1000
ROM_SIZE = 16 * 1024
FLASH_BASE = 0x2000_0000
FLASH_SIZE = 4 * 1024 * 1024
SRAM_BASE = 0x8000_0000
SRAM_SIZE = 16 * 1024
QSK_BASE = ROM_BASE + ROM_SIZE - 0x100  # 64-byte aligned window near the end of ROM
# the "memory" section earlier versions wrote into every profile
_MEMORY_MAP = {
    "rom_base": ROM_BASE, "rom_size": ROM_SIZE, "flash_base": FLASH_BASE,
    "flash_size": FLASH_SIZE, "sram_base": SRAM_BASE, "sram_size": SRAM_SIZE,
    "qsk_base": QSK_BASE,
}


def gen_identity(seed_entropy: bytes | None = None) -> QuoteSigningKey:
    """Derive a signing identity from >= 32 bytes of entropy.

    The Ed25519 seed is SHA3-256 of the input, so a fixed test seed gives a
    reproducible keypair and long inputs are condensed uniformly.
    """
    if seed_entropy is None:
        seed_entropy = secrets.token_bytes(MIN_ENTROPY_BYTES)
    if len(seed_entropy) < MIN_ENTROPY_BYTES:
        raise InsufficientEntropy(
            f"need at least {MIN_ENTROPY_BYTES} bytes of entropy, got {len(seed_entropy)}"
        )
    return QuoteSigningKey(hashlib.sha3_256(seed_entropy).digest())


def compute_expected(image: MemoryImage, config: crtm.AttestationConfig) -> crtm.Measurement:
    """Verifier-side golden measurement; same function the device runs."""
    return crtm.measure(image, config)


# --- trust store -------------------------------------------------------------

@dataclass(frozen=True)
class TrustedPeer:
    verify_key: bytes
    expected: tuple[crtm.Measurement, ...]

    def __post_init__(self):
        if len(self.verify_key) != 32:
            raise ValueError("verify key must be 32 bytes")
        if not self.expected:
            raise ValueError("a trusted peer needs at least one expected measurement")


class TrustStore:
    """Read-only map from peer id to verification material."""

    def __init__(self, entries: Mapping[str, TrustedPeer]):
        for peer_id in entries:
            if not peer_id or len(peer_id.encode()) > MAX_PEER_ID_BYTES:
                raise ValueError(f"peer id must be 1..{MAX_PEER_ID_BYTES} bytes: {peer_id!r}")
        self._entries = MappingProxyType(dict(entries))

    def get(self, peer_id: str) -> TrustedPeer | None:
        return self._entries.get(peer_id)

    def resolve(self, peer_id: str | None) -> str:
        """`peer_id` if it is provisioned; for None, the sole peer of a one-peer store."""
        if peer_id is None:
            n = len(self._entries)
            if n != 1:
                raise UnknownPeer(f"a peer must be named: {n} peers are provisioned, not exactly one")
            return next(iter(self._entries))
        if peer_id not in self._entries:
            raise UnknownPeer(f"peer {peer_id!r} is not provisioned")
        return peer_id

    def canonical_text(self) -> str:
        blocks = [
            format_trust_record(peer_id, peer.verify_key, peer.expected)
            for peer_id, peer in self._entries.items()
        ]
        return "\n".join(blocks)


def format_trust_record(
    peer_id: str, verify_key: bytes, expected: Iterable[crtm.Measurement]
) -> str:
    lines = [f"peer {peer_id}", f"key {verify_key.hex()}"]
    for m in expected:
        cfg = m.config
        lines.append(
            f"expect {cfg.start_addr:x} {cfg.end_addr:x} {cfg.block_size} {m.digest.hex()}"
        )
    return "\n".join(lines) + "\n"


def parse_trust_store(text: str) -> TrustStore:
    entries: dict[str, TrustedPeer] = {}
    peer_id: str | None = None
    peer_line = 0
    key: bytes | None = None
    expected: list[crtm.Measurement] = []

    def finish():
        nonlocal peer_id, key, expected
        if peer_id is None:
            return
        if key is None:
            raise ParseError(peer_line, f"peer {peer_id!r} has no key line")
        if not expected:
            raise ParseError(peer_line, f"peer {peer_id!r} has no expect lines")
        entries[peer_id] = TrustedPeer(key, tuple(expected))
        peer_id, key, expected = None, None, []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            finish()
            continue
        fields = line.split()
        tag = fields[0]
        if tag in ("key", "expect") and peer_id is None:
            raise ParseError(lineno, f"{tag} line before any peer line")
        if tag == "peer":
            finish()
            if len(fields) != 2:
                raise ParseError(lineno, "peer line needs exactly one id")
            if fields[1] in entries:
                raise DuplicatePeer(f"line {lineno}: duplicate peer {fields[1]!r}")
            peer_id, peer_line = fields[1], lineno
            if len(peer_id.encode()) > MAX_PEER_ID_BYTES:
                raise ParseError(lineno, f"peer id longer than {MAX_PEER_ID_BYTES} bytes")
        elif tag == "key":
            if key is not None:
                raise ParseError(lineno, f"peer {peer_id!r} already has a key")
            if len(fields) != 2:
                raise ParseError(lineno, "key line needs exactly one value")
            key = _hex_field(fields[1], 32, lineno, "key")
        elif tag == "expect":
            if len(fields) != 5:
                raise ParseError(lineno, "expect line needs start, end, block, digest")
            try:
                start, end = int(fields[1], 16), int(fields[2], 16)
                block = int(fields[3], 10)
            except ValueError:
                raise ParseError(lineno, "bad numeric field on expect line") from None
            digest = _hex_field(fields[4], 32, lineno, "digest")
            try:
                config = crtm.AttestationConfig(start, end, block)
            except InvalidRange as exc:
                raise ParseError(lineno, str(exc)) from None
            expected.append(crtm.Measurement(digest, config))
        else:
            raise ParseError(lineno, f"unknown directive {tag!r}")
    finish()
    return TrustStore(entries)


def _hex_field(value: str, nbytes: int, lineno: int, what: str) -> bytes:
    try:
        raw = bytes.fromhex(value)
    except ValueError:
        raise ParseError(lineno, f"{what} is not valid hex") from None
    if len(raw) != nbytes:
        raise ParseError(lineno, f"{what} must be {nbytes} bytes ({2 * nbytes} hex chars)")
    return raw


def load_trust_store(path: str | Path) -> TrustStore:
    return parse_trust_store(Path(path).read_text())


# --- device profile ----------------------------------------------------------

@dataclass(frozen=True)
class DeviceProfile:
    device_id: str
    qsk_seed: bytes
    attest: crtm.AttestationConfig
    firmware: str | None = None  # path, resolved relative to the profile file

    def __post_init__(self):
        if len(self.qsk_seed) != 32:
            raise ValueError("qsk_seed must be 32 bytes")


def save_profile(path: str | Path, profile: DeviceProfile) -> None:
    doc = {
        "device_id": profile.device_id,
        "qsk_seed": profile.qsk_seed.hex(),
        "attest": {
            "start": hex(profile.attest.start_addr),
            "end": hex(profile.attest.end_addr),
            "block": profile.attest.block_size,
        },
        "firmware": profile.firmware,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_profile(path: str | Path) -> DeviceProfile:
    doc = json.loads(Path(path).read_text())
    try:
        attest = crtm.AttestationConfig(
            int(doc["attest"]["start"], 0),
            int(doc["attest"]["end"], 0),
            int(doc["attest"]["block"]),
        )
        for name, value in doc.get("memory", {}).items():
            if _MEMORY_MAP.get(name) != int(value, 0):
                raise ValueError(f"memory {name}={value} is not the fixed memory map")
        return DeviceProfile(
            device_id=doc["device_id"],
            qsk_seed=bytes.fromhex(doc["qsk_seed"]),
            attest=attest,
            firmware=doc.get("firmware"),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad device profile {path}: {exc}") from exc


# --- device construction ------------------------------------------------------

def flash_region(firmware: bytes) -> Region:
    """Flash at FLASH_BASE holding `firmware`, zero-padded to FLASH_SIZE."""
    if len(firmware) > FLASH_SIZE:
        raise ValueError(f"firmware ({len(firmware)} bytes) exceeds flash size")
    flash = bytearray(FLASH_SIZE)
    flash[:len(firmware)] = firmware
    return Region(FLASH_BASE, RegionKind.FLASH, flash)


def build_device(
    profile: DeviceProfile,
    trust: TrustStore,
    firmware: bytes = b"",
) -> DeviceState:
    """Assemble a device and run its reset sequence (ROM boot included).

    ROM holds the trust store's canonical text followed by the QSK window;
    firmware is mapped at the flash base; SRAM starts zeroed.
    """
    image = MemoryImage([
        Region(ROM_BASE, RegionKind.ROM, bytearray(ROM_SIZE)),
        flash_region(firmware),
        Region(SRAM_BASE, RegionKind.SRAM, bytearray(SRAM_SIZE)),
    ])

    store_bytes = trust.canonical_text().encode()
    if len(store_bytes) > QSK_BASE - ROM_BASE:
        raise ValueError(f"trust store ({len(store_bytes)} bytes) does not fit in rom")
    image.load_rom(ROM_BASE, store_bytes)

    identity = QuoteSigningKey(profile.qsk_seed)
    image.load_rom(QSK_BASE, identity.rom_bytes())

    crtm._read_attested(image, profile.attest)  # InvalidRange unless inside one region
    dev = DeviceState(
        device_id=profile.device_id,
        memory=image,
        bank=PmpBank(),
        identity=identity,
        trust=trust,
        attest_config=profile.attest,
        qsk_base=QSK_BASE,
        sram_base=SRAM_BASE,
    )
    return device_reset(dev)


def provision_pair(
    fw_a: bytes, fw_b: bytes, block: int = 1024
) -> tuple[DeviceState, DeviceState]:
    """Devices "alpha" and "beta" with fixed identities, each trusting the other.

    Each attests its own firmware image, mapped at the flash base. Used by
    the adversary catalog and the test fixtures; perfbench provisions
    through `lrav provision` instead.
    """
    def attest(fw: bytes) -> crtm.AttestationConfig:
        return crtm.AttestationConfig(FLASH_BASE, FLASH_BASE + len(fw), block)

    def record(key: QuoteSigningKey, fw: bytes) -> TrustedPeer:
        flash = MemoryImage([Region(FLASH_BASE, RegionKind.FLASH, bytearray(fw))])
        return TrustedPeer(key.public, (compute_expected(flash, attest(fw)),))

    id_a, id_b = gen_identity(b"A" * 32), gen_identity(b"B" * 32)
    dev_a = build_device(DeviceProfile("alpha", id_a.rom_bytes()[:32], attest(fw_a)),
                         TrustStore({"beta": record(id_b, fw_b)}), fw_a)
    dev_b = build_device(DeviceProfile("beta", id_b.rom_bytes()[:32], attest(fw_b)),
                         TrustStore({"alpha": record(id_a, fw_a)}), fw_b)
    return dev_a, dev_b
