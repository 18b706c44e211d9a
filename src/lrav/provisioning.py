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

import json
import mmap
import os
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import BinaryIO, Iterable, Mapping

from . import crtm
from .device import FLASH_BASE, FLASH_SIZE, QSK_BASE, ROM_BASE, ROM_SIZE, SRAM_BASE, SRAM_SIZE
from .device import DeviceState, device_reset
from .errors import DuplicatePeer, InsufficientEntropy, InvalidRange, ParseError, UnknownPeer
from .memory import MemoryImage, Region, RegionKind
from .pmp import PmpBank
from .quote import verification_key

MIN_ENTROPY_BYTES = 32
MAX_PEER_ID_BYTES = 64

# the "memory" section earlier versions wrote into every profile
_MEMORY_MAP = {
    "rom_base": ROM_BASE, "rom_size": ROM_SIZE, "flash_base": FLASH_BASE,
    "flash_size": FLASH_SIZE, "sram_base": SRAM_BASE, "sram_size": SRAM_SIZE,
    "qsk_base": QSK_BASE,
}


def gen_identity(seed_entropy: bytes | None = None) -> bytes:
    """Derive a 32-byte Ed25519 signing seed from >= 32 bytes of entropy.

    The seed is SHA3-256 of the input, so a fixed test seed gives a
    reproducible keypair and long inputs are condensed uniformly.
    """
    if seed_entropy is None:
        seed_entropy = os.urandom(MIN_ENTROPY_BYTES)
    if len(seed_entropy) < MIN_ENTROPY_BYTES:
        raise InsufficientEntropy(
            f"need at least {MIN_ENTROPY_BYTES} bytes of entropy, got {len(seed_entropy)}"
        )
    return crtm.sha3_256(seed_entropy)


def compute_expected(image: MemoryImage, config: crtm.AttestationConfig) -> crtm.Measurement:
    """Verifier-side golden measurement; same function the device runs."""
    return crtm.measure(image, config)


# --- trust store -------------------------------------------------------------

def check_peer_id(peer_id: str) -> None:
    """ValueError unless a `peer` line carries `peer_id` back unchanged.

    That takes 1..64 UTF-8 bytes: whitespace would split the line, and `#`
    would start a comment.
    """
    try:
        size = len(peer_id.encode())
    except (AttributeError, UnicodeEncodeError):  # a non-str, or a lone surrogate from argv
        size = 0
    if not 0 < size <= MAX_PEER_ID_BYTES or "#" in peer_id or any(c.isspace() for c in peer_id):
        raise ValueError(
            f"peer id must be 1..{MAX_PEER_ID_BYTES} UTF-8 bytes without whitespace or '#': "
            f"{peer_id!r}"
        )


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
            check_peer_id(peer_id)
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
            try:
                check_peer_id(fields[1])
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
            peer_id, peer_line = fields[1], lineno
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
    # The profile holds the secret seed: owner-only, also when it overwrites one.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with open(fd, "w") as out:
        os.fchmod(fd, 0o600)
        out.write(json.dumps(doc, indent=2) + "\n")


def load_profile(path: str | Path) -> DeviceProfile:
    try:
        doc = json.loads(Path(path).read_text())
        block = doc["attest"]["block"]
        if type(block) is not int:  # int() would truncate a float and take true as 1
            raise ValueError(f"attest block must be an integer, got {block!r}")
        attest = crtm.AttestationConfig(
            int(doc["attest"]["start"], 0),
            int(doc["attest"]["end"], 0),
            block,
        )
        for name, value in doc.get("memory", {}).items():
            if _MEMORY_MAP.get(name) != int(value, 0):
                raise ValueError(f"memory {name}={value} is not the fixed memory map")
        check_peer_id(doc["device_id"])
        if not isinstance(doc.get("firmware"), (str, type(None))):
            raise ValueError(f"firmware must be a path or null, got {doc['firmware']!r}")
        return DeviceProfile(
            device_id=doc["device_id"],
            qsk_seed=bytes.fromhex(doc["qsk_seed"]),
            attest=attest,
            firmware=doc.get("firmware"),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad device profile {path}: {exc}") from exc


# --- device construction ------------------------------------------------------

def flash_region(firmware: bytes | BinaryIO) -> Region:
    """Flash at FLASH_BASE holding `firmware`, zero-padded to FLASH_SIZE.

    `firmware` is the image's bytes or its open file, which is read
    straight into flash: the image is copied once either way.
    """
    from_file = hasattr(firmware, "readinto")
    size = os.fstat(firmware.fileno()).st_size if from_file else len(firmware)
    if size > FLASH_SIZE:
        raise ValueError(f"firmware ({size} bytes) exceeds flash size")
    flash = mmap.mmap(-1, FLASH_SIZE)  # anonymous: reads as zero, resident once written
    if not from_file:
        flash[:size] = firmware
    elif firmware.readinto(memoryview(flash)[:size]) != size or firmware.read(1):
        # it changed while being read, or is no regular file (a pipe's size reads 0)
        raise ValueError(f"firmware image is not the {size} bytes its size says")
    return Region(FLASH_BASE, RegionKind.FLASH, flash)


def build_device(
    profile: DeviceProfile,
    trust: TrustStore,
    firmware: bytes | BinaryIO = b"",
) -> DeviceState:
    """Assemble a device and run its reset sequence (ROM boot included).

    ROM holds the trust store's canonical text followed by the QSK window;
    firmware (bytes or an open image file, as for `flash_region`) is mapped
    at the flash base; SRAM starts zeroed.
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

    # the key window: seed || verification key, the only place the device holds the seed
    image.load_rom(QSK_BASE, profile.qsk_seed + verification_key(profile.qsk_seed))

    crtm._read_attested(image, profile.attest)  # InvalidRange unless inside one region
    dev = DeviceState(
        device_id=profile.device_id,
        memory=image,
        bank=PmpBank(),
        trust=trust,
        attest_config=profile.attest,
    )
    return device_reset(dev)


def provision_pair(fw_a: bytes, fw_b: bytes) -> tuple[DeviceState, DeviceState]:
    """Devices "alpha" and "beta" with fixed identities, each trusting the other.

    Each attests its own firmware image, mapped at the flash base, in
    1024-byte blocks. Used by the adversary catalog and the test fixtures;
    perfbench provisions through `lrav provision` instead.
    """
    def attest(fw: bytes) -> crtm.AttestationConfig:
        return crtm.AttestationConfig(FLASH_BASE, FLASH_BASE + len(fw), 1024)

    def record(seed: bytes, fw: bytes) -> TrustedPeer:
        flash = MemoryImage([flash_region(fw)])
        return TrustedPeer(verification_key(seed), (compute_expected(flash, attest(fw)),))

    seed_a, seed_b = gen_identity(b"A" * 32), gen_identity(b"B" * 32)
    dev_a = build_device(DeviceProfile("alpha", seed_a, attest(fw_a)),
                         TrustStore({"beta": record(seed_b, fw_b)}), fw_a)
    dev_b = build_device(DeviceProfile("beta", seed_b, attest(fw_b)),
                         TrustStore({"alpha": record(seed_a, fw_a)}), fw_b)
    return dev_a, dev_b
