"""lrav's one SHA3-256 is the accelerator's sponge, and lrav loads no hashlib.

Every runtime SHA3-256 (the KDF, the box nonces, the transcript hash, key
fingerprints and identities) goes through `crtm.sha3_256`. These pins hold
each of them to hashlib's formula on fixed inputs. A fresh interpreter checks
that every lrav module, a handshake, `provision` and `measure` import none of
hashlib, `_hashlib`, hmac or secrets, and none of dataclasses and what it
loads (inspect, ast, dis, tokenize).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lrav
from lrav import crtm
from lrav.protocol import Direction, ae_nonce, derive_session_key, transcript_hash
from lrav.provisioning import gen_identity
from lrav.runner import key_fingerprint

# around the 136-byte rate, one and two absorbed chunks, and the 2 KiB GIL threshold
LENGTHS = [1, 135, 136, 137, 271, 272, 273, 2047, 2048, 2049]

SHARED = bytes(range(1, 33))
N_A = b"\xaa" * 32
N_B = b"\xbb" * 32


def test_sha3_256_equals_hashlib(rng):
    for n in LENGTHS:
        data = rng.randbytes(n)
        assert crtm.sha3_256(data) == hashlib.sha3_256(data).digest(), n


def test_sha3_256_refuses_empty_input():
    with pytest.raises(ValueError):
        crtm.sha3_256(b"")


def test_key_schedule_and_transcript_equal_their_formulas():
    assert derive_session_key(SHARED, N_A, N_B) == hashlib.sha3_256(
        b"LIRA-V/1/KDF" + SHARED + N_A + N_B).digest()
    for direction, tag in [(Direction.M2, b"\x02"), (Direction.M3, b"\x03")]:
        assert ae_nonce(direction, N_A, N_B) == hashlib.sha3_256(
            b"LIRA-V/1/AE" + tag + N_A + N_B).digest()[:24]
    quote = bytes(range(116))
    assert transcript_hash(quote, N_A, N_B, SHARED, N_B) == hashlib.sha3_256(
        quote + N_A + N_B + SHARED + N_B).digest()


def test_fingerprint_and_identity_equal_their_formulas():
    assert key_fingerprint(SHARED) == hashlib.sha3_256(SHARED).hexdigest()[:8]
    entropy = b"\x07" * 40
    assert gen_identity(entropy) == hashlib.sha3_256(entropy).digest()


IMPORT_PROBE = """
import json, sys

start = set(sys.modules)
from lrav import attacks, bench, cli
from lrav.provisioning import provision_pair
from lrav.runner import run_pair

firmware = bytes(range(256)) * 32
res_a, res_b = run_pair(*provision_pair(firmware, firmware[::-1]))
image, profile = sys.argv[1:]
with open(image, "wb") as out:
    out.write(firmware)
codes = [
    cli.main(["provision", "--image", image, "--id", "alpha", "--profile", profile]),
    cli.main(["measure", "--profile", profile]),
]
print(json.dumps({
    "established": res_a.established and res_b.established,
    "codes": codes,
    "loaded": sorted(set(sys.modules) - start),
}))
"""


def test_lrav_loads_neither_hashlib_nor_dataclasses(tmp_path):
    src = Path(lrav.__file__).resolve().parents[1]
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(tmp_path / "fw.bin"),
         str(tmp_path / "alpha.json")],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    report = json.loads(probe.stdout.splitlines()[-1])
    assert report["established"] and report["codes"] == [0, 0]
    assert {"_hashlib", "hashlib", "hmac", "secrets"}.isdisjoint(report["loaded"])
    assert {"dataclasses", "inspect", "ast", "dis", "tokenize"}.isdisjoint(report["loaded"])
