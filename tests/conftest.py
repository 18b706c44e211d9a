import ctypes
import random
import re
import sys
import threading
import time

import pytest

_acceptance_failures: list[str] = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call" and rep.failed and item.module.__name__ == "test_acceptance":
        criterion = item.name.removeprefix("test_").replace("_", " ")
        _acceptance_failures.append(f"[acceptance] {criterion}: FAIL")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    try:
        import test_acceptance

        lines = list(test_acceptance.PASS_LINES)
    except ImportError:
        pass
    lines += _acceptance_failures
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

from lrav import cli
from lrav.memory import MemoryImage, Region, RegionKind
from lrav.provisioning import FLASH_BASE, provision_pair


def flash_image(firmware: bytes, base: int = FLASH_BASE) -> MemoryImage:
    return MemoryImage([Region(base, RegionKind.FLASH, bytearray(firmware))])


def wait_for_listener(capsys, deadline_s: float = 3.0) -> int:
    """Port of an in-process `lrav serve --addr 127.0.0.1:0`.

    Reads serve's `listening on HOST:PORT` line from the captured output and
    writes back everything it read, so the test's own capture stays whole.
    """
    seen_out = seen_err = ""
    deadline = time.time() + deadline_s
    try:
        while time.time() < deadline:
            captured = capsys.readouterr()
            seen_out += captured.out
            seen_err += captured.err
            match = re.search(r"^listening on \S+:(\d+)$", seen_out, re.MULTILINE)
            if match:
                return int(match.group(1))
            time.sleep(0.01)
    finally:
        sys.stdout.write(seen_out)
        sys.stderr.write(seen_err)
    raise AssertionError("listener never bound")


def provision_cli_pair(tmp_path, rng, capsys, attested_bytes=8 * 1024, seeds=("aa", "bb")):
    """Provision alpha and beta with `lrav provision`, each trusting the other.

    Leaves <name>.fw, <name>.json and <name>.trust in tmp_path.
    """
    records = {}
    for name, seed in zip(("alpha", "beta"), seeds):
        fw = tmp_path / f"{name}.fw"
        fw.write_bytes(rng.randbytes(attested_bytes))
        assert cli.main([
            "provision", "--image", str(fw), "--id", name,
            "--profile", str(tmp_path / f"{name}.json"), "--seed", seed * 32,
        ]) == 0
        records[name] = capsys.readouterr().out
    (tmp_path / "alpha.trust").write_text(records["beta"])
    (tmp_path / "beta.trust").write_text(records["alpha"])


def serve_and_attest(
    tmp_path, capsys, timeout="2.0", host="127.0.0.1", serve_args=(), attest_args=()
) -> dict[str, int]:
    """`lrav serve --once` as beta on a thread, then `lrav attest` as alpha.

    `host` is as `--addr` takes it, so an IPv6 host comes in brackets;
    `serve_args` and `attest_args` are appended to each command line.
    Returns both exit codes; their output stays in capsys.
    """
    codes = {}

    def serve():
        codes["serve"] = cli.main([
            "serve", "--profile", str(tmp_path / "beta.json"),
            "--trust", str(tmp_path / "beta.trust"),
            "--addr", f"{host}:0", "--once", "--timeout", timeout, *serve_args,
        ])

    worker = threading.Thread(target=serve)
    worker.start()
    port = wait_for_listener(capsys)
    codes["attest"] = cli.main([
        "attest", "--profile", str(tmp_path / "alpha.json"),
        "--trust", str(tmp_path / "alpha.trust"),
        "--addr", f"{host}:{port}", "--timeout", timeout, *attest_args,
    ])
    worker.join()
    return codes


def make_pair(rng: random.Random):
    """Two mutually provisioned devices with seeded random 8 KiB firmware."""
    return provision_pair(rng.randbytes(8 * 1024), rng.randbytes(8 * 1024))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def device_pair(rng):
    return make_pair(rng)


def libsodium():
    """The system libsodium with argtypes declared, or None where it is missing."""
    try:
        lib = ctypes.CDLL("libsodium.so.23")
    except OSError:
        return None
    if lib.sodium_init() < 0:
        return None
    buf, size = ctypes.c_char_p, ctypes.c_ulonglong
    signatures = {
        "crypto_core_hsalsa20": [buf, buf, buf, buf],  # out, in, key, constants
        "crypto_stream_xsalsa20": [buf, size, buf, buf],  # out, length, nonce, key
        "crypto_stream_xsalsa20_xor": [buf, buf, size, buf, buf],  # out, in, length, nonce, key
        "crypto_secretbox_easy": [buf, buf, size, buf, buf],
        "crypto_secretbox_open_easy": [buf, buf, size, buf, buf],
        "crypto_sign_ed25519_seed_keypair": [buf, buf, buf],  # pk, sk, seed
        # sig, siglen (may be NULL), message, length, sk
        "crypto_sign_ed25519_detached": [buf, ctypes.c_void_p, buf, size, buf],
        "crypto_sign_ed25519_verify_detached": [buf, buf, size, buf],  # sig, message, length, pk
        "crypto_scalarmult_curve25519": [buf, buf, buf],  # q, n, p
        "crypto_scalarmult_curve25519_base": [buf, buf],  # q, n
    }
    for name, argtypes in signatures.items():
        getattr(lib, name).argtypes = argtypes
        getattr(lib, name).restype = ctypes.c_int
    return lib
