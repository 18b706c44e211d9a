import random
import re
import sys
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


def make_pair(rng: random.Random, attested_bytes: int = 8 * 1024, block: int = 1024):
    """Two mutually provisioned devices with seeded random firmware."""
    fw_a = rng.randbytes(attested_bytes)
    fw_b = rng.randbytes(attested_bytes)
    return provision_pair(fw_a, fw_b, block)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def device_pair(rng):
    return make_pair(rng)
