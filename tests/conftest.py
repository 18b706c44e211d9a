import random

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
