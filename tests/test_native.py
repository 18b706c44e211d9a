"""The accelerator loader: first-import builds into an empty cache, and failed ones.

The build tests copy the package sources (no built module, no
``__pycache__``) into a temporary directory and import that copy in fresh
interpreters, as a first import from a clean checkout does. One builds the
package's installed layout with setuptools instead, so the installed copy
must carry the C source itself. The source itself must compile without
warnings, and its kernel must run clean under AddressSanitizer and UBSan.
"""

import hashlib
import importlib.util
import json
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import lrav
import pytest
from lrav import _native, crtm, secretbox
from lrav.crtm import AttestationConfig, measure
from lrav.provisioning import FLASH_BASE

from conftest import flash_image
from test_crtm import CHAIN_BLOCKS, CHAIN_COUNTS

PROBE = """
import json
from lrav import secretbox
from lrav.crtm import AttestationConfig, measure
from lrav.memory import MemoryImage, Region, RegionKind
from lrav.provisioning import FLASH_BASE

data = bytes(range(256)) * 40
image = MemoryImage([Region(FLASH_BASE, RegionKind.FLASH, bytearray(data))])
print(json.dumps({
    "digest": measure(image, AttestationConfig(FLASH_BASE, FLASH_BASE + len(data), 1000))
              .digest.hex(),
    "box": secretbox.seal(bytes(range(32)), bytes(24), data[:300]).hex(),
}))
"""

# The file the accelerator was loaded from.
LOADED_FILE = """
import json
from lrav import _native

print(json.dumps(_native.EXT.__file__))
"""

# Runs a build of the kernel, given by path, over TestNativeKernel's grid and
# one XSalsa20 stream, against the oracles.
SANITIZED_PROBE = """
import importlib.util, json, random, sys
from oracles import iterative_chain_digest, xsalsa20_oracle

spec = importlib.util.spec_from_file_location("_chainhash", sys.argv[1])
kernel = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel)
rng = random.Random(0)
for block in json.loads(sys.argv[2]):
    for count in json.loads(sys.argv[3]):
        for last in {block, 1, block // 2 + 1}:
            data = rng.randbytes((count - 1) * block + last)
            got = kernel.chained_sha3_256(data, block)
            assert got == iterative_chain_digest(data, block), (block, count, last)
key, nonce, data = rng.randbytes(32), rng.randbytes(24), rng.randbytes(1000)
assert kernel.xsalsa20_xor(key, nonce, data) == xsalsa20_oracle(key, nonce, data)
print("clean")
"""

# The compile step fails after writing part of its output file, as a compiler
# without the Python headers does.
BROKEN_COMPILER = """
import subprocess

def broken_run(cmd, **kwargs):
    with open(cmd[cmd.index("-o") + 1], "wb") as out:
        out.write(b"partial")
    raise subprocess.CalledProcessError(1, cmd, stderr=(
        b"_chainhash.c:19:10: fatal error: Python.h: No such file or directory\\n"
        b"   19 | #include <Python.h>\\n"
        b"      |          ^~~~~~~~~~\\n"
        b"compilation terminated.\\n"))

subprocess.run = broken_run
"""


# The compile step writes its output in two halves, half a second apart, so a
# process that starts in between meets whatever a half-built file exposes.
SLOW_COMPILER = """
import os, subprocess, time
real_run = subprocess.run

def slow_run(cmd, **kwargs):
    out = cmd[cmd.index("-o") + 1]
    real_run([out + ".whole" if arg == out else arg for arg in cmd], **kwargs)
    with open(out + ".whole", "rb") as whole:
        data = whole.read()
    os.unlink(out + ".whole")
    with open(out, "wb") as dest:
        dest.write(data[:len(data) // 2])
        dest.flush()
        time.sleep(0.5)
        dest.write(data[len(data) // 2:])

subprocess.run = slow_run
"""


def fresh_copy(tmp_path: Path) -> Path:
    pkg = Path(lrav.__file__).resolve().parent
    shutil.copytree(pkg, tmp_path / "lrav", ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    return tmp_path


def build_outputs(cache: Path) -> list[Path]:
    """The build's own files, its temporary output and the module; not the side file."""
    return [p for p in cache.glob("*")
            if p.name.startswith((".build-", "_chainhash.")) and not p.name.endswith(".whole")]


def start_probe(root: Path, prelude: str = "", probe: str = PROBE) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", prelude + probe],
        cwd=root, env=dict(os.environ, PYTHONPATH=str(root)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def finish(proc: subprocess.Popen) -> dict:
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return json.loads(out)


def compiler() -> list[str]:
    """The interpreter's command for linking an extension module."""
    cmd = shlex.split(sysconfig.get_config_var("LDSHARED") or "")
    if not cmd or shutil.which(cmd[0]) is None:
        pytest.skip("no C compiler configured for this interpreter")
    return cmd + shlex.split(sysconfig.get_config_var("CCSHARED") or "")


def compile_warning_free(source: Path, out: Path, *flags: str) -> None:
    """Compile `source` into the extension module `out`, as an in-place build does."""
    cmd = compiler() + ["-O2", "-Wall", "-Wextra", "-Werror", *flags,
                        "-I" + sysconfig.get_paths()["include"], str(source), "-o", str(out)]
    built = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert built.returncode == 0, built.stderr


def expected_outputs() -> tuple[str, str]:
    data = bytes(range(256)) * 40
    config = AttestationConfig(FLASH_BASE, FLASH_BASE + len(data), 1000)
    digest = measure(flash_image(data), config).digest.hex()
    return digest, secretbox.seal(bytes(range(32)), bytes(24), data[:300]).hex()


def test_concurrent_first_imports_share_one_build(tmp_path):
    root = fresh_copy(tmp_path)
    cache = root / "lrav" / "__pycache__"
    first = start_probe(root, SLOW_COMPILER)
    deadline = time.monotonic() + 60
    while not any(p.stat().st_size for p in build_outputs(cache)):
        assert first.poll() is None and time.monotonic() < deadline, "no build started"
        time.sleep(0.005)
    second = start_probe(root)  # its first import meets the half-written build
    results = [finish(first), finish(second)]
    digest, box = expected_outputs()
    for result in results:
        assert result == {"digest": digest, "box": box}
    cache = sorted(p.name for p in (root / "lrav" / "__pycache__").iterdir()
                   if not p.name.endswith(".pyc"))
    assert len(cache) == 1 and cache[0].startswith("_chainhash."), cache
    assert cache[0].endswith(sysconfig.get_config_var("EXT_SUFFIX"))


def test_first_import_deletes_older_builds(tmp_path):
    root = fresh_copy(tmp_path)
    cache = root / "lrav" / "__pycache__"
    cache.mkdir()
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    (cache / f"_chainhash.0123456789abcdef{suffix}").write_bytes(b"a build of an older source")
    (cache / ".build-inflight.tmp").write_bytes(b"another process's compiler output")
    digest, box = expected_outputs()
    assert finish(start_probe(root)) == {"digest": digest, "box": box}
    left = sorted(p.name for p in cache.iterdir() if not p.name.endswith(".pyc"))
    assert len(left) == 2 and left[0] == ".build-inflight.tmp", left
    assert left[1].startswith("_chainhash.") and left[1] != f"_chainhash.0123456789abcdef{suffix}"


def test_source_compiles_warning_free_without_libcrypto(tmp_path):
    out = tmp_path / f"_chainhash{sysconfig.get_config_var('EXT_SUFFIX')}"
    compile_warning_free(_native._SRC, out)
    spec = importlib.util.spec_from_file_location("_chainhash", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.chained_sha3_256(b"abc", 3).hex().startswith("3a985da7")


def test_kernel_is_clean_under_sanitizers(tmp_path):
    # A read past the input or an undefined operation that leaves the digests
    # right passes every other test; AddressSanitizer and UBSan stop on it.
    runtimes = []
    for name in ("libasan.so", "libubsan.so"):
        found = subprocess.run(compiler()[:1] + [f"-print-file-name={name}"],
                               capture_output=True, text=True).stdout.strip()
        if not os.path.isabs(found):
            pytest.skip(f"the compiler has no {name}")
        runtimes.append(found)
    out = tmp_path / f"_chainhash{sysconfig.get_config_var('EXT_SUFFIX')}"
    compile_warning_free(_native._SRC, out, "-O1", "-fsanitize=address,undefined",
                         "-fno-sanitize-recover=all")
    tests = Path(__file__).resolve().parent
    probe = subprocess.run(
        [sys.executable, "-c", SANITIZED_PROBE, str(out), json.dumps(CHAIN_BLOCKS),
         json.dumps(CHAIN_COUNTS)],
        env=dict(os.environ, LD_PRELOAD=" ".join(runtimes), ASAN_OPTIONS="detect_leaks=0",
                 PYTHONMALLOC="malloc",  # red zones around small objects too
                 PYTHONPATH=os.pathsep.join([str(tests), str(Path(lrav.__file__).parents[1])])),
        capture_output=True, text=True, timeout=300,
    )
    assert probe.returncode == 0 and probe.stdout == "clean\n", probe.stderr[-3000:]


def test_stale_in_place_build_is_ignored(tmp_path):
    # An in-place extension build left beside the package, then the source is edited.
    root = fresh_copy(tmp_path)
    source = root / "lrav" / "_chainhash.c"
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    compile_warning_free(source, root / "lrav" / f"_chainhash{suffix}")
    source.write_text(source.read_text() + "/* edited after the in-place build */\n")
    key = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    fresh = root / "lrav" / "__pycache__" / f"_chainhash.{key}{suffix}"
    loaded = finish(start_probe(root, probe=LOADED_FILE))
    assert loaded == str(fresh)
    digest, box = expected_outputs()
    assert finish(start_probe(root)) == {"digest": digest, "box": box}


def test_installed_layout_carries_and_builds_the_source(tmp_path):
    pytest.importorskip("setuptools")
    checkout = Path(__file__).resolve().parents[1]
    shutil.copy(checkout / "pyproject.toml", tmp_path)
    shutil.copytree(checkout / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.egg-info"))
    lib = tmp_path / "lib"
    built = subprocess.run(
        [sys.executable, "-c", "import setuptools; setuptools.setup()", "build_py",
         "--build-lib", str(lib)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert built.returncode == 0, built.stderr
    assert (lib / "lrav" / "_chainhash.c").is_file()
    digest, box = expected_outputs()
    assert finish(start_probe(lib)) == {"digest": digest, "box": box}


def test_failed_compile_fails_the_import(tmp_path):
    root = fresh_copy(tmp_path)
    probe = start_probe(root, BROKEN_COMPILER)
    out, err = probe.communicate(timeout=300)
    cache = root / "lrav" / "__pycache__"
    assert probe.returncode != 0 and out == ""
    assert f"ImportError: cannot build lrav's C accelerator in {cache}" in err, err
    assert "fatal error: Python.h: No such file or directory" in err, err
    assert [p.name for p in cache.iterdir() if not p.name.endswith(".pyc")] == []


def test_in_process_modules_use_the_accelerator_when_it_loads():
    assert crtm._chained_sha3_256 is _native.EXT.chained_sha3_256
    assert secretbox._xsalsa20_xor is _native.EXT.xsalsa20_xor
