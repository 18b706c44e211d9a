"""The one C accelerator, ``lrav._chainhash``, built on first import.

The only build path, in a checkout or an install (which ships the C source):
compile once into the package's ``__pycache__``, named by the source hash and
the extension suffix, so later imports only hash the source and never load a
build of an older one. A temporary output renamed into place makes concurrent
first imports safe; older builds are then deleted. lrav has no other
implementation of these primitives: without a compiler, the Python headers or
a writable ``__pycache__`` (a read-only install never imported by its owner),
importing this module (and so ``lrav.crtm``, ``lrav.secretbox`` and every module
built on them) raises ImportError naming the cache and the cause.
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import importlib.util
import os
from pathlib import Path

from cryptography.hazmat.primitives import hashes

_SRC = Path(__file__).with_name("_chainhash.c")
_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]  # the interpreter's EXT_SUFFIX


def _build(path: Path) -> None:
    """Compile into a temporary file beside `path`, then rename it to `path`."""
    import shlex, subprocess, sysconfig, tempfile  # noqa: E401 -- only a cache miss compiles

    cmd = shlex.split(sysconfig.get_config_var("LDSHARED") or "")
    if not cmd:
        raise OSError("no C compiler configured for this interpreter")
    cmd += shlex.split(sysconfig.get_config_var("CCSHARED") or "")
    path.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        cmd += ["-O2", "-I" + sysconfig.get_paths()["include"], str(_SRC), "-o", tmp]
        subprocess.run(cmd, check=True, capture_output=True, timeout=300)
        os.replace(tmp, path)
        for old in path.parent.glob(f"_chainhash.*{_SUFFIX}"):  # builds of older sources
            if old != path:
                with contextlib.suppress(OSError):
                    old.unlink()
    except subprocess.SubprocessError as exc:
        err = (getattr(exc, "stderr", None) or b"").decode(errors="replace")
        lines = [line.strip() for line in err.splitlines() if line.strip()]
        # gcc ends with "compilation terminated.": the first error line names the cause
        cause = ([line for line in lines if "error" in line] or lines[-1:] or [exc])[0]
        raise OSError(f"cannot compile {_SRC.name}: {cause}") from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _load():
    """The build of the current source, compiled if missing."""
    cache = _SRC.parent / "__pycache__"
    try:
        sha256 = hashes.Hash(hashes.SHA256())
        sha256.update(_SRC.read_bytes())
        key = sha256.finalize().hex()[:16]
        path = cache / f"_chainhash.{key}{_SUFFIX}"
        if not path.exists():
            _build(path)
        spec = importlib.util.spec_from_file_location(f"{__package__}._chainhash", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (OSError, ImportError) as exc:  # no compiler, Python headers or writable cache
        raise ImportError(f"cannot build lrav's C accelerator in {cache}: {exc}") from exc
    return module


EXT = _load()
