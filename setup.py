"""Build hook for the optional C accelerator (chained SHA3 and XSalsa20).

The extension is one self-contained C file: a multi-lane SHA3-256 sponge for
the chained measurement and the XSalsa20 stream, with no library beyond the
Python headers. The package is fully functional without it: lrav.crtm falls
back to hashlib and lrav.secretbox to a pure-Python XSalsa20, and an
uninstalled checkout compiles the same source on first import (lrav._native).
The extension exists because per-object hash overhead in Python distorts the
block-size scaling the benchmarks assert, and the pure-Python stream
dominates a handshake.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the accelerator if the toolchain allows; never fail the install."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # toolchain or headers missing
            print(f"warning: skipping C accelerator build: {exc}")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: skipping {ext.name}: {exc}")


setup(
    ext_modules=[
        Extension(
            "lrav._chainhash",
            sources=["src/lrav/_chainhash.c"],
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
