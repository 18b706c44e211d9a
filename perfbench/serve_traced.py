"""Run ``lrav serve`` with the benchmark's tracer installed.

    python3 perfbench/serve_traced.py --dump SPANS.json -- serve --profile ...

Everything after ``--`` is passed to ``lrav.cli.main``. SIGTERM and SIGINT
stop the server the way Ctrl-C does; the per-session spans of every finished
session are then written to the dump file as JSON.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from tracing import Tracer


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", required=True, help="where to write the span dump")
    parser.add_argument("lrav_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    lrav_args = args.lrav_args[1:] if args.lrav_args[:1] == ["--"] else args.lrav_args

    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGINT, _interrupt)

    import lrav.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = lrav.cli.main(lrav_args)
    except KeyboardInterrupt:  # arrived outside the serve loop's own handler
        code = 0
    with open(args.dump, "w") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
