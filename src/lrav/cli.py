"""Operator CLI: provisioning, measurement, live attestation runs, benchmarks,
and the adversary scenario suite.

Exit codes are stable: 0 success/Established, 1 protocol abort or failed
attack scenario, 2 usage or validation error, 3 transport failure. Secret
material (signing seeds, session keys) never appears in any output; session
keys are reported as an 8-hex-char fingerprint.

`main` may be called repeatedly in one process, also from several threads at
once. Every call shares one argument parser, built on the first call:
parsing reads the parser and writes only to a fresh namespace.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import threading
import time
from pathlib import Path
from typing import NoReturn

from . import transport
from .crtm import AttestationConfig, measure
from .device import FLASH_BASE, DeviceState
from .errors import LravError, TransportTimeout
from .memory import MemoryImage
from .provisioning import (
    DeviceProfile,
    TrustStore,
    build_device,
    check_peer_id,
    compute_expected,
    flash_region,
    format_trust_record,
    gen_identity,
    load_profile,
    load_trust_store,
    save_profile,
)
from .quote import verification_key
from .runner import Outcome, SessionResult, key_fingerprint, run_initiator, run_responder

EXIT_OK = 0
EXIT_ABORT = 1
EXIT_USAGE = 2
EXIT_TRANSPORT = 3

# Accept-and-handle threads in `serve --parallel`; 1 without it. Not tuned:
# no benchmark workload yet opens more than 2 connections at once.
SERVE_WORKERS = 8
ACCEPT_RETRY_S = 0.1  # back-off after a failed accept
BENCH_ITERS = 20  # `lrav bench` iterations without --iters

_OUTPUT_LOCK = threading.Lock()


def _emit(stream, line: str) -> None:
    """Write a whole line at once, so concurrent serve threads never interleave."""
    with _OUTPUT_LOCK:
        stream.write(line + "\n")
        stream.flush()


def _eprint(line: str) -> None:
    _emit(sys.stderr, line)


def _parse_addr(value: str) -> tuple[str, int]:
    """HOST:PORT, or [IPV6]:PORT with the brackets stripped."""
    host, _, port = value.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    if not host or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ValueError(f"address must be HOST:PORT with PORT 0-65535, got {value!r}")
    return host, int(port)


def _attest_override(args, default: AttestationConfig) -> AttestationConfig:
    start = default.start_addr if args.start is None else int(args.start, 16)
    end = default.end_addr if args.end is None else int(args.end, 16)
    block = default.block_size if args.block is None else args.block
    return AttestationConfig(start, end, block)


def _load_device(args) -> DeviceState:
    profile = load_profile(args.profile)
    trust = load_trust_store(args.trust) if args.trust else TrustStore({})
    fw_path = os.devnull  # no image: flash stays blank
    if profile.firmware:  # relative to the profile; an absolute path stays as is
        fw_path = Path(args.profile).parent / profile.firmware
    with open(fw_path, "rb") as firmware:  # read straight into flash
        profile = dataclasses.replace(profile, attest=_attest_override(args, profile.attest))
        return build_device(profile, trust, firmware)


def _report(result: SessionResult, device_id: str) -> int:
    if result.outcome is Outcome.ESTABLISHED:
        _emit(
            sys.stdout,
            f"established device={device_id} peer={result.state.peer_id} "
            f"key-fp={key_fingerprint(result.session_key)}",
        )
        return EXIT_OK
    if result.outcome is Outcome.TIMEOUT:
        _eprint(f"transport timeout ({result.describe()})")
        return EXIT_TRANSPORT
    if result.outcome is Outcome.CLOSED:  # "transport closed (<why>)"
        _eprint(f"transport {result.describe()}")
        return EXIT_TRANSPORT
    _eprint(f"attestation failed: {result.describe()}")
    return EXIT_ABORT


# --- subcommands --------------------------------------------------------------

def cmd_provision(args) -> int:
    check_peer_id(args.id)  # before anything is written
    if not args.profile and "/" in args.id:  # the id would pick the profile's directory
        raise ValueError(f"an id containing '/' needs --profile for the profile path: {args.id!r}")
    image_path = Path(args.image)
    if not image_path.is_file():
        _eprint(f"firmware image not found: {image_path}")
        return EXIT_USAGE
    with open(image_path, "rb") as firmware:
        size = os.fstat(firmware.fileno()).st_size
        if not size:
            _eprint("firmware image is empty")
            return EXIT_USAGE
        entropy = bytes.fromhex(args.seed) if args.seed else None
        seed = gen_identity(entropy)

        default = AttestationConfig(FLASH_BASE, FLASH_BASE + size, 1024)
        attest = _attest_override(args, default)
        flash = flash_region(firmware)  # read straight into flash
    profile = DeviceProfile(
        device_id=args.id,
        qsk_seed=seed,
        attest=attest,
        firmware=str(image_path.resolve()),
    )
    # before the secret seed reaches disk
    expected = compute_expected(MemoryImage([flash]), attest)
    profile_path = Path(args.profile or f"{args.id}.profile.json")
    try:
        save_profile(profile_path, profile)
    except OSError as exc:  # main would report it as a read error
        _eprint(f"cannot write profile {profile_path}: {exc.strerror or exc}")
        return EXIT_USAGE
    _eprint(f"wrote device profile (contains the secret signing seed): {profile_path}")
    # The record below is public: paste it into the opposing device's store.
    print(format_trust_record(args.id, verification_key(seed), [expected]), end="", flush=True)
    return EXIT_OK


def cmd_measure(args) -> int:
    dev = _load_device(args)
    measurement = measure(dev.memory, dev.attest_config)
    print(measurement.digest.hex(), flush=True)
    return EXIT_OK


def cmd_attest(args) -> int:
    dev = _load_device(args)
    peer = dev.trust.resolve(args.peer)  # before dialling: a usage error needs no socket
    host, port = _parse_addr(args.addr)
    try:
        ep = transport.dial(host, port, timeout=args.timeout)
    except OSError as exc:
        _eprint(f"cannot connect to {args.addr}: {exc}")
        return EXIT_TRANSPORT
    try:
        result = run_initiator(dev, ep, peer, timeout=args.timeout)
    finally:
        ep.close()
    return _report(result, dev.device_id)


def _accept_loop(listener: transport.TcpListener, handle) -> NoReturn:
    """One serve worker: accept and handle connections until the process exits.

    A session that raises ends alone, so the pool keeps its size. Once
    stdout's reader is gone, serve exits 1 as `main` does; the other workers
    wait in accept(), so the process is ended from here.
    """
    while True:
        try:
            ep = listener.accept()
        except OSError:
            time.sleep(ACCEPT_RETRY_S)  # e.g. out of descriptors; keep the worker
            continue
        try:
            handle(ep)
        except BrokenPipeError:  # os._exit flushes nothing, so stdout is left as it is
            os._exit(EXIT_ABORT)
        except Exception as exc:
            import traceback  # only a failed session prints one

            _eprint(f"attestation failed: failed ({exc!r})\n{traceback.format_exc().rstrip()}")


def cmd_serve(args) -> int:
    dev = _load_device(args)
    peer = dev.trust.resolve(args.peer)  # before binding: a usage error needs no socket
    host, port = _parse_addr(args.addr)
    try:
        listener = transport.TcpListener(host, port)
    except OSError as exc:
        _eprint(f"cannot listen on {args.addr}: {exc}")
        return EXIT_TRANSPORT

    def handle(ep) -> int:
        try:
            result = run_responder(dev, ep, peer, timeout=args.timeout)
        finally:
            ep.close()
        return _report(result, dev.device_id)

    try:
        host, port = listener.address
        print(f"listening on {f'[{host}]' if ':' in host else host}:{port}", flush=True)
        if args.once:
            return handle(listener.accept(timeout=args.timeout))
        for _ in range(SERVE_WORKERS - 1 if args.parallel else 0):
            threading.Thread(target=_accept_loop, args=(listener, handle), daemon=True).start()
        _accept_loop(listener, handle)  # the main thread is a worker, so Ctrl-C lands here
    except TransportTimeout:
        _eprint("no incoming connection before timeout")
        return EXIT_TRANSPORT
    except KeyboardInterrupt:
        return EXIT_OK
    finally:
        listener.close()


def cmd_bench(args) -> int:
    # imported here, as in cmd_attack, so that `serve` and `attest` do not
    # load (and, without bytecode caching, compile) what they never run
    from . import bench

    samples = bench.crtm_bench(iters=args.iters)
    if args.format == "csv":
        print(bench.format_csv(samples), flush=True)
    else:
        print(bench.format_text(samples, args.iters), flush=True)
    return EXIT_OK


def cmd_attack(args) -> int:
    from . import attacks  # see cmd_bench

    scenarios = attacks.catalog()
    if args.only:
        picked = [s for s in scenarios if s.name == args.only]
        if not picked:
            known = ", ".join(s.name for s in scenarios)
            _eprint(f"unknown scenario {args.only!r}; known: {known}")
            return EXIT_USAGE
        scenarios = picked
    seed = int(args.seed, 16) if args.seed else 0
    rows = []
    all_pass = True
    for scenario in scenarios:
        observed = attacks.run_scenario(scenario, seed=seed)
        ok = observed == scenario.expected
        all_pass &= ok
        rows.append((scenario.name, str(scenario.expected), str(observed), "pass" if ok else "FAIL"))
    if args.format == "csv":
        print("scenario,expected,observed,status")
        for row in rows:
            print(",".join(row))
    else:
        width = max(len(r[0]) for r in rows)
        for name, expected, observed, status in rows:
            print(f"{status:4s} {name:{width}s} expected={expected} observed={observed}")
        print(f"{sum(1 for r in rows if r[3] == 'pass')}/{len(rows)} scenarios passed", flush=True)
    return EXIT_OK if all_pass else EXIT_ABORT


# --- parser -------------------------------------------------------------------

def _timeout(value: str) -> float:
    try:
        seconds = float(value)
    except ValueError:  # argparse's own message for type=float
        raise argparse.ArgumentTypeError(f"invalid float value: {value!r}") from None
    if not 0 < seconds <= transport.MAX_TIMEOUT_S:  # also false for nan
        raise argparse.ArgumentTypeError(
            f"must be more than 0 and at most {transport.MAX_TIMEOUT_S} seconds, got {value!r}")
    return seconds


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:  # argparse's own message for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value!r}")
    return number


def _add_common(sub: argparse.ArgumentParser, *, session=False):
    """--profile; with `session`, also what a live session needs: --trust, --addr, --timeout."""
    sub.add_argument("--profile", required=True, help="device profile path (JSON)")
    if session:
        sub.add_argument("--trust", required=True, help="trust store path")
        sub.add_argument("--addr", required=True, help="HOST:PORT")
        sub.add_argument("--timeout", type=_timeout, default=transport.DEFAULT_TIMEOUT,
                         help="receive deadline in seconds: for the initiator's M2, and for the "
                              "responder's M1 and M3 together (default %(default)s)")


def _add_range(sub: argparse.ArgumentParser):
    sub.add_argument("--start", help="attested range start (hex physical address)")
    sub.add_argument("--end", help="attested range end, exclusive (hex)")
    sub.add_argument("--block", type=int, help="hash block size in bytes")


@functools.cache  # built once: see the module docstring
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrav",
        description="mutual remote attestation between simulated PMP-protected devices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("provision", help="generate an identity, profile, and trust record")
    p.add_argument("--image", required=True, help="firmware image (raw binary)")
    p.add_argument("--id", default="device", help="device identifier")
    p.add_argument("--profile", help="profile output path (default <id>.profile.json)")
    p.add_argument("--seed", help="hex entropy for a reproducible identity (test only)")
    _add_range(p)
    p.set_defaults(func=cmd_provision)

    p = sub.add_parser("measure", help="print the CRTM digest of the configured range")
    _add_common(p)
    p.add_argument("--trust", help="trust store path (optional; measurement needs no peers)")
    _add_range(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("serve", help="listen and run the responder per connection")
    _add_common(p, session=True)
    _add_range(p)
    p.add_argument("--peer", help="expected initiator id (default: sole provisioned peer)")
    p.add_argument("--once", action="store_true", help="handle one connection and exit")
    p.add_argument("--parallel", action="store_true",
                   help=f"serve up to {SERVE_WORKERS} connections at once from a fixed thread pool")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("attest", help="dial a responder and run the initiator")
    _add_common(p, session=True)
    _add_range(p)
    p.add_argument("--peer", help="target peer id (default: sole provisioned peer)")
    p.set_defaults(func=cmd_attest)

    p = sub.add_parser("bench", help="CRTM scaling benchmarks")
    p.add_argument("--iters", type=_positive_int, default=BENCH_ITERS,
                   help=f"iterations (default {BENCH_ITERS})")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("attack", help="run the adversary scenario catalog")
    p.add_argument("--only", help="run a single scenario by name")
    p.add_argument("--seed", help="hex seed for deterministic adversary choices")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_attack)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # stdout's reader is gone, as in `lrav bench | head -1`
        # the interpreter flushes stdout on exit: let that flush write to nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ABORT
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        _eprint(f"cannot read input: {exc}")
        return EXIT_USAGE
    except (LravError, ValueError) as exc:
        _eprint(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
