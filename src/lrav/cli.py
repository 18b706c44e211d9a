"""Operator CLI: provisioning, measurement, live attestation runs, benchmarks,
and the adversary scenario suite.

Exit codes are stable: 0 success/Established, 1 protocol abort or failed
attack scenario, 2 usage or validation error, 3 transport failure. Secret
material (signing seeds, session keys) never appears in any output; session
keys are reported as an 8-hex-char fingerprint.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import NoReturn

from . import attacks, bench, transport
from .crtm import AttestationConfig, measure
from .device import DeviceState
from .errors import LravError, TransportTimeout
from .memory import MemoryImage
from .provisioning import (
    FLASH_BASE,
    DeviceProfile,
    TrustStore,
    build_device,
    compute_expected,
    flash_region,
    format_trust_record,
    gen_identity,
    load_profile,
    load_trust_store,
    save_profile,
)
from .runner import SessionResult, key_fingerprint, run_initiator, run_responder

EXIT_OK = 0
EXIT_ABORT = 1
EXIT_USAGE = 2
EXIT_TRANSPORT = 3

# Accept-and-handle threads in `serve --parallel`; 1 without it. Not tuned:
# no benchmark workload yet opens more than 2 connections at once.
SERVE_WORKERS = 8
ACCEPT_RETRY_S = 0.1  # back-off after a failed accept

_OUTPUT_LOCK = threading.Lock()


def _emit(stream, line: str) -> None:
    """Write a whole line at once, so concurrent serve threads never interleave."""
    with _OUTPUT_LOCK:
        stream.write(line + "\n")
        stream.flush()


def _eprint(line: str) -> None:
    _emit(sys.stderr, line)


def _parse_addr(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ValueError(f"address must be HOST:PORT with PORT 0-65535, got {value!r}")
    return host, int(port)


def _attest_override(args, default: AttestationConfig) -> AttestationConfig:
    start = int(args.start, 16) if args.start else default.start_addr
    end = int(args.end, 16) if args.end else default.end_addr
    block = args.block if args.block else default.block_size
    return AttestationConfig(start, end, block)


def _load_device(args) -> DeviceState:
    profile = load_profile(args.profile)
    trust = load_trust_store(args.trust) if args.trust else TrustStore({})
    firmware = b""
    if profile.firmware:
        fw_path = Path(profile.firmware)
        if not fw_path.is_absolute():
            fw_path = Path(args.profile).parent / fw_path
        firmware = fw_path.read_bytes()
    profile = dataclasses.replace(profile, attest=_attest_override(args, profile.attest))
    return build_device(profile, trust, firmware)


def _report(result: SessionResult, device_id: str) -> int:
    if result.established:
        _emit(
            sys.stdout,
            f"established device={device_id} peer={result.state.peer_id} "
            f"key-fp={key_fingerprint(result.session_key)}",
        )
        return EXIT_OK
    if result.timed_out:
        _eprint(f"transport timeout ({result.describe()})")
        return EXIT_TRANSPORT
    if result.closed:  # "transport closed (<why>)"
        _eprint(f"transport {result.describe()}")
        return EXIT_TRANSPORT
    _eprint(f"attestation failed: {result.describe()}")
    return EXIT_ABORT


# --- subcommands --------------------------------------------------------------

def cmd_provision(args) -> int:
    image_path = Path(args.image)
    if not image_path.is_file():
        _eprint(f"firmware image not found: {image_path}")
        return EXIT_USAGE
    firmware = image_path.read_bytes()
    if not firmware:
        _eprint("firmware image is empty")
        return EXIT_USAGE
    entropy = bytes.fromhex(args.seed) if args.seed else None
    key = gen_identity(entropy)

    default = AttestationConfig(FLASH_BASE, FLASH_BASE + len(firmware), args.block or 1024)
    attest = _attest_override(args, default)
    profile = DeviceProfile(
        device_id=args.id,
        qsk_seed=key.rom_bytes()[:32],
        attest=attest,
        firmware=str(image_path.resolve()),
    )
    # before the secret seed reaches disk
    expected = compute_expected(MemoryImage([flash_region(firmware)]), attest)
    profile_path = Path(args.profile or f"{args.id}.profile.json")
    save_profile(profile_path, profile)
    _eprint(f"wrote device profile (contains the secret signing seed): {profile_path}")
    # The record below is public: paste it into the opposing device's store.
    print(format_trust_record(args.id, key.public, [expected]), end="", flush=True)
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

    A session that raises ends alone, so the pool keeps its size.
    """
    while True:
        try:
            ep = listener.accept()
        except OSError:
            time.sleep(ACCEPT_RETRY_S)  # e.g. out of descriptors; keep the worker
            continue
        try:
            handle(ep)
        except Exception as exc:
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
        bound = listener.address
        print(f"listening on {bound[0]}:{bound[1]}", flush=True)
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
    iters = args.iters or bench.DEFAULT_ITERS
    samples = bench.crtm_bench(iters=iters)
    if args.format == "csv":
        print(bench.format_csv(samples), flush=True)
    else:
        print(bench.format_text(samples, iters), flush=True)
    return EXIT_OK


def cmd_attack(args) -> int:
    scenarios = attacks.catalog()
    if args.only:
        scenarios = [s for s in scenarios if s.name == args.only]
        if not scenarios:
            _eprint(f"unknown scenario {args.only!r}; known: {', '.join(attacks.scenario_names())}")
            return EXIT_USAGE
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

def _add_common(sub: argparse.ArgumentParser, *, profile=False, trust=False, addr=False):
    if profile:
        sub.add_argument("--profile", required=True, help="device profile path (JSON)")
    if trust:
        sub.add_argument("--trust", required=True, help="trust store path")
    if addr:
        sub.add_argument("--addr", required=True, help="HOST:PORT")
        sub.add_argument("--timeout", type=float, default=transport.DEFAULT_TIMEOUT,
                         help="receive deadline in seconds: for the initiator's M2, and for the "
                              "responder's M1 and M3 together (default %(default)s)")


def _add_range(sub: argparse.ArgumentParser):
    sub.add_argument("--start", help="attested range start (hex physical address)")
    sub.add_argument("--end", help="attested range end, exclusive (hex)")
    sub.add_argument("--block", type=int, help="hash block size in bytes")


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
    _add_common(p, profile=True)
    p.add_argument("--trust", help="trust store path (optional; measurement needs no peers)")
    _add_range(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("serve", help="listen and run the responder per connection")
    _add_common(p, profile=True, trust=True, addr=True)
    _add_range(p)
    p.add_argument("--peer", help="expected initiator id (default: sole provisioned peer)")
    p.add_argument("--once", action="store_true", help="handle one connection and exit")
    p.add_argument("--parallel", action="store_true",
                   help=f"serve up to {SERVE_WORKERS} connections at once from a fixed thread pool")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("attest", help="dial a responder and run the initiator")
    _add_common(p, profile=True, trust=True, addr=True)
    _add_range(p)
    p.add_argument("--peer", help="target peer id (default: sole provisioned peer)")
    p.set_defaults(func=cmd_attest)

    p = sub.add_parser("bench", help="CRTM scaling benchmarks")
    p.add_argument("--iters", type=int, help=f"iterations (default {bench.DEFAULT_ITERS})")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("attack", help="run the adversary scenario catalog")
    p.add_argument("--only", help="run a single scenario by name")
    p.add_argument("--seed", help="hex seed for deterministic adversary choices")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_attack)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        _eprint(f"cannot read input: {exc}")
        return EXIT_USAGE
    except (LravError, ValueError) as exc:
        _eprint(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
