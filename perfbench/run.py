"""lrav benchmark: closed-loop mutual handshakes, end to end and layer by layer.

    python3 perfbench/run.py --workload mem-64k --seed 1 --seconds 10 --trace 0

Run it from anywhere; it uses the checkout it lives in, importing lrav from
``src/`` (as the tier-1 tests do) and never building ``lrav._chainhash``.
It drives lrav only through its public API: the ``lrav`` CLI (``provision``,
``measure``, ``serve``), the runner, and the TCP wire.

Workloads (every client is a closed loop, from this one process):

    mem-64k         one initiator over transport.channel_pair; the responder
                    runs on a second thread; 64 KiB attested
    tcp-4m          one initiator against ``lrav serve`` over loopback; 4 MiB
    serve-mixed-1m  ``lrav serve --parallel``; 1 MiB; one honest initiator and
                    one hostile client sending an M1 with the all-zero X25519
                    point, expecting exactly one WEAK_POINT error frame

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json, after
a warm-up. ``--trace 1`` alternates untraced and traced slices of the same
load (a traced server runs under perfbench/serve_traced.py) and reports
per-layer metrics per honest session, both sides of the handshake summed,
plus the tracing overhead. Metrics that
BENCHMARK.json does not list (reject-class figures, failed_frac) are printed
on the ``detail`` line; run metadata on the ``meta`` line. The last line is
the JSON result. Any session that misses its expected outcome makes the run
exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import queue
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
try:
    import cryptography
    import tracing
    from lrav import cli, crtm, errors, protocol, provisioning, runner, transport
except ImportError as exc:  # not run from an lrav checkout; main() reports it
    _IMPORT_ERROR: Exception | None = exc
else:
    _IMPORT_ERROR = None
    if Path(cli.__file__).resolve().parent != SRC / "lrav":
        _IMPORT_ERROR = ImportError(f"lrav was imported from {cli.__file__}")

KIB = 1024
MIB = 1024 * KIB
HOST = "127.0.0.1"
ID_A, ID_B = "bench-a", "bench-b"  # initiator, responder
BLOCK = 1024
TIMEOUT = 10.0  # bounds every dial, receive, join and subprocess wait
WARMUP_S = 1.0
SETUP_REPEATS = 9
TRACE_PAIRS = 3
RUN_DEADLINE_S = 170
EXIT_MISS, EXIT_ERROR, EXIT_USAGE = 1, 3, 2

clock = time.perf_counter
_KEY_FP = re.compile(r"key-fp=([0-9a-f]{8})")


@dataclass(frozen=True)
class Workload:
    size: int
    tcp: bool
    parallel: bool = False
    hostile: bool = False  # adds a second closed-loop client sending weak-point M1s


WORKLOADS = {
    "mem-64k": Workload(64 * KIB, tcp=False),
    "tcp-4m": Workload(4 * MIB, tcp=True),
    "serve-mixed-1m": Workload(1 * MIB, tcp=True, parallel=True, hostile=True),
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Done(NamedTuple):
    kind: str  # "honest" or "hostile"
    start: float
    end: float
    ok: bool
    fp: str | None = None
    detail: str = ""


# --- provisioning -------------------------------------------------------------

def provision(work: Path, size: int, seed: int) -> None:
    """Seeded firmware and identities through ``lrav provision``; cross trust stores."""
    rng = random.Random(seed)
    records = {}
    for dev_id in (ID_A, ID_B):
        image = work / f"{dev_id}.bin"
        image.write_bytes(rng.randbytes(size))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([
                "provision", "--image", str(image), "--id", dev_id,
                "--profile", str(work / f"{dev_id}.profile.json"),
                "--seed", rng.randbytes(32).hex(), "--block", str(BLOCK),
            ])
        if code != 0:
            raise BenchError(f"lrav provision exited {code}")
        records[dev_id] = out.getvalue()
    (work / f"{ID_A}.trust").write_text(records[ID_B])
    (work / f"{ID_B}.trust").write_text(records[ID_A])


def load_device(work: Path, dev_id: str):
    return provisioning.build_device(
        provisioning.load_profile(work / f"{dev_id}.profile.json"),
        provisioning.load_trust_store(work / f"{dev_id}.trust"),
        (work / f"{dev_id}.bin").read_bytes(),
    )


def check_setup(work: Path) -> list[str]:
    """``lrav measure`` of each device must equal what its peer was provisioned with."""
    misses = []
    for dev_id, peer in ((ID_A, ID_B), (ID_B, ID_A)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["measure", "--profile", str(work / f"{dev_id}.profile.json")])
        expected = provisioning.load_trust_store(work / f"{peer}.trust").get(dev_id).expected
        if code != 0 or out.getvalue().strip() not in {m.digest.hex() for m in expected}:
            misses.append(f"{dev_id}: measurement differs from the provisioned expectation")
    return misses


# --- responders -----------------------------------------------------------------

class Server:
    """``lrav serve`` on an ephemeral loopback port, with both pipes drained."""

    def __init__(self, work: Path, parallel: bool, dump: Path | None):
        cmd = [sys.executable]
        cmd += [str(HERE / "serve_traced.py"), "--dump", str(dump), "--"] if dump else ["-m", "lrav"]
        cmd += [
            "serve", "--profile", str(work / f"{ID_B}.profile.json"),
            "--trust", str(work / f"{ID_B}.trust"),
            "--addr", f"{HOST}:0", "--timeout", str(TIMEOUT),
        ]
        if parallel:
            cmd.append("--parallel")
        path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        # `serve --parallel` reports from several threads, and print() writes a
        # line and its newline separately, so reports can share a line: count
        # occurrences, not lines.
        self.established: list[str] = []  # key fingerprints
        self.aborted = 0
        self.weak_point = 0
        self.other: list[str] = []
        self._cv = threading.Condition()
        self._listening: queue.Queue[str | None] = queue.Queue()
        self._readers = [
            threading.Thread(target=self._drain_stdout, daemon=True),
            threading.Thread(target=self._drain_stderr, daemon=True),
        ]
        for t in self._readers:
            t.start()
        try:
            line = self._listening.get(timeout=3 * TIMEOUT)
        except queue.Empty:
            line = None
        if line is None:
            self.close()
            raise BenchError(f"server did not report its port: {self.other[-5:]}")
        self.port = int(line.rsplit(":", 1)[1])

    def _drain_stdout(self) -> None:
        for line in self.proc.stdout:
            if line.startswith("listening on "):
                self._listening.put(line.strip())
            elif fps := _KEY_FP.findall(line):
                with self._cv:
                    self.established += fps
                    self._cv.notify_all()
            else:
                self.other.append(line.rstrip())
        self._listening.put(None)  # exited: stop waiting for the port

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            with self._cv:
                self.aborted += line.count("attestation failed:")
                self.weak_point += line.count("aborted (WEAK_POINT)")
                if "attestation failed:" not in line:
                    self.other.append(line.rstrip())
                self._cv.notify_all()

    def wait_reported(self, honest: int, hostile: int) -> bool:
        with self._cv:
            return self._cv.wait_for(
                lambda: len(self.established) >= honest and self.aborted >= hostile, TIMEOUT
            )

    def cpu_seconds(self) -> float:
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(stat[11]) + int(stat[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def close(self) -> None:
        """SIGTERM (the traced launcher dumps its spans on it), then reap."""
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(TIMEOUT)
        for t in self._readers:
            t.join(TIMEOUT)


class MemResponder:
    """Responder thread serving in-memory channels handed to it one at a time."""

    def __init__(self, dev, tracer):
        self.dev = dev
        self.tracer = tracer
        self.inbox: queue.Queue = queue.Queue()
        self.done: list[tuple[str | None, float, float]] = []  # (key-fp, cpu s, end)
        self.finished = threading.Semaphore(0)  # released once per session served
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while (ep := self.inbox.get()) is not None:
            with self.tracer.session("responder") as s:
                cpu = time.thread_time()
                try:
                    result = runner.run_responder(self.dev, ep, ID_A, timeout=TIMEOUT)
                except Exception as exc:  # keep serving; the miss is counted
                    s.outcome = f"failed: {exc!r}"
                    self.done.append((None, 0.0, clock()))
                    self.finished.release()
                    continue
                finally:
                    ep.close()
                cpu = time.thread_time() - cpu
                s.outcome = tracing.outcome_of(result)
            fp = runner.key_fingerprint(result.session_key) if result.established else None
            self.done.append((fp, cpu, clock()))
            self.finished.release()

    def close(self) -> None:
        self.inbox.put(None)
        self.thread.join(TIMEOUT)


def vm_hwm_mb(pid: int | str) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise BenchError("VmHWM not reported")


class Rig:
    """One provisioned pair: the client device plus its responder."""

    def __init__(self, wl: Workload, work: Path, seed: int, tracer, dump: Path | None = None):
        self.wl = wl
        self.server: Server | None = None
        self.responder: MemResponder | None = None
        provision(work, wl.size, seed)
        if wl.tcp:
            self.server = Server(work, wl.parallel, dump)
        else:
            self.responder = MemResponder(load_device(work, ID_B), tracer)
        try:
            self.client = load_device(work, ID_A)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        if self.responder is not None:
            self.responder.close()


# --- clients ----------------------------------------------------------------------

def honest_session(rig: Rig, tracer) -> Done:
    """Dial (or open a channel) and run the initiator until Established."""
    with tracer.session("initiator") as s:
        start = clock()
        if rig.server is not None:
            ep = transport.dial(HOST, rig.server.port, timeout=TIMEOUT)
        else:
            ep, peer_ep = transport.channel_pair()
            rig.responder.inbox.put(peer_ep)
        try:
            result = runner.run_initiator(rig.client, ep, ID_B, timeout=TIMEOUT)
            end = clock()
        finally:
            ep.close()
        s.outcome = tracing.outcome_of(result)
    # In memory the next session starts once the responder has finished this one
    # (checked M3), so its tail does not compete with the next initiator for the GIL.
    if rig.responder is not None and not rig.responder.finished.acquire(timeout=TIMEOUT):
        return Done("honest", start, end, False, detail="responder did not finish the session")
    if not result.established:
        return Done("honest", start, end, False, detail=result.describe())
    return Done("honest", start, end, True, runner.key_fingerprint(result.session_key))


def hostile_session(rig: Rig, tracer, nonce: bytes) -> Done:
    """Valid 65-byte M1 with the all-zero point; expect one WEAK_POINT frame, then close."""
    with tracer.session("hostile") as s:
        s.id = nonce.hex()
        start = clock()
        ep = transport.dial(HOST, rig.server.port, timeout=TIMEOUT)
        try:
            ep.send_frame(transport.MSG_M1, protocol.WireM1(nonce, bytes(32)).pack())
            frame = ep.recv_frame(TIMEOUT)
            end = clock()
            if frame != (transport.MSG_ERROR, bytes([protocol.AbortReason.WEAK_POINT])):
                detail = f"expected a WEAK_POINT error frame, got {frame!r}"
            else:
                try:
                    extra = ep.recv_frame(TIMEOUT)
                    detail = f"frame after the error frame: {extra!r}"
                except errors.ChannelClosed:
                    detail = ""
        finally:
            ep.close()
        s.outcome = "failed" if detail else "rejected"
    return Done("hostile", start, end, not detail, detail=detail)


def client_loop(session, stop: threading.Event, out: list, kind: str) -> None:
    while not stop.is_set():
        try:
            done = session()
        except (OSError, errors.LravError) as exc:
            now = clock()
            done = Done(kind, now, now, False, detail=repr(exc))
        out.append(done)
        if not done.ok:
            stop.set()


@dataclass
class Phase:
    records: list
    t_warm: float
    cpu_s: float | None  # server CPU over the window, TCP only
    cpu_span: tuple[float, float]

    def window(self, kind: str) -> list[Done]:
        return [r for r in self.records if r.kind == kind and r.start >= self.t_warm]


def drive(rig: Rig, seconds: float, tracer, seed: int) -> Phase:
    """Run the closed-loop clients: warm-up, then the timed window."""
    stop = threading.Event()
    records: list[Done] = []
    loops = [(lambda: honest_session(rig, tracer), "honest")]
    if rig.wl.hostile:
        nonces = random.Random(f"hostile-{seed}")
        loops.append((lambda: hostile_session(rig, tracer, nonces.randbytes(32)), "hostile"))
    threads = [
        threading.Thread(target=client_loop, args=(fn, stop, records, kind), daemon=True)
        for fn, kind in loops
    ]
    for t in threads:
        t.start()
    try:
        stop.wait(WARMUP_S)
        t_warm = clock()
        cpu0 = rig.server.cpu_seconds() if rig.server else None
        stop.wait(seconds)
    finally:
        stop.set()
        for t in threads:
            t.join(2 * TIMEOUT + 1)
    if any(t.is_alive() for t in threads):
        raise BenchError("a client did not finish within its timeouts")
    t_end = clock()
    cpu_s = rig.server.cpu_seconds() - cpu0 if rig.server else None
    return Phase(records, t_warm, cpu_s, (t_warm, t_end))


def verify(rig: Rig, phase: Phase) -> list[str]:
    """Every miss: failed sessions, and key fingerprints the two sides disagree on."""
    misses = [r.detail for r in phase.records if not r.ok]
    client_fps = [r.fp for r in phase.records if r.kind == "honest" and r.ok]
    hostile = sum(1 for r in phase.records if r.kind == "hostile")
    if rig.server is not None:
        if not rig.server.wait_reported(len(client_fps), hostile):
            misses.append(
                f"server reported {len(rig.server.established)} established and "
                f"{rig.server.aborted} aborted sessions, clients ran {len(client_fps)} "
                f"and {hostile}; other output: {rig.server.other[-3:]}"
            )
        if sorted(rig.server.established) != sorted(client_fps):
            misses.append("server and client key fingerprints differ")
        if not rig.server.aborted == rig.server.weak_point == hostile:
            misses.append(
                f"server aborted {rig.server.aborted} sessions, {rig.server.weak_point} for "
                f"WEAK_POINT; {hostile} hostile sessions ran"
            )
    else:
        rig.responder.close()
        if [fp for fp, _, _ in rig.responder.done] != client_fps:
            misses.append("responder and initiator key fingerprints differ")
    return misses


# --- metrics ------------------------------------------------------------------------

def _percentiles_ms(samples: list[float]) -> tuple[float, float]:
    if len(samples) < 10:
        raise BenchError(f"only {len(samples)} samples in the timed window; raise --seconds")
    return statistics.median(samples) * 1e3, statistics.quantiles(samples, n=10)[8] * 1e3


def _rate(done: list[Done]) -> float:
    return len(done) / (max(r.end for r in done) - min(r.start for r in done))


def end_to_end(rig: Rig, phase: Phase, setup_s: list[float]) -> dict:
    honest = phase.window("honest")
    p50, p90 = _percentiles_ms([r.end - r.start for r in honest])
    m = {
        "setup_s": statistics.median(setup_s),
        "handshake_ms.p50": p50,
        "handshake_ms.p90": p90,
        "handshake_ms.samples": len(honest),
        "handshakes_per_s": _rate(honest),
    }
    if rig.wl.hostile:
        hostile = phase.window("hostile")
        m["reject_ms.p50"], m["reject_ms.p90"] = _percentiles_ms([r.end - r.start for r in hostile])
        m["reject_ms.samples"] = len(hostile)
        m["rejects_per_s"] = _rate(hostile)
    lo, hi = phase.cpu_span
    if rig.server is not None:
        served = sum(1 for r in phase.records if lo <= r.end <= hi)
        m["server_cpu_ms_per_session"] = phase.cpu_s * 1e3 / served
        m["peak_rss_mb"] = rig.server.peak_rss_mb()
    else:
        cpu = [c for _, c, end in rig.responder.done if end >= lo]
        m["server_cpu_ms_per_session"] = sum(cpu) * 1e3 / len(cpu)
        m["peak_rss_mb"] = vm_hwm_mb("self")
    return m


def _merge(into: dict, stats: dict) -> None:
    for name, (calls, amount) in stats.items():
        entry = into.setdefault(name, [0, 0.0])
        entry[0] += calls
        entry[1] += amount


def per_layer(clients, servers, setups: list[dict], n_setups: int, size: int,
              overhead: float) -> dict:
    """Per-session layer figures for each class, both sides of each handshake summed.

    `clients` are the initiator and hostile sessions of the timed windows;
    `servers` the responder sessions, joined to them by M1 nonce.
    """
    by_id = {s["id"]: s for s in servers if s["role"] == "responder"}
    totals = {"established": {}, "rejected": {}}
    counts = {"established": 0, "rejected": 0}
    for s in clients:
        peer = by_id.get(s.id)
        if s.outcome not in totals or peer is None or peer["outcome"] != s.outcome:
            raise BenchError(f"trace lacks the responder half of session {s.id}")
        _merge(totals[s.outcome], s.stats)
        _merge(totals[s.outcome], peer["stats"])
        counts[s.outcome] += 1

    def per_session(outcome: str, prefix: str) -> dict:
        n = counts[outcome]
        m = {}
        for name, (calls, amount) in totals[outcome].items():
            if name == tracing.WIRE_BYTES:
                m[prefix + name] = amount / n
                continue
            m[f"{prefix}{name}.calls"] = calls / n
            m[f"{prefix}{name}.self_ms"] = amount * 1e3 / n
        return m

    m = per_session("established", "")
    if counts["rejected"]:
        m.update(per_session("rejected", "reject."))
        m["reject.sessions"] = counts["rejected"]
    m["trace.honest_sessions"] = counts["established"]
    m["transport.recv_frame.wait_ms"] = m.pop("transport.recv_frame.self_ms")
    calls, seconds = totals["established"]["crtm.measure"]
    m["crtm.measure.MBps"] = size * calls / seconds / 1e6
    wasted = totals["rejected"].get("crtm.measure", [0])[0]
    m["crtm.useful_ratio"] = calls / (calls + wasted)
    setup_stats: dict = {}
    for stats in setups:
        _merge(setup_stats, stats)
    for name in ("provisioning.build_device", "provisioning.compute_expected"):
        m[f"{name}.self_ms"] = setup_stats[name][1] * 1e3 / n_setups
    m["trace.overhead_frac"] = overhead
    return m


# --- runs -------------------------------------------------------------------------------

def run_phase(wl: Workload, work: Path, seed: int, seconds: float, tracer,
              dump: Path | None = None, setups: int = 1):
    """Set up `setups` times (keeping the last rig), check the set-up, drive, verify."""
    setup_s: list[float] = []
    rig = None
    try:
        for _ in range(setups):
            if rig is not None:
                rig.close()
                rig = None
            start = clock()
            rig = Rig(wl, work, seed, tracer, dump)
            setup_s.append(clock() - start)
        setup_stats = {k: list(v) for k, v in tracer.setup.items()}
        misses = check_setup(work)
        phase = drive(rig, seconds, tracer, seed)
        misses += verify(rig, phase)
        metrics = {} if misses else end_to_end(rig, phase, setup_s)
    finally:
        if rig is not None:
            rig.close()
    return phase, metrics, misses, setup_stats


def run_traced(wl: Workload, work: Path, seed: int, seconds: float):
    """Alternate untraced and traced slices, so host drift hits both alike.

    Per-layer metrics come from the traced slices; the untraced ones give
    the tracing overhead.
    """
    records, misses = [], []
    rates = {False: [], True: []}
    clients, servers, setups = [], [], []
    for traced in [False, True] * TRACE_PAIRS:
        tracer = tracing.Tracer()
        dump = work / "server-spans.json" if traced and wl.tcp else None
        if traced:
            tracer.install()
        try:
            phase, m, more, setup_stats = run_phase(
                wl, work, seed, seconds / (2 * TRACE_PAIRS), tracer, dump)
        finally:
            tracer.uninstall()
        records += phase.records
        misses += more
        if misses:
            return records, {}, misses
        rates[traced].append(m["handshakes_per_s"])
        if not traced:
            continue
        if dump is not None:
            try:
                server = json.loads(dump.read_text())
            except (OSError, ValueError) as exc:
                raise BenchError(f"traced server left no span dump: {exc}") from exc
        else:  # the in-process responder's set-up is already in setup_stats
            server = dict(tracer.dump(), setup={})
        clients += [s for s in tracer.sessions if s.t0 >= phase.t_warm and s.role != "responder"]
        servers += server["sessions"]
        setups += [setup_stats, server["setup"]]
    overhead = 1 - statistics.fmean(rates[True]) / statistics.fmean(rates[False])
    metrics = per_layer(clients, servers, setups, TRACE_PAIRS, wl.size, overhead)
    return records, metrics, misses


def _libsodium_present() -> bool:
    import ctypes

    try:
        ctypes.CDLL("libsodium.so.23")
    except OSError:
        return False
    return True


def _declared(trace: bool) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def _on_deadline(signum, frame):
    raise BenchError(f"run exceeded {RUN_DEADLINE_S} s")


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lrav handshake benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    if _IMPORT_ERROR is not None:
        print(f"error: cannot import lrav from {SRC}: {_IMPORT_ERROR}", file=sys.stderr)
        return EXIT_USAGE
    try:
        declared = _declared(bool(args.trace))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return EXIT_USAGE
    signal.signal(signal.SIGTERM, _on_term)
    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(RUN_DEADLINE_S)
    loadavg = os.getloadavg()[0]
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            records, metrics, misses = run_traced(wl, work, args.seed, args.seconds)
        else:
            phase, metrics, misses, _ = run_phase(
                wl, work, args.seed, args.seconds, tracing.Tracer(), setups=SETUP_REPEATS)
            records = phase.records
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attested_bytes": wl.size,
        "closed_loop_clients": 2 if wl.hostile else 1,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "accelerator": crtm._chained_sha3_256 is not None,
        "libsodium": _libsodium_present(),
        "loadavg_1m_at_start": loadavg,
        "randomness": "firmware bytes, identities and hostile nonces come from --seed; "
                      "session nonces and X25519 ephemerals are lrav's own secrets draws",
    }
    attempted = len(records)
    failed = sum(1 for r in records if not r.ok)
    missing = sorted(set(declared) - set(metrics))
    if missing and not misses:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return EXIT_ERROR
    metrics["failed_frac"] = failed / attempted
    print("meta " + json.dumps(meta), flush=True)
    for name, unit in declared.items():
        if name in metrics:
            print(f"{name} = {metrics[name]:.6g} {unit}")
    print("detail " + json.dumps({k: v for k, v in metrics.items() if k not in declared}))
    for miss in misses:
        print(f"miss: {miss}")
    print(json.dumps({
        "correct": not misses,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in declared.items() if n in metrics},
    }), flush=True)
    return EXIT_MISS if misses else 0


if __name__ == "__main__":
    sys.exit(main())
