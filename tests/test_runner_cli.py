import argparse
import contextlib
import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

import lrav
from lrav import cli, transport
from lrav.errors import ChannelClosed, GateViolation, ProtocolStateError, UnknownPeer
from lrav.protocol import (
    AbortReason, Phase, WireM1, WireM2, process_m2, produce_own_quote, respond_m1,
)
from lrav.provisioning import FLASH_SIZE, parse_trust_store
from lrav.runner import (
    Outcome, SessionResult, key_fingerprint, run_initiator, run_pair, run_responder,
)

from conftest import make_pair, provision_cli_pair, serve_and_attest
from oracles import recursive_chain_digest


class TestRunner:
    def test_honest_run_over_memory_channel(self, device_pair):
        res_a, res_b = run_pair(*device_pair)
        assert res_a.established and res_b.established
        assert res_a.session_key == res_b.session_key
        assert key_fingerprint(res_a.session_key) == key_fingerprint(res_b.session_key)

    def test_error_frame_reports_reason_to_peer(self, rng):
        dev_a, dev_b = make_pair(rng)
        # tamper B's attested memory: A aborts and sends a courtesy frame;
        # B records the peer-reported reason without trusting it
        from lrav.device import mem_access
        from lrav.pmp import Access

        addr = dev_b.attest_config.start_addr
        byte = mem_access(dev_b, Access.READ, addr, length=1)
        mem_access(dev_b, Access.WRITE, addr, data=bytes([byte[0] ^ 1]))
        res_a, res_b = run_pair(dev_a, dev_b)
        assert not res_a.established and res_a.reason is AbortReason.MEASUREMENT_MISMATCH
        assert not res_b.established and res_b.peer_reported
        assert res_b.reason is AbortReason.MEASUREMENT_MISMATCH

    def test_duplicated_m2_rejected_by_state_machine(self, device_pair):
        dev_a, dev_b = device_pair
        sent_by_b = []

        def duplicate(data):
            sent_by_b.append(data)
            return (data, data)

        res_a, res_b = run_pair(dev_a, dev_b, b_hook=duplicate)
        assert res_a.established and res_b.established
        stale, _ = transport.decode_frame(sent_by_b[0])  # a copy of the M2 A already took
        assert stale.msg_type == transport.MSG_M2
        with pytest.raises(ProtocolStateError):
            process_m2(dev_a, res_a.state, WireM2.unpack(stale.payload), produce_own_quote(dev_a))
        assert res_a.state.phase.value == "established"

    def test_timeout_on_silent_responder(self, device_pair):
        dev_a, dev_b = device_pair
        res_a, _ = run_pair(dev_a, dev_b, b_hook=lambda data: (), timeout=0.5)
        assert res_a.outcome is Outcome.TIMEOUT

    def test_stray_m1_mid_session_aborts_malformed(self, device_pair):
        # an M1 has no place inside a live session: the initiator expects M2
        # and rejects anything else without establishing
        dev_a, dev_b = device_pair

        def replace_m2_with_m1(data):
            frame, _ = transport.decode_frame(data)
            if frame.msg_type == transport.MSG_M2:
                from lrav.protocol import WireM1
                import os
                stray = WireM1(os.urandom(32), os.urandom(32))
                return (transport.encode_frame(transport.MSG_M1, stray.pack()),)
            return (data,)

        res_a, _ = run_pair(dev_a, dev_b, b_hook=replace_m2_with_m1)
        assert not res_a.established
        assert res_a.reason is AbortReason.MALFORMED


def valid_m1() -> bytes:
    """A well-formed M1 from no provisioned device: random nonce, real point."""
    point = X25519PrivateKey.generate().public_key().public_bytes_raw()
    return WireM1(os.urandom(32), point).pack()


class TestMeasurementOrder:
    @staticmethod
    def log_measures_of(dev, events, monkeypatch):
        real = lrav.protocol.measure

        def measure(memory, config):
            if memory is dev.memory:
                events.append("measure")
            return real(memory, config)

        monkeypatch.setattr(lrav.protocol, "measure", measure)

    def test_initiator_measures_after_m1_and_before_process_m2(self, device_pair, monkeypatch):
        dev_a, dev_b = device_pair
        events = []
        self.log_measures_of(dev_a, events, monkeypatch)
        real_process_m2 = lrav.runner.process_m2

        def process_m2(*args):
            events.append("process_m2")
            return real_process_m2(*args)

        monkeypatch.setattr(lrav.runner, "process_m2", process_m2)

        def sent(data):
            events.append(f"sent {transport.decode_frame(data)[0].msg_type:#04x}")
            return (data,)

        res_a, res_b = run_pair(dev_a, dev_b, a_hook=sent)
        assert res_a.established and res_b.established
        assert events == ["sent 0x01", "measure", "process_m2", "sent 0x03"]

    def test_tampered_m2_is_bad_tag_after_one_initiator_measurement(self, device_pair, monkeypatch):
        dev_a, dev_b = device_pair
        events = []
        self.log_measures_of(dev_a, events, monkeypatch)

        def flip_m2_box(data):
            if transport.decode_frame(data)[0].msg_type != transport.MSG_M2:
                return (data,)
            return (data[:-1] + bytes([data[-1] ^ 0x01]),)  # last box byte

        res_a, _ = run_pair(dev_a, dev_b, b_hook=flip_m2_box)
        assert not res_a.established and res_a.reason is AbortReason.BAD_TAG
        assert events == ["measure"]


class ResetAfterM1:
    """Endpoint stub: delivers one M1, then fails every send like a reset socket."""

    def __init__(self, m1: bytes):
        self.frames = [transport.Frame(transport.MSG_M1, m1)]
        self.sent = []  # frame types whose send was attempted

    def recv_frame(self, timeout):
        if self.frames:
            return self.frames.pop(0)
        raise ChannelClosed("peer closed the connection")

    def send_frame(self, msg_type, payload):
        self.sent.append(msg_type)
        raise ChannelClosed("[Errno 104] Connection reset by peer")


class ResetOnSend:
    """Initiator endpoint stub: beta answers each M1 at once; a send of `fails` resets."""

    def __init__(self, dev_b, fails: int):
        self.dev_b, self.fails, self.frames = dev_b, fails, []

    def send_frame(self, msg_type, payload):
        if msg_type == self.fails:
            raise ChannelClosed("[Errno 104] Connection reset by peer")
        _, m2 = respond_m1(self.dev_b, WireM1.unpack(payload), "alpha")
        self.frames.append(transport.Frame(transport.MSG_M2, m2.pack()))

    def recv_frame(self, timeout):
        return self.frames.pop(0)


def test_failed_m2_send_ends_only_that_session(device_pair, capsys):
    _, dev_b = device_pair
    result = run_responder(dev_b, ResetAfterM1(valid_m1()), "alpha")
    assert result.outcome is Outcome.CLOSED and result.reason is None
    assert "reset by peer" in result.error
    assert result.state.phase is Phase.ABORTED and result.state.k is None
    assert cli._report(result, dev_b.device_id) == cli.EXIT_TRANSPORT
    assert capsys.readouterr().err.startswith("transport closed (")


@pytest.mark.parametrize("fails", [transport.MSG_M1, transport.MSG_M3])
def test_failed_initiator_send_ends_as_closed(device_pair, capsys, fails):
    # a reset under M3 comes after process_m2 set Established: the key must not leak out
    dev_a, dev_b = device_pair
    result = run_initiator(dev_a, ResetOnSend(dev_b, fails), "beta")
    assert result.outcome is Outcome.CLOSED and "reset by peer" in result.error
    assert result.state.phase is Phase.ABORTED and result.state.k is None
    assert result.state.snapshot()["ephemeral_secret_cleared"] is True
    with pytest.raises(ProtocolStateError):
        result.state.session_key()
    assert cli._report(result, dev_a.device_id) == cli.EXIT_TRANSPORT
    assert capsys.readouterr().err.startswith("transport closed (")


def short_m2(data):
    frame, _ = transport.decode_frame(data)
    if frame.msg_type == transport.MSG_M2:
        return (transport.encode_frame(frame.msg_type, frame.payload[:-1]),)
    return (data,)


@pytest.mark.parametrize("hook, outcome, reason", [
    (lambda data: (), Outcome.TIMEOUT, None),
    (lambda data: (b"NOPE" + data[4:],), Outcome.FAILED, None),
    (lambda data: (transport.encode_frame(transport.MSG_ERROR, bytes([AbortReason.BAD_TAG])),),
     Outcome.PEER_ABORTED, AbortReason.BAD_TAG),
    (short_m2, Outcome.ABORTED, AbortReason.MALFORMED),
], ids=["dropped", "bad-magic", "peer-error", "short-m2"])
def test_every_early_end_leaves_no_session_secret(device_pair, hook, outcome, reason):
    # the initiator ends before it processes M2, while it still holds its X25519 scalar
    res_a, res_b = run_pair(*device_pair, b_hook=hook, timeout=0.3)
    assert (res_a.outcome, res_a.reason) == (outcome, reason)
    assert not res_b.established
    for st in (res_a.state, res_b.state):
        assert st.phase is Phase.ABORTED and st.k is None
        assert st.snapshot()["ephemeral_secret_cleared"] is True
        with pytest.raises(ProtocolStateError):
            st.session_key()


@pytest.mark.parametrize("payload", [b"", b"\x09"], ids=["empty", "unknown"])
def test_unknown_peer_reason_is_a_peer_abort(device_pair, capsys, payload):
    # an error frame without a known reason byte still says the peer aborted
    dev_a, _ = device_pair
    ep_a, ep_b = transport.channel_pair()

    def stub_responder():
        ep_b.recv_frame(5.0)  # A's M1
        ep_b.send_frame(transport.MSG_ERROR, payload)

    worker = threading.Thread(target=stub_responder)
    worker.start()
    try:
        result = run_initiator(dev_a, ep_a, "beta")
    finally:
        worker.join(timeout=10)
        ep_a.close()
        ep_b.close()
    assert not worker.is_alive()
    assert result.outcome is Outcome.PEER_ABORTED and result.reason is None
    assert cli._report(result, dev_a.device_id) == cli.EXIT_ABORT
    assert capsys.readouterr().err == "attestation failed: aborted (peer reported UNKNOWN)\n"


def test_unprovisioned_peer_is_a_caller_error_for_the_responder(device_pair):
    _, dev_b = device_pair
    ep = ResetAfterM1(valid_m1())
    with pytest.raises(UnknownPeer, match="'nobody' is not provisioned"):
        run_responder(dev_b, ep, "nobody")
    assert ep.sent == []  # no courtesy frame: the peer did nothing wrong


@pytest.mark.parametrize("side", ["initiator", "responder"])
def test_run_pair_raises_a_roles_caller_error_at_once(device_pair, side):
    # a device that has not booted will not sign: the caller's mistake, not the peer's
    dev_a, dev_b = device_pair
    (dev_a if side == "initiator" else dev_b).boot_complete = False
    start = time.monotonic()
    with pytest.raises(GateViolation):
        run_pair(dev_a, dev_b)  # the default 5 s deadline
    assert time.monotonic() - start < 1.0


def test_responder_deadline_covers_the_whole_session(device_pair):
    # an M1 sent late leaves only the rest of the session's deadline for M3
    _, dev_b = device_pair
    ep_a, ep_b = transport.channel_pair()
    late = threading.Timer(1.2, ep_a.send_frame, (transport.MSG_M1, valid_m1()))
    late.start()
    start = time.monotonic()
    result = run_responder(dev_b, ep_b, "alpha", timeout=2.0)
    elapsed = time.monotonic() - start
    late.join()
    ep_a.close()
    ep_b.close()
    # M1 taken, M2 sent, no M3
    assert result.outcome is Outcome.TIMEOUT and result.state is not None
    assert elapsed < 2.6, elapsed  # per-frame deadlines alone would hold it 3.2 s


@contextlib.contextmanager
def refused_port():
    """A loopback port held bound but never listening, so every connect is refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        yield sock.getsockname()[1]


def spawn_serve(tmp_path, *flags, prelude=""):
    """`lrav serve` as beta in a child process; returns the process and its port.

    `prelude` is Python run in the child before the CLI starts.
    """
    src = Path(lrav.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    run = ["-c", prelude + "\nimport sys\nfrom lrav import cli\nsys.exit(cli.main(sys.argv[1:]))"]
    serve = subprocess.Popen(
        [sys.executable, *(run if prelude else ["-m", "lrav"]), "serve",
         "--profile", str(tmp_path / "beta.json"), "--trust", str(tmp_path / "beta.trust"),
         "--addr", "127.0.0.1:0", *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    line = serve.stdout.readline()
    match = re.fullmatch(r"listening on \S+:(\d+)\n", line)
    if match is None:
        serve.kill()
        raise AssertionError(f"serve did not start: {line!r} {serve.communicate(timeout=10)}")
    return serve, int(match.group(1))


def attest(tmp_path, port, timeout="5.0") -> int:
    return cli.main([
        "attest", "--profile", str(tmp_path / "alpha.json"),
        "--trust", str(tmp_path / "alpha.trust"),
        "--addr", f"127.0.0.1:{port}", "--timeout", timeout,
    ])


def threads_of(pid: int) -> int:
    status = Path(f"/proc/{pid}/status").read_text()
    return int(re.search(r"^Threads:\s+(\d+)$", status, re.MULTILINE).group(1))


# Fails the first SERVE_WORKERS sessions in the child, as many as there are workers.
FAULTY_RESPONDER = """
from lrav import cli
real, faults = cli.run_responder, iter(range(cli.SERVE_WORKERS))
def run_responder(*args, **kwargs):
    if next(faults, None) is not None:
        raise RuntimeError("injected fault")
    return real(*args, **kwargs)
cli.run_responder = run_responder
"""


class TestServePool:
    def test_thread_count_stays_bounded_under_idle_connections(self, tmp_path, rng, capsys):
        provision_cli_pair(tmp_path, rng, capsys)
        workers = cli.SERVE_WORKERS
        serve, port = spawn_serve(tmp_path, "--parallel", "--timeout", "1")
        samples, idle = [], []
        stop = threading.Event()

        def sample():
            while not stop.wait(0.01):
                samples.append(threads_of(serve.pid))

        sampler = threading.Thread(target=sample)
        sampler.start()
        try:
            for _ in range(2 * workers):
                idle.append(socket.create_connection(("127.0.0.1", port), timeout=10))
            for sock in idle:  # serve drops each at its 1 s frame deadline
                assert sock.recv(1) == b""
            stop.set()
            sampler.join(timeout=10)
            assert not sampler.is_alive()
            code = attest(tmp_path, port)
        finally:
            stop.set()
            for sock in idle:
                sock.close()
            serve.kill()
            _, err = serve.communicate(timeout=10)
        assert workers <= max(samples) <= workers + 1
        assert err.count("transport timeout (timeout)") == 2 * workers
        assert code == 0

    def test_sessions_that_raise_leave_every_worker_serving(self, tmp_path, rng, capsys):
        provision_cli_pair(tmp_path, rng, capsys)
        workers = cli.SERVE_WORKERS
        serve, port = spawn_serve(
            tmp_path, "--parallel", "--timeout", "2.0", prelude=FAULTY_RESPONDER)
        try:
            codes = [attest(tmp_path, port) for _ in range(workers + 1)]
            still_serving = serve.poll() is None
        finally:
            serve.kill()
            _, err = serve.communicate(timeout=10)
        assert codes == [3] * workers + [0] and still_serving
        assert err.count("attestation failed: failed (RuntimeError('injected fault'))") == workers

    def test_sigint_exits_0_with_nothing_on_stderr(self, tmp_path, rng, capsys):
        provision_cli_pair(tmp_path, rng, capsys)
        # Ctrl-C as in a terminal, even where this test runs with SIGINT ignored
        serve, port = spawn_serve(
            tmp_path, "--parallel", "--timeout", "5.0",
            prelude="import signal\nsignal.signal(signal.SIGINT, signal.default_int_handler)")
        try:
            code = attest(tmp_path, port)
            with socket.create_connection(("127.0.0.1", port), timeout=10):  # a busy worker
                time.sleep(0.2)
                serve.send_signal(signal.SIGINT)
                out, err = serve.communicate(timeout=10)
        finally:
            if serve.poll() is None:
                serve.kill()
                serve.communicate(timeout=10)
        assert code == 0 and "established device=beta" in out
        assert serve.returncode == 0 and err == ""

    @pytest.mark.parametrize("flags", [(), ("--parallel",)], ids=["serial", "parallel"])
    def test_closed_stdout_exits_1_with_nothing_on_stderr(self, tmp_path, rng, capsys, flags):
        provision_cli_pair(tmp_path, rng, capsys)
        serve, port = spawn_serve(tmp_path, *flags, "--timeout", "5.0")
        try:
            serve.stdout.close()  # the reader is gone, as in `lrav serve ... | head -1`
            code = attest(tmp_path, port)
            _, err = serve.communicate(timeout=5)
        finally:
            if serve.poll() is None:
                serve.kill()
                serve.communicate(timeout=10)
        assert code == 0
        assert (serve.returncode, err) == (1, "")

    def test_slow_peers_delay_an_honest_session_by_one_deadline_at_most(
            self, tmp_path, rng, capsys):
        provision_cli_pair(tmp_path, rng, capsys)
        workers, deadline = cli.SERVE_WORKERS, 2.0
        serve, port = spawn_serve(tmp_path, "--parallel", "--timeout", str(deadline))
        m1 = transport.encode_frame(transport.MSG_M1, valid_m1())
        m3_head = transport.encode_frame(transport.MSG_M3, bytes(196))[:transport.HEADER_BYTES]

        def slow_peer():
            # M1 finished just inside its frame deadline, then an M3 that never
            # completes; reconnect once dropped, behind the honest initiator
            try:
                for _ in range(2):
                    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                        sock.sendall(m1[:-1])
                        time.sleep(0.7 * deadline)
                        sock.sendall(m1[-1:] + m3_head)
                        while sock.recv(4096):  # M2, then EOF when serve drops it
                            pass
            except OSError:
                pass  # serve was stopped

        peers = [threading.Thread(target=slow_peer) for _ in range(workers)]
        try:
            for peer in peers:
                peer.start()
            time.sleep(0.2)  # every worker holds a slow peer
            start = time.monotonic()
            code = attest(tmp_path, port)
            elapsed = time.monotonic() - start
        finally:
            serve.kill()
            serve.communicate(timeout=10)
            for peer in peers:
                peer.join(timeout=10)
        assert code == 0
        # with only per-frame deadlines each slow peer holds its worker 1.7 deadlines
        assert elapsed < 1.35 * deadline, elapsed

    def test_accept_errors_keep_the_worker(self):
        class Listener:
            events = [OSError(24, "Too many open files"), "endpoint", KeyboardInterrupt()]

            def accept(self):
                event = self.events.pop(0)
                if isinstance(event, BaseException):
                    raise event
                return event

        handled = []
        with pytest.raises(KeyboardInterrupt):
            cli._accept_loop(Listener(), handled.append)
        assert handled == ["endpoint"]


class TestCli:
    def test_serve_survives_peers_that_reset_after_m1(self, tmp_path, rng, capsys):
        provision_cli_pair(tmp_path, rng, capsys)
        serve, port = spawn_serve(tmp_path, "--timeout", "2.0")
        try:
            for _ in range(2):  # valid M1, then close with a reset instead of a FIN
                with socket.create_connection(("127.0.0.1", port), timeout=2.0) as sock:
                    sock.sendall(transport.encode_frame(transport.MSG_M1, valid_m1()))
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            code = attest(tmp_path, port)
            still_serving = serve.poll() is None
        finally:
            serve.kill()
            serve.communicate(timeout=10)
        assert code == 0 and still_serving

    def test_provision_is_reproducible(self, tmp_path, rng, capsys):
        fw = tmp_path / "fw.bin"
        fw.write_bytes(rng.randbytes(4096))
        argv = ["provision", "--image", str(fw), "--id", "dev",
                "--profile", str(tmp_path / "p1.json"), "--seed", "cc" * 32]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        argv[argv.index("--profile") + 1] = str(tmp_path / "p2.json")
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first
        assert "key " in first and "expect " in first

    def test_provision_takes_only_ids_its_record_carries(self, tmp_path, capsys):
        fw = tmp_path / "fw.bin"
        fw.write_bytes(bytes(4096))
        profile = tmp_path / "dev.json"
        argv = ["provision", "--image", str(fw), "--profile", str(profile), "--id"]
        for device_id in ["a b", "", "x" * 70, "dev#1", "tab\tid", "a\u2028b"]:
            assert cli.main([*argv, device_id]) == 2, device_id
            captured = capsys.readouterr()
            assert captured.out == "" and not profile.exists()
            assert captured.err == (
                f"error: peer id must be 1..64 UTF-8 bytes without whitespace or '#': "
                f"{device_id!r}\n")
        longest = "\u00e9" * 32  # 64 bytes
        assert cli.main([*argv, longest]) == 0
        assert parse_trust_store(capsys.readouterr().out).resolve(None) == longest

    def test_provision_without_profile_refuses_a_path_in_the_id(
        self, tmp_path, capsys, monkeypatch
    ):
        # without --profile the id names the profile file, so it must not name a directory
        fw = tmp_path / "fw.bin"
        fw.write_bytes(bytes(4096))
        work = tmp_path / "work"
        (work / "no").mkdir(parents=True)
        monkeypatch.chdir(work)
        for device_id in ["../outside", "no/such"]:
            assert cli.main(["provision", "--image", str(fw), "--id", device_id]) == 2, device_id
            captured = capsys.readouterr()
            assert captured.out == "" and "--profile" in captured.err
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == [
            Path("fw.bin"), Path("work"), Path("work/no")]

    def test_provision_names_a_profile_it_cannot_write(self, tmp_path, capsys):
        fw = tmp_path / "fw.bin"
        fw.write_bytes(bytes(4096))
        for profile, reason in [(tmp_path / "no" / "x.json", "No such file or directory"),
                                (tmp_path, "Is a directory")]:
            argv = ["provision", "--image", str(fw), "--id", "dev", "--profile", str(profile)]
            assert cli.main(argv) == 2, profile
            captured = capsys.readouterr()
            assert captured.out == ""  # no trust record
            assert captured.err == f"cannot write profile {profile}: {reason}\n"

    @pytest.mark.parametrize("case", ["firmware", "device_id", "block", "syntax"])
    def test_malformed_profile_exits_2_naming_it(self, tmp_path, rng, capsys, case):
        provision_cli_pair(tmp_path, rng, capsys)
        path = tmp_path / "alpha.json"
        text = path.read_text()
        doc = json.loads(text)
        if case == "block":
            doc["attest"]["block"] = 1024.5
        else:
            doc[case] = 5
        path.write_text("{" + text if case == "syntax" else json.dumps(doc))
        assert cli.main(["measure", "--profile", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad device profile {path}: ")

    def test_provision_missing_image_exits_2(self, tmp_path, capsys):
        assert cli.main([
            "provision", "--image", str(tmp_path / "absent.bin"), "--id", "x",
        ]) == 2

    def test_measure_prints_expected_digest(self, tmp_path, rng, capsys):
        provision_cli_pair(tmp_path, rng, capsys)
        assert cli.main([
            "measure", "--profile", str(tmp_path / "alpha.json"),
            "--trust", str(tmp_path / "alpha.trust"),
        ]) == 0
        digest = capsys.readouterr().out.strip()
        record = (tmp_path / "beta.trust").read_text()  # alpha's own record
        assert digest in record
        with pytest.raises(SystemExit) as exc:  # measure opens no socket, so has no deadline
            cli.main(["measure", "--profile", str(tmp_path / "alpha.json"), "--timeout", "1"])
        assert exc.value.code == 2

    # compatibility pins: the range overrides of measure, serve and attest
    @pytest.mark.parametrize("flags, offsets, block", [
        (["--block", "4096"], (0, None), 4096),
        (["--start", "20000100", "--end", "20000900", "--block", "7"], (0x100, 0x900), 7),
    ])
    def test_measure_range_overrides(self, tmp_path, rng, capsys, flags, offsets, block):
        provision_cli_pair(tmp_path, rng, capsys)
        firmware = (tmp_path / "alpha.fw").read_bytes()
        assert cli.main(["measure", "--profile", str(tmp_path / "alpha.json"), *flags]) == 0
        start, end = offsets
        assert capsys.readouterr().out.strip() == recursive_chain_digest(
            firmware[start:end], block).hex()

    @pytest.mark.parametrize("command, flag, value, message", [
        pytest.param(command, flag, value, message, id=command + suffix)
        for flag, value, message, suffix in [
            ("--block", "0", "block size must be >= 1: 0", ""),
            ("--start", "", "invalid literal for int() with base 16: ''", "-empty-start"),
            ("--end", "", "invalid literal for int() with base 16: ''", "-empty-end"),
        ]
        for command in ("measure", "provision")
    ])
    def test_block_zero_is_refused(self, tmp_path, rng, capsys, command, flag, value, message):
        provision_cli_pair(tmp_path, rng, capsys)
        written = tmp_path / "zero.json"
        argv = {
            "measure": ["measure", "--profile", str(tmp_path / "alpha.json")],
            "provision": ["provision", "--image", str(tmp_path / "alpha.fw"), "--id", "zero",
                          "--profile", str(written), "--seed", "cc" * 32],
        }[command]
        assert cli.main([*argv, flag, value]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"
        assert not written.exists()

    def test_serve_with_another_block_size_is_a_measurement_mismatch(self, tmp_path, rng, capsys):
        provision_cli_pair(tmp_path, rng, capsys)
        codes = serve_and_attest(tmp_path, capsys, serve_args=["--block", "4096"])
        assert codes == {"serve": 1, "attest": 1}
        assert sorted(capsys.readouterr().err.splitlines()) == [
            "attestation failed: aborted (MEASUREMENT_MISMATCH)",  # attest detects it
            "attestation failed: aborted (peer reported MEASUREMENT_MISMATCH)",
        ]

    def test_attest_with_another_block_size_is_caught_by_serve_only(self, tmp_path, rng, capsys):
        # M3 is the last flight: attest has established before serve checks it
        provision_cli_pair(tmp_path, rng, capsys)
        codes = serve_and_attest(tmp_path, capsys, attest_args=["--block", "4096"])
        assert codes == {"serve": 1, "attest": 0}
        assert capsys.readouterr().err.splitlines() == [
            "attestation failed: aborted (MEASUREMENT_MISMATCH)",
        ]

    def test_serve_attest_loopback(self, tmp_path, rng, capsys):
        provision_cli_pair(tmp_path, rng, capsys)
        assert serve_and_attest(tmp_path, capsys) == {"serve": 0, "attest": 0}
        fingerprints = {
            line.split("key-fp=")[1]
            for line in capsys.readouterr().out.splitlines()
            if "key-fp=" in line
        }
        assert len(fingerprints) == 1  # both sides printed the same fingerprint

    def test_attest_against_tampered_responder_exits_1(self, tmp_path, rng, capsys):
        provision_cli_pair(tmp_path, rng, capsys)
        fw = tmp_path / "beta.fw"
        data = bytearray(fw.read_bytes())
        data[100] ^= 0x01
        fw.write_bytes(data)
        assert serve_and_attest(tmp_path, capsys)["attest"] == 1
        assert "MEASUREMENT_MISMATCH" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "1e300", "nan", "0", "-1", "4294968"])
    @pytest.mark.parametrize("name, command", [("alpha", "attest"), ("beta", "serve")])
    def test_timeout_a_socket_cannot_take_is_a_usage_error(
        self, tmp_path, rng, capsys, name, command, value
    ):
        # 4294968 s is 2**32 ms + 704 ms, which a socket's poll(2) wraps to 0.7 s
        provision_cli_pair(tmp_path, rng, capsys)
        argv = [command, "--profile", str(tmp_path / f"{name}.json"),
                "--trust", str(tmp_path / f"{name}.trust"), "--timeout", value]
        argv += ["--once"] if command == "serve" else []
        with refused_port() as port, pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--addr", f"127.0.0.1:{port}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"lrav {command}: error: argument --timeout: must be more than 0 and at most "
            f"2147483 seconds, got {value!r}\n")

    def test_longest_timeout_serves_and_one_second_more_is_refused(self, tmp_path, rng, capsys):
        provision_cli_pair(tmp_path, rng, capsys)
        assert serve_and_attest(tmp_path, capsys, timeout="2147483") == {"serve": 0, "attest": 0}
        with refused_port() as port, pytest.raises(SystemExit) as exc:
            cli.main([
                "attest", "--profile", str(tmp_path / "alpha.json"),
                "--trust", str(tmp_path / "alpha.trust"),
                "--addr", f"127.0.0.1:{port}", "--timeout", "2147484",
            ])
        assert exc.value.code == 2

    def test_attest_with_no_responder_exits_3(self, tmp_path, rng, capsys):
        provision_cli_pair(tmp_path, rng, capsys)
        with refused_port() as port:
            assert cli.main([
                "attest", "--profile", str(tmp_path / "alpha.json"),
                "--trust", str(tmp_path / "alpha.trust"),
                "--addr", f"127.0.0.1:{port}", "--timeout", "0.3",
            ]) == 3

    def test_attest_exits_3_when_the_responder_closes_after_m1(self, tmp_path, rng, capsys):
        provision_cli_pair(tmp_path, rng, capsys)
        with socket.create_server(("127.0.0.1", 0)) as listener:
            got = bytearray()

            def read_m1_then_close():
                conn, _ = listener.accept()
                with conn:
                    conn.settimeout(5.0)
                    while len(got) < transport.HEADER_BYTES + 65 and (chunk := conn.recv(4096)):
                        got.extend(chunk)

            closer = threading.Thread(target=read_m1_then_close)
            closer.start()
            code = cli.main([
                "attest", "--profile", str(tmp_path / "alpha.json"),
                "--trust", str(tmp_path / "alpha.trust"),
                "--addr", f"127.0.0.1:{listener.getsockname()[1]}", "--timeout", "5.0",
            ])
            closer.join(timeout=10)
        assert not closer.is_alive()
        assert transport.decode_frame(bytes(got))[0].msg_type == transport.MSG_M1
        assert code == 3
        assert capsys.readouterr().err.startswith("transport closed (")

    def test_attest_without_peer_needs_a_sole_peer(self, tmp_path, rng, capsys):
        provision_cli_pair(tmp_path, rng, capsys)
        two = tmp_path / "two.trust"
        two.write_text((tmp_path / "alpha.trust").read_text() + (tmp_path / "beta.trust").read_text())
        cases = ((two, [], "2 peers are provisioned"),
                 (tmp_path / "alpha.trust", ["--peer", "nobody"], "'nobody' is not provisioned"))
        for store, peer, message in cases:
            with refused_port() as port:  # the usage error comes before any connect
                assert cli.main([
                    "attest", "--profile", str(tmp_path / "alpha.json"), "--trust", str(store),
                    "--addr", f"127.0.0.1:{port}", "--timeout", "0.3", *peer,
                ]) == 2
            assert message in capsys.readouterr().err

    def test_serve_without_peer_needs_a_sole_peer(self, tmp_path, rng, capsys):
        provision_cli_pair(tmp_path, rng, capsys)
        (tmp_path / "none.trust").write_text("")
        two = tmp_path / "two.trust"
        two.write_text((tmp_path / "alpha.trust").read_text() + (tmp_path / "beta.trust").read_text())
        cases = ((tmp_path / "none.trust", [], "0 peers are provisioned"),
                 (two, [], "2 peers are provisioned"),
                 (tmp_path / "beta.trust", ["--peer", "nobody"], "'nobody' is not provisioned"))
        for store, peer, message in cases:
            assert cli.main([
                "serve", "--profile", str(tmp_path / "beta.json"), "--trust", str(store),
                "--addr", "127.0.0.1:0", "--once", "--timeout", "0.3", *peer,
            ]) == 2
            captured = capsys.readouterr()
            assert "listening on" not in captured.out  # refused before it binds
            assert message in captured.err

    @pytest.mark.parametrize("name, command", [("alpha", "attest"), ("beta", "serve")])
    def test_out_of_range_port_is_a_usage_error(self, tmp_path, rng, capsys, name, command):
        # 70000 must not wrap to port 4464 on dial, nor overflow on bind, and
        # Arabic-Indic digits must not dial or bind port 12
        provision_cli_pair(tmp_path, rng, capsys)
        argv = [command, "--profile", str(tmp_path / f"{name}.json"),
                "--trust", str(tmp_path / f"{name}.trust"), "--timeout", "0.3"]
        argv += ["--once"] if command == "serve" else []
        for port in ("70000", "65536", "\u0661\u0662"):
            assert cli.main(argv + ["--addr", f"127.0.0.1:{port}"]) == 2
            captured = capsys.readouterr()
            assert "listening on" not in captured.out
            assert captured.err == (
                f"error: address must be HOST:PORT with PORT 0-65535, got '127.0.0.1:{port}'\n")

    def test_serve_on_a_taken_address_exits_3(self, tmp_path, rng, capsys):
        provision_cli_pair(tmp_path, rng, capsys)
        with socket.create_server(("127.0.0.1", 0)) as taken:
            addr = f"127.0.0.1:{taken.getsockname()[1]}"
            assert cli.main([
                "serve", "--profile", str(tmp_path / "beta.json"),
                "--trust", str(tmp_path / "beta.trust"),
                "--addr", addr, "--once", "--timeout", "0.3",
            ]) == 3
        captured = capsys.readouterr()
        assert "listening on" not in captured.out
        assert captured.err.startswith(f"cannot listen on {addr}: [Errno ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("value, parsed", [
        ("127.0.0.1:0", ("127.0.0.1", 0)),
        ("localhost:65535", ("localhost", 65535)),
        ("[::1]:8080", ("::1", 8080)),
        ("[fe80::1%lo]:1", ("fe80::1%lo", 1)),
        ("::1:80", ("::1", 80)),
    ])
    def test_addr_takes_bracketed_ipv6(self, value, parsed):
        # the cases without brackets are compatibility pins
        assert cli._parse_addr(value) == parsed

    @pytest.mark.parametrize("value", ["[]:80", "[::1]", "[::1]:", "[::1]:70000", "[::1]:\u0661", ":80"])
    def test_addr_without_host_or_port_is_refused(self, value):
        # compatibility pin but for "[]:80", which named host "[]" before
        with pytest.raises(ValueError) as exc:
            cli._parse_addr(value)
        assert str(exc.value) == f"address must be HOST:PORT with PORT 0-65535, got {value!r}"

    def test_serve_attest_over_ipv6_loopback(self, tmp_path, rng, capsys):
        try:
            with socket.socket(socket.AF_INET6) as probe:
                probe.bind(("::1", 0))
        except OSError:
            pytest.skip("no IPv6 loopback on this host")
        provision_cli_pair(tmp_path, rng, capsys)
        assert serve_and_attest(tmp_path, capsys, host="[::1]") == {"serve": 0, "attest": 0}
        assert re.search(r"^listening on \[::1\]:\d+$", capsys.readouterr().out, re.MULTILINE)

    def test_failed_provision_leaves_no_profile(self, tmp_path, rng, capsys):
        fw = tmp_path / "fw.bin"
        fw.write_bytes(rng.randbytes(4096))
        profile = tmp_path / "dev.json"
        cases = ((["--start", "80000000", "--end", "80000100"], "not mapped"),  # outside flash
                 (["--block", "4294967296"], "block size must fit in 4 bytes"))  # > a quote's field
        for flags, message in cases:
            assert cli.main([
                "provision", "--image", str(fw), "--id", "dev", "--profile", str(profile), *flags,
            ]) == 2
            captured = capsys.readouterr()
            assert message in captured.err and captured.out == ""
            assert not profile.exists()

    def test_oversized_firmware_is_named_and_writes_no_profile(self, tmp_path, capsys):
        fw = tmp_path / "fw.bin"
        fw.write_bytes(bytes(FLASH_SIZE + 1))
        profile = tmp_path / "dev.json"
        assert cli.main([
            "provision", "--image", str(fw), "--id", "dev", "--profile", str(profile),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: firmware ({FLASH_SIZE + 1} bytes) exceeds flash size\n"
        assert captured.out == "" and not profile.exists()

    def test_empty_firmware_image_exits_2(self, tmp_path, capsys):
        # compatibility pin: the size now comes from the open file, not from its bytes
        fw = tmp_path / "fw.bin"
        fw.write_bytes(b"")
        profile = tmp_path / "dev.json"
        assert cli.main([
            "provision", "--image", str(fw), "--id", "dev", "--profile", str(profile),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err == "firmware image is empty\n"
        assert captured.out == "" and not profile.exists()

    @staticmethod
    def modules_after(statement: str) -> list[str]:
        """Names in sys.modules after `statement` runs in a fresh interpreter."""
        src = Path(lrav.__file__).resolve().parents[1]
        return subprocess.run(
            [sys.executable, "-c", f"import sys; {statement}; print(' '.join(sys.modules))"],
            capture_output=True, text=True, check=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src)),
        ).stdout.split()

    def test_serve_and_attest_load_neither_attacks_nor_bench(self):
        loaded = self.modules_after("import lrav.cli")
        assert "lrav.cli" in loaded
        assert "lrav.attacks" not in loaded and "lrav.bench" not in loaded

    def test_importing_the_package_loads_no_module_of_it(self):
        loaded = self.modules_after("import lrav")
        assert "lrav" in loaded
        assert [name for name in loaded if name.startswith("lrav.")] == []

    @pytest.mark.parametrize("command", [
        ["bench", "--iters", "1"],
        ["attack", "--only", "pmp-lock-rewrite"],
        ["measure", "--profile", "alpha.json"],
    ])
    def test_closed_stdout_exits_1_without_a_traceback(self, tmp_path, rng, capsys, command):
        provision_cli_pair(tmp_path, rng, capsys)
        src = Path(lrav.__file__).resolve().parents[1]
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the child writes
        try:
            child = subprocess.run(
                [sys.executable, "-m", "lrav", *command], cwd=tmp_path, stdout=write_end,
                stderr=subprocess.PIPE, text=True, timeout=60,
                env=dict(os.environ, PYTHONPATH=str(src)),
            )
        finally:
            os.close(write_end)
        assert (child.returncode, child.stderr) == (1, "")

    def test_bench_help_names_its_default(self, capsys):
        # compatibility pin: the default moved out of the bench module
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--help"])
        assert exc.value.code == 0
        assert f"iterations (default {cli.BENCH_ITERS})" in capsys.readouterr().out
        assert cli.BENCH_ITERS == 20

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_bench_iters_must_be_positive(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--iters", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"lrav bench: error: argument --iters: must be at least 1, got {value!r}\n")

    def test_bench_csv_has_a_row_per_size_and_block(self, capsys):
        assert cli.main(["bench", "--iters", "1", "--format", "csv"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == "kind,size_bytes,block_bytes,mean_seconds,work_bytes"
        sizes = [1024 << i for i in range(13)]  # 1 KiB .. 4 MiB
        assert [tuple(row.split(",")[1:3]) for row in rows] == [
            (str(size), str(block)) for size in sizes for block in (1024, 2048, 4096)]
        for row in rows:
            kind, size, _, mean, work = row.split(",")
            assert kind == "crtm" and work == size
            assert re.fullmatch(r"\d+\.\d{9}", mean) and float(mean) > 0

    def test_bench_text_has_a_row_per_size(self, capsys):
        assert cli.main(["bench", "--iters", "1"]) == 0
        title, header, *rows = capsys.readouterr().out.splitlines()
        assert title == "CRTM measurement, mean seconds over 1 iterations"
        assert header == "   total       b=1KB       b=2KB       b=4KB  work-bytes"
        names = [f"{1 << i}KB" for i in range(10)] + ["1MB", "2MB", "4MB"]
        assert len(rows) == len(names)
        for i, (row, name) in enumerate(zip(rows, names)):
            assert len(row) == len(header)
            assert re.fullmatch(rf" *{name}( +\d+\.\d{{6}}){{3}} +{1024 << i}", row), row

    def test_attack_subcommand_single_scenario(self, capsys):
        assert cli.main(["attack", "--only", "qsk-read-attempt"]) == 0
        out = capsys.readouterr().out
        assert "qsk-read-attempt" in out and "1/1 scenarios passed" in out

    def test_attack_unknown_scenario_exits_2(self, capsys):
        assert cli.main(["attack", "--only", "nonexistent"]) == 2

    def test_attack_csv_has_header_and_rows(self, capsys):
        assert cli.main(["attack", "--format", "csv", "--seed", "0f"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "scenario,expected,observed,status"
        assert len(lines) >= 11


class TestParserReuse:
    def test_later_calls_build_no_parser_and_keep_the_defaults(
        self, tmp_path, rng, capsys, monkeypatch
    ):
        provision_cli_pair(tmp_path, rng, capsys)  # the first calls may build the parser
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        measure = ["measure", "--profile", str(tmp_path / "alpha.json")]
        provision_cli_pair(tmp_path, rng, capsys)
        assert cli.main([*measure, "--block", "64"]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main([*measure, "--block", "x"])
        assert exc.value.code == 2
        assert cli.main(measure) == 0
        assert built == []
        out = capsys.readouterr().out.split()
        firmware = (tmp_path / "alpha.fw").read_bytes()
        assert out == [recursive_chain_digest(firmware, 64).hex(),
                       recursive_chain_digest(firmware, 1024).hex()]  # not --block 64 again

    def test_concurrent_callers_share_one_parser(self):
        shared = cli._build_parser()
        workers, rounds = 8, 200
        seen, wrong = set(), []

        def parse(i: int) -> None:
            for r in range(rounds):
                parser = cli._build_parser()
                seen.add(id(parser))
                block = i * rounds + r + 1
                args = parser.parse_args(["measure", "--profile", f"p{i}", "--block", str(block)])
                if (args.command, args.profile, args.block, args.trust) != (
                    "measure", f"p{i}", block, None
                ):
                    wrong.append(vars(args))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=parse, args=(i,)) for i in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen == {id(shared)} and wrong == []


def test_concurrent_reports_stay_one_per_line(monkeypatch):
    # serve --parallel reports from many threads; each report must be one line
    class YieldingStream:
        def __init__(self):
            self.parts = []

        def write(self, text):
            self.parts.append(text)
            time.sleep(0.0005)  # hand the GIL to another reporter mid-line
            return len(text)

        def flush(self):
            pass

    out, err = YieldingStream(), YieldingStream()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    state = SimpleNamespace(peer_id="alpha", session_key=lambda: bytes(32))
    results = [SessionResult(Outcome.ESTABLISHED, state), SessionResult(Outcome.TIMEOUT)]
    barrier = threading.Barrier(8)

    def reporter(n):
        barrier.wait()
        for _ in range(10):
            cli._report(results[n % 2], f"dev{n}")

    threads = [threading.Thread(target=reporter, args=(n,)) for n in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    fp = key_fingerprint(bytes(32))
    out_lines = "".join(out.parts).splitlines()
    err_lines = "".join(err.parts).splitlines()
    assert len(out_lines) == len(err_lines) == 40
    assert all(re.fullmatch(rf"established device=dev[0246] peer=alpha key-fp={fp}", line)
               for line in out_lines)
    assert set(err_lines) == {"transport timeout (timeout)"}


@pytest.mark.parametrize("result, stream, line, code", [
    (SessionResult(Outcome.ESTABLISHED,
                   SimpleNamespace(peer_id="alpha", session_key=lambda: bytes(32))),
     "out", f"established device=beta peer=alpha key-fp={key_fingerprint(bytes(32))}",
     cli.EXIT_OK),
    (SessionResult(Outcome.TIMEOUT), "err", "transport timeout (timeout)", cli.EXIT_TRANSPORT),
    (SessionResult(Outcome.CLOSED, error="peer closed the connection"),
     "err", "transport closed (peer closed the connection)", cli.EXIT_TRANSPORT),
    (SessionResult(Outcome.FAILED, error="bad magic"),
     "err", "attestation failed: failed (bad magic)", cli.EXIT_ABORT),
    (SessionResult(Outcome.ABORTED, reason=AbortReason.BAD_TAG, error="session aborted: BAD_TAG"),
     "err", "attestation failed: aborted (BAD_TAG)", cli.EXIT_ABORT),
    (SessionResult(Outcome.PEER_ABORTED, reason=AbortReason.MEASUREMENT_MISMATCH),
     "err", "attestation failed: aborted (peer reported MEASUREMENT_MISMATCH)", cli.EXIT_ABORT),
    (SessionResult(Outcome.PEER_ABORTED),
     "err", "attestation failed: aborted (peer reported UNKNOWN)", cli.EXIT_ABORT),
], ids=["established", "timeout", "closed", "failed", "aborted", "peer-aborted",
        "peer-aborted-unknown"])
def test_report_of_every_outcome(capsys, result, stream, line, code):
    assert cli._report(result, "beta") == code
    captured = capsys.readouterr()
    assert getattr(captured, stream) == line + "\n"
    assert "".join(captured) == line + "\n"  # and nothing on the other stream
