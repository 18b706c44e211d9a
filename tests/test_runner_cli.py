import contextlib
import os
import re
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
from lrav.errors import ChannelClosed, ProtocolStateError
from lrav.protocol import AbortReason, WireM1, WireM2, process_m2, produce_own_quote
from lrav.runner import SessionResult, key_fingerprint, run_pair, run_responder

from conftest import make_pair, provision_cli_pair, serve_and_attest


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

        res_a, res_b = run_pair(dev_a, dev_b, b_hooks=[duplicate])
        assert res_a.established and res_b.established
        stale, _ = transport.decode_frame(sent_by_b[0])  # a copy of the M2 A already took
        assert stale.msg_type == transport.MSG_M2
        with pytest.raises(ProtocolStateError):
            process_m2(dev_a, res_a.state, WireM2.unpack(stale.payload), produce_own_quote(dev_a))
        assert res_a.state.phase.value == "established"

    def test_timeout_on_silent_responder(self, device_pair):
        dev_a, dev_b = device_pair
        res_a, _ = run_pair(dev_a, dev_b, b_hooks=[lambda data: ()], timeout=0.5)
        assert res_a.timed_out and not res_a.established

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

        res_a, _ = run_pair(dev_a, dev_b, b_hooks=[replace_m2_with_m1])
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

        res_a, res_b = run_pair(dev_a, dev_b, a_hooks=[sent])
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

        res_a, _ = run_pair(dev_a, dev_b, b_hooks=[flip_m2_box])
        assert not res_a.established and res_a.reason is AbortReason.BAD_TAG
        assert events == ["measure"]


class ResetAfterM1:
    """Endpoint stub: delivers one M1, then fails every send like a reset socket."""

    def __init__(self, m1: bytes):
        self.frames = [transport.Frame(transport.MSG_M1, m1)]

    def recv_frame(self, timeout):
        if self.frames:
            return self.frames.pop(0)
        raise ChannelClosed("peer closed the connection")

    def send_frame(self, msg_type, payload):
        raise ChannelClosed("[Errno 104] Connection reset by peer")


def test_failed_m2_send_ends_only_that_session(device_pair, capsys):
    _, dev_b = device_pair
    result = run_responder(dev_b, ResetAfterM1(valid_m1()), "alpha")
    assert not result.established and not result.timed_out and result.reason is None
    assert result.closed and "reset by peer" in result.error
    assert cli._report(result, dev_b.device_id) == cli.EXIT_TRANSPORT
    assert capsys.readouterr().err.startswith("transport closed (")


@contextlib.contextmanager
def refused_port():
    """A loopback port held bound but never listening, so every connect is refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        yield sock.getsockname()[1]


class TestCli:
    def test_serve_survives_peers_that_reset_after_m1(self, tmp_path, rng, capsys):
        provision_cli_pair(tmp_path, rng, capsys)
        src = Path(lrav.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        serve = subprocess.Popen(
            [sys.executable, "-m", "lrav", "serve",
             "--profile", str(tmp_path / "beta.json"), "--trust", str(tmp_path / "beta.trust"),
             "--addr", "127.0.0.1:0", "--timeout", "2.0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            port = int(re.fullmatch(r"listening on \S+:(\d+)\n", serve.stdout.readline()).group(1))
            for _ in range(2):  # valid M1, then close with a reset instead of a FIN
                with socket.create_connection(("127.0.0.1", port), timeout=2.0) as sock:
                    sock.sendall(transport.encode_frame(transport.MSG_M1, valid_m1()))
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            code = cli.main([
                "attest", "--profile", str(tmp_path / "alpha.json"),
                "--trust", str(tmp_path / "alpha.trust"),
                "--addr", f"127.0.0.1:{port}", "--timeout", "5.0",
            ])
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
        with refused_port() as port:  # the usage error comes before any connect
            assert cli.main([
                "attest", "--profile", str(tmp_path / "alpha.json"), "--trust", str(two),
                "--addr", f"127.0.0.1:{port}", "--timeout", "0.3",
            ]) == 2
        assert "2 peers are provisioned" in capsys.readouterr().err

    def test_serve_without_peer_needs_a_sole_peer(self, tmp_path, rng, capsys):
        provision_cli_pair(tmp_path, rng, capsys)
        (tmp_path / "none.trust").write_text("")
        two = tmp_path / "two.trust"
        two.write_text((tmp_path / "alpha.trust").read_text() + (tmp_path / "beta.trust").read_text())
        for store, count in ((tmp_path / "none.trust", 0), (two, 2)):
            assert cli.main([
                "serve", "--profile", str(tmp_path / "beta.json"), "--trust", str(store),
                "--addr", "127.0.0.1:0", "--once", "--timeout", "0.3",
            ]) == 2
            captured = capsys.readouterr()
            assert "listening on" not in captured.out  # refused before it binds
            assert f"{count} peers are provisioned" in captured.err

    @pytest.mark.parametrize("name, command", [("alpha", "attest"), ("beta", "serve")])
    def test_out_of_range_port_is_a_usage_error(self, tmp_path, rng, capsys, name, command):
        # 70000 must not wrap to port 4464 on dial, nor overflow on bind
        provision_cli_pair(tmp_path, rng, capsys)
        argv = [command, "--profile", str(tmp_path / f"{name}.json"),
                "--trust", str(tmp_path / f"{name}.trust"), "--timeout", "0.3"]
        argv += ["--once"] if command == "serve" else []
        for port in ("70000", "65536"):
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

    def test_failed_provision_leaves_no_profile(self, tmp_path, rng, capsys):
        fw = tmp_path / "fw.bin"
        fw.write_bytes(rng.randbytes(4096))
        profile = tmp_path / "dev.json"
        assert cli.main([
            "provision", "--image", str(fw), "--id", "dev", "--profile", str(profile),
            "--start", "80000000", "--end", "80000100",  # outside flash
        ]) == 2
        assert "not mapped" in capsys.readouterr().err
        assert not profile.exists()

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
    results = [SessionResult(True, state), SessionResult(False, timed_out=True)]
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
