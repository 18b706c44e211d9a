"""Span tracer for the benchmark's traced runs.

The tracer wraps public lrav functions from outside the package, patching
each name where the caller looks it up (``protocol`` imports ``measure`` by
name, while ``pmp.check`` is reached through its module, and so on). Spans sit
on a thread-local stack, so a span's self time is its duration minus the time
covered by its child spans.

Spans are accounted per session. A session is opened explicitly by the code
that drives one handshake (a client loop, or the responder wrapper the traced
server installs) and is identified by the nonce of its M1, which both sides
see, so the two halves of one handshake can be joined across processes.
Spans outside any session (device provisioning) go to ``Tracer.setup``.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager

_clock = time.perf_counter

# (module or class path, attribute, span name). Each attribute is patched in
# the namespace the program reads it from at call time.
SPANS = [
    ("lrav.pmp", "check", "pmp.check"),
    ("lrav.device", "mem_access", "device.mem_access"),
    ("lrav.protocol", "measure", "crtm.measure"),
    ("lrav.protocol", "sign_quote_gated", "quote.sign_quote_gated"),
    ("lrav.protocol", "sign_transcript_gated", "quote.sign_transcript_gated"),
    ("lrav.protocol", "stage_outgoing_quote", "quote.stage_outgoing_quote"),
    ("lrav.protocol", "verify_quote", "quote.verify_quote"),
    ("lrav.secretbox", "seal", "secretbox.seal"),
    ("lrav.secretbox", "open_box", "secretbox.open_box"),
    ("lrav.runner", "initiate", "protocol.initiate"),
    ("lrav.runner", "respond_m1", "protocol.respond_m1"),
    ("lrav.runner", "process_m2", "protocol.process_m2"),
    ("lrav.runner", "process_m3", "protocol.process_m3"),
    ("lrav.transport", "encode_frame", "transport.encode_frame"),
    ("lrav.transport", "decode_frame", "transport.decode_frame"),
    ("lrav.transport:MemoryEndpoint", "recv_frame", "transport.recv_frame"),
    ("lrav.transport:TcpEndpoint", "recv_frame", "transport.recv_frame"),
    ("lrav.runner", "run_initiator", "runner.run_initiator"),
    ("lrav.runner", "run_responder", "runner.run_responder"),
    ("lrav.cli", "run_responder", "runner.run_responder"),
    ("lrav.provisioning", "build_device", "provisioning.build_device"),
    ("lrav.cli", "build_device", "provisioning.build_device"),
    ("lrav.cli", "compute_expected", "provisioning.compute_expected"),
]

WIRE_BYTES = "transport.wire_bytes"


def _resolve(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Session:
    """Per-session span totals: name -> [calls, self seconds]."""

    __slots__ = ("id", "role", "outcome", "t0", "stats")

    def __init__(self, role: str):
        self.id: str | None = None
        self.role = role
        self.outcome: str | None = None
        self.t0 = _clock()
        self.stats: dict[str, list] = {}

    def to_json(self) -> dict:
        return {"id": self.id, "role": self.role, "outcome": self.outcome, "stats": self.stats}


def outcome_of(result) -> str:
    """Classify a runner.SessionResult: established, rejected (weak point) or failed."""
    from lrav.protocol import AbortReason

    if result.established:
        return "established"
    if result.reason is AbortReason.WEAK_POINT and not result.peer_reported:
        return "rejected"
    return "failed"


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.sessions: list[Session] = []
        self.setup: dict[str, list] = {}
        self._undo: list[tuple[object, str, object]] = []

    # --- sessions -----------------------------------------------------------

    @contextmanager
    def session(self, role: str):
        s = Session(role)
        self._local.session = s
        try:
            yield s
        finally:
            self._local.session = None
            with self._lock:
                self.sessions.append(s)

    def _current(self) -> Session | None:
        return getattr(self._local, "session", None)

    def _add(self, name: str, calls: int, amount: float) -> None:
        s = self._current()
        if s is not None:
            entry = s.stats.get(name)
            if entry is None:
                s.stats[name] = [calls, amount]
            else:
                entry[0] += calls
                entry[1] += amount
            return
        with self._lock:
            entry = self.setup.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += amount

    # --- spans --------------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        local = self._local
        add = self._add

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                add(name, 1, elapsed - children)
            if after is not None:
                after(self, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every name in SPANS; the server launcher also opens sessions."""
        hooks = {
            "protocol.initiate": {"after": _id_from_initiate},
            "protocol.respond_m1": {"before": _id_from_m1},
            "transport.encode_frame": {"after": _count_wire_bytes},
        }
        for path, attr, name in SPANS:
            owner = _resolve(path)
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, **hooks.get(name, {}))
            if path == "lrav.cli" and attr == "run_responder":
                wrapped = self._responder_session(wrapped)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _responder_session(self, run_responder):
        @functools.wraps(run_responder)
        def run(*args, **kwargs):
            with self.session("responder") as s:
                result = run_responder(*args, **kwargs)
                s.outcome = outcome_of(result)
                return result

        return run

    def dump(self) -> dict:
        with self._lock:
            return {
                "setup": {k: list(v) for k, v in self.setup.items()},
                "sessions": [s.to_json() for s in self.sessions if s.outcome is not None],
            }

    def set_id(self, session_id: str) -> None:
        s = self._current()
        if s is not None and s.id is None:
            s.id = session_id


def _id_from_initiate(tracer: Tracer, result) -> None:
    tracer.set_id(result[1].nonce.hex())


def _id_from_m1(tracer: Tracer, args) -> None:
    tracer.set_id(args[1].nonce.hex())


def _count_wire_bytes(tracer: Tracer, frame: bytes) -> None:
    tracer._add(WIRE_BYTES, 0, len(frame))
