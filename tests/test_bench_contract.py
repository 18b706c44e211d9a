"""The traced benchmark (perfbench/run.py --trace 1) patches lrav names from
outside the package and fails when a per-layer span records nothing. These
tests keep refactors from breaking it silently.

The handshake below drives both roles itself rather than through
runner.run_pair: each role must run inside a tracer session opened on its
own thread, as perfbench/run.py does."""

import importlib.util
import random
import threading
from pathlib import Path

import pytest

from lrav import runner, transport

from conftest import make_pair

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves(tracing):
    for path, attr, name in tracing.SPANS:
        assert callable(getattr(tracing._resolve(path), attr)), name


def test_honest_handshake_records_every_layer(tracing):
    # The second handshake is warm: its quote signature and quote check are
    # reused, yet both must still pass through the traced names.
    dev_a, dev_b = make_pair(random.Random(1))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for _ in range(2):
            ep_a, ep_b = transport.channel_pair()

            def responder():
                with tracer.session("responder") as s:
                    s.outcome = tracing.outcome_of(runner.run_responder(dev_b, ep_b, "alpha"))

            worker = threading.Thread(target=responder)
            worker.start()
            with tracer.session("initiator") as s:
                s.outcome = tracing.outcome_of(runner.run_initiator(dev_a, ep_a, "beta"))
            worker.join(timeout=10)
            assert not worker.is_alive()
            ep_a.close()
            ep_b.close()
    finally:
        tracer.uninstall()
    assert [s.outcome for s in tracer.sessions] == ["established"] * 4
    for session in tracer.sessions:
        for span in ("pmp.check", "device.mem_access", "quote.stage_outgoing_quote",
                     "crtm.measure", "quote.sign_quote_gated", "quote.verify_quote"):
            assert session.stats.get(span, [0])[0] >= 1, (session.role, span)
