"""The traced benchmark (perfbench/run.py --trace 1) patches lrav names from
outside the package and fails when a per-layer span records nothing. These
tests keep refactors from breaking it silently.

The handshake below drives both roles itself rather than through
runner.run_pair: each role must run inside a tracer session opened on its
own thread, as perfbench/run.py does."""

import ast
import importlib
import importlib.util
import random
import threading
from pathlib import Path

import pytest

from lrav import protocol, runner, transport

from conftest import make_pair

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves(tracing):
    for path, attr, name in tracing.SPANS:
        assert callable(getattr(tracing._resolve(path), attr)), name


def lrav_chains(path: Path) -> set[tuple[str, ...]]:
    """Every attribute chain in `path` rooted at a name imported from lrav.

    Chains start with the imported module path: `from lrav import protocol`
    then `protocol.WireM1.unpack` gives ("lrav", "protocol", "WireM1") and
    ("lrav", "protocol", "WireM1", "unpack").
    """
    tree = ast.parse(path.read_text())
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lrav":
            for alias in node.names:
                roots[alias.asname or alias.name] = (*node.module.split("."), alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "lrav":  # `import lrav.cli` binds lrav
                    bound = alias.name if alias.asname else "lrav"
                    roots[alias.asname or "lrav"] = tuple(bound.split("."))
    chains = set()
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in roots:
            chains.add((*roots[node.id], *attrs))
    return chains


def resolve(chain: tuple[str, ...]) -> None:
    """Look the chain up, importing submodules as `import lrav.cli` would."""
    owner = importlib.import_module(chain[0])
    for i, name in enumerate(chain[1:], start=1):
        if hasattr(owner, name):
            owner = getattr(owner, name)
        else:
            owner = importlib.import_module(".".join(chain[:i + 1]))


def test_every_lrav_name_perfbench_reads_resolves():
    # guard: a refactor that renames what perfbench reads fails here, not in a benchmark run
    for script in ("run.py", "serve_traced.py", "tracing.py"):
        chains = lrav_chains(PERFBENCH / script)
        assert chains, script
        for chain in sorted(chains):
            try:
                resolve(chain)
            except ImportError:
                pytest.fail(f"perfbench/{script} reads {'.'.join(chain)}, which lrav lacks")


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


def zero_point_m1(data):
    """Send hook: A's M1 keeps its nonce but carries the all-zero point."""
    frame, _ = transport.decode_frame(data)
    if frame.msg_type != transport.MSG_M1:
        return (data,)
    nonce = protocol.WireM1.unpack(frame.payload).nonce
    return (transport.encode_frame(transport.MSG_M1, protocol.WireM1(nonce, bytes(32)).pack()),)


def test_outcome_of_reads_what_perfbench_reads(tracing):
    # the name guard sees modules only; these are the result attributes perfbench reads
    honest = runner.run_pair(*make_pair(random.Random(1)))
    res_a, res_b = runner.run_pair(*make_pair(random.Random(1)), a_hook=zero_point_m1)
    silent, _ = runner.run_pair(*make_pair(random.Random(1)), b_hook=lambda data: (),
                                timeout=0.3)
    cases = [
        (honest[0], "established", "established"),
        (honest[1], "established", "established"),
        (res_b, "rejected", "aborted (WEAK_POINT)"),
        (res_a, "failed", "aborted (peer reported WEAK_POINT)"),
        (silent, "failed", "timeout"),
    ]
    for result, outcome, described in cases:
        assert (tracing.outcome_of(result), result.describe()) == (outcome, described)
    assert honest[0].session_key == honest[1].session_key
