"""Acceptance suite: one test per criterion, one printed verdict line each.

Timing criteria use the minimum over >= 20 interleaved iterations: scheduler
preemption in a shared VM only ever adds time, so the minimum is the stable
estimator of intrinsic cost (same rationale as timeit), and interleaving the
configurations cancels clock-speed drift between them.
"""

import random
import time

import pytest

from lrav import attacks, bench, cli, pmp, transport
from lrav.crtm import AttestationConfig, measure
from lrav.device import QSK_BASE
from lrav.errors import BadMagic, BadVersion, LockedEntry, Oversize, Truncated
from lrav.pmp import Access, AddrMode, PmpBank, PmpConfig
from lrav.provisioning import FLASH_BASE, load_profile
from lrav.runner import run_pair
from lrav.transport import decode_frame, encode_frame

from conftest import flash_image, make_pair, provision_cli_pair, serve_and_attest
from oracles import napot_range_oracle, recursive_chain_digest, tor_range_oracle


# verdict lines, echoed into the terminal summary by conftest
PASS_LINES: list[str] = []


def report(criterion: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    line = f"[acceptance] {criterion}: PASS{suffix}"
    PASS_LINES.append(line)
    print(line)


def test_c1_end_to_end_honest_run(tmp_path, rng, capsys):
    """Serve + attest over loopback, 256 KB attested, < 5 s, identical keys."""
    provision_cli_pair(tmp_path, rng, capsys, attested_bytes=256 * 1024, seeds=("ac", "bd"))
    start = time.perf_counter()
    codes = serve_and_attest(tmp_path, capsys, timeout="5.0")
    elapsed = time.perf_counter() - start

    assert codes == {"serve": 0, "attest": 0}
    out = capsys.readouterr().out
    fingerprints = {line.split("key-fp=")[1] for line in out.splitlines() if "key-fp=" in line}
    assert len(fingerprints) == 1, f"fingerprints differ: {fingerprints}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report("C1 end-to-end honest run", f"{elapsed:.2f}s, key-fp {fingerprints.pop()}")


def test_c2_crtm_linearity():
    """Time ratio 2x (+/- 0.2) per memory doubling; work ratio exactly 2.0."""
    sizes = [64 * 1024, 128 * 1024, 256 * 1024]
    samples = bench.crtm_bench(sizes=sizes, blocks=[1024], iters=30)
    best = {s.size: min(s.times) for s in samples}
    work = {s.size: s.work_bytes for s in samples}
    r1 = best[sizes[1]] / best[sizes[0]]
    r2 = best[sizes[2]] / best[sizes[1]]
    assert 1.8 <= r1 <= 2.2, f"128/64 time ratio {r1:.3f}"
    assert 1.8 <= r2 <= 2.2, f"256/128 time ratio {r2:.3f}"
    assert work[sizes[1]] / work[sizes[0]] == 2.0
    assert work[sizes[2]] / work[sizes[1]] == 2.0
    report("C2 CRTM linearity", f"time ratios {r1:.2f}, {r2:.2f}; work ratios exactly 2.0")


def test_c3_block_size_effect():
    """|t(b=1K) - t(b=4K)| / t(b=1K) <= 10% at 4 MB attested."""
    samples = bench.crtm_bench(sizes=[4 * 1024 * 1024], blocks=[1024, 4096], iters=22)
    best = {s.block: min(s.times) for s in samples}
    rel = abs(best[1024] - best[4096]) / best[1024]
    assert rel <= 0.10, f"block-size effect {rel * 100:.1f}%"
    report("C3 block-size effect", f"{rel * 100:.1f}% at 4 MB")


def test_c4_oracle_equivalence(rng):
    """Iterative digest equals the recursive-formula oracle, byte-exact."""
    sizes = [1, 16, 31, 32, 33, 100, 512, 1023, 1024, 1025, 2048, 3000,
             4095, 4096, 4097, 6000, 8191, 8192]
    blocks = [32, 1024, 4096]
    checked = 0
    for size in sizes:
        data = rng.randbytes(size)
        image = flash_image(data)
        for block in blocks:
            config = AttestationConfig(FLASH_BASE, FLASH_BASE + size, block)
            assert measure(image, config).digest == recursive_chain_digest(data, block), (
                size, block,
            )
            checked += 1
    report("C4 oracle equivalence", f"{checked} (size, block) combinations byte-identical")


def test_c5_pmp_semantics_suite(device_pair):
    """Lock-until-reset, X-only denial, priority, and full 2^16 decode sweep."""
    from lrav.device import device_reset

    # lock-until-reset
    dev, _ = device_pair
    with pytest.raises(LockedEntry):
        pmp.configure(dev.bank, 0, PmpConfig(read=True), 0)
    device_reset(dev)
    assert dev.bank.entries[0].config.lock  # ROM re-locked its own entry

    # X-only read denial at every key-window address
    for addr in range(QSK_BASE, QSK_BASE + 64):
        assert not pmp.check(dev.bank, Access.READ, addr)
        assert pmp.check(dev.bank, Access.EXECUTE, addr)

    # lowest-index priority: permissive low entry wins over restrictive high
    bank = PmpBank()
    pmp.configure(bank, 0, PmpConfig(read=True, execute=True, addr_mode=AddrMode.NAPOT, lock=True),
                  pmp.napot_addr_reg(0x1000, 64))
    pmp.configure(bank, 1, PmpConfig(addr_mode=AddrMode.NAPOT, lock=True),
                  pmp.napot_addr_reg(0x1000, 64))
    assert pmp.check(bank, Access.READ, 0x1000)

    # NAPOT and TOR decode vs the bit-pattern oracle, all 2^16 low words
    napot_bank, tor_bank = PmpBank(), PmpBank()
    napot_cfg = PmpConfig(read=True, addr_mode=AddrMode.NAPOT)
    tor_cfg = PmpConfig(read=True, addr_mode=AddrMode.TOR)
    agreements = 0
    for addr_reg in range(1 << 16):
        pmp.configure(napot_bank, 2, napot_cfg, addr_reg)
        assert pmp.match_range(napot_bank, 2) == napot_range_oracle(addr_reg)
        pmp.configure(tor_bank, 0, PmpConfig(addr_mode=AddrMode.OFF), 0x4000)
        pmp.configure(tor_bank, 1, tor_cfg, addr_reg)
        assert pmp.match_range(tor_bank, 1) == tor_range_oracle(0x4000, addr_reg)
        agreements += 2
    report("C5 PMP semantics suite", f"{agreements} range decodings, 100% oracle agreement")


def test_c6_attack_catalog():
    """Every scenario ends in its expected verdict, deterministically."""
    scenarios = attacks.catalog()
    assert len(scenarios) >= 10
    first, second = [], []
    for scenario in scenarios:
        first.append(attacks.run_scenario(scenario, seed=5))
        assert first[-1] == scenario.expected, f"{scenario.name}: {first[-1]}"
    for scenario in scenarios:
        second.append(attacks.run_scenario(scenario, seed=5))
    assert first == second, "verdicts not deterministic under a fixed seed"
    report("C6 attack catalog", f"{len(scenarios)}/{len(scenarios)} expected verdicts, deterministic")


def test_c7_secrecy_hygiene(tmp_path, rng, capsys):
    """Sentinel QSK seeds and the session key never appear in any output.

    Haystacks: all CLI output, the trust stores, captured wire frames, state
    snapshots and reprs. The device profile file is excluded by design: it is
    the key file the offline phase produces (the seed has to live somewhere).
    """
    provision_cli_pair(tmp_path, rng, capsys, attested_bytes=8 * 1024, seeds=("ac", "bd"))
    assert serve_and_attest(tmp_path, capsys, timeout="5.0") == {"serve": 0, "attest": 0}
    cli.main([
        "measure", "--profile", str(tmp_path / "alpha.json"),
        "--trust", str(tmp_path / "alpha.trust"),
    ])
    captured = capsys.readouterr()

    # an in-memory run with a wire tap plus live state, sharing no CLI state
    dev_a, dev_b = make_pair(rng)
    frames: list[bytes] = []

    def tap(data: bytes):
        frames.append(data)
        return (data,)

    res_a, res_b = run_pair(dev_a, dev_b, a_hook=tap, b_hook=tap)
    assert res_a.established and res_b.established

    session_key = res_a.session_key
    needles: list[bytes] = [session_key, session_key.hex().encode()]
    for profile_path in (tmp_path / "alpha.json", tmp_path / "beta.json"):
        seed = load_profile(profile_path).qsk_seed
        needles += [seed, seed.hex().encode()]

    haystacks: list[bytes] = [
        captured.out.encode(), captured.err.encode(),
        (tmp_path / "alpha.trust").read_bytes(),
        (tmp_path / "beta.trust").read_bytes(),
        b"".join(frames),
        str(res_a.state.snapshot()).encode(),
        str(res_b.state.snapshot()).encode(),
        repr(res_a.state).encode(), repr(dev_a).encode(), repr(dev_b).encode(),
    ]
    for needle in needles:
        for haystack in haystacks:
            assert needle not in haystack
    report("C7 secrecy hygiene", f"{len(needles)} sentinels absent from {len(haystacks)} surfaces")


def test_c8_transport_fuzz():
    """10^5 adversarial inputs: only the four decode errors or a valid frame."""
    rng = random.Random(0xFADE)
    allowed = (BadMagic, BadVersion, Oversize, Truncated)
    outcomes = {"frame": 0, "error": 0}
    for i in range(100_000):
        if i % 4 == 0:
            # corrupted valid frame: deeper decode paths get coverage
            data = bytearray(encode_frame(rng.choice([1, 2, 3, 0xFF]),
                                          rng.randbytes(rng.randrange(0, 80))))
            for _ in range(rng.randrange(1, 4)):
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            data = bytes(data[:rng.randrange(1, len(data) + 1)])
        else:
            data = rng.randbytes(rng.randrange(0, 60))
        try:
            frame, rest = decode_frame(data)
            assert len(frame.payload) <= transport.MAX_PAYLOAD
            assert len(frame.payload) + len(rest) <= len(data)
            outcomes["frame"] += 1
        except allowed:
            outcomes["error"] += 1
    assert outcomes["frame"] + outcomes["error"] == 100_000
    report("C8 transport fuzz", f"{outcomes['frame']} frames, {outcomes['error']} clean rejections")
