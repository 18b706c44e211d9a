import inspect
import random
import time

from lrav import attacks
from lrav.attacks import VerdictKind, catalog, run_scenario
from lrav.errors import AbortReason
from lrav.provisioning import gen_identity
from lrav.runner import Outcome, key_fingerprint

REQUIRED = {
    "pmp-lock-rewrite",
    "non-response",
    "quote-overwrite",
    "qsk-read-attempt",
    "m2-replay",
    "m3-cross-session-splice",
    "ciphertext-bitflip",
    "q-value-swap",
    "nonce-reuse-audit",
    "message-drop",
    "firmware-tamper",
}

# Identifiers that would mean the adversary reached trusted-ROM internals.
FORBIDDEN_IN_ADVERSARY = [
    "load_rom",
    "rom_bytes",
    "_gated_sign",
    "sign_quote_gated",
    "sign_transcript_gated",
    ".identity",
    "memory.read",
    "memory.write",
    "_read_attested",
    "ROM_TRUSTED",
    "qsk_seed",
]


def test_catalog_is_complete():
    names = {s.name for s in catalog()}
    assert len(names) >= 10
    assert REQUIRED <= names


def test_no_scenario_expects_survival():
    for scenario in catalog():
        assert scenario.expected.kind is not VerdictKind.ESTABLISHED, scenario.name
        assert scenario.expected.kind is not VerdictKind.AUDIT_FAIL, scenario.name


def test_full_catalog_detects_every_attack():
    for scenario in catalog():
        observed = run_scenario(scenario, seed=11)
        assert observed == scenario.expected, f"{scenario.name}: {observed}"


def test_verdicts_are_deterministic_for_a_seed():
    first = [run_scenario(s, seed=3) for s in catalog()]
    second = [run_scenario(s, seed=3) for s in catalog()]
    assert first == second


def test_adversary_actions_cannot_reach_trusted_internals():
    actions = [fn for name, fn in vars(attacks).items()
               if name.startswith("_adv_") and inspect.isfunction(fn)]
    for action in actions:
        source = inspect.getsource(action)
        for token in FORBIDDEN_IN_ADVERSARY:
            assert token not in source, f"{action.__name__} uses {token}"
    assert len(actions) >= 9


def test_scenario_names_are_unique():
    names = [s.name for s in catalog()]
    assert len(names) == len(set(names))


# --- a bounded search over delivery plans ----------------------------------------
# Each receive slot is delivered (left out of the plan), dropped, flipped at a
# random payload bit, or replayed from the pair's recorded honest run; slots
# after a drop are not varied. Then one flip per field, at a chosen bit range.

DROP, FLIP, REPLAY = attacks._adv_drop, attacks._adv_flip(0), attacks._adv_replay
SLOTS = ("m1", "m2", "m3")
_flip = attacks._adv_flip


def _every_plan(slots=SLOTS, plan=None):
    plan = plan or {}
    if not slots:
        return [plan]
    plans = [{**plan, slots[0]: DROP}]
    for action in (None, FLIP, REPLAY):
        varied = plan if action is None else {**plan, slots[0]: action}
        plans += _every_plan(slots[1:], varied)
    return plans


def _a_aborts(reason):
    return (Outcome.ABORTED, reason), (Outcome.PEER_ABORTED, reason)


TIMEOUTS = (Outcome.TIMEOUT, None), (Outcome.TIMEOUT, None)
# payload bits: nonce [0, 256), point [256, 512) with its top bit 511, AR flag
# [512, 520), then M2's box; M3 is all box. X25519 ignores a point's top bit,
# the signed transcript does not.
FIELD_FLIPS = [
    ({"m1": _flip(0, 256)}, _a_aborts(AbortReason.BAD_TAG)),
    ({"m1": _flip(256, 511)}, _a_aborts(AbortReason.BAD_TAG)),
    ({"m1": _flip(511, 512)}, _a_aborts(AbortReason.BAD_SIGNATURE)),
    ({"m1": _flip(512, 520)},
     ((Outcome.PEER_ABORTED, AbortReason.MALFORMED), (Outcome.ABORTED, AbortReason.MALFORMED))),
    ({"m2": _flip(0, 256)}, _a_aborts(AbortReason.BAD_TAG)),
    ({"m2": _flip(256, 511)}, _a_aborts(AbortReason.BAD_TAG)),
    ({"m2": _flip(511, 512)}, _a_aborts(AbortReason.BAD_SIGNATURE)),
    ({"m2": _flip(512, 520)}, _a_aborts(AbortReason.MALFORMED)),
    ({"m2": _flip(520)}, _a_aborts(AbortReason.BAD_TAG)),
    ({"m3": FLIP}, ((Outcome.ESTABLISHED, None), (Outcome.ABORTED, AbortReason.BAD_TAG))),
]
# single changes whose ends do not depend on the bit a flip picks
SINGLE_CHANGES = {
    ("m1", DROP): TIMEOUTS,
    ("m2", DROP): TIMEOUTS,
    ("m3", DROP): ((Outcome.ESTABLISHED, None), (Outcome.TIMEOUT, None)),
    ("m1", REPLAY): _a_aborts(AbortReason.BAD_TAG),
    ("m2", REPLAY): _a_aborts(AbortReason.BAD_TAG),
    ("m3", REPLAY): ((Outcome.ESTABLISHED, None), (Outcome.ABORTED, AbortReason.BAD_TAG)),
    ("m3", FLIP): ((Outcome.ESTABLISHED, None), (Outcome.ABORTED, AbortReason.BAD_TAG)),
}
SEEDS = [gen_identity(b"A" * 32), gen_identity(b"B" * 32)]  # provision_pair's signing seeds


def _exact_ends(plan):
    return SINGLE_CHANGES.get(next(iter(plan.items()))) if len(plan) == 1 else None


def test_every_delivery_plan_keeps_injective_agreement():
    searched = _every_plan()
    assert len(searched) == 40
    plans = [(plan, _exact_ends(plan)) for plan in searched] + FIELD_FLIPS
    rng = random.Random(31)
    ends_seen, needles, haystacks = 0, [], []
    start = time.perf_counter()
    for plan, expected in plans:
        dev_a, dev_b = attacks._honest_pair(rng)
        log = {}
        honest = attacks._run_plan(dev_a, dev_b, log)
        assert all(res.established for res in honest)
        res_a, res_b = attacks._run_plan(dev_a, dev_b, log, rng, **plan)
        name = {slot: action.__name__ for slot, action in plan.items()}

        if res_b.established:  # injective agreement: B's run is A's run
            assert res_a.established, name
            assert key_fingerprint(res_a.session_key) == key_fingerprint(res_b.session_key)
            assert res_a.state.nonces() == res_b.state.nonces()
        assert not (plan and res_b.established), name
        assert not (("m1" in plan or "m2" in plan) and res_a.established), name
        for res in (res_a, res_b):
            assert res.outcome in (Outcome.ESTABLISHED, Outcome.ABORTED,
                                   Outcome.PEER_ABORTED, Outcome.TIMEOUT), (name, res.describe())
            if res.outcome is Outcome.ABORTED:
                assert isinstance(res.reason, AbortReason), name
        if expected is not None:
            ends_seen += 1
            assert ((res_a.outcome, res_a.reason), (res_b.outcome, res_b.reason)) == expected, name

        for res in honest + (res_a, res_b):
            if res.established:
                needles.append(res.session_key)
            haystacks += [res.describe(), repr(res), str(res.state and res.state.snapshot())]
    elapsed = time.perf_counter() - start

    needles += SEEDS
    needles += [needle.hex().encode() for needle in needles]
    haystack = "\n".join(haystacks).encode()
    for needle in needles:
        assert needle not in haystack
    assert ends_seen == len(FIELD_FLIPS) + len(SINGLE_CHANGES)
    print(f"{len(plans)} delivery plans ({ends_seen} with exact ends) in {elapsed:.2f}s")
