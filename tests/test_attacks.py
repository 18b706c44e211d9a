import inspect

from lrav import attacks
from lrav.attacks import VerdictKind, catalog, run_scenario

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
