"""Mutual remote attestation between simulated PMP-protected devices.

Two simulated constrained devices, each with an 8-entry PMP bank, ROM-hosted
measurement code, and an execute-only signing-key window, attest each other
over a three-message handshake and bootstrap an authenticated encrypted
channel. The package also ships an adversary scenario catalog and CRTM
scaling benchmarks; see the `lrav` CLI.
"""

from .crtm import AttestationConfig, Measurement, measure, measurement_equals
from .device import DeviceState, device_reset, mem_access
from .protocol import AbortReason, Phase, Role, SessionState
from .provisioning import (
    DeviceProfile,
    TrustStore,
    build_device,
    compute_expected,
    gen_identity,
    load_profile,
    load_trust_store,
    save_profile,
)
from .quote import Quote, QuoteSigningKey, QuoteVerdict, sign_quote_gated, verify_quote
from .runner import SessionResult, key_fingerprint, run_initiator, run_responder

__version__ = "0.1.0"

__all__ = [
    "AbortReason",
    "AttestationConfig",
    "DeviceProfile",
    "DeviceState",
    "Measurement",
    "Phase",
    "Quote",
    "QuoteSigningKey",
    "QuoteVerdict",
    "Role",
    "SessionResult",
    "SessionState",
    "TrustStore",
    "build_device",
    "compute_expected",
    "device_reset",
    "gen_identity",
    "key_fingerprint",
    "load_profile",
    "load_trust_store",
    "measure",
    "measurement_equals",
    "mem_access",
    "run_initiator",
    "run_responder",
    "save_profile",
    "sign_quote_gated",
    "verify_quote",
]
