"""Mutual remote attestation between simulated PMP-protected devices.

Two simulated constrained devices, each with an 8-entry PMP bank, ROM-hosted
measurement code, and an execute-only signing-key window, attest each other
over a three-message handshake and bootstrap an authenticated encrypted
channel. The package also ships an adversary scenario catalog and CRTM
scaling benchmarks; see the `lrav` CLI.
"""
