"""Independent oracles the implementation is checked against.

These are deliberately written from the definitions (recursion, bit-string
scanning) rather than sharing code with the package, so a bug in the
implementation cannot hide in its own test.
"""

import hashlib

from lrav.pmp import PMP_ENTRIES, match_range

# SHA-256 of the three frames of one seeded handshake (test_protocol's golden
# run, rebuilt independently in test_reference); any change to the wire
# bytes changes it
GOLDEN_TRANSCRIPT = "598369bc511380b2d51fb05f7963cb62c43b9d2fc702a8fa3fbad3a9fb6c032b"


def recursive_chain_digest(data: bytes, block: int) -> bytes:
    """Direct transcription of the chained-hash recursion.

    D_k = H(B_k); D_j = H(B_j || D_{j+1}); returns D_0.
    """
    blocks = [bytes(data[i:i + block]) for i in range(0, len(data), block)]

    def rec(j: int) -> bytes:
        if j == len(blocks) - 1:
            return hashlib.sha3_256(blocks[j]).digest()
        return hashlib.sha3_256(blocks[j] + rec(j + 1)).digest()

    return rec(0)


def napot_range_oracle(addr_reg: int) -> tuple[int, int]:
    """NAPOT decode by scanning the 32-bit pattern as a string.

    k trailing ones select a 2^(k+3)-byte naturally aligned region whose
    base is the register with the trailing `0111..1` field cleared, shifted
    into a byte address.
    """
    bits = format(addr_reg, "032b")
    k = len(bits) - len(bits.rstrip("1"))
    if k == 32:
        base_bits = "0" * 32
    else:
        base_bits = bits[: 32 - (k + 1)] + "0" * (k + 1)
    base = int(base_bits, 2) * 4
    size = 2 ** (k + 3)
    return base, base + size - 1


def tor_range_oracle(prev_addr_reg: int, addr_reg: int):
    """Top-of-range decode: [prev*4, addr*4 - 1], empty when top <= base."""
    lo = prev_addr_reg * 4
    top = addr_reg * 4
    if top <= lo:
        return None
    return lo, top - 1


def per_byte_check(bank, access, addr: int) -> bool:
    """The PMP check at one address, entry by entry.

    Lowest-index matching entry decides. Unlocked entries do not constrain
    machine mode; locked entries bind it via their R/W/X bits. No match
    means the M-mode default: allow. Range decoding reuses match_range,
    which the decoders above pin; the priority rule is checked byte by byte.
    """
    for index in range(PMP_ENTRIES):
        rng = match_range(bank, index)
        if rng is not None and rng[0] <= addr <= rng[1]:
            entry = bank.entries[index]
            if not entry.config.lock:
                return True
            return entry.config.allows(access)
    return True
