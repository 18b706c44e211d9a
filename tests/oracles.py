"""Independent oracles the implementation is checked against.

These are deliberately written from the definitions (recursion, bit-string
scanning) rather than sharing code with the package, so a bug in the
implementation cannot hide in its own test.
"""

import hashlib
import struct

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


def iterative_chain_digest(data: bytes, block: int) -> bytes:
    """The same chain computed last block first, one hash object per block."""
    sha3 = hashlib.sha3_256
    n = len(data)
    starts = iter(range(((n - 1) // block) * block, -1, -block))
    s = next(starts)
    digest = sha3(data[s:s + block]).digest()
    for s in starts:
        h = sha3(data[s:s + block])
        h.update(digest)
        digest = h.digest()
    return digest


# XSalsa20 from "Cryptography in NaCl" and the Salsa20 specification, on
# Python integers: the reference for the native xsalsa20_xor.
_MASK = 0xFFFF_FFFF
# "expand 32-byte k"
_SIGMA = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
# One double round: the column round, then the row round. Each (a, b, c, d)
# names the state words that play y0..y3 in one quarterround.
_QUARTERS = (
    (0, 4, 8, 12), (5, 9, 13, 1), (10, 14, 2, 6), (15, 3, 7, 11),
    (0, 1, 2, 3), (5, 6, 7, 4), (10, 11, 8, 9), (15, 12, 13, 14),
)


def salsa_rounds(state):
    """Ten Salsa20 double rounds, without the feed-forward addition."""
    x = list(state)
    for _ in range(10):
        for a, b, c, d in _QUARTERS:
            t = (x[a] + x[d]) & _MASK
            x[b] ^= ((t << 7) | (t >> 25)) & _MASK
            t = (x[b] + x[a]) & _MASK
            x[c] ^= ((t << 9) | (t >> 23)) & _MASK
            t = (x[c] + x[b]) & _MASK
            x[d] ^= ((t << 13) | (t >> 19)) & _MASK
            t = (x[d] + x[c]) & _MASK
            x[a] ^= ((t << 18) | (t >> 14)) & _MASK
    return x


def salsa_expansion(key_words, input_words):
    """Constants on the diagonal, key words at 1-4 and 11-14, input at 6-9."""
    k, n = key_words, input_words
    return [_SIGMA[0], *k[:4], _SIGMA[1], *n, _SIGMA[2], *k[4:], _SIGMA[3]]


def salsa_core_block(state) -> bytes:
    """Salsa20 core: the rounds plus the feed-forward addition."""
    return struct.pack("<16I", *((z + x) & _MASK for z, x in zip(salsa_rounds(state), state)))


def hsalsa20_oracle(key: bytes, input16: bytes) -> bytes:
    """HSalsa20 subkey derivation: diagonal/input words, no feed-forward."""
    if len(key) != 32 or len(input16) != 16:
        raise ValueError("hsalsa20 needs a 32-byte key and 16-byte input")
    z = salsa_rounds(salsa_expansion(struct.unpack("<8I", key), struct.unpack("<4I", input16)))
    return struct.pack("<8I", z[0], z[5], z[10], z[15], z[6], z[7], z[8], z[9])


def xsalsa20_oracle(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """data XOR the XSalsa20 keystream (64-bit block counter from 0)."""
    if len(nonce) != 24:
        raise ValueError("nonce must be 24 bytes")
    subkey = struct.unpack("<8I", hsalsa20_oracle(key, nonce[:16]))
    n0, n1 = struct.unpack("<2I", nonce[16:])
    n = len(data)
    stream = b"".join(
        salsa_core_block(salsa_expansion(subkey, (n0, n1, i & _MASK, i >> 32)))
        for i in range((n + 63) // 64)
    )
    xored = int.from_bytes(data, "little") ^ int.from_bytes(stream[:n], "little")
    return xored.to_bytes(n, "little")


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
