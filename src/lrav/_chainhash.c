/* Native cores of lrav: the chained SHA3-256 measurement and XSalsa20.
 *
 * chained_sha3_256: D_k = H(B_k); D_j = H(B_j || D_{j+1}); returns D_0, where
 * B_0..B_k partition the input into `block`-byte chunks (last may be short).
 * Same digests as the iterative oracle in tests/oracles.py. H is a SHA3-256
 * sponge written from FIPS 202 over a LANES-wide Keccak-p[1600]: the full rate
 * chunks of a block depend on that block alone, so LANES blocks absorb them
 * side by side, and only each block's last one or two permutations (its
 * "tail", which holds D_{j+1}) wait for the chain.
 *
 * xsalsa20_xor: the XSalsa20 stream of NaCl (Bernstein,
 * "Cryptography in NaCl"; "Salsa20 specification"). The 24-byte nonce's first
 * 16 bytes and the key give an HSalsa20 subkey; the last 8 bytes and a 64-bit
 * little-endian block counter from 0 then drive Salsa20/20 under that
 * subkey. Same bytes as the twins in tests/oracles.py.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* --- Keccak-p[1600], 24 rounds (FIPS 202, 3.2-3.3) ----------------------- */

#define RATE 136  /* SHA3-256: 1600 - 2 * 256 bits */
#define LANES 4   /* Keccak states permuted together, one per vector element */
/* Shorter inputs hash with the GIL held, as hashlib's HASHLIB_GIL_MINSIZE:
 * releasing and retaking it would cost more than the hash itself. */
#define GIL_MINSIZE 2048

typedef uint64_t lanes_t __attribute__((vector_size(8 * LANES)));

/* Lane (x, y) of a state is word x + 5y, little-endian. */
static const uint64_t RC[24] = {
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
};

/* Rotates every element of a lanes_t left by n. */
#define ROL(v, n) (((v) << (n)) | ((v) >> ((64 - (n)) & 63)))

/* Row y of the next state: rho and pi bring lane i_x, theta-corrected and
 * rotated by r_x, to position x of the row; chi mixes the row. */
#define ROW(a, e, y, i0, r0, i1, r1, i2, r2, i3, r3, i4, r4) \
    do {                                                     \
        b0 = ROL(a[i0] ^ d[i0 % 5], r0);                     \
        b1 = ROL(a[i1] ^ d[i1 % 5], r1);                     \
        b2 = ROL(a[i2] ^ d[i2 % 5], r2);                     \
        b3 = ROL(a[i3] ^ d[i3 % 5], r3);                     \
        b4 = ROL(a[i4] ^ d[i4 % 5], r4);                     \
        e[5 * y + 0] = b0 ^ (~b1 & b2);                      \
        e[5 * y + 1] = b1 ^ (~b2 & b3);                      \
        e[5 * y + 2] = b2 ^ (~b3 & b4);                      \
        e[5 * y + 3] = b3 ^ (~b4 & b0);                      \
        e[5 * y + 4] = b4 ^ (~b0 & b1);                      \
    } while (0)

#define COLUMN(a, x) (a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20])

/* One round from state a into state e: theta, rho, pi, chi, iota. */
#define ROUND(a, e, rc)                                                 \
    do {                                                                \
        lanes_t c0 = COLUMN(a, 0), c1 = COLUMN(a, 1), c2 = COLUMN(a, 2); \
        lanes_t c3 = COLUMN(a, 3), c4 = COLUMN(a, 4), b0, b1, b2, b3, b4; \
        lanes_t d[5] = {c4 ^ ROL(c1, 1), c0 ^ ROL(c2, 1), c1 ^ ROL(c3, 1),    \
                  c2 ^ ROL(c4, 1), c3 ^ ROL(c0, 1)};                    \
        ROW(a, e, 0, 0, 0, 6, 44, 12, 43, 18, 21, 24, 14);              \
        ROW(a, e, 1, 3, 28, 9, 20, 10, 3, 16, 45, 22, 61);              \
        ROW(a, e, 2, 1, 1, 7, 6, 13, 25, 19, 8, 20, 18);                \
        ROW(a, e, 3, 4, 27, 5, 36, 11, 10, 17, 15, 23, 56);             \
        ROW(a, e, 4, 2, 62, 8, 55, 14, 39, 15, 41, 21, 2);              \
        e[0] ^= (rc);                                                   \
    } while (0)

#define EACH_LANE(M, i) M(0, i), M(1, i), M(2, i), M(3, i)
_Static_assert(LANES == 4, "EACH_LANE names one entry per lane");

/* Straight-line code over the 25 words, so that the state stays in
 * registers rather than being copied through memory. */
#define EACH_WORD(M)                                                        \
    M(0) M(1) M(2) M(3) M(4) M(5) M(6) M(7) M(8) M(9) M(10) M(11) M(12)     \
    M(13) M(14) M(15) M(16) M(17) M(18) M(19) M(20) M(21) M(22) M(23) M(24)

static inline uint64_t
load64le(const unsigned char *p)
{
    uint64_t v;
    memcpy(&v, p, 8);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    return v;
}

static inline void
store64le(unsigned char *p, uint64_t v)
{
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    memcpy(p, &v, 8);
}

/* --- the chained hash ---------------------------------------------------- */

/* x86-64 gets an AVX-512, an AVX2 and a baseline build of the kernel, picked
 * at load time; elsewhere the compiler lowers the vectors generically. */
#if defined(__x86_64__) && defined(__ELF__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define KERNEL_CLONES \
    __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#endif
#endif
#ifndef KERNEL_CLONES
#define KERNEL_CLONES
#endif

/* Word i of every lane's chunk, and the state words around a step. */
#define LANE_WORD(l, i) load64le(in[l] + 8 * (i))
#define ABSORB(i) a[i] = (st[i] & keep) ^ (lanes_t){EACH_LANE(LANE_WORD, i)};
#define KEEP(i) a[i] = st[i] & keep;
#define STORE(i) st[i] = a[i];

/* Lane l of the vector state holds the sponge of block blk[l]. A lane
 * absorbs its block's full rate chunks, then runs the tail: the remaining
 * bytes, D_{j+1} and the padding, one or two chunks built in tails[l]. Tails
 * run one at a time in chain order, and a lane whose chunks are done goes
 * straight on into its tail when D_{j+1} is ready; otherwise its state waits
 * in parked[l], out of the way of the permutations, until the chain gets
 * there. A lane that finishes its tail takes the next block. Everything lives
 * on this call's stack, so concurrent calls share nothing. */
KERNEL_CLONES static void
chain_kernel(const unsigned char *buf, Py_ssize_t len, Py_ssize_t block,
             unsigned char digest[32])
{
    static const unsigned char idle_chunk[RATE]; /* absorbed by idle lanes */
    const Py_ssize_t n = (len - 1) / block + 1, full = block / RATE;
    const Py_ssize_t rem = block % RATE, tail_chunks = (rem + 32) / RATE + 1;
    const Py_ssize_t last_len = len - (n - 1) * block;
    lanes_t st[25], lane_index, fresh = {0}; /* fresh: lanes to clear */
    const unsigned char *in[LANES];
    unsigned char tails[LANES][2 * RATE + 32], pad[2 * RATE + 32], last[RATE];
    uint64_t parked[LANES][25];
    Py_ssize_t left[LANES], blk[LANES];
    int lane_of[LANES], tail_lane = -1;
    Py_ssize_t next = n - 1; /* the next block a lane takes */
    Py_ssize_t ready = n;    /* chain holds D_ready; n: nothing yet */
    uint64_t chain[4];

    /* Tails of all blocks but the last: rem bytes, D_{j+1}, then pad[]. */
    memset(pad, 0, sizeof pad);
    pad[rem + 32] = 0x06;
    pad[tail_chunks * RATE - 1] |= 0x80;
    for (int l = 0; l < LANES; l++) {
        in[l] = idle_chunk;
        left[l] = 0;
        blk[l] = -1;
        lane_index[l] = (uint64_t)l;
    }
    /* The last block has no chain value: its tail is one padded chunk. */
    memset(last, 0, sizeof last);
    memcpy(last, buf + (n - 1) * block + last_len / RATE * RATE,
           (size_t)(last_len % RATE));
    last[last_len % RATE] = 0x06;
    last[RATE - 1] |= 0x80;
    memset(st, 0, sizeof st);

    for (;;) {
        /* Hand out blocks, in chain order, to lanes without one. */
        for (int l = 0; l < LANES && next >= 0; l++) {
            if (blk[l] >= 0)
                continue;
            blk[l] = next;
            lane_of[next % LANES] = l;
            in[l] = buf + next * block;
            left[l] = next == n - 1 ? last_len / RATE : full;
            fresh |= (lanes_t)(lane_index == (uint64_t)l);
            if (next < n - 1) {
                /* The tail but D_{j+1}, written long before it is read.
                 * Fixed-size copies are a few moves; the bytes past rem
                 * that the first one brings are overwritten. */
                Py_ssize_t from = next * block + full * RATE;
                if (from + RATE <= len)
                    memcpy(tails[l], buf + from, RATE);
                else
                    memcpy(tails[l], buf + from, (size_t)rem);
                memcpy(tails[l] + rem + 32, pad + rem + 32, RATE);
            }
            if (next >= LANES) /* the block handed out LANES blocks later */
                for (int k = 0; k < RATE + 64; k += 64)
                    __builtin_prefetch(buf + (next - LANES) * block + k);
            if (left[l] == 0 && next != ready - 1) { /* nothing to absorb */
                memset(parked[l], 0, sizeof parked[l]);
                in[l] = idle_chunk;
            }
            next--;
        }
        /* Start the next tail if its block's chunks are done. */
        if (tail_lane < 0) {
            int l = lane_of[(ready - 1) % LANES];
            if (left[l] == 0) {
                Py_ssize_t j = blk[l];
                if (in[l] == idle_chunk) /* it waited: bring its state back */
                    for (int i = 0; i < 25; i++)
                        st[i][l] = parked[l][i];
                if (j == n - 1) {
                    in[l] = last;
                    left[l] = 1;
                } else {
                    for (int i = 0; i < 4; i++)
                        store64le(tails[l] + rem + 8 * i, chain[i]);
                    in[l] = tails[l];
                    left[l] = tail_chunks;
                }
                tail_lane = l;
            }
        }

        { /* one step: each lane absorbs the chunk at in[l], then permute */
            lanes_t a[25], e[25], keep = ~fresh;
            ABSORB(0) ABSORB(1) ABSORB(2) ABSORB(3) ABSORB(4) ABSORB(5)
            ABSORB(6) ABSORB(7) ABSORB(8) ABSORB(9) ABSORB(10) ABSORB(11)
            ABSORB(12) ABSORB(13) ABSORB(14) ABSORB(15) ABSORB(16)
            KEEP(17) KEEP(18) KEEP(19) KEEP(20) KEEP(21) KEEP(22) KEEP(23)
            KEEP(24)
            for (int r = 0; r < 24; r += 2) {
                ROUND(a, e, RC[r]);
                ROUND(e, a, RC[r + 1]);
            }
            EACH_WORD(STORE)
            fresh ^= fresh;
        }

        for (int l = 0; l < LANES; l++)
            if (left[l] > 0) {
                in[l] += RATE;
                left[l]--;
                /* a chunk ahead: the loads above wait on their misses */
                for (int k = 0; k < RATE + 64; k += 64)
                    __builtin_prefetch(in[l] + RATE + k);
            }
        if (tail_lane >= 0 && left[tail_lane] == 0) {
            int l = tail_lane; /* D_j: the first 32 bytes of the state */
            for (int i = 0; i < 4; i++)
                chain[i] = st[i][l];
            ready = blk[l];
            if (ready == 0) {
                for (int i = 0; i < 4; i++)
                    store64le(digest + 8 * i, chain[i]);
                return;
            }
            tail_lane = -1;
            blk[l] = -1;
            in[l] = idle_chunk;
        }
        for (int l = 0; l < LANES; l++)
            if (left[l] == 0 && in[l] != idle_chunk && blk[l] != ready - 1) {
                /* Its chunks are done but D_{j+1} is not ready yet: park. */
                for (int i = 0; i < 25; i++)
                    parked[l][i] = st[i][l];
                in[l] = idle_chunk;
            }
    }
}

static PyObject *
chained_sha3_256(PyObject *self, PyObject *args)
{
    Py_buffer data;
    Py_ssize_t block;
    unsigned char digest[32];

    (void)self;
    if (!PyArg_ParseTuple(args, "y*n", &data, &block))
        return NULL;
    if (block <= 0) {
        PyBuffer_Release(&data);
        PyErr_SetString(PyExc_ValueError, "block size must be positive");
        return NULL;
    }
    if (data.len == 0) {
        PyBuffer_Release(&data);
        PyErr_SetString(PyExc_ValueError, "input must be non-empty");
        return NULL;
    }
    if (data.len < GIL_MINSIZE) {
        chain_kernel(data.buf, data.len, block, digest);
    } else {
        Py_BEGIN_ALLOW_THREADS
        chain_kernel(data.buf, data.len, block, digest);
        Py_END_ALLOW_THREADS
    }
    PyBuffer_Release(&data);
    return PyBytes_FromStringAndSize((const char *)digest, 32);
}

/* --- XSalsa20 ------------------------------------------------------------ */

static uint32_t
load32(const unsigned char *p)
{
    return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16 |
           (uint32_t)p[3] << 24;
}

static void
store32(unsigned char *p, uint32_t v)
{
    p[0] = (unsigned char)v;
    p[1] = (unsigned char)(v >> 8);
    p[2] = (unsigned char)(v >> 16);
    p[3] = (unsigned char)(v >> 24);
}

#define ROTL(v, n) (((v) << (n)) | ((v) >> (32 - (n))))
#define QUARTERROUND(a, b, c, d)      \
    do {                              \
        x[b] ^= ROTL(x[a] + x[d], 7); \
        x[c] ^= ROTL(x[b] + x[a], 9); \
        x[d] ^= ROTL(x[c] + x[b], 13); \
        x[a] ^= ROTL(x[d] + x[c], 18); \
    } while (0)

/* Ten double rounds (column round, then row round), no feed-forward. */
static void
salsa20_rounds(uint32_t x[16])
{
    for (int i = 0; i < 10; i++) {
        QUARTERROUND(0, 4, 8, 12);
        QUARTERROUND(5, 9, 13, 1);
        QUARTERROUND(10, 14, 2, 6);
        QUARTERROUND(15, 3, 7, 11);
        QUARTERROUND(0, 1, 2, 3);
        QUARTERROUND(5, 6, 7, 4);
        QUARTERROUND(10, 11, 8, 9);
        QUARTERROUND(15, 12, 13, 14);
    }
}

/* Salsa20 expansion: "expand 32-byte k" on the diagonal, key words at 1-4
 * and 11-14, the 16-byte input at 6-9. */
static void
expand(uint32_t x[16], const unsigned char key[32], const unsigned char in[16])
{
    static const unsigned char sigma[16] = "expand 32-byte k";
    for (int i = 0; i < 4; i++) {
        x[5 * i] = load32(sigma + 4 * i);
        x[1 + i] = load32(key + 4 * i);
        x[11 + i] = load32(key + 16 + 4 * i);
        x[6 + i] = load32(in + 4 * i);
    }
}

static void
hsalsa20_core(unsigned char out[32], const unsigned char key[32],
              const unsigned char in[16])
{
    static const int picked[8] = {0, 5, 10, 15, 6, 7, 8, 9};
    uint32_t x[16];
    expand(x, key, in);
    salsa20_rounds(x);
    for (int i = 0; i < 8; i++)
        store32(out + 4 * i, x[picked[i]]);
}

static void
xsalsa20_xor_core(unsigned char *out, const unsigned char *in, Py_ssize_t len,
                  const unsigned char key[32], const unsigned char nonce[24])
{
    unsigned char subkey[32], input[16] = {0}, block[64];
    uint32_t j[16], x[16];

    hsalsa20_core(subkey, key, nonce);
    memcpy(input, nonce + 16, 8); /* bytes 8-15: block counter, from 0 */
    expand(j, subkey, input);
    while (len > 0) {
        memcpy(x, j, sizeof x);
        salsa20_rounds(x);
        for (int i = 0; i < 16; i++)
            store32(block + 4 * i, x[i] + j[i]);
        Py_ssize_t n = len < 64 ? len : 64;
        for (Py_ssize_t i = 0; i < n; i++)
            out[i] = in[i] ^ block[i];
        out += n;
        in += n;
        len -= n;
        if (++j[8] == 0)
            ++j[9];
    }
}

static int
check_len(const Py_buffer *buf, Py_ssize_t want, const char *what)
{
    if (buf->len == want)
        return 1;
    PyErr_Format(PyExc_ValueError, "%s must be %zd bytes", what, want);
    return 0;
}

static PyObject *
xsalsa20_xor(PyObject *self, PyObject *args)
{
    Py_buffer key, nonce, data;
    PyObject *result = NULL;

    (void)self;
    if (!PyArg_ParseTuple(args, "y*y*y*", &key, &nonce, &data))
        return NULL;
    if (check_len(&key, 32, "key") && check_len(&nonce, 24, "nonce")) {
        result = PyBytes_FromStringAndSize(NULL, data.len);
        if (result != NULL)
            xsalsa20_xor_core((unsigned char *)PyBytes_AS_STRING(result),
                              data.buf, data.len, key.buf, nonce.buf);
    }
    PyBuffer_Release(&key);
    PyBuffer_Release(&nonce);
    PyBuffer_Release(&data);
    return result;
}

static PyMethodDef methods[] = {
    {"chained_sha3_256", chained_sha3_256, METH_VARARGS,
     "chained_sha3_256(data, block) -> 32-byte chained digest"},
    {"xsalsa20_xor", xsalsa20_xor, METH_VARARGS,
     "xsalsa20_xor(key, nonce, data) -> data XOR the XSalsa20 keystream"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_chainhash", .m_size = -1, .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__chainhash(void)
{
    return PyModule_Create(&module);
}
