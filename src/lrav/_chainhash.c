/* Native cores of lrav: the chained SHA3-256 measurement and XSalsa20.
 *
 * chained_sha3_256: D_k = H(B_k); D_j = H(B_j || D_{j+1}); returns D_0, where
 * B_0..B_k partition the input into `block`-byte chunks (last may be short).
 * Semantically identical to the pure-Python loop in lrav.crtm; kept in C so
 * the per-block cost is dominated by the hash itself rather than by object
 * churn, which matters for the block-size scaling benchmarks.
 *
 * hsalsa20 / xsalsa20_xor: the XSalsa20 stream of NaCl (Bernstein,
 * "Cryptography in NaCl"; "Salsa20 specification"). The 24-byte nonce's first
 * 16 bytes and the key give an HSalsa20 subkey; the last 8 bytes and a 64-bit
 * little-endian block counter from 0 then drive Salsa20/20 under that
 * subkey. Same bytes as the pure-Python twins in lrav.secretbox.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>
#include <openssl/evp.h>

static PyObject *
chained_sha3_256(PyObject *self, PyObject *args)
{
    Py_buffer data;
    Py_ssize_t block;

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

    const unsigned char *buf = (const unsigned char *)data.buf;
    Py_ssize_t len = data.len;
    unsigned char digest[32];
    int ok = 1;

    Py_BEGIN_ALLOW_THREADS
    EVP_MD_CTX *ctx = EVP_MD_CTX_new();
    if (ctx == NULL || EVP_DigestInit_ex(ctx, EVP_sha3_256(), NULL) != 1) {
        ok = 0;
    } else {
        Py_ssize_t nblocks = (len + block - 1) / block;
        int have_chain = 0;
        for (Py_ssize_t i = nblocks; i-- > 0;) {
            Py_ssize_t start = i * block;
            Py_ssize_t blen = (start + block <= len) ? block : len - start;
            /* md=NULL re-initialises the already-fetched digest cheaply */
            if (EVP_DigestInit_ex(ctx, NULL, NULL) != 1 ||
                EVP_DigestUpdate(ctx, buf + start, (size_t)blen) != 1 ||
                (have_chain && EVP_DigestUpdate(ctx, digest, 32) != 1) ||
                EVP_DigestFinal_ex(ctx, digest, NULL) != 1) {
                ok = 0;
                break;
            }
            have_chain = 1;
        }
    }
    EVP_MD_CTX_free(ctx);
    Py_END_ALLOW_THREADS

    PyBuffer_Release(&data);
    if (!ok) {
        PyErr_SetString(PyExc_RuntimeError, "sha3-256 digest failure");
        return NULL;
    }
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
hsalsa20(PyObject *self, PyObject *args)
{
    Py_buffer key, in;
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "y*y*", &key, &in))
        return NULL;
    if (check_len(&key, 32, "key") && check_len(&in, 16, "input")) {
        unsigned char out[32];
        hsalsa20_core(out, key.buf, in.buf);
        result = PyBytes_FromStringAndSize((const char *)out, 32);
    }
    PyBuffer_Release(&key);
    PyBuffer_Release(&in);
    return result;
}

static PyObject *
xsalsa20_xor(PyObject *self, PyObject *args)
{
    Py_buffer key, nonce, data;
    PyObject *result = NULL;

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
    {"hsalsa20", hsalsa20, METH_VARARGS,
     "hsalsa20(key, input16) -> 32-byte HSalsa20 subkey"},
    {"xsalsa20_xor", xsalsa20_xor, METH_VARARGS,
     "xsalsa20_xor(key, nonce, data) -> data XOR the XSalsa20 keystream"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_chainhash", NULL, -1, methods,
};

PyMODINIT_FUNC
PyInit__chainhash(void)
{
    return PyModule_Create(&module);
}
