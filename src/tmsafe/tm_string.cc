/**
 * @file
 * Implementations of the transaction-safe string/memory functions and
 * their shared-source non-transactional clones.
 *
 * The transactional variants move data in word-sized chunks through
 * txLoadBytes/txStoreBytes, which is precisely the "byte-by-byte stores
 * in memcpy ... read later as words" pattern the paper identifies as a
 * stress case for buffered-update STMs.
 */

#include "tmsafe/tm_string.h"

#include <cstring>

namespace tmemc::tmsafe
{

namespace
{

/** Chunk size for staging shared data through a private buffer. */
constexpr std::size_t kChunk = 64;

} // namespace

// ----------------------------------------------------------------------
// Transactional clones
// ----------------------------------------------------------------------

void *
tm_memcpy(tm::TxDesc &d, void *dst, const void *src, std::size_t n)
{
    auto *out = static_cast<char *>(dst);
    const auto *in = static_cast<const char *>(src);
    char buf[kChunk];
    while (n > 0) {
        const std::size_t len = n < kChunk ? n : kChunk;
        tm::txLoadBytes(d, buf, in, len);
        tm::txStoreBytes(d, out, buf, len);
        in += len;
        out += len;
        n -= len;
    }
    return dst;
}

void *
tm_memmove(tm::TxDesc &d, void *dst, const void *src, std::size_t n)
{
    if (dst == src || n == 0)
        return dst;
    auto *out = static_cast<char *>(dst);
    const auto *in = static_cast<const char *>(src);
    if (out < in || out >= in + n)
        return tm_memcpy(d, dst, src, n);
    // Overlapping with dst above src: copy backwards chunk by chunk.
    char buf[kChunk];
    std::size_t remaining = n;
    while (remaining > 0) {
        const std::size_t len = remaining < kChunk ? remaining : kChunk;
        remaining -= len;
        tm::txLoadBytes(d, buf, in + remaining, len);
        tm::txStoreBytes(d, out + remaining, buf, len);
    }
    return dst;
}

int
tm_memcmp(tm::TxDesc &d, const void *shared, const void *priv, std::size_t n)
{
    const auto *ps = static_cast<const char *>(shared);
    const auto *pp = static_cast<const char *>(priv);
    char buf[kChunk];
    while (n > 0) {
        const std::size_t len = n < kChunk ? n : kChunk;
        tm::txLoadBytes(d, buf, ps, len);
        const int c = std::memcmp(buf, pp, len);
        if (c != 0)
            return c;
        ps += len;
        pp += len;
        n -= len;
    }
    return 0;
}

// ----------------------------------------------------------------------
// Non-transactional clones ("same source", no instrumentation, no
// vector assembly — the slowdown the specification imposes)
// ----------------------------------------------------------------------

void *
naive_memcpy(void *dst, const void *src, std::size_t n)
{
    auto *out = static_cast<char *>(dst);
    const auto *in = static_cast<const char *>(src);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = in[i];
    return dst;
}

void *
naive_memmove(void *dst, const void *src, std::size_t n)
{
    auto *out = static_cast<char *>(dst);
    const auto *in = static_cast<const char *>(src);
    if (out < in || out >= in + n) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = in[i];
    } else {
        for (std::size_t i = n; i > 0; --i)
            out[i - 1] = in[i - 1];
    }
    return dst;
}

int
naive_memcmp(const void *a, const void *b, std::size_t n)
{
    const auto *pa = static_cast<const unsigned char *>(a);
    const auto *pb = static_cast<const unsigned char *>(b);
    for (std::size_t i = 0; i < n; ++i) {
        if (pa[i] != pb[i])
            return pa[i] < pb[i] ? -1 : 1;
    }
    return 0;
}

} // namespace tmemc::tmsafe
