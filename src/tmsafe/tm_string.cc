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

void *
tm_memset(tm::TxDesc &d, void *dst, int c, std::size_t n)
{
    char buf[kChunk];
    std::memset(buf, c, n < kChunk ? n : kChunk);
    auto *out = static_cast<char *>(dst);
    while (n > 0) {
        const std::size_t len = n < kChunk ? n : kChunk;
        tm::txStoreBytes(d, out, buf, len);
        out += len;
        n -= len;
    }
    return dst;
}

std::size_t
tm_strlen(tm::TxDesc &d, const char *s)
{
    std::size_t len = 0;
    for (;;) {
        const char c = tm::txLoad(d, s + len);
        if (c == '\0')
            return len;
        ++len;
    }
}

int
tm_strncmp(tm::TxDesc &d, const char *a, const char *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const unsigned char ca = tm::txLoad(d, a + i);
        const unsigned char cb = tm::txLoad(d, b + i);
        if (ca != cb)
            return ca < cb ? -1 : 1;
        if (ca == '\0')
            return 0;
    }
    return 0;
}

char *
tm_strncpy(tm::TxDesc &d, char *dst, const char *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i < n; ++i) {
        const char c = tm::txLoad(d, src + i);
        tm::txStore(d, dst + i, c);
        if (c == '\0')
            break;
    }
    for (++i; i < n; ++i)
        tm::txStore(d, dst + i, '\0');
    return dst;
}

const char *
tm_strchr(tm::TxDesc &d, const char *s, int c)
{
    const char target = static_cast<char>(c);
    for (std::size_t i = 0;; ++i) {
        const char cur = tm::txLoad(d, s + i);
        if (cur == target)
            return s + i;
        if (cur == '\0')
            return nullptr;
    }
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

void *
naive_memset(void *dst, int c, std::size_t n)
{
    auto *out = static_cast<unsigned char *>(dst);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<unsigned char>(c);
    return dst;
}

std::size_t
naive_strlen(const char *s)
{
    std::size_t len = 0;
    while (s[len] != '\0')
        ++len;
    return len;
}

int
naive_strncmp(const char *a, const char *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const auto ca = static_cast<unsigned char>(a[i]);
        const auto cb = static_cast<unsigned char>(b[i]);
        if (ca != cb)
            return ca < cb ? -1 : 1;
        if (ca == '\0')
            return 0;
    }
    return 0;
}

char *
naive_strncpy(char *dst, const char *src, std::size_t n)
{
    std::size_t i = 0;
    for (; i < n && src[i] != '\0'; ++i)
        dst[i] = src[i];
    for (; i < n; ++i)
        dst[i] = '\0';
    return dst;
}

const char *
naive_strchr(const char *s, int c)
{
    const char target = static_cast<char>(c);
    for (std::size_t i = 0;; ++i) {
        if (s[i] == target)
            return s + i;
        if (s[i] == '\0')
            return nullptr;
    }
}

} // namespace tmemc::tmsafe
