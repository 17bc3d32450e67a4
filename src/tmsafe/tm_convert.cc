/**
 * @file
 * Marshaling-based strtoull.
 */

#include "tmsafe/tm_convert.h"

#include <cstdlib>

namespace tmemc::tmsafe
{

namespace
{

/** Stack bound for marshaled numeric strings. */
constexpr std::size_t kNumBuf = 128;

/**
 * Marshal up to @p max_len bytes of @p nptr onto the stack,
 * NUL-terminated. Stops early at the string's own NUL: the transaction
 * must not read shared bytes past the terminator, both for correctness
 * (they may be unmapped) and to keep the read set minimal.
 */
std::size_t
marshalString(tm::TxDesc &d, char *buf, const char *nptr,
              std::size_t max_len)
{
    if (max_len > kNumBuf - 1)
        max_len = kNumBuf - 1;
    std::size_t i = 0;
    for (; i < max_len; ++i) {
        buf[i] = tm::txLoad(d, nptr + i);
        if (buf[i] == '\0')
            return i;
    }
    buf[i] = '\0';
    return i;
}

/**
 * The [[transaction_pure]] wrapper around the libc function (paper
 * Figure 7: "wrap library function foo inside a pure function"). It
 * receives only private parameters.
 */
unsigned long long
pure_strtoull(const char *in, char **endp, int base)
{
    return std::strtoull(in, endp, base);
}

} // namespace

unsigned long long
tm_strtoull(tm::TxDesc &d, const char *nptr, std::size_t max_len,
            std::size_t *consumed, int base)
{
    char buf[kNumBuf];
    marshalString(d, buf, nptr, max_len);
    char *end = buf;
    const unsigned long long v = pure_strtoull(buf, &end, base);
    if (consumed != nullptr)
        *consumed = static_cast<std::size_t>(end - buf);
    return v;
}

} // namespace tmemc::tmsafe
