/**
 * @file
 * snprintf clones.
 */

#include "tmsafe/tm_format.h"

#include <cstdio>

#include "tmsafe/marshal.h"

namespace tmemc::tmsafe
{

namespace
{

/** Stack bound for formatted output (within the marshal-out cap). */
constexpr std::size_t kFmtBuf = 512;

/** Pure wrappers: private parameters only (paper Figure 7). */
int
pure_snprintf_ull(char *out, std::size_t n, unsigned long long v)
{
    return std::snprintf(out, n, "%llu", v);
}

int
pure_snprintf_stat(char *out, std::size_t n, const char *name,
                   unsigned long long v)
{
    return std::snprintf(out, n, "STAT %s %llu\r\n", name, v);
}

/** Marshal the formatted private buffer to the shared destination. */
void
emit(tm::TxDesc &d, char *dst, std::size_t n, const char *buf, int len)
{
    if (len < 0)
        return;
    std::size_t copy = static_cast<std::size_t>(len) + 1;  // include NUL
    if (copy > n)
        copy = n;
    if (copy > 0) {
        marshalOut(d, dst, buf, copy);
        if (copy == n && n > 0)
            tm::txStore(d, dst + n - 1, '\0');
    }
}

} // namespace

int
tm_snprintf_ull(tm::TxDesc &d, char *dst, std::size_t n,
                unsigned long long v)
{
    char buf[kFmtBuf];
    const int len = pure_snprintf_ull(buf, sizeof(buf), v);
    emit(d, dst, n, buf, len);
    return len;
}

int
tm_snprintf_stat(tm::TxDesc &d, char *dst, std::size_t n, const char *name,
                 unsigned long long v)
{
    char buf[kFmtBuf];
    const int len = pure_snprintf_stat(buf, sizeof(buf), name, v);
    emit(d, dst, n, buf, len);
    return len;
}

} // namespace tmemc::tmsafe
