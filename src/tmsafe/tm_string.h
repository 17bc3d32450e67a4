/**
 * @file
 * Transaction-safe reimplementations of the untyped-memory and string
 * functions the paper lists in Section 3.4: memcmp, memcpy (and
 * memmove), strlen, strncmp, strncpy, and strchr.
 *
 * Per the Draft C++ TM Specification, the transactional and
 * non-transactional clones of a safe function must come from the same
 * source; the paper notes this forced them to "slow down the
 * non-transactional code path by replacing calls to optimized standard
 * library functions with calls to our naive implementations". The
 * naive_* functions below are those shared-source non-transactional
 * clones: same algorithm, no instrumentation, no vectorized assembly.
 */

#ifndef TMEMC_TMSAFE_TM_STRING_H
#define TMEMC_TMSAFE_TM_STRING_H

#include <cstddef>

#include "tm/api.h"

namespace tmemc::tmsafe
{

// ----------------------------------------------------------------------
// Transactional clones (instrumented; require an active transaction)
// ----------------------------------------------------------------------

/** Transaction-safe memcpy. @return dst. */
TM_SAFE void *tm_memcpy(tm::TxDesc &d, void *dst, const void *src, std::size_t n);

/** Transaction-safe memmove (overlap-tolerant). @return dst. */
TM_SAFE void *tm_memmove(tm::TxDesc &d, void *dst, const void *src, std::size_t n);

/**
 * Transaction-safe memcmp of shared bytes against the caller's private
 * buffer (a lookup key): only @p shared is read transactionally.
 * Transactional loads are word-granular, so loading a short private
 * key that way would read the bytes around it, past the end of a
 * string literal for one; the private side needs no instrumentation.
 */
TM_SAFE int tm_memcmp(tm::TxDesc &d, const void *shared, const void *priv,
                      std::size_t n);

/** Transaction-safe memset. @return dst. */
TM_SAFE void *tm_memset(tm::TxDesc &d, void *dst, int c, std::size_t n);

/** Transaction-safe strlen. */
TM_SAFE std::size_t tm_strlen(tm::TxDesc &d, const char *s);

/** Transaction-safe strncmp. */
TM_SAFE int tm_strncmp(tm::TxDesc &d, const char *a, const char *b, std::size_t n);

/** Transaction-safe strncpy (pads with NULs like the libc one). */
TM_SAFE char *tm_strncpy(tm::TxDesc &d, char *dst, const char *src, std::size_t n);

/** Transaction-safe strchr. @return pointer into the shared string. */
TM_SAFE const char *tm_strchr(tm::TxDesc &d, const char *s, int c);

// ----------------------------------------------------------------------
// Non-transactional clones generated "from the same source"
// ----------------------------------------------------------------------

TM_UNSAFE void *naive_memcpy(void *dst, const void *src, std::size_t n);
TM_UNSAFE void *naive_memmove(void *dst, const void *src, std::size_t n);
TM_UNSAFE int naive_memcmp(const void *a, const void *b, std::size_t n);
TM_UNSAFE void *naive_memset(void *dst, int c, std::size_t n);
TM_UNSAFE std::size_t naive_strlen(const char *s);
TM_UNSAFE int naive_strncmp(const char *a, const char *b, std::size_t n);
TM_UNSAFE char *naive_strncpy(char *dst, const char *src, std::size_t n);
TM_UNSAFE const char *naive_strchr(const char *s, int c);

} // namespace tmemc::tmsafe

#endif // TMEMC_TMSAFE_TM_STRING_H
