/**
 * @file
 * Transaction-safe reimplementations of the untyped-memory functions
 * the paper lists in Section 3.4 that the cache calls: memcmp, memcpy
 * and memmove.
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

// ----------------------------------------------------------------------
// Non-transactional clones generated "from the same source"
// ----------------------------------------------------------------------

TM_UNSAFE void *naive_memcpy(void *dst, const void *src, std::size_t n);
TM_UNSAFE void *naive_memmove(void *dst, const void *src, std::size_t n);
TM_UNSAFE int naive_memcmp(const void *a, const void *b, std::size_t n);

} // namespace tmemc::tmsafe

#endif // TMEMC_TMSAFE_TM_STRING_H
