/**
 * @file
 * Transaction-safe numeric conversion: strtoull, the one of the
 * paper's marshaled conversions (Section 3.4, "Safety via Marshaling")
 * the cache calls, for incr/decr on a stored value.
 *
 * It follows the paper's recipe exactly: the input string is
 * marshaled from shared memory onto the stack, a transaction_pure
 * wrapper around the libc function runs on the private copy, and the
 * scalar result is returned with no out-marshaling.
 *
 * Because marshaling needs a bound, the caller passes the maximum
 * number of meaningful bytes (max_len); the marshaled copy is
 * NUL-terminated at that bound. memcached call sites always know a
 * bound (key lengths, fixed-width value buffers).
 */

#ifndef TMEMC_TMSAFE_TM_CONVERT_H
#define TMEMC_TMSAFE_TM_CONVERT_H

#include <cstddef>

#include "tm/api.h"

namespace tmemc::tmsafe
{

/**
 * Transaction-safe strtoull via marshaling.
 * @param d        Enclosing transaction.
 * @param nptr     Shared string to parse.
 * @param max_len  Upper bound on the string's meaningful length.
 * @param consumed If non-null, receives the number of bytes parsed
 *                 (the marshaling analogue of libc's endptr, which
 *                 cannot point into the private copy).
 * @param base     Numeric base, as for libc strtoull.
 */
TM_SAFE unsigned long long tm_strtoull(tm::TxDesc &d, const char *nptr,
                               std::size_t max_len, std::size_t *consumed,
                               int base);

} // namespace tmemc::tmsafe

#endif // TMEMC_TMSAFE_TM_CONVERT_H
