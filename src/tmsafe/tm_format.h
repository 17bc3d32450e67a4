/**
 * @file
 * Transaction-safe formatting: snprintf clones.
 *
 * GCC did not support variable arguments in transaction-safe functions,
 * so the paper "manually clone[d] and replace[d] every variable-argument
 * function with a unique version for every combination of parameters
 * that appeared in the program". These are those clones for the
 * signatures the cache needs: rendering an unsigned counter (incr/decr
 * results) and a key-value stats line.
 *
 * Each clone formats into a stack buffer with a pure snprintf wrapper
 * and marshals the result into the shared destination (paper Figure 7:
 * "snprintf required all its parameters to be marshaled onto the stack,
 * and its output parameter to be marshaled back to shared memory").
 */

#ifndef TMEMC_TMSAFE_TM_FORMAT_H
#define TMEMC_TMSAFE_TM_FORMAT_H

#include <cstddef>

#include "tm/api.h"

namespace tmemc::tmsafe
{

/**
 * snprintf clone for "%llu" (numeric item values).
 * @return Number of characters that would have been written (libc
 *         snprintf contract).
 */
TM_SAFE int tm_snprintf_ull(tm::TxDesc &d, char *dst, std::size_t n,
                    unsigned long long v);

/**
 * snprintf clone for the "STAT <name> <value>\r\n" stats-line shape.
 * @p name must be private memory (a literal); the value is a scalar.
 */
TM_SAFE int tm_snprintf_stat(tm::TxDesc &d, char *dst, std::size_t n,
                     const char *name, unsigned long long v);

} // namespace tmemc::tmsafe

#endif // TMEMC_TMSAFE_TM_FORMAT_H
