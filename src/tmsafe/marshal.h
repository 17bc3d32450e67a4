/**
 * @file
 * Stack-marshaling helpers: the paper's Figure 7 pattern.
 *
 * GCC's TM does not instrument accesses to the stack or to captured
 * memory. The paper exploits that to call unsafe library functions from
 * transactions: shared data is copied ("marshaled") into an on-stack
 * buffer with instrumented reads, the library function — wrapped as
 * transaction_pure — runs on the private copy, and results are
 * marshaled back with instrumented writes.
 *
 * The paper is explicit that this technique is *not* generally safe
 * (buffered-update STMs, libraries that grow side effects, buffer-size
 * guesses, multi-call atomicity). We reproduce it faithfully, cap and
 * all: kMaxMarshalOut is the "generous ... 8KB for the output" buffer
 * the authors used at the one call site whose bound they could not
 * derive. The inbound half is each clone's own bounded instrumented
 * read onto its stack (tm_convert.cc, tm_string.cc).
 */

#ifndef TMEMC_TMSAFE_MARSHAL_H
#define TMEMC_TMSAFE_MARSHAL_H

#include <cstddef>

#include "common/logging.h"
#include "tm/api.h"

namespace tmemc::tmsafe
{

/** Cap on marshaled output buffers (paper: "8KB for the output"). */
constexpr std::size_t kMaxMarshalOut = 8192;

/**
 * Marshal @p n bytes of a private buffer back into shared memory at
 * @p shared_dst with instrumented writes.
 */
TM_SAFE inline void
marshalOut(tm::TxDesc &d, void *shared_dst, const void *priv_src,
           std::size_t n)
{
    if (n > kMaxMarshalOut)
        panic("marshalOut: %zu bytes exceeds the %zu-byte output buffer "
              "cap", n, kMaxMarshalOut);
    tm::txStoreBytes(d, shared_dst, priv_src, n);
}

} // namespace tmemc::tmsafe

#endif // TMEMC_TMSAFE_MARSHAL_H
