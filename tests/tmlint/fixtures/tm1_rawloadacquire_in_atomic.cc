/**
 * @file
 * tmlint fixture: rawLoadAcquire inside a checked atomic body. The
 * acquire-flavoured escape hatch exists for the runtime's own
 * fence-free validation idiom (tm/algo_orec_common.h), waived there; in
 * application code it still bypasses versioning exactly like rawLoad,
 * so a speculative body using it must be flagged.
 */

#include "tm/api.h"
#include "tm/raw.h"

namespace
{

std::uint64_t shadow;

const tmemc::tm::TxnAttr kAttr{"fixture:tm1-raw-acquire",
                               tmemc::tm::TxnKind::Atomic, false};

std::uint64_t
peekBroken()
{
    namespace tm = tmemc::tm;
    return tm::run(kAttr, [&](tm::TxDesc &tx) {
        (void)tx;
        return tm::rawLoadAcquire(&shadow); // tmlint-expect: TM1
    });
}

} // namespace
