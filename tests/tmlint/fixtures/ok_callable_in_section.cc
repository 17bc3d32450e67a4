/**
 * @file
 * tmlint fixture (negative): TM_CALLABLE callees invoked from a
 * branch-policy section body. Section kind is a runtime property
 * (the site's TxnAttr for the branch config says atomic or relaxed), so
 * tmlint treats the body conservatively but admits callable callees —
 * exactly how cache.h drives slabsAlloc/assocInsert.
 */

#include "mc/slabs.h"
#include "mc/sync_tm.h"

namespace
{

// tmlint-expect: none

template <typename Policy>
void *
carve(Policy &policy, tmemc::mc::SlabState &slabs, std::uint32_t cls)
{
    return policy.slabsSection(tmemc::mc::sites::alloc, [&](auto &c) {
        return tmemc::mc::slabsAlloc(c, slabs, cls);
    });
}

} // namespace
