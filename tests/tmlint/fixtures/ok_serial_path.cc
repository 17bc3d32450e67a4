/**
 * @file
 * tmlint fixture (negative): an irrevocable operation *after* an
 * unsafeOp() in-flight switch in the same block. unsafeOp aborts the
 * speculative attempt and re-executes serially-irrevocably, so by the
 * time control reaches the malloc the transaction cannot abort — the
 * exact shape TmCtx uses for its branch-staged unsafe operations.
 */

#include <cstdlib>

#include "tm/api.h"

namespace
{

void *slot;

// tmlint-expect: none

// The attr arrives as a parameter (a TmPolicy::attrOf shape), so tmlint
// cannot resolve the kind and checks the body conservatively — the
// unsafeOp() switch is what licenses the allocation that follows.
void
serialAlloc(const tmemc::tm::TxnAttr &attr)
{
    namespace tm = tmemc::tm;
    tm::run(attr, [&](tm::TxDesc &tx) {
        tm::unsafeOp(tx, "fixture serial alloc");
        void *p = std::malloc(64);
        slot = p;
    });
}

} // namespace
