/**
 * @file
 * tmlint fixture: raw allocation inside an atomic body. malloc/free
 * and operator new are irrevocable — an abort would leak (or worse,
 * double-free on retry). tm::txMalloc / tm::txFree defer the
 * irrevocable half to commit/abort handlers and are TM_SAFE.
 */

#include <cstdlib>

#include "tm/api.h"

namespace
{

void *slot;

const tmemc::tm::TxnAttr kAttr{"fixture:tm3-alloc",
                               tmemc::tm::TxnKind::Atomic, false};

void
allocBroken()
{
    namespace tm = tmemc::tm;
    tm::run(kAttr, [&](tm::TxDesc &tx) {
        void *p = std::malloc(64); // tmlint-expect: TM3
        std::free(p); // tmlint-expect: TM3
        tm::txStore(tx, &slot, p);
    });
}

void
allocCorrect()
{
    namespace tm = tmemc::tm;
    tm::run(kAttr, [&](tm::TxDesc &tx) {
        void *p = tm::txMalloc(tx, 64);
        tm::txStore(tx, &slot, p);
    });
}

} // namespace
