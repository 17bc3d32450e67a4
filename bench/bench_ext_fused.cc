/**
 * @file
 * Extension benchmark: the paper's future-work refcount elision
 * (Section 3.3: "with transactions, it might be possible to replace
 * the modifications of the reference count with a simple read", citing
 * Dragojevic et al.).
 *
 * Compares IT-onCommit (three transactions per get, refcounts bridging
 * them) with IT-Fused (one transaction per get, no refcounts), in the
 * NoLock runtime, and reports both time and transaction counts.
 */

#include <cstdio>

#include "figure_harness.h"
#include "tm/api.h"

int
main(int argc, char **argv)
{
    using namespace tmemc;
    using namespace tmemc::bench;
    const HarnessOpts opts = parseArgs(argc, argv);

    runFigure("Extension: refcount elision via fused get transactions",
              {
                  {"IT-onCommit", "IT-onCommit", noLockRuntime()},
                  {"IT-Fused", "IT-Fused", noLockRuntime()},
              },
              opts);

    // Transaction-count comparison at 4 threads.
    for (const char *branch : {"IT-onCommit", "IT-Fused"}) {
        runWorkload({branch, branch, noLockRuntime()}, 4, opts);
        const auto snap = tm::Runtime::get().snapshot();
        std::printf("%-12s: %llu transactions for %llu ops "
                    "(%.2f txns/op), %llu aborts\n",
                    branch,
                    static_cast<unsigned long long>(snap.total.txns),
                    static_cast<unsigned long long>(4 *
                                                    opts.opsPerThread),
                    static_cast<double>(snap.total.txns) /
                        static_cast<double>(4 * opts.opsPerThread),
                    static_cast<unsigned long long>(snap.total.aborts));
    }
    return 0;
}
