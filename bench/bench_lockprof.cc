/**
 * @file
 * Section 3.1's profiling step (mutrace substitute): run the
 * lock-based baseline under the workload and report per-lock
 * contention. The paper's finding to reproduce: cache_lock and
 * stats_lock are "the only locks that threads frequently failed to
 * acquire on their first attempt"; item locks are essentially never
 * contended.
 */

#include <cstdio>

#include "figure_harness.h"

int
main(int argc, char **argv)
{
    using namespace tmemc;
    using namespace tmemc::bench;
    HarnessOpts opts = parseArgs(argc, argv);

    const std::uint32_t threads =
        opts.threads.empty() ? 4 : opts.threads.back();

    tm::Runtime::get().configure(gccDefaultRuntime());
    mc::Settings settings;
    settings.maxBytes = 256 * 1024 * 1024;
    auto cache = mc::makeCache("Baseline", settings, threads);

    workload::MemslapCfg w;
    w.concurrency = threads;
    w.executeNumber = opts.opsPerThread;
    w.windowSize = opts.windowSize;
    w.valueSize = opts.valueSize;
    w.setFraction = opts.setFraction;
    const auto result = workload::runMemslap(*cache, w);

    std::printf("== lock-contention profile (mutrace substitute) ==\n");
    std::printf("Baseline branch, %u worker threads, %llu ops/thread "
                "(%.2f s)\n\n",
                threads,
                static_cast<unsigned long long>(opts.opsPerThread),
                result.seconds);
    std::printf("%-24s %14s %14s %10s\n", "lock", "acquisitions",
                "contended", "rate");
    for (const auto &row : cache->lockProfile()) {
        std::printf("%-24s %14llu %14llu %9.3f%%\n", row.name.c_str(),
                    static_cast<unsigned long long>(row.acquisitions),
                    static_cast<unsigned long long>(row.contended),
                    row.contentionRate() * 100.0);
    }
    std::printf("\npaper finding: cache_lock and stats_lock are the "
                "contended locks;\nitem locks are never contended.\n");
    if (!opts.jsonPath.empty()) {
        addBenchRow({opts.benchName, "Baseline", threads, 1,
                     result.seconds, result.opsPerSecond(), 0.0, 0.0,
                     0.0});
        if (!writeBenchJson(opts.jsonPath)) {
            std::fprintf(stderr, "cannot write %s\n",
                         opts.jsonPath.c_str());
            return 1;
        }
    }
    return 0;
}
