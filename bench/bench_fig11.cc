/**
 * @file
 * Figure 11: comparison of TM algorithms and contention managers on
 * the best branch (IP-onCommit, "GCC-NoCM" in the paper once the
 * readers/writer lock is gone).
 *
 * Series: GCC-NoCM (eager, no lock, no CM), NOrec and Lazy (also no
 * CM), GCC-Hourglass (toxic-transaction throttling at 128 consecutive
 * aborts), and GCC-Backoff.
 *
 * The paper's commentary quantified abort rates at 12 threads (NOrec
 * ~1 abort per 5 commits, Lazy ~14 per commit, GCC ~12.6 per commit)
 * and noted that the cross-thread variance of the abort rate was an
 * order of magnitude lower for GCC than Lazy; this binary prints the
 * same statistics after the sweep.
 */

#include <cmath>
#include <cstdio>

#include "figure_harness.h"
#include "tm/api.h"

namespace
{

using namespace tmemc;
using namespace tmemc::bench;

tm::RuntimeCfg
algoRuntime(tm::AlgoKind algo, tm::CmKind cm)
{
    tm::RuntimeCfg cfg;
    cfg.algo = algo;
    cfg.cm = cm;
    cfg.useSerialLock = false;
    return cfg;
}

/** Run one series at a thread count and print its abort statistics. */
void
abortReport(const SeriesSpec &spec, std::uint32_t threads,
            const HarnessOpts &opts)
{
    runWorkload(spec, threads, opts);
    const auto snap = tm::Runtime::get().snapshot();
    const double aborts = static_cast<double>(snap.total.aborts);
    const double commits = static_cast<double>(snap.total.commits);

    // Cross-thread abort-rate variance (Figure 11 commentary).
    std::vector<double> rates;
    for (std::size_t i = 0; i < snap.abortsPerThread.size(); ++i) {
        if (snap.commitsPerThread[i] > 0) {
            rates.push_back(
                static_cast<double>(snap.abortsPerThread[i]) /
                static_cast<double>(snap.commitsPerThread[i]));
        }
    }
    double mean = 0.0;
    for (double r : rates)
        mean += r;
    mean /= rates.empty() ? 1.0 : static_cast<double>(rates.size());
    double var = 0.0;
    for (double r : rates)
        var += (r - mean) * (r - mean);
    var /= rates.size() > 1 ? static_cast<double>(rates.size() - 1) : 1.0;

    std::printf("%-14s commits=%-10llu aborts=%-10llu "
                "aborts/commit=%-8.3f thread-rate-stddev=%.4f\n",
                spec.label.c_str(),
                static_cast<unsigned long long>(snap.total.commits),
                static_cast<unsigned long long>(snap.total.aborts),
                commits > 0 ? aborts / commits : 0.0, std::sqrt(var));
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tmemc::bench;
    const HarnessOpts opts = parseArgs(argc, argv);

    const std::vector<SeriesSpec> series = {
        branchSeries("Baseline"),
        {"GCC-NoCM", "IP-onCommit",
         algoRuntime(tm::AlgoKind::GccEager, tm::CmKind::NoCM)},
        {"NOrec", "IP-onCommit",
         algoRuntime(tm::AlgoKind::NOrec, tm::CmKind::NoCM)},
        {"Lazy", "IP-onCommit",
         algoRuntime(tm::AlgoKind::Lazy, tm::CmKind::NoCM)},
        {"GCC-Hourglass", "IP-onCommit",
         algoRuntime(tm::AlgoKind::GccEager, tm::CmKind::Hourglass)},
        {"GCC-Backoff", "IP-onCommit",
         algoRuntime(tm::AlgoKind::GccEager, tm::CmKind::Backoff)},
    };

    runFigure("Figure 11: TM algorithms and contention managers", series,
              opts);

    // Abort-rate commentary at the highest thread count in the sweep.
    const std::uint32_t max_threads = opts.threads.back();
    std::printf("== abort statistics at %u worker threads ==\n",
                max_threads);
    for (const auto &s : series) {
        if (s.label == "Baseline")
            continue;  // No transactions to report.
        abortReport(s, max_threads, opts);
    }
    return 0;
}
