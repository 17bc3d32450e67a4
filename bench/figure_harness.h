/**
 * @file
 * Shared driver for the figure/table reproduction binaries.
 *
 * Each paper figure is a set of (label, cache branch, TM runtime
 * config) series swept over worker-thread counts; each paper table is
 * the serialization profile of a set of branches at 4 threads. This
 * harness runs those sweeps with the memslap-like workload and prints
 * rows shaped like the paper's.
 *
 * The paper's parameters were --execute-number=625000 per thread with
 * 5 trials on a 12-core Xeon 5650; the defaults here are scaled down
 * (--ops to override) so a full figure regenerates in minutes on a
 * small container. Time-per-fixed-work is reported exactly as in the
 * figures: perfect scaling is a flat line across thread counts.
 */

#ifndef TMEMC_BENCH_FIGURE_HARNESS_H
#define TMEMC_BENCH_FIGURE_HARNESS_H

#include <string>
#include <vector>

#include "mc/cache_iface.h"
#include "tm/attr.h"
#include "workload/memslap.h"

namespace tmemc::bench
{

/** One curve in a figure. */
struct SeriesSpec
{
    std::string label;        //!< Legend label ("IP-Callable", ...).
    std::string cacheBranch;  //!< Branch name for makeShardedCache().
    tm::RuntimeCfg runtime;   //!< TM runtime configuration.
};

/** Harness options (from the command line). */
struct HarnessOpts
{
    std::vector<std::uint32_t> threads{1, 2, 4, 8, 12};
    std::uint64_t opsPerThread = 20000;
    std::uint32_t trials = 3;
    std::uint64_t windowSize = 10000;
    std::size_t valueSize = 100;
    double setFraction = 0.1;
    bool emitCsv = false;
    /** Cache shard count (1 = the unsharded cache, as in the paper). */
    std::uint32_t shards = 1;
    /** --json OUT: write every measured row as tmemc-bench-v1 JSON. */
    std::string jsonPath;
    /** Row label for the JSON output; parseArgs derives it from the
     *  binary name ("bench_fig4"). */
    std::string benchName;
};

/** Measured cell: mean and standard deviation over trials. */
struct Cell
{
    double meanSeconds = 0.0;
    double stddevSeconds = 0.0;
    double opsPerSec = 0.0;
    /** Best (minimum) trial time and the throughput it implies. The
     *  JSON rows the perf gate diffs use these: for a fixed-work
     *  bench, background load only ever *adds* time, so best-of-K is
     *  the noise-robust estimate of the machine's capability. */
    double bestSeconds = 0.0;
    double bestOpsPerSec = 0.0;
    /** Tail and TM shape of the final trial (obs::MetricsRegistry). */
    double p99Us = 0.0;
    double abortsPerCommit = 0.0;
    double serialPct = 0.0;
};

/**
 * One machine-readable benchmark row. results/baseline.json and the
 * CI perf gate (scripts/perf_gate.py) consume files of these; rows
 * are keyed by (bench, branch, threads, shards).
 */
struct BenchRow
{
    std::string bench;
    std::string branch;
    std::uint32_t threads = 0;
    std::uint32_t shards = 1;
    double secs = 0.0;
    double opsPerSec = 0.0;
    double p99Us = 0.0;
    double abortsPerCommit = 0.0;
    double serialPct = 0.0;
};

/** Queue a row for writeBenchJson (process-global accumulator). */
void addBenchRow(const BenchRow &row);

/** Write every queued row to @p path as one tmemc-bench-v1 document.
 *  @return false on I/O failure. */
bool writeBenchJson(const std::string &path);

/** Parse --ops/--trials/--threads/--value/--csv/--set-fraction/
 *  --shards/--json. */
HarnessOpts parseArgs(int argc, char **argv);

/**
 * One in-process memslap run of @p spec at @p threads: configure the
 * runtime, build a fresh cache (opts.shards shards), run the driver
 * (which opens the TM-stats and histogram window at its warm→measure
 * edge) with seed + @p trial, and join the cache so the caller's
 * snapshot includes the maintenance threads' transactions.
 */
workload::MemslapResult runWorkload(const SeriesSpec &spec,
                                    std::uint32_t threads,
                                    const HarnessOpts &opts,
                                    std::uint32_t trial = 0);

/** Run one (series, threads) cell: trials x (fresh cache + workload). */
Cell runCell(const SeriesSpec &spec, std::uint32_t threads,
             const HarnessOpts &opts);

/**
 * Run and print a full figure: one row per thread count, one column
 * per series, each cell "seconds (+/- sd)".
 */
void runFigure(const std::string &title,
               const std::vector<SeriesSpec> &series,
               const HarnessOpts &opts);

/**
 * Run and print a serialization table (paper Tables 1-4): each branch
 * at 4 worker threads, columns Transactions / In-Flight Switch /
 * Start Serial / Abort Serial.
 */
void runSerializationTable(const std::string &title,
                           const std::vector<SeriesSpec> &series,
                           const HarnessOpts &opts);

/** Default runtime config (GCC: eager algo, serialize-after-100). */
tm::RuntimeCfg gccDefaultRuntime();

/** NoLock runtime (Figure 10): no serial lock, no CM. */
tm::RuntimeCfg noLockRuntime();

/** Spec helpers for the standard branch ladder. */
SeriesSpec branchSeries(const std::string &branch);

} // namespace tmemc::bench

#endif // TMEMC_BENCH_FIGURE_HARNESS_H
