/**
 * @file
 * Figure/table harness implementation.
 */

#include "figure_harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "obs/hist.h"
#include "obs/metrics.h"
#include "tm/api.h"

namespace tmemc::bench
{

namespace
{

/** Rows queued by addBenchRow, rewritten wholesale on each
 *  writeBenchJson (a binary may emit from several harness calls). */
std::vector<BenchRow> g_rows;

} // namespace

void
addBenchRow(const BenchRow &row)
{
    g_rows.push_back(row);
}

bool
writeBenchJson(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"schema\":\"tmemc-bench-v1\",\"rows\":[");
    for (std::size_t i = 0; i < g_rows.size(); ++i) {
        const BenchRow &r = g_rows[i];
        std::fprintf(
            f,
            "%s\n  {\"bench\":\"%s\",\"branch\":\"%s\",\"threads\":%u,"
            "\"shards\":%u,\"secs\":%.6f,\"ops_per_sec\":%.1f,"
            "\"p99_us\":%.3f,\"aborts_per_commit\":%.4f,"
            "\"serial_pct\":%.3f}",
            i == 0 ? "" : ",", r.bench.c_str(), r.branch.c_str(),
            r.threads, r.shards, r.secs, r.opsPerSec, r.p99Us,
            r.abortsPerCommit, r.serialPct);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

HarnessOpts
parseArgs(int argc, char **argv)
{
    HarnessOpts opts;
    // The row label is the binary's basename, so every harness bench
    // gains --json without touching its main().
    if (argc > 0 && argv[0] != nullptr) {
        const char *slash = std::strrchr(argv[0], '/');
        opts.benchName = slash != nullptr ? slash + 1 : argv[0];
    }
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg);
            return argv[++i];
        };
        if (std::strcmp(arg, "--ops") == 0) {
            opts.opsPerThread = std::strtoull(next(), nullptr, 10);
        } else if (std::strcmp(arg, "--trials") == 0) {
            opts.trials =
                static_cast<std::uint32_t>(std::strtoul(next(), nullptr,
                                                        10));
        } else if (std::strcmp(arg, "--threads") == 0) {
            opts.threads.clear();
            const char *list = next();
            for (const char *p = list; *p != '\0';) {
                opts.threads.push_back(
                    static_cast<std::uint32_t>(std::strtoul(p, nullptr,
                                                            10)));
                while (*p != '\0' && *p != ',')
                    ++p;
                if (*p == ',')
                    ++p;
            }
        } else if (std::strcmp(arg, "--window") == 0) {
            opts.windowSize = std::strtoull(next(), nullptr, 10);
        } else if (std::strcmp(arg, "--value") == 0) {
            opts.valueSize = std::strtoull(next(), nullptr, 10);
        } else if (std::strcmp(arg, "--set-fraction") == 0) {
            opts.setFraction = std::strtod(next(), nullptr);
        } else if (std::strcmp(arg, "--shards") == 0) {
            opts.shards =
                static_cast<std::uint32_t>(std::strtoul(next(), nullptr,
                                                        10));
        } else if (std::strcmp(arg, "--json") == 0) {
            opts.jsonPath = next();
        } else if (std::strcmp(arg, "--csv") == 0) {
            opts.emitCsv = true;
        } else if (std::strcmp(arg, "--quick") == 0) {
            opts.opsPerThread = 5000;
            opts.trials = 1;
            opts.windowSize = 2000;
        } else if (std::strcmp(arg, "--help") == 0) {
            std::printf(
                "options: --ops N --trials K --threads a,b,c --window W\n"
                "         --value BYTES --set-fraction F --shards N\n"
                "         --csv --json OUT --quick\n"
                "paper parameters: --ops 625000 --trials 5 "
                "--threads 1,2,4,8,12\n");
            std::exit(0);
        } else {
            fatal("unknown option '%s' (try --help)", arg);
        }
    }
    return opts;
}

tm::RuntimeCfg
gccDefaultRuntime()
{
    return tm::RuntimeCfg{};
}

tm::RuntimeCfg
noLockRuntime()
{
    tm::RuntimeCfg cfg;
    cfg.useSerialLock = false;
    cfg.cm = tm::CmKind::NoCM;
    return cfg;
}

SeriesSpec
branchSeries(const std::string &branch)
{
    // IT-RA carries its own runtime (the RA algorithm); every other
    // branch runs the GCC-default configuration.
    return SeriesSpec{branch, branch, mc::runtimeCfgFor(branch)};
}

workload::MemslapResult
runWorkload(const SeriesSpec &spec, std::uint32_t threads,
            const HarnessOpts &opts, std::uint32_t trial)
{
    tm::Runtime::get().configure(spec.runtime);
    mc::Settings settings;
    settings.maxBytes = 256 * 1024 * 1024;
    auto cache = mc::makeShardedCache(spec.cacheBranch, settings, threads,
                                      opts.shards);
    if (cache == nullptr)
        fatal("unknown branch '%s'", spec.cacheBranch.c_str());

    workload::MemslapCfg w;
    w.concurrency = threads;
    w.executeNumber = opts.opsPerThread;
    w.windowSize = opts.windowSize;
    w.valueSize = opts.valueSize;
    w.setFraction = opts.setFraction;
    w.seed += trial;
    const auto result = workload::runMemslap(*cache, w);
    cache.reset();
    return result;
}

Cell
runCell(const SeriesSpec &spec, std::uint32_t threads,
        const HarnessOpts &opts)
{
    // Each run reopens the stats window, so the post-loop snapshots
    // describe exactly the final trial.
    std::vector<double> times;
    for (std::uint32_t trial = 0; trial < opts.trials; ++trial)
        times.push_back(runWorkload(spec, threads, opts, trial).seconds);
    Cell cell;
    for (double t : times)
        cell.meanSeconds += t;
    cell.meanSeconds /= static_cast<double>(times.size());
    double var = 0.0;
    for (double t : times)
        var += (t - cell.meanSeconds) * (t - cell.meanSeconds);
    cell.stddevSeconds =
        times.size() > 1
            ? std::sqrt(var / static_cast<double>(times.size() - 1))
            : 0.0;
    cell.opsPerSec =
        static_cast<double>(threads) *
        static_cast<double>(opts.opsPerThread) / cell.meanSeconds;
    cell.bestSeconds = *std::min_element(times.begin(), times.end());
    cell.bestOpsPerSec =
        static_cast<double>(threads) *
        static_cast<double>(opts.opsPerThread) / cell.bestSeconds;

    // Tail latency and TM shape of the final trial. Lock-based
    // branches run no transactions, so their p99 is 0 and the ratios
    // stay 0 — the perf gate's taxonomy check relies on exactly that.
    cell.p99Us =
        obs::hist(obs::HistKind::Tx).snapshot().summary().p99Us;
    const auto snap = tm::Runtime::get().snapshot();
    if (snap.total.commits > 0) {
        const double commits =
            static_cast<double>(snap.total.commits);
        cell.abortsPerCommit =
            static_cast<double>(snap.total.aborts) / commits;
        cell.serialPct =
            100.0 * static_cast<double>(snap.total.serialCommits) /
            commits;
    }
    return cell;
}

void
runFigure(const std::string &title, const std::vector<SeriesSpec> &series,
          const HarnessOpts &opts)
{
    std::printf("== %s ==\n", title.c_str());
    std::printf("workload: %llu ops/thread, %llu-key window/thread, "
                "%.0f%% sets, %zu-byte values, %u trial(s)\n",
                static_cast<unsigned long long>(opts.opsPerThread),
                static_cast<unsigned long long>(opts.windowSize),
                opts.setFraction * 100.0, opts.valueSize, opts.trials);
    std::printf("cells: seconds for the fixed per-thread op count "
                "(flat line across threads = perfect scaling)\n\n");

    std::printf("%-8s", "threads");
    for (const auto &s : series)
        std::printf(" %20s", s.label.c_str());
    std::printf("\n");

    std::vector<std::vector<Cell>> grid;
    for (std::uint32_t t : opts.threads) {
        grid.emplace_back();
        std::printf("%-8u", t);
        std::fflush(stdout);
        for (const auto &s : series) {
            const Cell cell = runCell(s, t, opts);
            grid.back().push_back(cell);
            if (!opts.jsonPath.empty()) {
                addBenchRow({opts.benchName, s.label, t, opts.shards,
                             cell.bestSeconds, cell.bestOpsPerSec,
                             cell.p99Us, cell.abortsPerCommit,
                             cell.serialPct});
            }
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.3f (+/-%.3f)",
                          cell.meanSeconds, cell.stddevSeconds);
            std::printf(" %20s", buf);
            std::fflush(stdout);
        }
        std::printf("\n");
    }
    if (!opts.jsonPath.empty() && !writeBenchJson(opts.jsonPath))
        fatal("cannot write %s", opts.jsonPath.c_str());

    if (opts.emitCsv) {
        std::printf("\ncsv,threads");
        for (const auto &s : series)
            std::printf(",%s", s.label.c_str());
        std::printf("\n");
        for (std::size_t r = 0; r < opts.threads.size(); ++r) {
            std::printf("csv,%u", opts.threads[r]);
            for (const Cell &c : grid[r])
                std::printf(",%.6f", c.meanSeconds);
            std::printf("\n");
        }
    }
    std::printf("\n");
}

void
runSerializationTable(const std::string &title,
                      const std::vector<SeriesSpec> &series,
                      const HarnessOpts &opts)
{
    std::printf("== %s ==\n", title.c_str());
    std::printf("4-thread execution, %llu ops/thread (paper: 625000)\n\n",
                static_cast<unsigned long long>(opts.opsPerThread));
    std::printf("%-16s %12s %18s %18s %12s\n", "Branch", "Transactions",
                "In-Flight Switch", "Start Serial", "Abort Serial");

    for (const auto &s : series) {
        const auto result = runWorkload(s, 4, opts);
        const auto snap = tm::Runtime::get().snapshot();
        std::printf("%s\n", snap.formatTableRow(s.label).c_str());
        if (!opts.jsonPath.empty()) {
            BenchRow row{opts.benchName, s.label, 4, opts.shards,
                         result.seconds,
                         result.seconds > 0.0
                             ? 4.0 *
                                   static_cast<double>(
                                       opts.opsPerThread) /
                                   result.seconds
                             : 0.0,
                         obs::hist(obs::HistKind::Tx)
                             .snapshot()
                             .summary()
                             .p99Us,
                         0.0, 0.0};
            if (snap.total.commits > 0) {
                const double commits =
                    static_cast<double>(snap.total.commits);
                row.abortsPerCommit =
                    static_cast<double>(snap.total.aborts) / commits;
                row.serialPct =
                    100.0 *
                    static_cast<double>(snap.total.serialCommits) /
                    commits;
            }
            addBenchRow(row);
        }
    }
    if (!opts.jsonPath.empty() && !writeBenchJson(opts.jsonPath))
        fatal("cannot write %s", opts.jsonPath.c_str());
    std::printf("\n");
}

} // namespace tmemc::bench
