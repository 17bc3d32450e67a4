/**
 * @file
 * MetricsRegistry: every counter and latency distribution in the
 * process behind one snapshot API, rendered three ways — ASCII
 * `stats latency` / `stats tm` rows for memcached-style clients, a
 * JSON document for machines (the CI perf gate diffs it), and the
 * `metrics` admin command over TCP.
 *
 * Layering: this library depends only on src/common. Subsystems that
 * own counters (the TM runtime's ThreadStats, the net layer's
 * NetCounters, a cache's slab/LRU/assoc stats) register a *source* —
 * a closure returning name/value pairs — rather than this registry
 * knowing their types. Histograms are the opposite: a fixed, enum-
 * indexed set owned here, so the hot paths that record into them
 * (net/conn.cc per command, mc/branch.cc per cache op,
 * tm/runtime.cc per transaction) reach them with one array index and
 * no hashing.
 */

#ifndef TMEMC_OBS_METRICS_H
#define TMEMC_OBS_METRICS_H

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/hist.h"

namespace tmemc::obs
{

/** The process's latency histograms, by instrumentation layer. */
enum class HistKind : unsigned
{
    Command,     //!< One wire request, framed to reply (net/conn.cc).
    CacheOp,     //!< One cache operation on a handle of >= 2 shards
                 //!< (mc/branch.cc); single-shard handles read no
                 //!< clock per op.
    Tx,          //!< One top-level transaction, begin to commit.
    TxSerial,    //!< Serial-mode portion of serialized transactions.
    TxAttempts,  //!< Attempts per committed transaction. Recorded as
                 //!< attempts*1000 so the microsecond-named quantile
                 //!< fields read directly as attempt counts.
};

constexpr unsigned kHistKinds = 5;

/** Wire names for the histograms (JSON keys / STAT row prefixes). */
const char *histKindName(HistKind k);

/** One named counter contributed by a source. */
struct Counter
{
    std::string name;
    std::uint64_t value;
};

/** A counter source: snapshots a subsystem's counters on demand. */
using SourceFn = std::function<std::vector<Counter>()>;

/** Everything the registry knows at one instant. */
struct MetricsSnapshot
{
    /** Counters, source-prefixed ("tm_commits", "net_curr_conns"). */
    std::vector<Counter> counters;
    /** One summary per HistKind, indexed by the enum. */
    HistSummary hists[kHistKinds];

    /** Render as one JSON document (schema in docs/architecture.md §8). */
    std::string toJson() const;
    /** STAT rows for the ASCII `stats latency` reply. */
    std::string asciiLatencyRows() const;
    /** STAT rows for the ASCII `stats tm` reply. */
    std::string asciiTmRows() const;
    /** STAT rows for the ASCII `stats cluster` reply: every counter a
     *  net::Cluster living in this process registered ("cluster_"
     *  prefix); empty when the process hosts no cluster client. */
    std::string asciiClusterRows() const;
};

/** Process-wide metrics aggregation point. */
class MetricsRegistry
{
  public:
    static MetricsRegistry &get();

    /** The histogram for @p k (valid for the process lifetime). */
    Histogram &histogram(HistKind k) { return hists_[unsigned(k)]; }

    /**
     * Register a counter source under @p prefix; every counter it
     * returns is exposed as "<prefix>_<name>". The callback runs with
     * the registry lock held (so unregisterSource is a barrier) and
     * therefore must not call back into the registry; taking its own
     * subsystem's locks is fine. @return a token for unregisterSource
     * (sources whose subsystem outlives the process, like the TM
     * runtime, never bother).
     */
    std::uint64_t registerSource(std::string prefix, SourceFn fn);
    /** Remove a source. On return the callback is guaranteed to not
     *  be running and will never run again. */
    void unregisterSource(std::uint64_t token);

    /** Snapshot every source and histogram. */
    MetricsSnapshot snapshot() const;

    /** Zero the histograms (between benchmark phases). */
    void resetHistograms();

    /** snapshot().toJson() written to @p path; false on I/O error. */
    bool writeJsonFile(const std::string &path) const;

  private:
    MetricsRegistry() = default;

    struct Source
    {
        std::uint64_t token;
        std::string prefix;
        SourceFn fn;
    };

    mutable std::mutex mu_;
    std::vector<Source> sources_;
    std::uint64_t nextToken_ = 1;
    Histogram hists_[kHistKinds];
};

/** Shorthand for the hot paths: obs::hist(HistKind::Tx).record(ns). */
inline Histogram &
hist(HistKind k)
{
    return MetricsRegistry::get().histogram(k);
}

} // namespace tmemc::obs

#endif // TMEMC_OBS_METRICS_H
