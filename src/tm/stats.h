/**
 * @file
 * Transaction statistics, including the serialization-cause taxonomy
 * the paper reports in Tables 1-4.
 *
 * Counters are kept per thread (single writer, no sharing on the hot
 * path) and aggregated on demand. In addition to global counters we
 * keep a per-site profile keyed by TxnAttr; this stands in for the
 * execinfo-based profiling extension the authors added to GCC's TM
 * ("Expect Limited Tool Support", Section 6).
 */

#ifndef TMEMC_TM_STATS_H
#define TMEMC_TM_STATS_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "tm/attr.h"

namespace tmemc::tm
{

/** Counter block; one per thread and one per (thread, site). */
struct StatBlock
{
    std::uint64_t txns = 0;            //!< Top-level transactions begun.
    std::uint64_t commits = 0;         //!< Top-level commits.
    std::uint64_t aborts = 0;          //!< Rollbacks (all causes).
    std::uint64_t startSerial = 0;     //!< Began in serial mode.
    std::uint64_t inflightSwitch = 0;  //!< Switched to serial mid-flight.
    std::uint64_t abortSerial = 0;     //!< Serialized for progress by CM.
    std::uint64_t serialCommits = 0;   //!< Commits that ran serial.
    std::uint64_t readOnlyCommits = 0; //!< Commits with empty write set.
    std::uint64_t roFastCommits = 0;   //!< Invisible-reader fast commits.
    std::uint64_t roPromotions = 0;    //!< Fast-path attempts promoted.
    std::uint64_t retries = 0;         //!< tm::retry() waits.

    /** Accumulate another block into this one. */
    void add(const StatBlock &o);
};

/** The StatBlock counters, in `stats tm` row order. */
enum class Stat : std::uint8_t
{
    Txns,
    Commits,
    Aborts,
    Retries,
    StartSerial,
    InflightSwitch,
    AbortSerial,
    SerialCommits,
    ReadOnlyCommits,
    RoFastCommits,
    RoPromotions,
};

constexpr std::size_t kStatCount = 11;

/** StatBlock field for each Stat, with its metrics name ("tm_"
 *  prefixed in `stats tm` and the metrics JSON). */
struct StatField
{
    const char *name;
    std::uint64_t StatBlock::*field;
};

inline constexpr StatField kStatFields[kStatCount] = {
    {"txns", &StatBlock::txns},
    {"commits", &StatBlock::commits},
    {"aborts", &StatBlock::aborts},
    {"retries", &StatBlock::retries},
    {"start_serial", &StatBlock::startSerial},
    {"inflight_switch", &StatBlock::inflightSwitch},
    {"abort_serial", &StatBlock::abortSerial},
    {"serial_commits", &StatBlock::serialCommits},
    {"readonly_commits", &StatBlock::readOnlyCommits},
    {"rofast_commits", &StatBlock::roFastCommits},
    {"rofast_promotions", &StatBlock::roPromotions},
};

inline void
StatBlock::add(const StatBlock &o)
{
    for (const StatField &f : kStatFields)
        this->*f.field += o.*f.field;
}

/**
 * A StatBlock its owning thread updates while snapshots read it. Only
 * the owner writes, with a relaxed load and store (no read-modify-
 * write); a snapshot on another thread reads relaxed and may see a
 * count one bump behind.
 */
struct LiveBlock
{
    // atom-protocol: relaxed-ok(single writer; a reader tolerates a
    // count one bump stale, and the stats epoch orders resets)
    std::atomic<std::uint64_t> n[kStatCount] = {};

    void
    bump(Stat s)
    {
        const auto i = static_cast<std::size_t>(s);
        n[i].store(n[i].load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
    }
    void clear();
    /** Add into @p out; @return false if every counter read 0. */
    bool addTo(StatBlock &out) const;
};

struct StatsSnapshot;

/**
 * Per-thread statistics, attached to a TxDesc. Only the owning thread
 * writes them; Runtime::snapshot() folds them from another thread
 * while the owner keeps running. Per-site blocks are allocated on
 * first use and indexed by the site's dense TxnAttr::statSlot, so a
 * bump is an array index, not a map lookup. Serialization blame —
 * which unsafe operation forced each site's in-flight switches, the
 * diagnostic the paper's authors had to hack into GCC with execinfo —
 * changes only on a switch, so it is a map under a per-thread mutex.
 */
class ThreadStats
{
  public:
    ThreadStats() = default;
    ThreadStats(const ThreadStats &) = delete;
    ThreadStats &operator=(const ThreadStats &) = delete;
    ~ThreadStats();

    /** @p attr's block, allocated on first use. Owner only. */
    LiveBlock &
    site(const TxnAttr &attr)
    {
        std::uint32_t slot = attr.statSlot.load(std::memory_order_acquire);
        if (slot == 0)
            slot = assignSlot(attr);
        LiveBlock *b = sites_[slot - 1].load(std::memory_order_acquire);
        if (b == nullptr) {
            b = new LiveBlock;
            sites_[slot - 1].store(b, std::memory_order_release);
        }
        return *b;
    }

    /** One more in-flight switch of @p attr forced by @p what (a
     *  static string). */
    void blame(const TxnAttr &attr, const char *what);

    /** Zero every counter. Owner only, before it publishes a new
     *  stats epoch. */
    void clear();

    /** Add this thread's counts into @p snap. Any thread, while the
     *  owner is registered with the runtime. */
    void foldInto(StatsSnapshot &snap) const;

  private:
    static constexpr std::size_t kMaxSites = 1024;

    static std::uint32_t assignSlot(const TxnAttr &attr);

    // atom-protocol: release-acquire-pair
    std::atomic<LiveBlock *> sites_[kMaxSites] = {};
    mutable std::mutex blameMu_;
    std::map<const TxnAttr *, std::map<const char *, std::uint64_t>>
        blame_;
};

/** Aggregated snapshot across all registered threads. */
struct StatsSnapshot
{
    StatBlock total;
    std::map<const TxnAttr *, StatBlock> perSite;
    std::map<const TxnAttr *, std::map<const char *, std::uint64_t>>
        switchBlame;

    /** Per-thread abort counts; Figure 11's commentary uses the
     *  cross-thread variance in abort rate. */
    std::vector<std::uint64_t> abortsPerThread;
    std::vector<std::uint64_t> commitsPerThread;

    /** Render the Tables 1-4 row for this snapshot. */
    std::string formatTableRow(const std::string &branch_name) const;

    /** Render the full per-site profile (tool-support substitute). */
    std::string formatProfile() const;

    /** Render the per-site serialization-blame report: which unsafe
     *  operation forced each site's in-flight switches. */
    std::string formatBlame() const;
};

} // namespace tmemc::tm

#endif // TMEMC_TM_STATS_H
