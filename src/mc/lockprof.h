/**
 * @file
 * Lock-contention profiling: the mutrace substitute for the paper's
 * Section 3.1 step of identifying which locks are worth replacing
 * ("cache_lock and stats_lock were the only locks that threads
 * frequently failed to acquire on their first attempt").
 *
 * Every named mutex in the lock-based branches counts acquisitions and
 * first-attempt failures; bench_lockprof prints the table.
 */

#ifndef TMEMC_MC_LOCKPROF_H
#define TMEMC_MC_LOCKPROF_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/compiler.h"

namespace tmemc::mc
{

/** A mutex that records contention statistics, mutrace-style. */
class ProfiledMutex
{
  public:
    explicit ProfiledMutex(const char *name = "unnamed") : name_(name) {}

    void
    lock()
    {
        if (mu_.try_lock()) {
            acquisitions_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        contended_.fetch_add(1, std::memory_order_relaxed);
        mu_.lock();
        acquisitions_.fetch_add(1, std::memory_order_relaxed);
    }

    bool
    try_lock()
    {
        if (mu_.try_lock()) {
            acquisitions_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
        contended_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }

    void unlock() { mu_.unlock(); }

    const char *name() const { return name_; }
    std::uint64_t acquisitions() const
    {
        return acquisitions_.load(std::memory_order_relaxed);
    }
    std::uint64_t contended() const
    {
        return contended_.load(std::memory_order_relaxed);
    }

  private:
    const char *name_;
    std::mutex mu_;
    // atom-protocol: relaxed-counter
    std::atomic<std::uint64_t> acquisitions_{0};
    // atom-protocol: relaxed-counter
    std::atomic<std::uint64_t> contended_{0};
};

/** One row of the contention report. */
struct LockProfileRow
{
    std::string name;
    std::uint64_t acquisitions;
    std::uint64_t contended;

    double
    contentionRate() const
    {
        const std::uint64_t total = acquisitions + contended;
        return total == 0 ? 0.0
                          : static_cast<double>(contended) /
                                static_cast<double>(total);
    }
};

} // namespace tmemc::mc

#endif // TMEMC_MC_LOCKPROF_H
