/**
 * @file
 * Lock-based synchronization policy: the Baseline and Semaphore
 * branches.
 *
 * Reproduces memcached 1.4.15's locking structure: the cache, slabs,
 * stats, and slab-rebalance locks; an array of item locks acquired
 * with trylock in a spin loop ("in some cases a pthread lock is used
 * as a spinlock"); per-thread statistics locks; and the
 * condition-variable (Baseline) or semaphore (Semaphore branch)
 * maintenance-thread wakeup.
 *
 * All mutexes are contention-profiled (the mutrace substitute).
 */

#ifndef TMEMC_MC_SYNC_LOCK_H
#define TMEMC_MC_SYNC_LOCK_H

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/backoff.h"
#include "common/sem.h"
#include "mc/ctx.h"
#include "mc/lockprof.h"
#include "mc/site.h"

namespace tmemc::mc
{

/** Maintenance-thread domains (paper Section 3.2: the pattern appears
 *  twice, for hash-table re-balancing and slab maintenance). */
enum class MaintDomain : std::uint8_t
{
    Hash,
    Slab,
};

/** Lock-based policy; C is kBaseline or kSemaphore. */
template <BranchCfg C>
class LockPolicy
{
  public:
    static constexpr BranchCfg cfg = C;

    explicit LockPolicy(std::uint32_t item_locks, std::uint32_t threads)
        : itemLockMask_(item_locks - 1), itemLocks_(item_locks),
          threadStatLocks_(threads)
    {
    }

    // ------------------------------------------------------------------
    // Critical sections. Each takes the site descriptor (ignored here;
    // the TM policy uses it) and passes the body an uninstrumented
    // context.
    // ------------------------------------------------------------------

    template <typename F>
    auto
    cacheSection(const SiteInfo &, F &&f)
    {
        std::lock_guard<ProfiledMutex> guard(cacheLock_);
        PlainCtx<C> c;
        return f(c);
    }

    template <typename F>
    auto
    slabsSection(const SiteInfo &, F &&f)
    {
        std::lock_guard<ProfiledMutex> guard(slabsLock_);
        PlainCtx<C> c;
        return f(c);
    }

    template <typename F>
    auto
    statsSection(const SiteInfo &, F &&f)
    {
        std::lock_guard<ProfiledMutex> guard(statsLock_);
        PlainCtx<C> c;
        return f(c);
    }

    template <typename F>
    auto
    threadStatsSection(const SiteInfo &, std::uint32_t tid, F &&f)
    {
        std::lock_guard<ProfiledMutex> guard(
            threadStatLocks_[tid % threadStatLocks_.size()]);
        PlainCtx<C> c;
        return f(c);
    }

    /**
     * Item critical section: blocking acquire rendered as a trylock
     * spin loop, exactly as memcached does it.
     */
    template <typename F>
    auto
    itemSection(const SiteInfo &, std::uint32_t hv, F &&f)
    {
        ProfiledMutex &mu = itemLocks_[hv & itemLockMask_];
        for (int spins = 0; !mu.try_lock(); ++spins) {
            if (spins < 16)
                cpuRelax();
            else
                std::this_thread::yield();
        }
        PlainCtx<C> c;
        struct Unlock
        {
            ProfiledMutex &mu;
            ~Unlock() { mu.unlock(); }
        } guard{mu};
        return f(c);
    }

    /**
     * Order-violating trylock: attempt an item lock while already
     * inside a cache/slabs section (maintenance and eviction paths).
     * @return true if @p f_ok ran; false if the lock was busy.
     */
    template <typename Ctx, typename FOk>
    bool
    itemTryWithin(Ctx &, std::uint32_t hv, FOk &&f_ok)
    {
        ProfiledMutex &mu = itemLocks_[hv & itemLockMask_];
        if (!mu.try_lock())
            return false;
        PlainCtx<C> c;
        struct Unlock
        {
            ProfiledMutex &mu;
            ~Unlock() { mu.unlock(); }
        } guard{mu};
        f_ok(c);
        return true;
    }

    // ------------------------------------------------------------------
    // Slab-rebalance lock (trylock-dominated; one blocking acquire via
    // trylock + yield, per the paper)
    // ------------------------------------------------------------------

    bool rebalTryAcquire() { return rebalLock_.try_lock(); }
    void rebalRelease() { rebalLock_.unlock(); }

    /** The bool-read used by other critical sections to peek at the
     *  rebalance state; with pthread locks this is a trylock probe. */
    template <typename Ctx>
    bool
    rebalHeld(Ctx &)
    {
        if (rebalLock_.try_lock()) {
            rebalLock_.unlock();
            return false;
        }
        return true;
    }

    // ------------------------------------------------------------------
    // Maintenance wakeup
    // ------------------------------------------------------------------

    /** Wake the domain's maintainer from inside a critical section. */
    template <typename Ctx>
    void
    maintWake(Ctx &c, MaintDomain dom)
    {
        if constexpr (C.semaphores) {
            c.semPost(sem(dom));
        } else {
            cond(dom).notify_one();
        }
    }

    /**
     * Wake the domain's maintainer from outside any critical section,
     * after storing its wake flag without the domain's lock. Under the
     * condition-variable protocol the notify first passes through that
     * lock: a maintainer between its predicate check and its wait
     * still holds it, and a bare notify in that window is lost, which
     * leaves the maintainer (and the destructor joining it) asleep
     * for good.
     */
    template <typename Ctx>
    void
    maintWakeUnlocked(Ctx &c, MaintDomain dom)
    {
        if constexpr (!C.semaphores) {
            std::lock_guard<ProfiledMutex> pass(
                dom == MaintDomain::Hash ? cacheLock_ : slabsLock_);
        }
        maintWake(c, dom);
    }

    /**
     * Maintainer-side wait. The predicate is evaluated under the
     * domain's lock (condition-variable protocol) or via plain reads
     * between semaphore waits (semaphore protocol, Figure 2).
     */
    template <typename Pred>
    void
    maintWait(MaintDomain dom, Pred &&pred)
    {
        if constexpr (C.semaphores) {
            PlainCtx<C> c;
            while (!pred(c))
                sem(dom).wait();
        } else {
            ProfiledMutex &mu =
                dom == MaintDomain::Hash ? cacheLock_ : slabsLock_;
            std::unique_lock<ProfiledMutex> ul(mu);
            PlainCtx<C> c;
            while (!pred(c))
                cond(dom).wait(ul);
        }
    }

    // ------------------------------------------------------------------
    // Lock-contention profile (mutrace substitute)
    // ------------------------------------------------------------------

    std::vector<LockProfileRow>
    lockProfile() const
    {
        std::vector<LockProfileRow> rows;
        rows.push_back({cacheLock_.name(), cacheLock_.acquisitions(),
                        cacheLock_.contended()});
        rows.push_back({slabsLock_.name(), slabsLock_.acquisitions(),
                        slabsLock_.contended()});
        rows.push_back({statsLock_.name(), statsLock_.acquisitions(),
                        statsLock_.contended()});
        LockProfileRow items{"item_locks[*]", 0, 0};
        for (const auto &mu : itemLocks_) {
            items.acquisitions += mu.acquisitions();
            items.contended += mu.contended();
        }
        rows.push_back(items);
        LockProfileRow tstats{"thread_stats[*]", 0, 0};
        for (const auto &mu : threadStatLocks_) {
            tstats.acquisitions += mu.acquisitions();
            tstats.contended += mu.contended();
        }
        rows.push_back(tstats);
        rows.push_back({rebalLock_.name(), rebalLock_.acquisitions(),
                        rebalLock_.contended()});
        return rows;
    }

  private:
    Semaphore &
    sem(MaintDomain dom)
    {
        return dom == MaintDomain::Hash ? hashSem_ : slabSem_;
    }

    std::condition_variable_any &
    cond(MaintDomain dom)
    {
        return dom == MaintDomain::Hash ? hashCond_ : slabCond_;
    }

    ProfiledMutex cacheLock_{"cache_lock"};
    ProfiledMutex slabsLock_{"slabs_lock"};
    ProfiledMutex statsLock_{"stats_lock"};
    ProfiledMutex rebalLock_{"slab_rebalance_lock"};
    std::uint32_t itemLockMask_;
    std::vector<ProfiledMutex> itemLocks_;
    std::vector<ProfiledMutex> threadStatLocks_;

    std::condition_variable_any hashCond_;
    std::condition_variable_any slabCond_;
    Semaphore hashSem_;
    Semaphore slabSem_;
};

} // namespace tmemc::mc

#endif // TMEMC_MC_SYNC_LOCK_H
