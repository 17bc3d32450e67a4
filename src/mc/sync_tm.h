/**
 * @file
 * Transactional synchronization policy: every TM branch (IP/IT x
 * Callable/Max/Lib/onCommit).
 *
 * Critical sections become transactions whose static attributes
 * (atomic vs relaxed, start-serial) are derived from the site's
 * unsafe-operation masks and the branch stage — the static analysis
 * the Draft C++ TM Specification's compiler performs. Each SiteInfo
 * derives them when it is built (mc/site.h); the policy picks its
 * branch's column.
 *
 * Item locks follow the branch's ItemStrategy:
 *  - TmBool (IP): a transactional boolean per lock stripe, acquired by
 *    a mini-transaction; the guarded data is then accessed without
 *    instrumentation (explicit privatization, Figure 1a).
 *  - TxSection (IT): the critical section itself is a transaction and
 *    the data is only ever touched transactionally (Figure 1b); the
 *    trylock-while-holding-cache-lock corner cases disappear.
 *
 * The slab-rebalance lock is a transactional boolean in all TM
 * branches ("transaction-safe locks were required", Section 3.1).
 */

#ifndef TMEMC_MC_SYNC_TM_H
#define TMEMC_MC_SYNC_TM_H

#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/backoff.h"
#include "common/padded.h"
#include "common/sem.h"
#include "mc/ctx.h"
#include "mc/lockprof.h"
#include "mc/site.h"
#include "mc/sync_lock.h"

namespace tmemc::mc
{

/** Transactional policy for branch configuration C. */
template <BranchCfg C>
class TmPolicy
{
  public:
    static constexpr BranchCfg cfg = C;
    static_assert(C.useTm, "TmPolicy requires a TM branch configuration");
    static_assert(C.semaphores,
                  "TM branches require the semaphore refactor first "
                  "(condition variables cannot pair with transactions)");

    explicit TmPolicy(std::uint32_t item_locks, std::uint32_t threads)
        : itemLockMask_(item_locks - 1), itemLocks_(item_locks)
    {
    }

    static constexpr std::size_t kBranchIndex = tmBranchIndex(C);
    static_assert(kBranchIndex < kTmBranchCount,
                  "TM branch configuration missing from kTmBranches");

    /** This branch's attributes for @p site (fixed when it was built). */
    static const tm::TxnAttr &
    attrOf(const SiteInfo &site)
    {
        return site.attrs[kBranchIndex];
    }

    // ------------------------------------------------------------------
    // Lock-domain sections: all plain transactions now
    // ------------------------------------------------------------------

    template <typename F>
    auto
    cacheSection(const SiteInfo &site, F &&f)
    {
        return tm::run(attrOf(site), [&](tm::TxDesc &tx) {
            TmCtx<C> c{tx};
            return f(c);
        });
    }

    template <typename F>
    auto
    slabsSection(const SiteInfo &site, F &&f)
    {
        return cacheSection(site, std::forward<F>(f));
    }

    template <typename F>
    auto
    statsSection(const SiteInfo &site, F &&f)
    {
        return cacheSection(site, std::forward<F>(f));
    }

    template <typename F>
    auto
    threadStatsSection(const SiteInfo &site, std::uint32_t, F &&f)
    {
        // Per-thread locks are uncontended, but a mutex op is unsafe
        // inside a transaction, so these too became transactions
        // (Section 3.1: "we were forced to replace uncontended
        // per-thread locks with transactions").
        return cacheSection(site, std::forward<F>(f));
    }

    // ------------------------------------------------------------------
    // Item critical sections
    // ------------------------------------------------------------------

    template <typename F>
    auto
    itemSection(const SiteInfo &site, std::uint32_t hv, F &&f)
    {
        if constexpr (C.items == ItemStrategy::TxSection) {
            // IT: the critical section is the transaction.
            return tm::run(attrOf(site), [&](tm::TxDesc &tx) {
                TmCtx<C> c{tx};
                return f(c);
            });
        } else {
            // IP: acquire the transactional boolean, run the body
            // uninstrumented (the data is privatized), release.
            std::uint64_t *lk = &itemLocks_[hv & itemLockMask_].value;
            for (int spins = 0; !tryLockBool(lk); ++spins) {
                // Spin-trylock as in memcached, with a yield once the
                // holder is likely descheduled (paper Section 3.1:
                // failed blocking acquires fall back to pthread_yield).
                if (spins < 16)
                    cpuRelax();
                else
                    std::this_thread::yield();
            }
            struct Release
            {
                TmPolicy &p;
                std::uint64_t *lk;
                ~Release() { p.unlockBool(lk); }
            } guard{*this, lk};
            PlainCtx<C> c;
            return f(c);
        }
    }

    /**
     * Trylock from inside another transaction (the lock-order
     * violation sites). In IT the inner critical section simply joins
     * the enclosing transaction — conflicts replace the trylock, and
     * the save-for-later path is dead code (Figure 1b). In IP the
     * boolean is probed transactionally (Figure 1a): if held, the
     * caller's save-for-later path runs.
     */
    template <typename Ctx, typename FOk>
    TM_CALLABLE bool
    itemTryWithin(Ctx &outer, std::uint32_t hv, FOk &&f_ok)
    {
        if constexpr (C.items == ItemStrategy::TxSection) {
            f_ok(outer);
            return true;
        } else {
            std::uint64_t *lk = &itemLocks_[hv & itemLockMask_].value;
            if (outer.load(lk) != 0)
                return false;
            outer.store(lk, std::uint64_t{1});
            f_ok(outer);
            outer.store(lk, std::uint64_t{0});
            return true;
        }
    }

    // ------------------------------------------------------------------
    // Slab-rebalance "lock": transactional boolean in every TM branch
    // ------------------------------------------------------------------

    bool
    rebalTryAcquire()
    {
        return tryLockBool(&rebalFlag_.value);
    }

    void rebalRelease() { unlockBool(&rebalFlag_.value); }

    template <typename Ctx>
    bool
    rebalHeld(Ctx &c)
    {
        return c.load(&rebalFlag_.value) != 0;
    }

    // ------------------------------------------------------------------
    // Maintenance wakeup: semaphores only (Section 3.2)
    // ------------------------------------------------------------------

    template <typename Ctx>
    void
    maintWake(Ctx &c, MaintDomain dom)
    {
        c.semPost(sem(dom));
    }

    /** A semaphore post is never lost, inside a section or not. */
    template <typename Ctx>
    void
    maintWakeUnlocked(Ctx &c, MaintDomain dom)
    {
        maintWake(c, dom);
    }

    template <typename Pred>
    void
    maintWait(MaintDomain dom, Pred &&pred)
    {
        // The maintainer probes its flags outside any critical section
        // (Figure 2); from the Max stage on, PlainCtx renders each
        // probe as a transaction expression. Posts already made are
        // drained before each probe: it sees every flag stored before
        // them, and a stale post would only wake a parked maintainer
        // into one more probe.
        PlainCtx<C> c;
        for (;;) {
            while (sem(dom).tryWait()) {
            }
            if (pred(c))
                return;
            sem(dom).wait();
        }
    }

    /** TM branches have no pthread locks left to profile. */
    std::vector<LockProfileRow> lockProfile() const { return {}; }

  private:
    static const tm::TxnAttr &
    boolLockAttr()
    {
        // The mini-transactions that implement tm-boolean locks touch
        // nothing unsafe in any stage.
        static const SiteInfo site{"mc:item-boollock", kNoUnsafe,
                                   kNoUnsafe};
        return attrOf(site);
    }

    bool
    tryLockBool(std::uint64_t *lk)
    {
        return tm::run(boolLockAttr(), [&](tm::TxDesc &tx) {
            if (tm::txLoad(tx, lk) != 0)
                return false;
            tm::txStore(tx, lk, std::uint64_t{1});
            return true;
        });
    }

    void
    unlockBool(std::uint64_t *lk)
    {
        tm::run(boolLockAttr(), [&](tm::TxDesc &tx) {
            tm::txStore(tx, lk, std::uint64_t{0});
        });
    }

    Semaphore &
    sem(MaintDomain dom)
    {
        return dom == MaintDomain::Hash ? hashSem_ : slabSem_;
    }


    std::uint32_t itemLockMask_;
    std::vector<Padded<std::uint64_t>> itemLocks_;
    Padded<std::uint64_t> rebalFlag_;
    Semaphore hashSem_;
    Semaphore slabSem_;
};

} // namespace tmemc::mc

#endif // TMEMC_MC_SYNC_TM_H
