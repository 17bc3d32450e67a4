/**
 * @file
 * The "GCC" algorithm: the default libitm method the paper measures.
 *
 * Direct update (writes go to program memory immediately, guarded by an
 * undo log), eager write locking on ownership records, timestamp-based
 * read validation against a global commit clock, and commit-time
 * quiescence for privatization safety — the Draft C++ TM Specification
 * requires privatization safety, and the paper's Figure 1 discussion
 * relies on it.
 *
 * The paper observes that this algorithm has "the lowest latency and
 * the best scalability" of those tested, "despite extremely high abort
 * rates", because aborts pay for the undo log but commits are cheap.
 */

#include <atomic>

#include "tm/algo_orec_common.h"

namespace tmemc::tm
{

namespace
{

class GccEagerAlgo : public Algo
{
  public:
    const char *name() const override { return "gcc-eager"; }

    void
    begin(Runtime &rt, TxDesc &d) override
    {
        d.startTime = d.dom().clock.load(std::memory_order_acquire);
        d.publishStart(d.startTime);
    }

    bool
    beginRO(Runtime &rt, TxDesc &d) override
    {
        begin(rt, d);
        return true;
    }

    std::uint64_t
    loadWordRO(Runtime &rt, TxDesc &d, std::uintptr_t word_addr) override
    {
        // Invisible reader: the orec double-check proves the word was
        // stable at a version <= startTime, so every load on the
        // attempt sees the same snapshot without a read set. A newer
        // version aborts — with no read set there is nothing to
        // revalidate at an extended start time.
        OrecWord &o = d.dom().orecs().forWord(word_addr);
        for (;;) {
            const std::uint64_t w1 = o.load(std::memory_order_acquire);
            const OrecSnapshot s1{w1};
            if (s1.locked())
                throw TxAbort{};  // Fast path never holds write locks.
            const std::uint64_t val =
                rawLoad(reinterpret_cast<void *>(word_addr));
            std::atomic_thread_fence(std::memory_order_acquire);
            // atom-allow: relaxed re-read ordered by the fence above
            if (o.load(std::memory_order_relaxed) != w1)
                continue;  // Raced with a commit; re-sample.
            if (s1.version() > d.startTime)
                throw TxAbort{};
            return val;
        }
    }

    std::uint64_t
    loadWord(Runtime &rt, TxDesc &d, std::uintptr_t word_addr) override
    {
        OrecWord &o = d.dom().orecs().forWord(word_addr);
        for (;;) {
            const std::uint64_t w1 = o.load(std::memory_order_acquire);
            const OrecSnapshot s1{w1};
            if (s1.locked()) {
                if (s1.owner() == &d)
                    return rawLoad(reinterpret_cast<void *>(word_addr));
                throw TxAbort{};  // Write-locked by a concurrent txn.
            }
            const std::uint64_t val =
                rawLoad(reinterpret_cast<void *>(word_addr));
            std::atomic_thread_fence(std::memory_order_acquire);
            // atom-allow: relaxed re-read ordered by the fence above
            const std::uint64_t w2 = o.load(std::memory_order_relaxed);
            if (w1 != w2)
                continue;  // Raced with a commit; re-sample.
            // Recorded before extending (see extendStartTime).
            d.readSet.push_back({&o, w1});
            if (s1.version() > d.startTime && !extendStartTime(rt, d))
                throw TxAbort{};
            return val;
        }
    }

    void
    storeWord(Runtime &rt, TxDesc &d, std::uintptr_t word_addr,
              std::uint64_t val, std::uint64_t mask) override
    {
        OrecWord &o = d.dom().orecs().forWord(word_addr);
        std::uint64_t w = o.load(std::memory_order_acquire);
        const OrecSnapshot snap{w};
        if (snap.locked()) {
            if (snap.owner() != &d)
                throw TxAbort{};
        } else {
            if (snap.version() > d.startTime) {
                if (!extendStartTime(rt, d))
                    throw TxAbort{};
                w = o.load(std::memory_order_acquire);
                const OrecSnapshot again{w};
                if (again.locked() || again.version() > d.startTime)
                    throw TxAbort{};
            }
            if (!o.compare_exchange_strong(w, orecLockWord(&d),
                                           std::memory_order_acq_rel))
                throw TxAbort{};
            d.writeLocks.push_back({&o, w});
        }
        void *p = reinterpret_cast<void *>(word_addr);
        const std::uint64_t old = rawLoad(p);
        d.undoLog.push_back({word_addr, old});
        rawStore(p, maskMerge(old, val, mask));
    }

    std::uint64_t
    commit(Runtime &rt, TxDesc &d) override
    {
        if (d.writeLocks.empty()) {
            // Read-only: every read was individually validated against
            // startTime, so the read set is a consistent snapshot.
            d.clearSets();
            return 0;
        }
        const std::uint64_t end =
            d.dom().clock.fetch_add(1, std::memory_order_acq_rel) + 1;
        if (end != d.startTime + 1 && !validateReadSet(d))
            throw TxAbort{};  // handleAbort() runs rollback().
        for (const LockEntry &le : d.writeLocks) {
            le.orec->store(orecVersionWord(end),
                           std::memory_order_release);
        }
        d.clearSets();
        // Privatization safety: the orchestration quiesces on `end`
        // before the caller can treat written data as private.
        return end;
    }

    void
    rollback(Runtime &rt, TxDesc &d) override
    {
        orecRollback(rt, d);
    }

    bool
    isReadOnly(const TxDesc &d) const override
    {
        return d.writeLocks.empty() && d.undoLog.empty();
    }
};

GccEagerAlgo gAlgo;

} // namespace

Algo &
gccEagerAlgo()
{
    return gAlgo;
}

} // namespace tmemc::tm
