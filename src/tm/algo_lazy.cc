/**
 * @file
 * The "Lazy" algorithm from the paper's Section 4: it "uses the same
 * lock table as the default GCC algorithm, but buffers updates and
 * acquires locks at commit time".
 *
 * Byte-masked stores accumulate in a redo log; loads must merge the
 * log over memory (the costly byte-to-word logging the paper calls out
 * for memcpy-heavy workloads). Commit acquires orecs for the write
 * set, validates the read set, applies the log, and releases.
 */

#include <atomic>

#include "tm/algo_orec_common.h"

namespace tmemc::tm
{

namespace
{

class LazyAlgo : public Algo
{
  public:
    const char *name() const override { return "lazy"; }

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
        // Same invisible-reader protocol as GccEager: with an empty
        // redo log there is nothing to merge, and with no read set a
        // version newer than startTime cannot be extended past.
        OrecWord &o = d.dom().orecs().forWord(word_addr);
        for (;;) {
            const std::uint64_t w1 = o.load(std::memory_order_acquire);
            const OrecSnapshot s1{w1};
            if (s1.locked())
                throw TxAbort{};
            const std::uint64_t mem =
                rawLoad(reinterpret_cast<void *>(word_addr));
            std::atomic_thread_fence(std::memory_order_acquire);
            // atom-allow: relaxed re-read ordered by the fence above
            if (o.load(std::memory_order_relaxed) != w1)
                continue;
            if (s1.version() > d.startTime)
                throw TxAbort{};
            return mem;
        }
    }

    std::uint64_t
    loadWord(Runtime &rt, TxDesc &d, std::uintptr_t word_addr) override
    {
        std::uint64_t buf_val = 0;
        std::uint64_t buf_mask = 0;
        const bool buffered = d.redoLog.lookup(word_addr, buf_val, buf_mask);
        if (buffered && buf_mask == ~std::uint64_t{0})
            return buf_val;  // Fully covered by our own writes.

        OrecWord &o = d.dom().orecs().forWord(word_addr);
        for (;;) {
            const std::uint64_t w1 = o.load(std::memory_order_acquire);
            const OrecSnapshot s1{w1};
            if (s1.locked())
                throw TxAbort{};  // A committer owns the stripe.
            const std::uint64_t mem =
                rawLoad(reinterpret_cast<void *>(word_addr));
            std::atomic_thread_fence(std::memory_order_acquire);
            // atom-allow: relaxed re-read ordered by the fence above
            const std::uint64_t w2 = o.load(std::memory_order_relaxed);
            if (w1 != w2)
                continue;
            // Recorded before extending (see extendStartTime).
            d.readSet.push_back({&o, w1});
            if (s1.version() > d.startTime && !extendStartTime(rt, d))
                throw TxAbort{};
            return buffered ? maskMerge(mem, buf_val, buf_mask) : mem;
        }
    }

    void
    storeWord(Runtime &rt, TxDesc &d, std::uintptr_t word_addr,
              std::uint64_t val, std::uint64_t mask) override
    {
        d.redoLog.insert(word_addr, val, mask);
    }

    std::uint64_t
    commit(Runtime &rt, TxDesc &d) override
    {
        if (d.redoLog.empty()) {
            d.clearSets();
            return 0;
        }
        // Phase 1: lock every orec covering the write set. Multiple
        // words can hash to one orec; the locked-by-us check makes the
        // acquisition idempotent.
        for (const RedoEntry &e : d.redoLog.entries()) {
            OrecWord &o = d.dom().orecs().forWord(e.wordAddr);
            std::uint64_t w = o.load(std::memory_order_acquire);
            const OrecSnapshot snap{w};
            if (snap.locked()) {
                if (snap.owner() == &d)
                    continue;
                throw TxAbort{};
            }
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
        // Phase 2: validate reads, then make the writes visible.
        const std::uint64_t end =
            d.dom().clock.fetch_add(1, std::memory_order_acq_rel) + 1;
        if (end != d.startTime + 1 && !validateReadSet(d))
            throw TxAbort{};
        for (const RedoEntry &e : d.redoLog.entries()) {
            void *p = reinterpret_cast<void *>(e.wordAddr);
            rawStore(p, maskMerge(rawLoad(p), e.value, e.mask));
        }
        for (const LockEntry &le : d.writeLocks) {
            le.orec->store(orecVersionWord(end),
                           std::memory_order_release);
        }
        d.clearSets();
        return end;
    }

    void
    rollback(Runtime &rt, TxDesc &d) override
    {
        // No in-place writes before phase 2, and phase 2 cannot fail,
        // so rollback only releases any commit-time locks.
        orecRollback(rt, d);
    }

    bool
    isReadOnly(const TxDesc &d) const override
    {
        return d.redoLog.empty();
    }
};

LazyAlgo gAlgo;

} // namespace

Algo &
lazyAlgo()
{
    return gAlgo;
}

} // namespace tmemc::tm
