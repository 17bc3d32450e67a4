/**
 * @file
 * Release-acquire TM: the Lazy algorithm's structure (redo log,
 * commit-time orec locking) rebuilt on pure release-acquire atomics,
 * after "Implementing and Verifying Release-Acquire Transactional
 * Memory" (Dalvandi & Dongol, PAPERS.md).
 *
 * What changes relative to Lazy:
 *
 *  - No std::atomic_thread_fence anywhere. Load validation makes the
 *    DATA load itself an acquire load (rawLoadAcquire) and re-reads
 *    the orec afterwards, instead of Lazy's raw load + fence(acquire)
 *    + relaxed re-read. The ordering obligations are split across the
 *    three loads: the first orec acquire load pairs with the
 *    committing writer's release store (data written before that
 *    version became visible is visible to us) and keeps the data load
 *    from hoisting above it; the data load's own acquire keeps the
 *    validating orec re-read from sinking above *it* (an acquire on
 *    the orec re-read alone would not — acquire only orders LATER
 *    accesses after itself, so a relaxed data load could be reordered
 *    past it by the compiler or by ARM/POWER hardware and observe a
 *    committer's store from after both orec reads). If both orec
 *    loads then return the same unlocked word, the data word read
 *    between them belongs to that (single, consistent) version.
 *  - The domain clock advances with a RELEASE fetch_add and is read
 *    with ACQUIRE loads — the release/acquire pair on the clock is
 *    only used for snapshot ordering (startTime monotonicity);
 *    data visibility rides entirely on the orec release/acquire
 *    pairs, which is exactly the RA-TM publication structure.
 *  - Commit-time orec locking uses an ACQUIRE compare-exchange: the
 *    lock word carries no payload, so no release is needed on
 *    acquisition; the acquire pairs with the previous owner's release
 *    so the stripe's prior data writes are visible before we merge
 *    over them.
 *
 * The read-set validation helpers in algo_orec_common.h are already
 * fence-free (acquire loads only) and are reused unchanged.
 */

#include <atomic>

#include "tm/algo_orec_common.h"

namespace tmemc::tm
{

namespace
{

class RaAlgo : public Algo
{
  public:
    const char *name() const override { return "ra"; }

    void
    begin(Runtime &rt, TxDesc &d) override
    {
        // Acquire: synchronizes with every committer's release
        // fetch_add, so startTime is a real lower bound on the
        // versions this attempt may accept without extension.
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
        // Invisible reader against the release-ordered commit clock:
        // with no read set, a version newer than startTime cannot be
        // extended past, so it aborts (the full path retries there).
        OrecWord &o = d.dom().orecs().forWord(word_addr);
        for (;;) {
            const std::uint64_t w1 = o.load(std::memory_order_acquire);
            const OrecSnapshot s1{w1};
            if (s1.locked())
                throw TxAbort{};
            // Acquire data load: holds the validating orec re-read
            // below after the data read (see file header).
            const std::uint64_t mem =
                rawLoadAcquire(reinterpret_cast<void *>(word_addr));
            if (o.load(std::memory_order_acquire) != w1)
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
            // Acquire data load keeps the validating re-read below
            // ordered after it; equal unlocked orec words then
            // bracket the data read inside one stripe version, with
            // no standalone fence (see file header).
            const std::uint64_t mem =
                rawLoadAcquire(reinterpret_cast<void *>(word_addr));
            const std::uint64_t w2 = o.load(std::memory_order_acquire);
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
        // Phase 1: lock every orec covering the write set. Acquire on
        // the CAS pairs with the previous releaser of the stripe;
        // idempotent across words hashing to one orec.
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
                                           std::memory_order_acquire))
                throw TxAbort{};
            d.writeLocks.push_back({&o, w});
        }
        // Phase 2: validate reads, apply the redo log, then release
        // each orec with the new version. The release stores are what
        // publish the data words to future acquire-loading readers;
        // the clock's release fetch_add only orders snapshots.
        const std::uint64_t end =
            d.dom().clock.fetch_add(1, std::memory_order_release) + 1;
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
        // Write-back design: no in-place writes before phase 2, and
        // phase 2 cannot fail, so rollback only releases commit locks.
        orecRollback(rt, d);
    }

    bool
    isReadOnly(const TxDesc &d) const override
    {
        return d.redoLog.empty();
    }
};

RaAlgo gAlgo;

} // namespace

Algo &
raAlgo()
{
    return gAlgo;
}

} // namespace tmemc::tm
