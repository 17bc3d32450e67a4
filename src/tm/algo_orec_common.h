/**
 * @file
 * The orec core shared by GccEager, Lazy and RA: begin, the
 * orec-bracketed word read, read-set validation and timestamp
 * extension, locking an orec, the commit's clock tick and write-back,
 * and rollback. The three algorithms differ only in where a write goes
 * (in place under an undo log, or into a redo log written back at
 * commit) and in three memory orders, which an ordering policy spells
 * out: FencedOrder (GccEager and Lazy) or AcquireOrder (RA).
 *
 * A policy is a set of inline functions with literal orders, so
 * atomlint checks each access against the orec and clock protocols.
 *
 * Validation treats an orec locked by the validating transaction as
 * consistent: a write lock can only have been acquired while the
 * orec's version was <= the transaction's (possibly extended) start
 * time, and any intervening commit would have changed the recorded
 * snapshot word and failed the equality test first.
 */

#ifndef TMEMC_TM_ALGO_OREC_COMMON_H
#define TMEMC_TM_ALGO_OREC_COMMON_H

#include <atomic>

#include "common/compiler.h"
#include "tm/algo.h"
#include "tm/runtime.h"

namespace tmemc::tm
{

/**
 * libitm's orders, shared by GccEager and Lazy: a raw data load held
 * before a relaxed orec re-read by an acquire fence, an acq_rel lock
 * CAS and an acq_rel clock tick.
 */
struct FencedOrder
{
    /** Read the data word, then re-read its orec into @p again. */
    static TMEMC_ALWAYS_INLINE std::uint64_t
    readData(OrecWord &o, std::uintptr_t word_addr, std::uint64_t &again)
    {
        const std::uint64_t val =
            rawLoad(reinterpret_cast<void *>(word_addr));
        std::atomic_thread_fence(std::memory_order_acquire);
        // atom-allow: relaxed re-read ordered by the fence above
        again = o.load(std::memory_order_relaxed);
        return val;
    }

    static bool
    lock(OrecWord &o, std::uint64_t &w, const TxDesc &d)
    {
        return o.compare_exchange_strong(w, orecLockWord(&d),
                                         std::memory_order_acq_rel);
    }

    static std::uint64_t
    tick(TxDomain &dom)
    {
        return dom.clock.fetch_add(1, std::memory_order_acq_rel) + 1;
    }
};

/**
 * Release-acquire TM, after "Implementing and Verifying
 * Release-Acquire Transactional Memory" (Dalvandi & Dongol,
 * PAPERS.md): Lazy's protocol on pure release-acquire atomics, with no
 * std::atomic_thread_fence. Why each order suffices:
 *
 *  - readData: the DATA load itself is an acquire load
 *    (rawLoadAcquire), followed by an acquire orec re-read. The first
 *    orec acquire load (bracketedRead) pairs with the committing
 *    writer's release store, so data written before that version
 *    became visible is visible to us, and keeps the data load from
 *    hoisting above it. The data load's own acquire keeps the
 *    validating re-read from sinking above *it*. An acquire on the
 *    re-read alone would not: acquire only orders LATER accesses after
 *    itself, so a relaxed data load could be reordered past it by the
 *    compiler or by ARM/POWER hardware and observe a committer's store
 *    from after both orec reads. If both orec loads then return the
 *    same unlocked word, the data word read between them belongs to
 *    that single, consistent version.
 *  - lock: an ACQUIRE compare-exchange. The lock word carries no
 *    payload, so acquisition needs no release; the acquire pairs with
 *    the previous owner's release, so the stripe's prior data writes
 *    are visible before the write-back merges over them.
 *  - tick: a RELEASE fetch_add, read by acquire loads in begin() and
 *    extendStartTime(). The clock only orders snapshots (startTime
 *    monotonicity); data visibility rides entirely on the orec
 *    release/acquire pairs, which is the RA-TM publication structure.
 *
 * The validation, extension and release code below is already
 * fence-free (acquire loads and release stores only) and is shared
 * unchanged.
 */
struct AcquireOrder
{
    /** Read the data word, then re-read its orec into @p again. */
    static TMEMC_ALWAYS_INLINE std::uint64_t
    readData(OrecWord &o, std::uintptr_t word_addr, std::uint64_t &again)
    {
        const std::uint64_t val =
            rawLoadAcquire(reinterpret_cast<void *>(word_addr));
        again = o.load(std::memory_order_acquire);
        return val;
    }

    static bool
    lock(OrecWord &o, std::uint64_t &w, const TxDesc &d)
    {
        return o.compare_exchange_strong(w, orecLockWord(&d),
                                         std::memory_order_acquire);
    }

    static std::uint64_t
    tick(TxDomain &dom)
    {
        return dom.clock.fetch_add(1, std::memory_order_release) + 1;
    }
};

/** Check every read-set entry is still the word observed at read. */
inline bool
validateReadSet(TxDesc &d)
{
    for (const ReadEntry &e : d.readSet) {
        const std::uint64_t cur = e.orec->load(std::memory_order_acquire);
        if (cur == e.word)
            continue;
        const OrecSnapshot snap{cur};
        if (snap.locked() && snap.owner() == &d)
            continue;
        return false;
    }
    return true;
}

/**
 * Timestamp extension (TinySTM style): advance the transaction's start
 * time to now if its reads are all still valid.
 *
 * A load that extends must add its own word to the read set first.
 * Otherwise a commit to that word whose clock tick `now` includes
 * passes validation unseen, the stale read hides under the new start
 * time, and commit's end == startTime + 1 shortcut loses the update.
 * @return false if the transaction is doomed and must abort.
 */
inline bool
extendStartTime(Runtime &rt, TxDesc &d)
{
    const std::uint64_t now = d.dom().clock.load(std::memory_order_acquire);
    if (!validateReadSet(d))
        return false;
    d.startTime = now;
    d.publishStart(now);
    return true;
}

/**
 * The orec-bracketed read: sample @p o, read the word and re-read the
 * orec under Order, until both orec samples agree. Sets @p w to the
 * sample; when it is locked, returns 0 without reading the word.
 */
template <class Order>
TMEMC_ALWAYS_INLINE std::uint64_t
bracketedRead(OrecWord &o, std::uintptr_t word_addr, std::uint64_t &w)
{
    for (;;) {
        w = o.load(std::memory_order_acquire);
        if (TMEMC_UNLIKELY(OrecSnapshot{w}.locked()))
            return 0;
        std::uint64_t again = 0;
        const std::uint64_t val = Order::readData(o, word_addr, again);
        if (TMEMC_LIKELY(again == w))
            return val;  // Else raced with a commit; re-sample.
    }
}

/**
 * Full-path load: record the orec in the read set and extend the start
 * time past a newer version. A lock held by another transaction
 * aborts; a lock held by this one (GccEager's in-place write) reads
 * the word as written.
 */
template <class Order>
TMEMC_ALWAYS_INLINE std::uint64_t
orecLoad(Runtime &rt, TxDesc &d, std::uintptr_t word_addr)
{
    OrecWord &o = d.dom().orecs().forWord(word_addr);
    std::uint64_t w = 0;
    const std::uint64_t val = bracketedRead<Order>(o, word_addr, w);
    const OrecSnapshot s{w};
    if (TMEMC_UNLIKELY(s.locked())) {
        if (s.owner() == &d)
            return rawLoad(reinterpret_cast<void *>(word_addr));
        throw TxAbort{};
    }
    // Recorded before extending (see extendStartTime).
    d.readSet.push_back({&o, w});
    if (s.version() > d.startTime && !extendStartTime(rt, d))
        throw TxAbort{};
    return val;
}

/**
 * Write-lock @p o for @p d, first extending the start time past a
 * newer version. Words that hash to one orec lock it once: an orec
 * @p d already holds is left as it is. Throws TxAbort on a conflict.
 */
template <class Order>
TMEMC_ALWAYS_INLINE void
lockOrec(Runtime &rt, TxDesc &d, OrecWord &o)
{
    std::uint64_t w = o.load(std::memory_order_acquire);
    const OrecSnapshot snap{w};
    if (snap.locked()) {
        if (snap.owner() == &d)
            return;
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
    if (!Order::lock(o, w, d))
        throw TxAbort{};
    d.writeLocks.push_back({&o, w});
}

/**
 * Finish a writer commit that holds all its write locks: tick the
 * clock, validate the reads unless no commit came between, write back
 * the redo log (empty under GccEager), and release every lock at the
 * new version. Throws TxAbort if validation fails (handleAbort() runs
 * rollback()).
 * @return The commit time the orchestration quiesces on.
 */
template <class Order>
inline std::uint64_t
orecCommit(TxDesc &d)
{
    const std::uint64_t end = Order::tick(d.dom());
    if (end != d.startTime + 1 && !validateReadSet(d))
        throw TxAbort{};
    d.redoLog.writeBack();
    for (const LockEntry &le : d.writeLocks)
        le.orec->store(orecVersionWord(end), std::memory_order_release);
    d.clearSets();
    return end;
}

/** What every orec algorithm shares: begin, the invisible-reader
 *  load and rollback. */
template <class Order>
class OrecAlgo : public Algo
{
  public:
    void
    begin(Runtime &rt, TxDesc &d) override
    {
        d.startTime = d.dom().clock.load(std::memory_order_acquire);
        d.publishStart(d.startTime);
    }

    std::uint64_t
    loadWordRO(Runtime &rt, TxDesc &d, std::uintptr_t word_addr) override
    {
        // Invisible reader: the bracket proves the word was stable at a
        // version <= startTime, so every load of the attempt sees one
        // snapshot without a read set. A lock or a newer version aborts:
        // with no read set there is nothing to revalidate at an
        // extended start time. The redo log is empty, so nothing merges.
        std::uint64_t w = 0;
        const std::uint64_t val = bracketedRead<Order>(
            d.dom().orecs().forWord(word_addr), word_addr, w);
        const OrecSnapshot s{w};
        if (s.locked() || s.version() > d.startTime)
            throw TxAbort{};
        return val;
    }

    /** Reverse-apply the undo log (empty for the redo-log instances),
     *  then release write locks restoring their pre-lock words. */
    void
    rollback(Runtime &rt, TxDesc &d) override
    {
        for (auto it = d.undoLog.rbegin(); it != d.undoLog.rend(); ++it)
            rawStore(reinterpret_cast<void *>(it->wordAddr), it->oldValue);
        for (const LockEntry &le : d.writeLocks)
            le.orec->store(le.prevWord, std::memory_order_release);
        d.clearSets();
    }
};

} // namespace tmemc::tm

#endif // TMEMC_TM_ALGO_OREC_COMMON_H
