/**
 * @file
 * Helpers shared by the orec-based algorithms (GccEager and Lazy):
 * read-set validation, timestamp extension, and the common rollback.
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

#include "tm/algo.h"
#include "tm/runtime.h"

namespace tmemc::tm
{

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
 * Common rollback for orec-based algorithms: reverse-apply the undo
 * log (GccEager; empty for Lazy), then release write locks restoring
 * their pre-lock words.
 */
inline void
orecRollback(Runtime &rt, TxDesc &d)
{
    for (auto it = d.undoLog.rbegin(); it != d.undoLog.rend(); ++it)
        rawStore(reinterpret_cast<void *>(it->wordAddr), it->oldValue);
    for (const LockEntry &le : d.writeLocks)
        le.orec->store(le.prevWord, std::memory_order_release);
    d.clearSets();
}

} // namespace tmemc::tm

#endif // TMEMC_TM_ALGO_OREC_COMMON_H
