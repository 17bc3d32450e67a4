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

#include "tm/algo_orec_common.h"

namespace tmemc::tm
{

namespace
{

class GccEagerAlgo final : public OrecAlgo<FencedOrder>
{
  public:
    const char *name() const override { return "gcc-eager"; }

    std::uint64_t
    loadWord(Runtime &rt, TxDesc &d, std::uintptr_t word_addr) override
    {
        return orecLoad<FencedOrder>(rt, d, word_addr);
    }

    void
    storeWord(Runtime &rt, TxDesc &d, std::uintptr_t word_addr,
              std::uint64_t val, std::uint64_t mask) override
    {
        lockOrec<FencedOrder>(rt, d, d.dom().orecs().forWord(word_addr));
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
        // Privatization safety: the orchestration quiesces on the
        // commit time before the caller can treat written data as
        // private.
        return orecCommit<FencedOrder>(d);
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
