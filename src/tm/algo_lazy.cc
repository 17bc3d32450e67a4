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
 *
 * One redo-log algorithm, two instances: Lazy with libitm's fenced
 * orders, and RA with release-acquire orders only (the IT-RA branch;
 * see AcquireOrder in algo_orec_common.h for why each order suffices).
 */

#include "tm/algo_orec_common.h"

namespace tmemc::tm
{

namespace
{

template <class Order>
class RedoOrecAlgo final : public OrecAlgo<Order>
{
  public:
    explicit RedoOrecAlgo(const char *name) : name_(name) {}

    const char *name() const override { return name_; }

    std::uint64_t
    loadWord(Runtime &rt, TxDesc &d, std::uintptr_t word_addr) override
    {
        return d.redoLog.readThrough(word_addr, [&] {
            return orecLoad<Order>(rt, d, word_addr);
        });
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
        // Phase 1: lock every orec covering the write set. Phase 2
        // (orecCommit) cannot fail after validation, so rollback only
        // ever releases these locks: nothing is written in place.
        for (const RedoEntry &e : d.redoLog.entries())
            lockOrec<Order>(rt, d, d.dom().orecs().forWord(e.wordAddr));
        return orecCommit<Order>(d);
    }

    bool
    isReadOnly(const TxDesc &d) const override
    {
        return d.redoLog.empty();
    }

  private:
    const char *name_;
};

RedoOrecAlgo<FencedOrder> gLazy{"lazy"};
RedoOrecAlgo<AcquireOrder> gRa{"ra"};

} // namespace

Algo &
lazyAlgo()
{
    return gLazy;
}

Algo &
raAlgo()
{
    return gRa;
}

} // namespace tmemc::tm
