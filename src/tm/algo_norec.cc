/**
 * @file
 * NOrec (Dalessandro, Spear & Scott, PPoPP 2010): no ownership
 * records; a single global sequence lock serializes writer commits and
 * readers validate by value.
 *
 * The paper finds that in memcached "the frequency of small writer
 * transactions induced a bottleneck on internal NOrec metadata" — that
 * metadata is the single seqlock below.
 */

#include <atomic>

#include "tm/algo.h"
#include "tm/runtime.h"

#include "common/backoff.h"

namespace tmemc::tm
{

namespace
{

class NOrecAlgo : public Algo
{
  public:
    const char *name() const override { return "norec"; }

    void
    begin(Runtime &rt, TxDesc &d) override
    {
        for (;;) {
            const std::uint64_t s =
                d.dom().norecSeq.load(std::memory_order_acquire);
            if ((s & 1) == 0) {
                d.norecSnapshot = s;
                d.publishStart(s);
                return;
            }
            cpuRelax();
        }
    }

    std::uint64_t
    loadWordRO(Runtime &rt, TxDesc &d, std::uintptr_t word_addr) override
    {
        // Invisible reader: any writer commit since the begin snapshot
        // dooms the attempt — there is no value read set to revalidate
        // against, so the seqlock check is the whole protocol.
        const std::uint64_t mem =
            rawLoad(reinterpret_cast<void *>(word_addr));
        std::atomic_thread_fence(std::memory_order_acquire);
        // atom-allow: relaxed re-read ordered by the fence above
        if (d.dom().norecSeq.load(std::memory_order_relaxed) !=
            d.norecSnapshot)
            throw TxAbort{};
        return mem;
    }

    std::uint64_t
    loadWord(Runtime &rt, TxDesc &d, std::uintptr_t word_addr) override
    {
        return d.redoLog.readThrough(word_addr, [&] {
            std::uint64_t mem = rawLoad(reinterpret_cast<void *>(word_addr));
            std::atomic_thread_fence(std::memory_order_acquire);
            // atom-allow: relaxed re-read ordered by the fence above
            while (d.dom().norecSeq.load(std::memory_order_relaxed) !=
                   d.norecSnapshot) {
                d.norecSnapshot = validate(rt, d);
                mem = rawLoad(reinterpret_cast<void *>(word_addr));
                std::atomic_thread_fence(std::memory_order_acquire);
            }
            d.valueReads.push_back({word_addr, mem});
            return mem;
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
            // Read-only: the last load re-validated against the
            // snapshot, so the read set is consistent as of it.
            d.clearSets();
            return 0;
        }
        for (;;) {
            std::uint64_t s = d.norecSnapshot;
            if (d.dom().norecSeq.compare_exchange_strong(
                    s, s + 1, std::memory_order_acquire))
                break;
            d.norecSnapshot = validate(rt, d);
        }
        d.redoLog.writeBack();
        const std::uint64_t next = d.norecSnapshot + 2;
        d.dom().norecSeq.store(next, std::memory_order_release);
        d.clearSets();
        // Quiesce until every concurrent transaction has validated at
        // (or begun after) this commit; needed so that memory the
        // caller reclaims cannot still be read by doomed transactions.
        return next;
    }

    void
    rollback(Runtime &rt, TxDesc &d) override
    {
        d.clearSets();
    }

    bool
    isReadOnly(const TxDesc &d) const override
    {
        return d.redoLog.empty();
    }

  private:
    /**
     * Value-based validation: wait for a stable (even) sequence, then
     * confirm every read still returns the recorded value.
     * @return The even sequence number validation succeeded at.
     * @throws TxAbort if any value changed.
     */
    std::uint64_t
    validate(Runtime &rt, TxDesc &d)
    {
        for (;;) {
            const std::uint64_t t =
                d.dom().norecSeq.load(std::memory_order_acquire);
            if (t & 1) {
                cpuRelax();
                continue;
            }
            for (const ValueEntry &e : d.valueReads) {
                if (rawLoad(reinterpret_cast<void *>(e.wordAddr)) !=
                    e.value)
                    throw TxAbort{};
            }
            std::atomic_thread_fence(std::memory_order_acquire);
            // atom-allow: relaxed re-read ordered by the fence above
            if (d.dom().norecSeq.load(std::memory_order_relaxed) == t) {
                d.publishStart(t);
                return t;
            }
        }
    }
};

NOrecAlgo gAlgo;

} // namespace

Algo &
norecAlgo()
{
    return gAlgo;
}

} // namespace tmemc::tm
