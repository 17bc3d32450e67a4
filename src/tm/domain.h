/**
 * @file
 * Transaction domain: one independent synchronization scope for the TM
 * runtime — a commit clock, a NOrec sequence lock, a readers/writer
 * serialization lock, an hourglass neck, and an ownership-record table.
 *
 * The runtime's historical singleton state is simply its *home* domain;
 * additional domains can be created by subsystems that partition their
 * data (the sharded cache gives each shard one), so that transactions
 * on different partitions never conflict on orecs, never contend on the
 * serial lock, and never advance each other's clocks.
 *
 * Correctness contract: a datum must only ever be accessed through ONE
 * domain. Domains provide isolation between disjoint heaps, not between
 * arbitrary transactions — two transactions in different domains that
 * touch the same word race exactly as unsynchronized code would.
 */

#ifndef TMEMC_TM_DOMAIN_H
#define TMEMC_TM_DOMAIN_H

#include <atomic>
#include <cstdint>
#include <memory>

#include "tm/orec.h"
#include "tm/serial_lock.h"

namespace tmemc::tm
{

class TxDesc;

/** One independent TM synchronization scope. */
class TxDomain
{
  public:
    /** @param orec_bits log2 of the ownership-record table size. */
    explicit TxDomain(std::uint32_t orec_bits)
        : orecs_(std::make_unique<OrecTable>(orec_bits))
    {
    }

    TxDomain(const TxDomain &) = delete;
    TxDomain &operator=(const TxDomain &) = delete;

    /**
     * Commit-timestamp clock (GccEager / Lazy / RA). Ordering
     * contract: begin snapshots load it with acquire; GccEager/Lazy
     * advance it with an acq_rel fetch_add, RA with a release-only
     * fetch_add (the clock only orders snapshots there — data
     * visibility rides on the orec release/acquire pairs).
     */
    // atom-protocol: release-acquire-pair
    std::atomic<std::uint64_t> clock{0};
    /** Sequence lock (NOrec). */
    // atom-protocol: seqlock
    std::atomic<std::uint64_t> norecSeq{0};
    /** Readers/writer serialization lock. */
    SerialLock serialLock{*this};
    /** Hourglass neck: when set, only the owner may begin. */
    // atom-protocol: release-acquire-pair
    std::atomic<TxDesc *> toxic{nullptr};

    /** Ownership-record table. */
    OrecTable &orecs() { return *orecs_; }

    /** Reset clocks and rebuild the orec table (reconfiguration). */
    void
    reset(std::uint32_t orec_bits)
    {
        orecs_ = std::make_unique<OrecTable>(orec_bits);
        // Reconfiguration runs quiesced; release is free here and
        // keeps the words at their protocol's store minimum.
        clock.store(0, std::memory_order_release);
        norecSeq.store(0, std::memory_order_release);
        toxic.store(nullptr, std::memory_order_release);
    }

  private:
    std::unique_ptr<OrecTable> orecs_;
};

/**
 * The calling thread's ambient domain: transactions started while a
 * DomainScope is live run in its domain; otherwise in the runtime's
 * home domain. Nested transactions always join the enclosing one
 * regardless of any scope in effect.
 */
TxDomain *currentDomain();

/** RAII ambient-domain setter (nullptr restores the home domain). */
class DomainScope
{
  public:
    explicit DomainScope(TxDomain *domain);
    ~DomainScope();

    DomainScope(const DomainScope &) = delete;
    DomainScope &operator=(const DomainScope &) = delete;

  private:
    TxDomain *prev_;
};

} // namespace tmemc::tm

#endif // TMEMC_TM_DOMAIN_H
