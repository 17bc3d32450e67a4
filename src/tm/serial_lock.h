/**
 * @file
 * The per-domain readers/writer serialization lock, modelled on GCC
 * libitm's gtm_rwlock.
 *
 * Every speculative transaction holds the lock in read mode from begin
 * to commit or abort; a transaction that must run serial-irrevocably
 * holds it in write mode, excluding all speculation.
 *
 * Readers register in their own descriptor, as libitm's readers do in
 * their gtm_thread::shared_state: a speculative attempt's published
 * start time (TxDesc::pubStart, non-zero while the attempt runs),
 * tagged with its domain, is its read registration. A begin therefore
 * writes only its own descriptor's line and reads this lock's writer
 * word; only a writer pays, with a scan of the thread slots. The two
 * sides form a Dekker pair:
 *  - reader: publish the start; seq_cst fence (the one publishStart
 *    already issues for quiescence); load writer_. If it is set,
 *    withdraw the start, wait for the writer to leave, begin again.
 *  - writer: claim writer_; seq_cst fence; wait until no descriptor
 *    has a start published in this domain.
 * With a fence between each side's store and load, at least one side
 * sees the other's store: the reader backs out, or the writer waits.
 *
 * A reader takes its snapshot (clock or seqlock) before it checks
 * writer_, so a serial transaction may run to completion between the
 * two. The reader then reads that transaction's raw stores under an
 * older snapshot. This is sound: no speculative commit lands while a
 * writer holds the lock, so the reader still sees one consistent
 * state, and the serial commit moved the clock or seqlock, so a retry
 * waiting on the old snapshot wakes at once.
 *
 * Taking the lock out altogether is the paper's Figure 10 "NoLock"
 * runtime configuration; with per-descriptor registration what is left
 * to remove is the writer_ load at each begin.
 *
 * A wait for the lock emits one `serial_lock` wait record to the armed
 * event stream (obs/probe.h), so a request stalled here names the
 * cause in its tail span chain.
 */

#ifndef TMEMC_TM_SERIAL_LOCK_H
#define TMEMC_TM_SERIAL_LOCK_H

#include <atomic>
#include <cstdint>
#include <thread>

#include "common/backoff.h"
#include "common/compiler.h"
#include "obs/probe.h"
#include "tm/txdesc.h"

namespace tmemc::tm
{

class TxDomain;

/**
 * Readers/writer lock whose readers register in their own descriptors.
 * A claimed writer turns new readers away while it waits out the old
 * ones. An attempt that must go serial in flight aborts and restarts
 * through writeLock().
 */
class SerialLock
{
  public:
    /** @param domain The domain whose transactions this lock orders. */
    explicit SerialLock(const TxDomain &domain) : domain_(domain) {}

    /**
     * Admit reader @p d, whose attempt has published its start in this
     * lock's domain. If a writer holds or claims the lock, withdraw the
     * start, wait until the writer leaves, and return false: the
     * caller begins again with a fresh snapshot. A reader releases
     * the lock with TxDesc::unpublishStart().
     */
    bool
    admitReader(TxDesc &d)
    {
        if (writer_.load(std::memory_order_acquire) == 0) [[likely]]
            return true;
        d.unpublishStart();
        obs::probe::WaitStamp wait("serial_lock");
        // Bounded spin, then yield: with more software threads than
        // cores, pure spinning convoys behind a descheduled serial
        // transaction.
        for (int spins = 0; writer_.load(std::memory_order_acquire);
             ++spins) {
            wait.spin();
            if (spins < 64)
                cpuRelax();
            else
                std::this_thread::yield();
        }
        return false;
    }

    /** Acquire in write mode (serial-irrevocable transaction). */
    void writeLock();

    /** Release write mode. */
    void
    writeUnlock()
    {
        writer_.store(0, std::memory_order_release);
    }

    /** True while some transaction holds write mode. */
    bool
    writeHeld() const
    {
        return writer_.load(std::memory_order_acquire) != 0;
    }

  private:
    const TxDomain &domain_;
    // atom-protocol: rw-lock
    alignas(cachelineBytes) std::atomic<std::uint32_t> writer_{0};
};

} // namespace tmemc::tm

#endif // TMEMC_TM_SERIAL_LOCK_H
