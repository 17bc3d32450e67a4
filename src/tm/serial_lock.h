/**
 * @file
 * The global readers/writer serialization lock, modelled on GCC
 * libitm's gtm_rwlock.
 *
 * Every speculative transaction acquires the lock in read mode at begin
 * and releases it at commit or abort; a transaction that must run
 * serial-irrevocably acquires it in write mode, excluding all
 * speculation. This is deliberately a single shared-counter lock: the
 * cache-line ping-ponging it causes is the bottleneck the paper
 * removes in Figure 10 ("NoLock" runtime configuration).
 *
 * A wait for the lock emits one `serial_lock` wait record to the
 * armed event stream (obs/probe.h), so a request stalled here names
 * the cause in its tail span chain.
 */

#ifndef TMEMC_TM_SERIAL_LOCK_H
#define TMEMC_TM_SERIAL_LOCK_H

#include <atomic>
#include <cstdint>
#include <thread>

#include "common/backoff.h"
#include "common/compiler.h"
#include "common/padded.h"
#include "obs/probe.h"

namespace tmemc::tm
{

/**
 * Reader-preference readers/writer spin lock with a one-shot upgrade
 * path for in-flight serialization.
 */
class SerialLock
{
  public:
    /** Acquire in read mode (speculative transaction begin). */
    void
    readLock()
    {
        obs::probe::WaitStamp wait("serial_lock");
        for (;;) {
            // Bounded spin, then yield: with more software threads
            // than cores, pure spinning convoys behind a descheduled
            // serial transaction.
            for (int spins = 0;
                 writer_.load(std::memory_order_acquire); ++spins) {
                wait.spin();
                if (spins < 64)
                    cpuRelax();
                else
                    std::this_thread::yield();
            }
            readers_.fetch_add(1, std::memory_order_acquire);
            if (!writer_.load(std::memory_order_acquire))
                return;
            // A writer raced in; back out and wait.
            readers_.fetch_sub(1, std::memory_order_release);
        }
    }

    /** Release read mode. */
    void
    readUnlock()
    {
        readers_.fetch_sub(1, std::memory_order_release);
    }

    /** Acquire in write mode (serial-irrevocable transaction). */
    void
    writeLock()
    {
        obs::probe::WaitStamp wait("serial_lock");
        std::uint32_t expected = 0;
        while (!writer_.compare_exchange_weak(expected, 1,
                                              std::memory_order_acquire)) {
            expected = 0;
            wait.spin();
            cpuRelax();
        }
        while (readers_.load(std::memory_order_acquire) != 0) {
            wait.spin();
            std::this_thread::yield();
        }
    }

    /** Release write mode. */
    void
    writeUnlock()
    {
        writer_.store(0, std::memory_order_release);
    }

    /**
     * Try to upgrade the calling reader to the writer. Fails if
     * another writer (or upgrader) already claimed the lock; the
     * caller must then abort and restart in serial mode. On success
     * the caller holds write mode and has dropped its read count.
     */
    bool
    tryUpgrade()
    {
        std::uint32_t expected = 0;
        if (!writer_.compare_exchange_strong(expected, 1,
                                             std::memory_order_acquire))
            return false;
        // Drop our own read hold, then wait for the other readers.
        readers_.fetch_sub(1, std::memory_order_release);
        obs::probe::WaitStamp wait("serial_lock");
        while (readers_.load(std::memory_order_acquire) != 0) {
            wait.spin();
            std::this_thread::yield();
        }
        return true;
    }

    /** True while some transaction holds write mode. */
    bool
    writeHeld() const
    {
        return writer_.load(std::memory_order_acquire) != 0;
    }

  private:
    // atom-protocol: rw-lock
    alignas(cachelineBytes) std::atomic<std::uint32_t> writer_{0};
    // atom-protocol: rw-lock
    alignas(cachelineBytes) std::atomic<std::uint32_t> readers_{0};
};

} // namespace tmemc::tm

#endif // TMEMC_TM_SERIAL_LOCK_H
