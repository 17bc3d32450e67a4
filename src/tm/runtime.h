/**
 * @file
 * Global TM runtime: configuration, clocks, orec table, the serial
 * lock, one descriptor per thread slot, and the begin/commit/abort
 * orchestration used by tm::run().
 *
 * This is the library analogue of libitm's global state. It is a
 * process-wide singleton; configure() swaps algorithms, contention
 * managers, and the presence of the global readers/writer lock between
 * experiments (it must be called while no transaction is in flight).
 */

#ifndef TMEMC_TM_RUNTIME_H
#define TMEMC_TM_RUNTIME_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

#include "common/thread_slot.h"
#include "tm/algo.h"
#include "tm/attr.h"
#include "tm/cm.h"
#include "tm/domain.h"
#include "tm/orec.h"
#include "tm/serial_lock.h"
#include "tm/stats.h"
#include "tm/txdesc.h"

namespace tmemc::tm
{

/** Process-wide TM runtime state. */
class Runtime
{
  public:
    /** The singleton instance. */
    static Runtime &get();

    /**
     * Reconfigure the runtime. Resets the orec table, clocks, and
     * statistics. Must be called while no transaction is active;
     * violating that is a fatal error.
     */
    void configure(const RuntimeCfg &cfg);

    /** Current configuration. */
    const RuntimeCfg &cfg() const { return cfg_; }

    /** Active algorithm / contention manager. */
    Algo &algo() { return *algo_; }
    ContentionManager &cm() { return *cm_; }

    /**
     * The home domain: the process-wide clock/seqlock/serial-lock/orec
     * state every transaction historically shared. Transactions run
     * here unless a DomainScope routes them elsewhere (domain.h).
     */
    TxDomain &homeDomain() { return home_; }

    /** Home-domain ownership-record table (compat accessor). */
    OrecTable &orecs() { return home_.orecs(); }

    /**
     * This thread's descriptor: the one kept for its thread slot
     * (common/thread_slot.h), constructed on the slot's first claim
     * and never destroyed, so a scan of the slots needs no lock.
     */
    TxDesc &myDesc();

    /**
     * Commit-time quiescence for privatization safety: wait until no
     * transaction in @p domain that started before @p commit_time is
     * still running. Transactions in other domains are invisible —
     * their published start times are on unrelated clocks.
     */
    void quiesce(TxDomain *domain, std::uint64_t commit_time,
                 const TxDesc *self);

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------
    /**
     * Statistics since the last resetStats(), across every thread
     * slot: a thread that exited still counts, in its slot.
     */
    StatsSnapshot snapshot();
    /**
     * Start a new statistics window (between benchmark phases). Safe
     * while other threads run transactions: counters only grow, so
     * this records their current fold as the baseline snapshot()
     * subtracts.
     */
    void resetStats();

  private:
    Runtime();

    RuntimeCfg cfg_;
    Algo *algo_ = nullptr;
    ContentionManager *cm_ = nullptr;
    TxDomain home_;

    /** Counters only grow; the fold minus statsBase_ is the window's. */
    StatsSnapshot fold() const;

    // atom-protocol: release-acquire-pair
    std::atomic<TxDesc *> descs_[thread_slot::kCapacity] = {};
    /** One block for every slot's descriptor. Allocated per thread,
     *  descriptors would sit at one offset in 64 MiB-aligned malloc
     *  arenas, and the pubStart lines a quiesce() scan loads would
     *  all map to one cache set. Untouched slots cost no memory. */
    alignas(TxDesc) std::byte descStore_[thread_slot::kCapacity]
                                        [sizeof(TxDesc)];
    /** Taken by stats readers only: snapshot() and resetStats(). */
    std::mutex statsMu_;
    StatsSnapshot statsBase_;
};

namespace detail
{

/** Begin one attempt (speculative or serial) of the top-level txn. */
void beginAttempt(Runtime &rt, TxDesc &d);

/** Commit the running attempt; throws TxAbort on validation failure. */
void commitAttempt(Runtime &rt, TxDesc &d);

/** Post-commit epilogue: stats, deferred frees, onCommit handlers. */
void finishCommit(Runtime &rt, TxDesc &d);

/** Roll back after TxAbort: undo, CM consultation, onAbort handlers. */
void handleAbort(Runtime &rt, TxDesc &d);

/**
 * Roll back after TxRetry, then block until some transaction commits
 * a write (global-clock movement), so the re-execution can observe a
 * different state.
 */
void handleRetry(Runtime &rt, TxDesc &d);

/** Set up descriptor state for a new top-level transaction. */
void setupTop(Runtime &rt, TxDesc &d, const TxnAttr &attr);

/**
 * Promote an invisible-reader fast-path attempt to the full path: the
 * body performed an operation the fast path cannot support (a store, a
 * deferred handler, a txFree). Rolls the attempt back via TxAbort; the
 * retry re-executes with full instrumentation. Not a conflict — the
 * contention manager is not consulted.
 */
[[noreturn]] void promoteRoFast(TxDesc &d, const char *what);

} // namespace detail

/**
 * Declare that the current operation is unsafe (I/O, volatile access,
 * unannotated call, ...). In an atomic transaction this is a fatal
 * error, modelling the specification's static rejection. In a
 * speculative relaxed transaction it aborts and restarts the
 * transaction in serial-irrevocable mode (what GCC does for an
 * in-flight switch). Once serial, it is a no-op.
 *
 * tmlint treats a preceding unsafeOp() call in the same block as the
 * serial-path waiver for rule TM3: the irrevocable operation that
 * follows it is exactly the in-flight-switch pattern.
 */
TM_SAFE void unsafeOp(TxDesc &d, const char *what);

/**
 * Model a call to a function with annotation @p fn_attr from inside a
 * transaction. Unannotated callees force serialization unless the
 * runtime is configured to infer safety (as GCC does).
 */
TM_SAFE void noteCall(TxDesc &d, FnAttr fn_attr, const char *name);

/**
 * Condition synchronization: abort the current transaction, block the
 * thread until another transaction commits, and re-execute from the
 * start. Call when a transactionally-read predicate does not hold
 * (e.g. "queue is empty"). Illegal in serial-irrevocable mode: an
 * irrevocable transaction excludes the very commits it would wait for.
 */
[[noreturn]] TM_SAFE void retry(TxDesc &d);

} // namespace tmemc::tm

#endif // TMEMC_TM_RUNTIME_H
