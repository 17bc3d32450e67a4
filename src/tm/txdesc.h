/**
 * @file
 * Per-thread transaction descriptor.
 *
 * A TxDesc is the runtime state of one thread's (possibly flat-nested)
 * transaction: its read set, write/undo logs, held orec locks, deferred
 * handlers and frees, plus the per-thread statistics block. It is the
 * library analogue of libitm's gtm_thread.
 *
 * The descriptor is cache-line aligned so its address can double as an
 * orec lock word (low bit free, see orec.h). The only fields other
 * threads load, domain and pubStart, share a cache line with nothing
 * else: the owner writes its read-set header on every transactional
 * read, and a quiesce() scan must not pull that line in.
 */

#ifndef TMEMC_TM_TXDESC_H
#define TMEMC_TM_TXDESC_H

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/backoff.h"
#include "common/compiler.h"
#include "tm/attr.h"
#include "tm/handlers.h"
#include "tm/opacity.h"
#include "tm/orec.h"
#include "tm/redo_log.h"
#include "tm/stats.h"

namespace tmemc::tm
{

class TxDomain;

/**
 * Control-flow exception used to unwind a doomed transaction back to
 * the retry loop in tm::run(). This models libitm's longjmp back to
 * the begin checkpoint.
 */
struct TxAbort
{
};

/**
 * Control-flow exception for tm::retry(): the transaction rolls back
 * and blocks until another transaction commits, then re-executes.
 * This is the composable-memory-transactions "retry" the paper lists
 * among the condition-synchronization mechanisms TM specifications
 * should adopt (Section 3.2 / Section 5).
 */
struct TxRetry
{
};

/** Orec-based read-set entry: the orec and the word observed at read. */
struct ReadEntry
{
    OrecWord *orec;
    std::uint64_t word;
};

/** Value-based read-set entry (NOrec). */
struct ValueEntry
{
    std::uintptr_t wordAddr;
    std::uint64_t value;
};

/** Undo-log entry (GccEager direct update). */
struct UndoEntry
{
    std::uintptr_t wordAddr;
    std::uint64_t oldValue;
};

/** A write lock this transaction holds and the word it replaced. */
struct LockEntry
{
    OrecWord *orec;
    std::uint64_t prevWord;
};

/** Execution mode of the current transaction attempt. */
enum class RunState : std::uint8_t
{
    Inactive,           //!< No transaction running on this thread.
    Speculative,        //!< Instrumented, abortable execution.
    SerialIrrevocable,  //!< Exclusive, uninstrumented execution.
};

/** Per-thread transaction descriptor. */
class alignas(cachelineBytes) TxDesc
{
  public:
    // ------------------------------------------------------------------
    // Identity
    // ------------------------------------------------------------------
    /** The owning thread's id (thread_slot::mine().id); the descriptor
     *  itself belongs to a thread slot and outlives its threads. */
    std::uint64_t threadId = 0;

    // ------------------------------------------------------------------
    // Current transaction attempt
    // ------------------------------------------------------------------
    RunState state = RunState::Inactive;
    const TxnAttr *attr = nullptr;
    TxnKind kind = TxnKind::Atomic;
    int nesting = 0;
    /** Why this transaction is (or became) serial. */
    SerialCause serialCause = SerialCause::None;
    /** Set by unsafeOp(): the retry must run in serial mode. */
    bool pendingSerialRestart = false;
    /** The rollback in progress was requested by unsafeOp(), not by a
     *  data conflict; it must not feed the contention manager. */
    bool abortIsSwitch = false;
    /** This attempt is on the invisible-reader fast path: loads are
     *  validated individually, no read set is kept, commit is O(1). */
    bool roFast = false;
    /** The next attempt must take the full path: the fast path hit a
     *  write (promotion) or a conflict (the full path can extend its
     *  start time; the fast path cannot). Cleared by setupTop. */
    bool roPromote = false;
    /**
     * This attempt's writer commit must quiesce (TxnAttr::privatizes):
     * beginAttempt sets it from the top-level site, and every nested
     * tm::run ORs in its own site's flag, so a privatizing section
     * flattened into a non-privatizing transaction still makes the
     * whole commit wait. A deferred free or an onCommit handler
     * forces the wait as well (commitAttempt). Skipping the wait
     * otherwise is sound because it protects only what runs after
     * the commit outside a transaction; no other transaction's
     * safety rests on this commit waiting (TxnAttr::privatizes).
     */
    bool privatizing = true;
    /** Consecutive conflict aborts of the current transaction. */
    std::uint32_t consecAborts = 0;

    // ------------------------------------------------------------------
    // Algorithm state
    // ------------------------------------------------------------------
    /** Snapshot of the global clock (GccEager / Lazy). */
    std::uint64_t startTime = 0;
    /** Snapshot of the NOrec sequence lock. */
    std::uint64_t norecSnapshot = 0;

    // ------------------------------------------------------------------
    // Quiescence publication: the line other threads' scans load
    // ------------------------------------------------------------------
    /**
     * Domain this transaction runs in (set by setupTop before the
     * start time is published; read concurrently by quiesce()). Points
     * at the runtime's home domain unless a DomainScope was in effect.
     */
    // atom-protocol: relaxed-ok(ordering rides on pubStart: written
    // before its release store, read after its acquire load)
    alignas(cachelineBytes) std::atomic<TxDomain *> domain{nullptr};

    /** The running transaction's domain (algorithm fast path). */
    TxDomain &
    dom()
    {
        return *domain.load(std::memory_order_relaxed);
    }

    /** Published start time for commit-time quiescence; 0 = inactive.
     *  Stored as startTime + 1 so that startTime 0 is representable.
     *  The publish and quiesce()'s scan are also a store-load pair,
     *  fenced on both sides (see publishStart()). */
    // atom-protocol: release-acquire-pair
    std::atomic<std::uint64_t> pubStart{0};

    // ------------------------------------------------------------------
    // Logs (the owner writes the read-set header on every read)
    // ------------------------------------------------------------------
    alignas(cachelineBytes) std::vector<ReadEntry> readSet;
    std::vector<ValueEntry> valueReads;
    std::vector<UndoEntry> undoLog;
    std::vector<LockEntry> writeLocks;
    RedoLog redoLog;

    // ------------------------------------------------------------------
    // Deferred actions
    // ------------------------------------------------------------------
    HandlerList onCommitHandlers;
    HandlerList onAbortHandlers;
    /** Buffers whose free() is deferred until after commit. */
    std::vector<void *> commitFrees;
    /** Speculatively allocated buffers to free on abort. */
    std::vector<void *> abortFrees;

    // ------------------------------------------------------------------
    // Contention-manager state and statistics
    // ------------------------------------------------------------------
    ExpBackoff cmBackoff;
    /** Counts of every thread that held this descriptor's slot. */
    ThreadStats stats;

    // ------------------------------------------------------------------
    // Opacity recorder (opacity.h; latched per attempt by beginAttempt)
    // ------------------------------------------------------------------
    /** This attempt is being recorded for the opacity checker. */
    bool opRecording = false;
    /** Arm epoch the attempt latched; finishRecord drops the record
     *  if the armed window has moved on (opacity.h). */
    std::uint64_t opEpoch = 0;
    /** Global stamp taken before the attempt's first access. */
    std::uint64_t opBegin = 0;
    /** Program-order access log of the recorded attempt. */
    std::vector<opacity::Access> opAccesses;

    // ------------------------------------------------------------------
    // Observability (obs/metrics.h histograms, stamped by runtime.cc)
    // ------------------------------------------------------------------
    /** nowNanos() at setupTop when this transaction's latency is
     *  sampled (0: not sampled; see kTxSampleEvery in runtime.cc). */
    std::uint64_t obsStartNs = 0;
    /** nowNanos() when the attempt entered serial mode (0: never). */
    std::uint64_t obsSerialStartNs = 0;
    /** Top-level transactions begun on this descriptor; each block of
     *  kTxSampleEvery has one latency sample. */
    std::uint32_t obsTxSeq = 0;
    /** Position of the current block's sample. */
    std::uint32_t obsTxPick = 0;
    /** Sample-position generator state (never 0). */
    std::uint32_t obsTxRng = 0x9e3779b9;
    /** Attempts (speculative + serial) of the current transaction. */
    std::uint32_t obsAttempts = 0;

    /** Reset all per-attempt algorithm state. */
    void
    clearSets()
    {
        readSet.clear();
        valueReads.clear();
        undoLog.clear();
        writeLocks.clear();
        redoLog.clear();
    }

    /**
     * Publish this attempt's start time for quiescence. The fence
     * keeps the store ahead of every later orec or clock load: without
     * it the store can wait in the store buffer while those loads run,
     * and a committer whose quiesce() scan misses it frees memory this
     * attempt is still reading.
     */
    void
    publishStart(std::uint64_t start_time)
    {
        pubStart.store(start_time + 1, std::memory_order_release);
        std::atomic_thread_fence(std::memory_order_seq_cst);
    }

    /** Withdraw from quiescence consideration. */
    void
    unpublishStart()
    {
        pubStart.store(0, std::memory_order_release);
    }
};

} // namespace tmemc::tm

#endif // TMEMC_TM_TXDESC_H
