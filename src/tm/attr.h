/**
 * @file
 * Static transaction attributes and runtime configuration.
 *
 * These types model the static information the Draft C++ TM
 * Specification conveys through keywords and annotations:
 *
 *  - TxnKind::Atomic / TxnKind::Relaxed correspond to
 *    __transaction_atomic and __transaction_relaxed.
 *  - TxnAttr::startsSerial models the compiler's static determination
 *    that every code path through a relaxed transaction performs an
 *    unsafe operation, so the transaction must begin in
 *    serial-irrevocable mode ("Start Serial" in the paper's tables).
 *  - FnAttr models the transaction_safe / transaction_callable /
 *    transaction_pure function annotations plus the unannotated case.
 *
 * RuntimeCfg selects the pieces of the TM runtime the paper varies in
 * Section 4: the STM algorithm, the contention manager, and whether the
 * global readers/writer serialization lock exists at all.
 */

#ifndef TMEMC_TM_ATTR_H
#define TMEMC_TM_ATTR_H

#include <atomic>
#include <cstdint>

namespace tmemc::tm
{

/** Transaction kind per the Draft C++ TM Specification. */
enum class TxnKind : std::uint8_t
{
    /**
     * Statically checked to contain no unsafe operations; guaranteed
     * never to serialize for safety reasons.
     */
    Atomic,
    /**
     * May perform unsafe operations (I/O, volatiles, unannotated
     * calls); becomes serial-irrevocable when it encounters one.
     */
    Relaxed,
};

/** Why a transaction ran (or finished) in serial-irrevocable mode. */
enum class SerialCause : std::uint8_t
{
    None,      //!< Never serialized.
    Start,     //!< Unsafe on every path: began in serial mode.
    InFlight,  //!< Hit an unsafe operation mid-flight and switched.
    Abort,     //!< Serialized by the contention manager for progress.
};

/**
 * Static description of a transaction site (one __transaction_* block
 * in the source). Instances are expected to have static storage
 * duration (or live in a node map that is never erased); the runtime
 * keys per-site profiling off their addresses.
 */
struct TxnAttr
{
    /** Human-readable site name (file:function style). */
    const char *name = "anonymous";
    /** Atomic or relaxed. */
    TxnKind kind = TxnKind::Atomic;
    /**
     * True when the "compiler" (our branch configuration) determined
     * that every path performs an unsafe operation, so speculation is
     * pointless and the transaction begins serial.
     */
    bool startsSerial = false;
    /**
     * True when the site is expected to perform no transactional
     * writes (a GET-path copy, a refcount read). The runtime may start
     * such transactions on the invisible-reader fast path: loads are
     * sequence-validated against the domain clock, no read set is
     * kept, and commit is O(1). The hint is advisory — a write (or any
     * operation needing commit/abort machinery) promotes the attempt
     * to the full path and re-executes.
     */
    bool readOnlyHint = false;
    /**
     * True when code may access, outside any transaction, memory that
     * this transaction's commit makes private: the transaction unlinks
     * a node, pops a chunk or takes a tm-boolean lock, and the
     * committing thread (or one it hands off to) then uses the memory
     * with plain loads and stores. Such a commit must quiesce: wait
     * for every same-domain transaction that started before it, so
     * that no doomed reader still sees the memory and no eager writer
     * still has to undo a store into it.
     *
     * A writer commit quiesces when its top-level site or any section
     * nested in it privatizes, or when it deferred a txFree or
     * registered an onCommit handler. libitm quiesces every writer
     * commit; this flag narrows the rule, and the narrowing is sound
     * only for a site whose writes land solely in words that no code
     * ever accesses outside a transaction (counters, refcounts, LRU
     * links) and whose every free goes through a privatizing nested
     * section. A site may be declared non-privatizing only then.
     * Defaults to true, the libitm rule.
     */
    bool privatizes = true;
    /**
     * Dense per-site statistics index plus one, assigned on the
     * site's first transaction (0: not yet; see tm/stats.h). Written
     * once, under the slot registry lock. The atomic makes TxnAttr
     * non-copyable, which it never needed to be.
     */
    // atom-protocol: release-acquire-pair
    mutable std::atomic<std::uint32_t> statSlot{0};
};

/** Function annotations from the specification (+ GCC's extension). */
enum class FnAttr : std::uint8_t
{
    Unannotated,  //!< No annotation; callable only if safety inferred.
    Safe,         //!< transaction_safe: statically free of unsafe ops.
    Callable,     //!< transaction_callable: instrumented, may be unsafe.
    Pure,         //!< transaction_pure: uninstrumented, trusted.
};

/** Selectable STM algorithms (paper Section 4 / Figure 11). */
enum class AlgoKind : std::uint8_t
{
    GccEager,  //!< GCC default: direct update, eager orec locking.
    Lazy,      //!< Same orec table, buffered update, commit-time locks.
    NOrec,     //!< Value-based validation on a global seqlock.
    Serial,    //!< Always serial-irrevocable (debugging / reference).
    /**
     * Release-acquire variant of Lazy (Dalvandi & Dongol): acquire
     * loads against orecs and the domain clock, release stores on
     * commit, and no memory fences anywhere outside the serial-mode
     * fallback. Load validation reads the data word itself with
     * acquire ordering and re-reads the orec, instead of the fence +
     * relaxed re-read idiom (the data load's acquire is what orders
     * the validating orec re-read after it).
     */
    RA,
};

/** Printable name for @p kind (metrics and tail-trace labels). */
inline const char *
algoKindName(AlgoKind kind)
{
    switch (kind) {
      case AlgoKind::GccEager:
        return "gcc-eager";
      case AlgoKind::Lazy:
        return "lazy";
      case AlgoKind::NOrec:
        return "norec";
      case AlgoKind::Serial:
        return "serial";
      case AlgoKind::RA:
        return "ra";
    }
    return "?";
}

/** Selectable contention managers (paper Figure 11). */
enum class CmKind : std::uint8_t
{
    SerialAfterN,  //!< GCC default: serialize after N consecutive aborts.
    NoCM,          //!< Retry immediately, forever.
    Backoff,       //!< Randomized exponential backoff on abort.
    Hourglass,     //!< Starving txn blocks new txns until it commits.
};

/** Runtime configuration for the TM library. */
struct RuntimeCfg
{
    AlgoKind algo = AlgoKind::GccEager;
    CmKind cm = CmKind::SerialAfterN;
    /** Consecutive aborts before SerialAfterN serializes (GCC: 100). */
    std::uint32_t serialAfterAborts = 100;
    /** Consecutive aborts before Hourglass turns toxic (paper: 128). */
    std::uint32_t hourglassThreshold = 128;
    /**
     * Whether the global readers/writer serialization lock exists.
     * GCC ships with it; the paper's Figure 10 removes it once no
     * relaxed transaction remains. With it removed, irrevocability is
     * impossible and any unsafe operation is a fatal error.
     */
    bool useSerialLock = true;
    /**
     * Whether calls to Unannotated functions from relaxed transactions
     * are treated as safe because the "compiler" saw their bodies.
     * GCC infers safety aggressively, which is why the paper found no
     * performance difference from the callable annotation; setting
     * this to false models a conservative compiler (ablation study).
     */
    bool inferCallableSafety = true;
    /** log2 of the ownership-record table size. */
    std::uint32_t orecTableBits = 18;
    /**
     * Whether sites hinted TxnAttr::readOnlyHint begin on the
     * invisible-reader fast path (no orec writes, no read set, O(1)
     * commit). Off reverts every transaction to the full path — the
     * ablation knob bench_ro_tx measures.
     */
    bool roFastPath = true;
};

} // namespace tmemc::tm

#endif // TMEMC_TM_ATTR_H
