/**
 * @file
 * Branch configuration: the ladder of transactionalization stages from
 * the paper's Section 3, expressed as a constexpr descriptor.
 *
 * Each stage changes which operations inside critical sections are
 * unsafe:
 *
 *   stage 3 (Replacing Locks):   refcount RMW, volatile flags, libc
 *                                calls, and I/O are all unsafe inside
 *                                the new relaxed transactions.
 *   stage 3 (Handling Volatiles / Max): refcounts and volatiles become
 *                                transactional accesses.
 *   stage 4 (Lib):               libc calls replaced by tmsafe ones.
 *   stage 5 (onCommit):          I/O and sem_post move to handlers;
 *                                no transaction can serialize.
 *
 * The item-lock strategy is the IP/IT fork from Section 3.1.
 */

#ifndef TMEMC_MC_BRANCH_H
#define TMEMC_MC_BRANCH_H

#include <cstdint>
#include <string>
#include <vector>

#include "tm/attr.h"

namespace tmemc::mc
{

/** How item locks are rendered (paper Section 3.1, Figure 1). */
enum class ItemStrategy : std::uint8_t
{
    PthreadSpin,  //!< Baseline: pthread mutex, spin on trylock.
    TmBool,       //!< IP: transactional boolean lock; privatizes data.
    TxSection,    //!< IT: the critical section becomes a transaction.
};

/** Categories of unsafe operation inside critical sections. */
enum class UnsafeCat : std::uint8_t
{
    AtomicRmw,  //!< lock_incr-style refcount ops (safe after Max).
    Volatile,   //!< Maintenance/status flags (safe after Max).
    Lib,        //!< memcmp/memcpy/strtoull/snprintf/... (safe after Lib).
    Io,         //!< fprintf/perror/sem_post/event_get_version
                //!< (moved out after onCommit).
};

/** One branch of the transactionalized memcached. */
struct BranchCfg
{
    /** Item-lock rendering. */
    ItemStrategy items = ItemStrategy::PthreadSpin;
    /** Condition variables replaced with semaphores (Section 3.2). */
    bool semaphores = false;
    /** Locks replaced with transactions at all. */
    bool useTm = false;
    /** transaction_callable annotations applied (the *-Callable fork). */
    bool annotateCallable = false;
    /** Volatiles and refcounts transactionalized (the *-Max fork). */
    bool safeVolatiles = false;
    /** Standard library calls via tmsafe (the *-Lib fork). */
    bool safeLibs = false;
    /** I/O and sem_post via onCommit handlers (the *-onCommit fork). */
    bool onCommitIo = false;
    /**
     * The paper's future-work optimization (Section 3.3, citing
     * Dragojevic et al.): once whole operations are transactions, the
     * reference-count increments/decrements that bridge a get's
     * find/copy/release sections can be elided — the fused transaction
     * covers the whole window, and conflict detection replaces the
     * count. Implemented as an extension branch ("IT-Fused").
     */
    bool fusedGet = false;
    /**
     * Run on the release-acquire STM (tm::AlgoKind::RA) instead of the
     * GCC-default eager algorithm: acquire loads, release commits, no
     * fences outside the serial fallback (the "IT-RA" branch).
     */
    bool raTm = false;

    constexpr bool operator==(const BranchCfg &) const = default;

    /** Is a category still unsafe for this branch? */
    constexpr bool
    isUnsafe(UnsafeCat cat) const
    {
        switch (cat) {
          case UnsafeCat::AtomicRmw:
          case UnsafeCat::Volatile:
            return !safeVolatiles;
          case UnsafeCat::Lib:
            return !safeLibs;
          case UnsafeCat::Io:
            return !onCommitIo;
        }
        return true;
    }
};

// ----------------------------------------------------------------------
// The named branches from the paper's figures
// ----------------------------------------------------------------------

inline constexpr BranchCfg kBaseline{};

inline constexpr BranchCfg kSemaphore{
    .items = ItemStrategy::PthreadSpin, .semaphores = true};

inline constexpr BranchCfg kIP{.items = ItemStrategy::TmBool,
                               .semaphores = true,
                               .useTm = true};

inline constexpr BranchCfg kIT{.items = ItemStrategy::TxSection,
                               .semaphores = true,
                               .useTm = true};

inline constexpr BranchCfg kIPCallable = [] {
    BranchCfg c = kIP;
    c.annotateCallable = true;
    return c;
}();

inline constexpr BranchCfg kITCallable = [] {
    BranchCfg c = kIT;
    c.annotateCallable = true;
    return c;
}();

inline constexpr BranchCfg kIPMax = [] {
    BranchCfg c = kIPCallable;
    c.safeVolatiles = true;
    return c;
}();

inline constexpr BranchCfg kITMax = [] {
    BranchCfg c = kITCallable;
    c.safeVolatiles = true;
    return c;
}();

inline constexpr BranchCfg kIPLib = [] {
    BranchCfg c = kIPMax;
    c.safeLibs = true;
    return c;
}();

inline constexpr BranchCfg kITLib = [] {
    BranchCfg c = kITMax;
    c.safeLibs = true;
    return c;
}();

inline constexpr BranchCfg kIPOnCommit = [] {
    BranchCfg c = kIPLib;
    c.onCommitIo = true;
    return c;
}();

inline constexpr BranchCfg kITOnCommit = [] {
    BranchCfg c = kITLib;
    c.onCommitIo = true;
    return c;
}();

inline constexpr BranchCfg kITFused = [] {
    BranchCfg c = kITOnCommit;
    c.fusedGet = true;
    return c;
}();

/**
 * Branch #14: the fully transactionalized cache (IT-Fused shape) on
 * the release-acquire STM. Same code paths, weaker memory ordering —
 * the opacity checker and litmus suite are what certify it.
 */
inline constexpr BranchCfg kITRA = [] {
    BranchCfg c = kITFused;
    c.raTm = true;
    return c;
}();

/**
 * Ablation-only branch: the Lib stage with the callable annotations
 * stripped. Under GCC's safety inference it behaves exactly like
 * IP-Lib; under a conservative compiler
 * (RuntimeCfg::inferCallableSafety = false) every helper call from a
 * relaxed transaction serializes — which is what the callable
 * annotation exists to prevent.
 */
inline constexpr BranchCfg kIPLibBare = [] {
    BranchCfg c = kIPLib;
    c.annotateCallable = false;
    return c;
}();

/** Stable names used by benchmarks and the branch registry. */
const char *branchName(const BranchCfg &cfg);

/** All branch names, in paper order. */
std::vector<std::string> allBranchNames();

/**
 * TM runtime configuration a branch expects: IT-RA selects the RA
 * algorithm; every other branch runs the GCC-default configuration.
 * Callers (server, harness, tests) must configure() this before
 * creating the branch's cache.
 */
tm::RuntimeCfg runtimeCfgFor(const std::string &branch);

} // namespace tmemc::mc

#endif // TMEMC_MC_BRANCH_H
