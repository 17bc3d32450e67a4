/**
 * @file
 * STM algorithm interface.
 *
 * Each algorithm is a stateless singleton operating on TxDesc state;
 * global shared metadata (orec table, clocks) lives in the Runtime.
 * Dispatch is virtual: a transactional load/store is an indirect
 * function call, matching the cost structure of GCC's libitm dispatch
 * table that the paper measures.
 *
 * Contract: any member that detects a conflict throws TxAbort *after*
 * leaving the descriptor in a state from which rollback() can fully
 * clean up (undo applied writes, release held locks).
 */

#ifndef TMEMC_TM_ALGO_H
#define TMEMC_TM_ALGO_H

#include <cstdint>

#include "common/logging.h"
#include "tm/txdesc.h"

namespace tmemc::tm
{

class Runtime;

/** Abstract STM algorithm. */
class Algo
{
  public:
    virtual ~Algo() = default;

    /** Stable algorithm name for reports. */
    virtual const char *name() const = 0;

    /**
     * Begin a speculative attempt (serial mode bypasses the algo). The
     * attempt runs on the invisible-reader fast path when the runtime
     * set TxDesc::roFast before the call; begin() itself is the same.
     */
    virtual void begin(Runtime &rt, TxDesc &d) = 0;

    /**
     * Fast-path load: validate the word against the begin snapshot
     * without recording it in any read set. Only called on a roFast
     * attempt, between begin() and commit/rollback; a conflict throws
     * TxAbort (there is no read set to extend or revalidate).
     */
    virtual std::uint64_t
    loadWordRO(Runtime &rt, TxDesc &d, std::uintptr_t word_addr)
    {
        (void)rt;
        (void)d;
        (void)word_addr;
        panic("loadWordRO on an algorithm without a read-only fast path");
    }

    /**
     * Transactional load of the aligned word at @p word_addr.
     * @return The full 64-bit word (callers extract masked bytes).
     */
    virtual std::uint64_t loadWord(Runtime &rt, TxDesc &d,
                                   std::uintptr_t word_addr) = 0;

    /**
     * Transactional store of @p mask bytes of @p val to the aligned
     * word at @p word_addr.
     */
    virtual void storeWord(Runtime &rt, TxDesc &d, std::uintptr_t word_addr,
                           std::uint64_t val, std::uint64_t mask) = 0;

    /**
     * Attempt to commit; throws TxAbort if validation fails.
     * @return A commit timestamp the orchestration must quiesce on
     *         (privatization safety / safe reclamation), or 0 when no
     *         quiescence is needed (read-only commits).
     */
    virtual std::uint64_t commit(Runtime &rt, TxDesc &d) = 0;

    /** Undo all speculative effects and release all locks. */
    virtual void rollback(Runtime &rt, TxDesc &d) = 0;

    /** True when the attempt has made no writes. */
    virtual bool isReadOnly(const TxDesc &d) const = 0;
};

/** Singleton accessors, defined by the respective algo_*.cc files. */
Algo &gccEagerAlgo();
Algo &lazyAlgo();
Algo &norecAlgo();
Algo &serialAlgo();
Algo &raAlgo();

/** Resolve an AlgoKind to its singleton. */
Algo &algoFor(AlgoKind kind);

} // namespace tmemc::tm

#endif // TMEMC_TM_ALGO_H
