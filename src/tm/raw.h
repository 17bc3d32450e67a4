/**
 * @file
 * Race-tolerant raw word access and word/mask arithmetic.
 *
 * The direct-update algorithm writes program memory in place while
 * concurrent transactions may be reading it; doing that with plain
 * loads/stores would be a data race in the C++ memory model. All raw
 * memory touched by the TM instrumentation therefore goes through the
 * relaxed atomic accessors below (this is exactly what libitm does).
 *
 * The word/mask helpers convert arbitrary byte ranges into aligned
 * 64-bit word accesses with byte-enable masks, which is the granularity
 * at which every algorithm in src/tm operates.
 *
 * Annotation contract (read by tools/tmlint — see common/compiler.h):
 *
 *  - wordBase / wordOffset / byteMask / maskMerge are TM_PURE in the
 *    strict sense: pure arithmetic on values, no memory access at all.
 *  - rawLoad / rawStore are ALSO annotated TM_PURE, but they are the
 *    deliberate escape hatch of this header: they touch shared memory
 *    without a TxDesc. They exist solely so the TM runtime itself (the
 *    algorithms, the serial fast path, the redo/undo logs) can
 *    implement the instrumentation — the library analogue of libitm's
 *    own internal accesses, which GCC's checker never sees either.
 *    Application code under src/mc and src/net must never call them
 *    from a transaction body; tmlint flags rawLoad/rawStore calls in
 *    checked regions outside the trusted src/tm runtime (rule TM1),
 *    annotation or not, precisely because they bypass instrumentation.
 */

#ifndef TMEMC_TM_RAW_H
#define TMEMC_TM_RAW_H

#include <cstdint>
#include <cstring>

#include "common/compiler.h"

namespace tmemc::tm
{

/** TM access granularity in bytes. */
constexpr std::size_t wordBytes = 8;

/** Align an address down to its containing TM word. */
TM_PURE TMEMC_ALWAYS_INLINE std::uintptr_t
wordBase(const void *addr)
{
    return reinterpret_cast<std::uintptr_t>(addr) & ~(wordBytes - 1);
}

/** Byte offset of an address within its TM word. */
TM_PURE TMEMC_ALWAYS_INLINE std::size_t
wordOffset(const void *addr)
{
    return reinterpret_cast<std::uintptr_t>(addr) & (wordBytes - 1);
}

/**
 * Byte-enable mask covering @p len bytes starting at byte @p off of a
 * word. Each enabled byte contributes 0xff to the mask.
 * @pre off + len <= wordBytes.
 */
TM_PURE TMEMC_ALWAYS_INLINE std::uint64_t
byteMask(std::size_t off, std::size_t len)
{
    if (len >= wordBytes)
        return ~0ull;
    const std::uint64_t ones = (1ull << (8 * len)) - 1;
    return ones << (8 * off);
}

/** Merge masked bytes of @p val over @p base. */
TM_PURE TMEMC_ALWAYS_INLINE std::uint64_t
maskMerge(std::uint64_t base, std::uint64_t val, std::uint64_t mask)
{
    return (base & ~mask) | (val & mask);
}

/** Relaxed atomic load of an aligned 64-bit word. Runtime-internal
 *  escape hatch: bypasses instrumentation (see header comment). */
TM_PURE TMEMC_ALWAYS_INLINE std::uint64_t
rawLoad(const void *word_addr)
{
    return __atomic_load_n(static_cast<const std::uint64_t *>(word_addr),
                           __ATOMIC_RELAXED);
}

/**
 * Acquire atomic load of an aligned 64-bit word. Runtime-internal
 * escape hatch like rawLoad, for the fence-free validation idiom
 * (AcquireOrder, tm/algo_orec_common.h): an acquire data load cannot
 * be reordered with the orec re-read that follows it, which is what
 * makes the double-read bracket sound without a standalone acquire
 * fence. A relaxed data load would NOT be held in place by an acquire
 * re-read of the orec — acquire only orders *later* accesses after
 * itself.
 */
TM_PURE TMEMC_ALWAYS_INLINE std::uint64_t
rawLoadAcquire(const void *word_addr)
{
    return __atomic_load_n(static_cast<const std::uint64_t *>(word_addr),
                           __ATOMIC_ACQUIRE);
}

/** Relaxed atomic store of an aligned 64-bit word. Runtime-internal
 *  escape hatch: bypasses instrumentation (see header comment). */
TM_PURE TMEMC_ALWAYS_INLINE void
rawStore(void *word_addr, std::uint64_t val)
{
    __atomic_store_n(static_cast<std::uint64_t *>(word_addr), val,
                     __ATOMIC_RELAXED);
}

} // namespace tmemc::tm

#endif // TMEMC_TM_RAW_H
