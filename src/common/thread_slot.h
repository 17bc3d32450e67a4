/**
 * @file
 * The process's one table of per-thread slots.
 *
 * A thread claims the lowest free slot on first use and releases it
 * at thread exit. Per-thread state (the TM descriptor, the probe's
 * event ring, a histogram stripe) is indexed by slot, and its storage
 * is never freed: the next thread to claim the slot reuses it. So a
 * scanner reads slots [0, highWater()) without any lock, and a
 * departed thread's counters and records stay where they were.
 *
 * The capacity is a compile-time constant; claiming a slot while all
 * of them are held is a panic.
 */

#ifndef TMEMC_COMMON_THREAD_SLOT_H
#define TMEMC_COMMON_THREAD_SLOT_H

#include <cstddef>
#include <cstdint>

namespace tmemc::thread_slot
{

/** Threads that may hold a slot at once. */
inline constexpr std::size_t kCapacity = 256;

/** A thread's claim: its slot, and an id that is fresh per claim
 *  (1, 2, ...) and never reused. */
struct Claim
{
    std::size_t index = 0;
    std::uint64_t id = 0;
};

namespace detail
{
inline thread_local Claim t_claim;
/** Claim the lowest free slot and arm its release at thread exit. */
void claim();
} // namespace detail

/** This thread's claim, made on first call. */
inline const Claim &
mine()
{
    if (detail::t_claim.id == 0) [[unlikely]]
        detail::claim();
    return detail::t_claim;
}

/** This thread's slot. */
inline std::size_t
index()
{
    return mine().index;
}

/**
 * One past the highest slot ever claimed. Monotonic. A claim stores
 * it before the claimer's next store, so a scanner whose loads are
 * ordered after that store (by a fence pair, or acquire) covers the
 * new slot.
 */
std::size_t highWater();

} // namespace tmemc::thread_slot

#endif // TMEMC_COMMON_THREAD_SLOT_H
