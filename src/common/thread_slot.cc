/**
 * @file
 * Slot claim and release for the per-thread slot table.
 */

#include "common/thread_slot.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"

namespace tmemc::thread_slot
{

namespace
{

/** Held flags: claim is an acquire exchange, release a release store,
 *  so the next owner sees everything the previous one wrote. */
// atom-protocol: rw-lock
std::atomic<bool> g_held[kCapacity] = {};
// atom-protocol: release-acquire-pair
std::atomic<std::size_t> g_highWater{0};
// atom-protocol: relaxed-counter
std::atomic<std::uint64_t> g_nextId{1};

/** Set once this thread's release ran: a claim from a later
 *  thread-exit destructor keeps its slot rather than re-arm it. */
thread_local bool t_released = false;

struct Releaser
{
    Releaser() = default;
    Releaser(const Releaser &) = delete;
    Releaser &operator=(const Releaser &) = delete;
    ~Releaser()
    {
        g_held[detail::t_claim.index].store(false,
                                            std::memory_order_release);
        detail::t_claim = {};
        t_released = true;
    }
};

} // namespace

namespace detail
{

void
claim()
{
    std::size_t slot = 0;
    while (g_held[slot].load(std::memory_order_acquire) ||
           g_held[slot].exchange(true, std::memory_order_acquire)) {
        if (++slot == kCapacity)
            panic("more than %zu threads hold a thread slot", kCapacity);
    }
    // Always a store, even when the mark already covers the slot: the
    // caller's first fenced store must follow a write of this mark.
    std::size_t hw = 0;
    while (!g_highWater.compare_exchange_weak(hw, std::max(hw, slot + 1),
                                              std::memory_order_release,
                                              std::memory_order_acquire)) {
    }
    t_claim = {slot, g_nextId.fetch_add(1, std::memory_order_relaxed)};
    if (!t_released) {
        thread_local Releaser releaser;
    }
}

} // namespace detail

std::size_t
highWater()
{
    return g_highWater.load(std::memory_order_acquire);
}

} // namespace tmemc::thread_slot
