/**
 * @file
 * Chained hash table with incremental expansion, after memcached's
 * assoc.c.
 *
 * Domain split (matches memcached 1.4.15):
 *  - bucket chains and item hNext fields are protected by the
 *    bucket-striped item locks;
 *  - the table pointers, hash power, and expansion cursor are cache
 *    domain, mutated only by the expansion maintenance path;
 *  - `expanding` is one of the paper's volatile flags: readers probe
 *    it racily (ctx.volatileLoad) to pick the right table while the
 *    maintenance thread migrates buckets.
 *
 * All functions take a memory context; the same source serves plain,
 * privatized, and transactional execution.
 */

#ifndef TMEMC_MC_ASSOC_H
#define TMEMC_MC_ASSOC_H

#include <cstring>

#include "mc/hash.h"
#include "mc/item.h"
#include "tm/strict.h"

namespace tmemc::mc
{

/** Hash-table state. */
struct AssocState
{
    Item **primary = nullptr;   //!< Current bucket array.
    Item **old = nullptr;       //!< Previous array during expansion.
    std::uint32_t hashPower = 0;
    std::uint64_t expanding = 0;     //!< Volatile-category flag.
    std::uint64_t expandBucket = 0;  //!< Next old-table bucket to move.
    std::uint64_t itemCount = 0;     //!< Linked items.

    std::uint64_t bucketCount() const { return 1ull << hashPower; }
    std::uint64_t mask() const { return bucketCount() - 1; }
};

/** Allocate and zero a bucket array (startup / expansion). */
inline Item **
assocNewTable(std::uint32_t power)
{
    const std::size_t n = std::size_t{1} << power;
    auto **table = static_cast<Item **>(std::calloc(n, sizeof(Item *)));
    return table;
}

/** Initialize at startup (single-threaded; no context needed). */
inline void
assocInit(AssocState &s, std::uint32_t power)
{
    s.primary = assocNewTable(power);
    s.hashPower = power;
}

/**
 * Pick the bucket slot for @p hv, honouring an in-flight expansion:
 * buckets below the cursor already moved to the primary table.
 * @return Pointer to the bucket head slot.
 */
template <typename Ctx>
TM_CALLABLE Item **
assocBucket(Ctx &c, AssocState &s, std::uint32_t hv)
{
    TMEMC_STRICT_SHARED_ENTRY(c, &s.primary, "assocBucket");
    // Expansion state is cache-domain structure, read under the same
    // section that guards the buckets (memcached reads `expanding`
    // under cache_lock; its true volatiles are the time and
    // maintenance flags).
    const std::uint64_t exp = c.load(&s.expanding);
    if (exp != 0) {
        const std::uint32_t power = c.load(&s.hashPower);
        const std::uint64_t oldidx = hv & ((1ull << (power - 1)) - 1);
        if (oldidx >= c.load(&s.expandBucket)) {
            Item **old_table = c.load(&s.old);
            return &old_table[oldidx];
        }
    }
    Item **primary = c.load(&s.primary);
    const std::uint32_t power = c.load(&s.hashPower);
    return &primary[hv & ((1ull << power) - 1)];
}

/**
 * Find the item with the given (private) key.
 * The chain walk compares keys with the context's memcmp — one of the
 * paper's unsafe standard-library calls until the Lib stage.
 */
template <typename Ctx>
TM_CALLABLE Item *
assocFind(Ctx &c, AssocState &s, const char *key, std::size_t nkey,
          std::uint32_t hv)
{
    TMEMC_STRICT_SHARED_ENTRY(c, &s.primary, "assocFind");
    Item **bucket = assocBucket(c, s, hv);
    Item *it = c.load(bucket);
    while (it != nullptr) {
        if (c.load(&it->nkey) == nkey &&
            c.memcmpS(it->key(), key, nkey) == 0)
            return it;
        it = c.load(&it->hNext);
    }
    return nullptr;
}

/** Insert a (fresh, filled) item at its bucket head. */
template <typename Ctx>
TM_CALLABLE void
assocInsert(Ctx &c, AssocState &s, Item *it, std::uint32_t hv)
{
    TMEMC_STRICT_SHARED_ENTRY(c, &s.primary, "assocInsert");
    Item **bucket = assocBucket(c, s, hv);
    c.store(&it->hNext, c.load(bucket));
    c.store(bucket, it);
    c.racyStore(&s.itemCount, c.load(&s.itemCount) + 1);
}

/**
 * Unlink @p it from its chain.
 * @return true if the item was found and removed.
 */
template <typename Ctx>
TM_CALLABLE bool
assocUnlink(Ctx &c, AssocState &s, Item *it, std::uint32_t hv)
{
    TMEMC_STRICT_SHARED_ENTRY(c, &s.primary, "assocUnlink");
    Item **slot = assocBucket(c, s, hv);
    for (;;) {
        Item *cur = c.load(slot);
        if (cur == nullptr)
            return false;
        if (cur == it) {
            c.store(slot, c.load(&it->hNext));
            c.store(&it->hNext, static_cast<Item *>(nullptr));
            c.racyStore(&s.itemCount, c.load(&s.itemCount) - 1);
            return true;
        }
        slot = &cur->hNext;
    }
}

/**
 * Begin an expansion: allocate a table twice the size and publish it
 * as primary; lookups consult the old table above the cursor until
 * the maintenance thread finishes migrating.
 * @return false when the new table cannot be allocated — the cache
 *         keeps serving from the current table (longer chains, not a
 *         crash) and a later trigger retries.
 */
template <typename Ctx>
TM_CALLABLE bool
assocStartExpand(Ctx &c, AssocState &s)
{
    TMEMC_STRICT_SHARED_ENTRY(c, &s.primary, "assocStartExpand");
    const std::uint32_t power = c.load(&s.hashPower);
    auto **fresh = static_cast<Item **>(
        c.allocRaw(sizeof(Item *) << (power + 1)));
    if (fresh == nullptr)
        return false;
    // Fresh memory is captured: plain initialization is safe.
    std::memset(fresh, 0, sizeof(Item *) << (power + 1));
    c.store(&s.old, c.load(&s.primary));
    c.store(&s.primary, fresh);
    c.racyStore(&s.hashPower, power + 1);
    c.store(&s.expandBucket, std::uint64_t{0});
    c.volatileStore(&s.expanding, std::uint64_t{1});
    return true;
}

/**
 * Migrate one old-table bucket into the primary table. Caller holds
 * the bucket's item lock (via itemTryWithin) in addition to the cache
 * section.
 * @return true when the expansion completed.
 */
template <typename Ctx>
TM_CALLABLE bool
assocExpandBucket(Ctx &c, AssocState &s)
{
    TMEMC_STRICT_SHARED_ENTRY(c, &s.primary, "assocExpandBucket");
    const std::uint64_t idx = c.load(&s.expandBucket);
    const std::uint32_t power = c.load(&s.hashPower);
    const std::uint64_t old_count = 1ull << (power - 1);
    Item **old_table = c.load(&s.old);
    Item **primary = c.load(&s.primary);

    Item *it = c.load(&old_table[idx]);
    while (it != nullptr) {
        Item *next = c.load(&it->hNext);
        // Re-hash: the key lives in shared memory; copy it out first
        // (instrumented), then hash privately — the same
        // stack-marshaling shape as the paper's library calls.
        char keybuf[256];
        const std::uint16_t nk = c.load(&it->nkey);
        c.memcpyOut(keybuf, it->key(), nk);
        const std::uint32_t h = hashKey(keybuf, nk);
        Item **slot = &primary[h & ((1ull << power) - 1)];
        c.store(&it->hNext, c.load(slot));
        c.store(slot, it);
        it = next;
    }
    c.store(&old_table[idx], static_cast<Item *>(nullptr));
    c.store(&s.expandBucket, idx + 1);

    if (idx + 1 == old_count) {
        // Done: retire the old table.
        c.volatileStore(&s.expanding, std::uint64_t{0});
        c.freeRaw(old_table);
        c.store(&s.old, static_cast<Item **>(nullptr));
        return true;
    }
    return false;
}

} // namespace tmemc::mc

#endif // TMEMC_MC_ASSOC_H
