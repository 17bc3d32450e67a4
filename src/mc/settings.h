/**
 * @file
 * Cache configuration, mirroring memcached 1.4.15's `settings` struct
 * for the knobs that matter to the study.
 */

#ifndef TMEMC_MC_SETTINGS_H
#define TMEMC_MC_SETTINGS_H

#include <cstddef>
#include <cstdint>

namespace tmemc::mc
{

/** Tunables for one cache instance. */
struct Settings
{
    /** Total memory budget for item storage (-m). */
    std::size_t maxBytes = 64 * 1024 * 1024;
    /** Slab page size (memcached: 1 MiB; smaller here so the slab
     *  rebalancer has enough pages to move at test scale). */
    std::size_t slabPageSize = 64 * 1024;
    /** Smallest chunk size (roughly memcached's 48 + item overhead). */
    std::size_t slabChunkMin = 96;
    /** Slab growth factor (-f). */
    double slabGrowthFactor = 1.25;
    /** Largest storable item (-I). */
    std::size_t itemSizeMax = 16 * 1024;
    /** Initial hash table power (memcached: 16). */
    std::uint32_t hashPowerInit = 12;
    /** Number of item locks (power of two). */
    std::uint32_t itemLockCount = 1024;
    /** Verbosity: >0 logs events to stderr inside critical sections,
     *  the paper's fprintf-if-verbose pattern. */
    int verbose = 0;
    /** Max number of LRU tail items inspected when evicting. */
    int evictionSearchDepth = 5;
    /** LRU bump throttle: a GET hit relinks its item only once this
     *  many logical ticks have passed since the item's last bump.
     *  memcached 1.4.15 waits ITEM_UPDATE_INTERVAL = 60 s. The clock
     *  here ticks once per 64 operations, and the server serves
     *  300-500k ops/s on 4 cores, so 60 s is 18-30M operations, or
     *  2.8-4.7 x 10^5 ticks. 2^18 ticks (16.8M operations) is the
     *  power of two just below: as in memcached, a hit in a benchmark
     *  run almost never rewrites the shared per-class list. */
    std::uint64_t lruBumpInterval = std::uint64_t{1} << 18;
    /** Number of shards this cache is split into (1 = unsharded). */
    std::uint32_t shardCount = 1;
    /** Index of this instance within the shard set (stats labels,
     *  per-shard lock names, orec-table sizing). */
    std::uint32_t shardId = 0;
};

} // namespace tmemc::mc

#endif // TMEMC_MC_SETTINGS_H
