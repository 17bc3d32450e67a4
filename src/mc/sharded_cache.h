/**
 * @file
 * Key-to-shard routing for the cache handle.
 *
 * A cache handle partitions the key space across N >= 1 independent
 * CacheCore instances by the hash.h digest. Each shard owns a full
 * private synchronization domain — its own pthread locks in the
 * lock-based branches, its own TM domain (commit clock, serial lock,
 * orec stripe) in the TM branches — so operations on different shards
 * never conflict or serialize each other.
 *
 * The factory lives in cache_iface.h (makeShardedCache) and the
 * handle in branch.cc; this header only exposes the routing function
 * and the per-shard fault site so the server, tests, and benchmarks
 * can predict shard placement.
 */

#ifndef TMEMC_MC_SHARDED_CACHE_H
#define TMEMC_MC_SHARDED_CACHE_H

#include <cstdint>
#include <string>

namespace tmemc::mc
{

/**
 * Map a key digest to a shard index in [0, shards).
 *
 * Multiplicative range mapping over the *high* bits of the digest:
 * the associative table inside each shard indexes buckets with the
 * digest's low bits, so taking `hv % shards` would correlate shard
 * choice with bucket choice and leave each shard's table lopsided.
 * The 64-bit multiply-shift uses the full digest and is uniform for
 * any shard count, power of two or not.
 */
inline std::uint32_t
shardOfHash(std::uint32_t hv, std::uint32_t shards)
{
    return static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(hv) * shards) >> 32);
}

/**
 * Fault-injection site name consulted before every operation enters
 * shard @p shard ("mc.shard<N>.op"). Arming it with a delayUs policy
 * makes that shard slow — the injected-slow-shard schedule the tail
 * tracer's soak and round-trip tests blame. The handle consults it
 * when it routes an operation, at every shard count, outside any
 * transaction, so the delay may block (see fault::maybeDelay).
 */
inline std::string
shardFaultSite(std::uint32_t shard)
{
    return "mc.shard" + std::to_string(shard) + ".op";
}

} // namespace tmemc::mc

#endif // TMEMC_MC_SHARDED_CACHE_H
