/**
 * @file
 * Runtime-dispatch facade over the branch instantiations of
 * CacheCore<Policy>, so benchmarks and examples can select a branch by
 * name ("Baseline", "IP-Callable", "IT-onCommit", ...) without
 * compile-time knowledge of the policy types.
 */

#ifndef TMEMC_MC_CACHE_IFACE_H
#define TMEMC_MC_CACHE_IFACE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mc/branch.h"
#include "mc/cache.h"
#include "mc/lockprof.h"
#include "mc/mcstats.h"
#include "mc/settings.h"

namespace tmemc::mc
{

/** Branch-erased cache handle. */
class CacheIface
{
  public:
    virtual ~CacheIface() = default;

    virtual const char *branchName() const = 0;
    virtual const BranchCfg &branchCfg() const = 0;

    struct GetResult
    {
        OpStatus status = OpStatus::Miss;
        std::size_t vlen = 0;
        std::uint64_t casId = 0;
    };

    virtual GetResult get(std::uint32_t tid, const char *key,
                          std::size_t nkey, char *out,
                          std::size_t out_cap) = 0;

    /** One key of a batched multi-get. */
    struct MultiGetReq
    {
        const char *key = nullptr;
        std::size_t nkey = 0;
        char *out = nullptr;
        std::size_t outCap = 0;
        GetResult result;
    };

    /**
     * Batched lookup: fill result for every request. The sharded cache
     * overrides this to visit each touched shard exactly once; the
     * default is a plain per-key loop.
     */
    virtual void
    getMulti(std::uint32_t tid, MultiGetReq *reqs, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i) {
            reqs[i].result = get(tid, reqs[i].key, reqs[i].nkey,
                                 reqs[i].out, reqs[i].outCap);
        }
    }

    /**
     * SET/ADD/REPLACE/CAS with expiry @p exptime (0 = never). On Ok the
     * item's new CAS id is written to @p cas_out when non-null: it is
     * the id the store's own link transaction assigned, so it never
     * belongs to a concurrent writer.
     */
    virtual OpStatus store(std::uint32_t tid, const char *key,
                           std::size_t nkey, const char *val,
                           std::size_t nbytes,
                           StoreMode mode = StoreMode::Set,
                           std::uint64_t cas_expected = 0,
                           std::int64_t exptime = 0,
                           std::uint64_t *cas_out = nullptr) = 0;
    virtual OpStatus del(std::uint32_t tid, const char *key,
                         std::size_t nkey) = 0;
    virtual OpStatus arith(std::uint32_t tid, const char *key,
                           std::size_t nkey, std::uint64_t delta,
                           bool incr, std::uint64_t &out_value) = 0;
    virtual OpStatus touch(std::uint32_t tid, const char *key,
                           std::size_t nkey, std::int64_t exptime) = 0;
    virtual OpStatus concat(std::uint32_t tid, const char *key,
                            std::size_t nkey, const char *extra,
                            std::size_t nextra, bool append) = 0;
    virtual std::size_t statsText(std::uint32_t tid, char *out,
                                  std::size_t cap) = 0;
    virtual void flushAll(std::uint32_t tid) = 0;

    virtual GlobalStats globalStats() = 0;
    virtual ThreadStatsBlock threadStats() = 0;
    virtual std::vector<LockProfileRow> lockProfile() const = 0;
    virtual std::uint64_t linkedItemCount() = 0;
    virtual std::uint32_t hashPowerNow() = 0;
    virtual void quiesceMaintenance() = 0;
    virtual void requestRebalance(std::uint32_t src_cls,
                                  std::uint32_t dst_cls) = 0;

    /** Number of independent shards behind this handle (1 = unsharded). */
    virtual std::uint32_t shardCount() const { return 1; }
    /** Which shard a key maps to (always 0 when unsharded). */
    virtual std::uint32_t shardOf(const char *key, std::size_t nkey) const
    {
        (void)key;
        (void)nkey;
        return 0;
    }
};

/**
 * Instantiate the cache for a named branch.
 * @param branch  One of the names from allBranchNames().
 * @param settings Cache tunables.
 * @param worker_threads Number of client threads that will drive it.
 * @return nullptr if the branch name is unknown.
 */
std::unique_ptr<CacheIface> makeCache(const std::string &branch,
                                      const Settings &settings,
                                      std::uint32_t worker_threads);

/**
 * Instantiate a cache partitioned into @p shards independent instances
 * of @p branch, each with its own synchronization domain (lock set or
 * TM context / orec stripe). Keys are routed by the hash.h digest.
 * With shards == 1 this is equivalent to makeCache().
 * @return nullptr if the branch name is unknown or shards == 0.
 */
std::unique_ptr<CacheIface> makeShardedCache(const std::string &branch,
                                             const Settings &settings,
                                             std::uint32_t worker_threads,
                                             std::uint32_t shards);

} // namespace tmemc::mc

#endif // TMEMC_MC_CACHE_IFACE_H
