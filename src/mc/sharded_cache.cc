/**
 * @file
 * ShardedCache: a CacheIface that partitions keys across N independent
 * single-shard caches (see sharded_cache.h for the routing function).
 *
 * Every per-key operation routes to exactly one shard; multi-key gets
 * are grouped so each touched shard is visited once; whole-cache
 * operations (stats, flush, maintenance quiescence) fan out and
 * aggregate. The ASCII stats reply keeps the unsharded keys as sums
 * over shards — existing consumers parse it unchanged — and appends
 * shard_count plus per-shard hit/miss/evict rows.
 */

#include "mc/sharded_cache.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/fault.h"
#include "common/logging.h"
#include "mc/cache_iface.h"
#include "mc/hash.h"
#include "obs/hist.h"
#include "obs/metrics.h"
#include "obs/probe.h"

namespace tmemc::mc
{

namespace
{

/**
 * Records one HistKind::CacheOp sample covering the enclosing scope.
 * Lives only in the sharded wrapper: makeShardedCache with shards==1
 * returns the underlying cache directly, so single-shard setups (the
 * benches' default, and the lock-based Baseline branch) pay nothing.
 */
struct OpTimer
{
    std::uint64_t t0 = obs::nowNanos();

    OpTimer() = default;
    OpTimer(const OpTimer &) = delete;
    OpTimer &operator=(const OpTimer &) = delete;
    ~OpTimer()
    {
        obs::hist(obs::HistKind::CacheOp).record(obs::nowNanos() - t0);
    }
};

class ShardedCache final : public CacheIface
{
  public:
    ShardedCache(std::vector<std::unique_ptr<CacheIface>> shards)
        : shards_(std::move(shards))
    {
        // Fault-site names are consulted per operation; build them
        // once so the armed path does no allocation.
        faultSites_.reserve(shards_.size());
        for (std::size_t s = 0; s < shards_.size(); ++s)
            faultSites_.push_back(
                shardFaultSite(static_cast<std::uint32_t>(s)));
    }

    const char *branchName() const override
    {
        return shards_[0]->branchName();
    }

    const BranchCfg &branchCfg() const override
    {
        return shards_[0]->branchCfg();
    }

    GetResult
    get(std::uint32_t tid, const char *key, std::size_t nkey, char *out,
        std::size_t out_cap) override
    {
        OpTimer timer;
        return route(key, nkey).get(tid, key, nkey, out, out_cap);
    }

    void
    getMulti(std::uint32_t tid, MultiGetReq *reqs, std::size_t n) override
    {
        // The whole batch is one CacheOp sample: that matches the unit
        // of work a quiet-get run becomes (see net/conn.cc).
        OpTimer timer;
        // Group the batch so each touched shard is entered exactly once
        // (one pass through its sync domain), preserving per-shard
        // request order.
        std::vector<std::vector<MultiGetReq *>> byShard(shards_.size());
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t hv = hashKey(reqs[i].key, reqs[i].nkey);
            byShard[shardOfHash(hv, shardCountU())].push_back(&reqs[i]);
        }
        std::vector<MultiGetReq> batch;
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            if (byShard[s].empty())
                continue;
            enterShard(static_cast<std::uint32_t>(s));
            batch.assign(byShard[s].size(), MultiGetReq{});
            for (std::size_t i = 0; i < byShard[s].size(); ++i)
                batch[i] = *byShard[s][i];
            shards_[s]->getMulti(tid, batch.data(), batch.size());
            for (std::size_t i = 0; i < byShard[s].size(); ++i)
                byShard[s][i]->result = batch[i].result;
        }
    }

    OpStatus
    store(std::uint32_t tid, const char *key, std::size_t nkey,
          const char *val, std::size_t nbytes, StoreMode mode,
          std::uint64_t cas_expected, std::int64_t exptime,
          std::uint64_t *cas_out) override
    {
        OpTimer timer;
        return route(key, nkey).store(tid, key, nkey, val, nbytes, mode,
                                      cas_expected, exptime, cas_out);
    }

    OpStatus
    del(std::uint32_t tid, const char *key, std::size_t nkey) override
    {
        OpTimer timer;
        return route(key, nkey).del(tid, key, nkey);
    }

    OpStatus
    arith(std::uint32_t tid, const char *key, std::size_t nkey,
          std::uint64_t delta, bool incr, std::uint64_t &out_value) override
    {
        OpTimer timer;
        return route(key, nkey).arith(tid, key, nkey, delta, incr,
                                      out_value);
    }

    OpStatus
    touch(std::uint32_t tid, const char *key, std::size_t nkey,
          std::int64_t exptime) override
    {
        OpTimer timer;
        return route(key, nkey).touch(tid, key, nkey, exptime);
    }

    OpStatus
    concat(std::uint32_t tid, const char *key, std::size_t nkey,
           const char *extra, std::size_t nextra, bool append) override
    {
        OpTimer timer;
        return route(key, nkey).concat(tid, key, nkey, extra, nextra,
                                       append);
    }

    std::size_t
    statsText(std::uint32_t tid, char *out, std::size_t cap) override
    {
        // Re-render the aggregate from structured snapshots instead of
        // concatenating shard texts: consumers of the unsharded keys
        // (curr_items, get_hits, ...) must keep seeing one row each.
        GlobalStats g;
        ThreadStatsBlock t;
        std::vector<GlobalStats> perShard(shards_.size());
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            perShard[s] = shards_[s]->globalStats();
            addGlobal(g, perShard[s]);
            t.add(shards_[s]->threadStats());
        }
        std::size_t pos = 0;
        auto emit = [&](const char *name, std::uint64_t v) {
            if (pos >= cap)
                return;
            const int n = std::snprintf(out + pos, cap - pos,
                                        "STAT %s %llu\r\n", name,
                                        static_cast<unsigned long long>(v));
            if (n > 0)
                pos += static_cast<std::size_t>(n);
        };
        emit("curr_items", g.currItems);
        emit("total_items", g.totalItems);
        emit("bytes", g.currBytes);
        emit("evictions", g.evictions);
        emit("hash_expansions", g.hashExpansions);
        emit("slab_pages_moved", g.slabPagesMoved);
        emit("cas_badval", g.casBadval);
        emit("cmd_get", t.cmdGet);
        emit("cmd_set", t.cmdSet);
        emit("get_hits", t.getHits);
        emit("get_misses", t.getMisses);
        emit("shard_count", shards_.size());
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            const ThreadStatsBlock st = shards_[s]->threadStats();
            char name[64];
            std::snprintf(name, sizeof name, "shard%zu_get_hits", s);
            emit(name, st.getHits);
            std::snprintf(name, sizeof name, "shard%zu_get_misses", s);
            emit(name, st.getMisses);
            std::snprintf(name, sizeof name, "shard%zu_evictions", s);
            emit(name, perShard[s].evictions);
            std::snprintf(name, sizeof name, "shard%zu_curr_items", s);
            emit(name, perShard[s].currItems);
        }
        (void)tid;
        return pos;
    }

    void
    flushAll(std::uint32_t tid) override
    {
        for (auto &s : shards_)
            s->flushAll(tid);
    }

    GlobalStats
    globalStats() override
    {
        GlobalStats g;
        for (auto &s : shards_)
            addGlobal(g, s->globalStats());
        return g;
    }

    ThreadStatsBlock
    threadStats() override
    {
        ThreadStatsBlock t;
        for (auto &s : shards_)
            t.add(s->threadStats());
        return t;
    }

    std::vector<LockProfileRow>
    lockProfile() const override
    {
        std::vector<LockProfileRow> rows;
        for (std::size_t s = 0; s < shards_.size(); ++s) {
            for (LockProfileRow row : shards_[s]->lockProfile()) {
                row.name = "shard" + std::to_string(s) + ":" + row.name;
                rows.push_back(std::move(row));
            }
        }
        return rows;
    }

    std::uint64_t
    linkedItemCount() override
    {
        std::uint64_t n = 0;
        for (auto &s : shards_)
            n += s->linkedItemCount();
        return n;
    }

    std::uint32_t
    hashPowerNow() override
    {
        // Report the largest table across shards (the one that
        // expansion-related tests watch grow).
        std::uint32_t p = 0;
        for (auto &s : shards_)
            p = std::max(p, s->hashPowerNow());
        return p;
    }

    void
    quiesceMaintenance() override
    {
        for (auto &s : shards_)
            s->quiesceMaintenance();
    }

    void
    requestRebalance(std::uint32_t src_cls, std::uint32_t dst_cls) override
    {
        for (auto &s : shards_)
            s->requestRebalance(src_cls, dst_cls);
    }

    std::uint32_t shardCount() const override { return shardCountU(); }

    std::uint32_t
    shardOf(const char *key, std::size_t nkey) const override
    {
        return shardOfHash(hashKey(key, nkey), shardCountU());
    }

  private:
    std::uint32_t
    shardCountU() const
    {
        return static_cast<std::uint32_t>(shards_.size());
    }

    CacheIface &
    route(const char *key, std::size_t nkey)
    {
        const std::uint32_t s = shardOf(key, nkey);
        enterShard(s);
        return *shards_[s];
    }

    /**
     * Per-shard entry point: stamps the shard into the thread's
     * probe stream and consults the shard's fault site. Both are one relaxed
     * load when nothing is armed. A delayUs policy stalls here —
     * before the shard's transaction begins, the only place a traced
     * request may block (fault::maybeDelay must never run inside a
     * transaction).
     */
    void
    enterShard(std::uint32_t s)
    {
        obs::probe::emit(obs::probe::Event::Shard, nullptr, s);
        if (fault::enabled())
            fault::maybeDelay(
                fault::consultSlow(faultSites_[s].c_str()));
    }

    static void
    addGlobal(GlobalStats &into, const GlobalStats &from)
    {
        into.currItems += from.currItems;
        into.totalItems += from.totalItems;
        into.currBytes += from.currBytes;
        into.evictions += from.evictions;
        into.expiredUnfetched += from.expiredUnfetched;
        into.hashExpansions += from.hashExpansions;
        into.slabPagesMoved += from.slabPagesMoved;
        into.casBadval += from.casBadval;
        into.memLimitNear |= from.memLimitNear;
    }

    std::vector<std::unique_ptr<CacheIface>> shards_;
    /** faultSites_[s] == shardFaultSite(s), prebuilt. */
    std::vector<std::string> faultSites_;
};

} // namespace

std::unique_ptr<CacheIface>
makeShardedCache(const std::string &branch, const Settings &settings,
                 std::uint32_t worker_threads, std::uint32_t shards)
{
    if (shards == 0)
        return nullptr;
    if (shards == 1)
        return makeCache(branch, settings, worker_threads);

    std::vector<std::unique_ptr<CacheIface>> parts;
    parts.reserve(shards);
    for (std::uint32_t s = 0; s < shards; ++s) {
        Settings per = settings;
        per.shardCount = shards;
        per.shardId = s;
        // Split the memory budget, but never below a handful of slab
        // pages — a shard with one page per class cannot rebalance.
        per.maxBytes = std::max(settings.maxBytes / shards,
                                settings.slabPageSize * 8);
        std::unique_ptr<CacheIface> shard =
            makeCache(branch, per, worker_threads);
        if (shard == nullptr)
            return nullptr;
        parts.push_back(std::move(shard));
    }
    return std::make_unique<ShardedCache>(std::move(parts));
}

} // namespace tmemc::mc
