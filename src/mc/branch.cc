/**
 * @file
 * Branch registry: explicit instantiation of CacheCore for every
 * branch in the paper's ladder, the cache handle that routes keys
 * across a branch's shards, and the name-based factory.
 *
 * This file is the reproduction's analogue of "expect to fork the
 * code" (Section 6): one clone of the same cache source per
 * synchronization discipline.
 */

#include "mc/branch.h"

#include <algorithm>
#include <cstdio>

#include "common/fault.h"
#include "mc/cache_iface.h"
#include "mc/hash.h"
#include "mc/sharded_cache.h"
#include "mc/sync_lock.h"
#include "mc/sync_tm.h"
#include "obs/hist.h"
#include "obs/metrics.h"
#include "obs/probe.h"

namespace tmemc::mc
{

const char *
worklistVersion()
{
    return "tmemc-worklist 2.0.21-stable";
}

const char *
branchName(const BranchCfg &cfg)
{
    if (!cfg.useTm)
        return cfg.semaphores ? "Semaphore" : "Baseline";
    const bool ip = cfg.items == ItemStrategy::TmBool;
    if (cfg.raTm)
        return "IT-RA";
    if (cfg.fusedGet)
        return "IT-Fused";
    if (cfg.onCommitIo)
        return ip ? "IP-onCommit" : "IT-onCommit";
    if (cfg.safeLibs)
        return ip ? "IP-Lib" : "IT-Lib";
    if (cfg.safeVolatiles)
        return ip ? "IP-Max" : "IT-Max";
    if (cfg.annotateCallable)
        return ip ? "IP-Callable" : "IT-Callable";
    return ip ? "IP" : "IT";
}

std::vector<std::string>
allBranchNames()
{
    return {"Baseline",    "Semaphore",   "IP",          "IT",
            "IP-Callable", "IT-Callable", "IP-Max",      "IT-Max",
            "IP-Lib",      "IT-Lib",      "IP-onCommit", "IT-onCommit",
            "IT-Fused",    "IT-RA"};
}

tm::RuntimeCfg
runtimeCfgFor(const std::string &branch)
{
    tm::RuntimeCfg cfg;
    if (branch == "IT-RA")
        cfg.algo = tm::AlgoKind::RA;
    return cfg;
}

namespace
{

/**
 * Records one HistKind::CacheOp sample covering the enclosing scope,
 * when @p on. Only a handle with several shards times its operations:
 * single-shard setups (the benches' default) read no clock per op.
 */
class OpTimer
{
  public:
    explicit OpTimer(bool on) : t0_(on ? obs::nowNanos() : 0) {}
    OpTimer(const OpTimer &) = delete;
    OpTimer &operator=(const OpTimer &) = delete;
    ~OpTimer()
    {
        if (t0_ != 0)
            obs::hist(obs::HistKind::CacheOp).record(obs::nowNanos() - t0_);
    }

  private:
    const std::uint64_t t0_;
};

void
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

/**
 * The cache handle: N >= 1 CacheCore<P> shards behind the erased
 * interface. Every per-key operation routes to exactly one shard;
 * whole-cache operations (stats, flush, maintenance) fan out and
 * aggregate.
 */
template <typename P>
class CacheAdapter final : public CacheIface
{
  public:
    CacheAdapter(const Settings &settings, std::uint32_t threads,
                 std::uint32_t shards)
    {
        shards_.reserve(shards);
        faultSites_.reserve(shards);
        for (std::uint32_t s = 0; s < shards; ++s) {
            Settings per = settings;
            if (shards > 1) {
                per.shardCount = shards;
                per.shardId = s;
                // Split the memory budget, but never below a handful
                // of slab pages — a shard with one page per class
                // cannot rebalance.
                per.maxBytes = std::max(settings.maxBytes / shards,
                                        settings.slabPageSize * 8);
            }
            shards_.push_back(std::make_unique<CacheCore<P>>(per, threads));
            // Consulted per operation; built once so the armed path
            // does no allocation.
            faultSites_.push_back(shardFaultSite(s));
        }
    }

    const char *branchName() const override
    {
        return mc::branchName(P::cfg);
    }

    const BranchCfg &
    branchCfg() const override
    {
        static constexpr BranchCfg cfg = P::cfg;
        return cfg;
    }

    GetResult
    get(std::uint32_t tid, const char *key, std::size_t nkey, char *out,
        std::size_t out_cap) override
    {
        OpTimer timer(sharded());
        return route(key, nkey).get(tid, key, nkey, out, out_cap);
    }

    OpStatus
    store(std::uint32_t tid, const char *key, std::size_t nkey,
          const char *val, std::size_t nbytes, StoreMode mode,
          std::uint64_t cas_expected, std::int64_t exptime,
          std::uint64_t *cas_out) override
    {
        OpTimer timer(sharded());
        return route(key, nkey).store(tid, key, nkey, val, nbytes, mode,
                                      cas_expected, exptime, cas_out);
    }

    OpStatus
    del(std::uint32_t tid, const char *key, std::size_t nkey) override
    {
        OpTimer timer(sharded());
        return route(key, nkey).del(tid, key, nkey);
    }

    OpStatus
    arith(std::uint32_t tid, const char *key, std::size_t nkey,
          std::uint64_t delta, bool incr,
          std::uint64_t &out_value) override
    {
        OpTimer timer(sharded());
        const auto r = route(key, nkey).arith(tid, key, nkey, delta, incr);
        out_value = r.value;
        return r.status;
    }

    OpStatus
    touch(std::uint32_t tid, const char *key, std::size_t nkey,
          std::int64_t exptime) override
    {
        OpTimer timer(sharded());
        return route(key, nkey).touch(tid, key, nkey, exptime);
    }

    OpStatus
    concat(std::uint32_t tid, const char *key, std::size_t nkey,
           const char *extra, std::size_t nextra, bool append) override
    {
        OpTimer timer(sharded());
        return route(key, nkey).concat(tid, key, nkey, extra, nextra,
                                       append);
    }

    std::size_t
    statsText(std::uint32_t tid, char *out, std::size_t cap) override
    {
        // One shard renders its own reply inside a transaction (the
        // mc:stats-render site, the Lib stage's snprintf).
        if (!sharded())
            return shards_[0]->statsText(tid, out, cap);
        // Several shards: re-render the aggregate from structured
        // snapshots, so consumers of the unsharded keys (curr_items,
        // get_hits, ...) keep seeing one row each, then append
        // shard_count and per-shard rows.
        GlobalStats g;
        ThreadStatsBlock t;
        std::vector<GlobalStats> perShard;
        std::vector<ThreadStatsBlock> perThread;
        for (auto &s : shards_) {
            perShard.push_back(s->globalStatsSnapshot());
            perThread.push_back(s->aggregateThreadStats());
            addGlobal(g, perShard.back());
            t.add(perThread.back());
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
            char name[64];
            std::snprintf(name, sizeof name, "shard%zu_get_hits", s);
            emit(name, perThread[s].getHits);
            std::snprintf(name, sizeof name, "shard%zu_get_misses", s);
            emit(name, perThread[s].getMisses);
            std::snprintf(name, sizeof name, "shard%zu_evictions", s);
            emit(name, perShard[s].evictions);
            std::snprintf(name, sizeof name, "shard%zu_curr_items", s);
            emit(name, perShard[s].currItems);
        }
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
        GlobalStats g = shards_[0]->globalStatsSnapshot();
        for (std::size_t s = 1; s < shards_.size(); ++s)
            addGlobal(g, shards_[s]->globalStatsSnapshot());
        return g;
    }

    ThreadStatsBlock
    threadStats() override
    {
        ThreadStatsBlock t = shards_[0]->aggregateThreadStats();
        for (std::size_t s = 1; s < shards_.size(); ++s)
            t.add(shards_[s]->aggregateThreadStats());
        return t;
    }

    std::vector<LockProfileRow>
    lockProfile() const override
    {
        if (!sharded())
            return shards_[0]->lockProfile();
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
        // The largest table across shards (the one that
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

    std::uint32_t
    shardCount() const override
    {
        return static_cast<std::uint32_t>(shards_.size());
    }

    std::uint32_t
    shardOf(const char *key, std::size_t nkey) const override
    {
        return sharded() ? shardOfHash(hashKey(key, nkey), shardCount())
                         : 0;
    }

  private:
    bool sharded() const { return shards_.size() > 1; }

    /**
     * The one per-operation entry: picks the key's shard, stamps it
     * into the thread's probe stream and consults its fault site.
     * Both are one relaxed load when nothing is armed. A delayUs
     * policy stalls here — before the shard's transaction begins,
     * the only place a traced request may block (fault::maybeDelay
     * must never run inside a transaction).
     */
    CacheCore<P> &
    route(const char *key, std::size_t nkey)
    {
        const std::uint32_t s = shardOf(key, nkey);
        obs::probe::emit(obs::probe::Event::Shard, nullptr, s);
        if (fault::enabled())
            fault::maybeDelay(fault::consultSlow(faultSites_[s].c_str()));
        return *shards_[s];
    }

    std::vector<std::unique_ptr<CacheCore<P>>> shards_;
    /** faultSites_[s] == shardFaultSite(s), prebuilt. */
    std::vector<std::string> faultSites_;
};

template <typename P>
std::unique_ptr<CacheIface>
make(const Settings &settings, std::uint32_t threads, std::uint32_t shards)
{
    return std::make_unique<CacheAdapter<P>>(settings, threads, shards);
}

/** Every instantiable branch (allBranchNames() plus the ablation-only
 *  IP-Lib-Bare) with its factory. */
struct BranchEntry
{
    const char *name;
    std::unique_ptr<CacheIface> (*make)(const Settings &, std::uint32_t,
                                        std::uint32_t);
};

constexpr BranchEntry kBranches[] = {
    {"Baseline", make<LockPolicy<kBaseline>>},
    {"Semaphore", make<LockPolicy<kSemaphore>>},
    {"IP", make<TmPolicy<kIP>>},
    {"IT", make<TmPolicy<kIT>>},
    {"IP-Callable", make<TmPolicy<kIPCallable>>},
    {"IT-Callable", make<TmPolicy<kITCallable>>},
    {"IP-Max", make<TmPolicy<kIPMax>>},
    {"IT-Max", make<TmPolicy<kITMax>>},
    {"IP-Lib", make<TmPolicy<kIPLib>>},
    {"IT-Lib", make<TmPolicy<kITLib>>},
    {"IP-onCommit", make<TmPolicy<kIPOnCommit>>},
    {"IT-onCommit", make<TmPolicy<kITOnCommit>>},
    {"IT-Fused", make<TmPolicy<kITFused>>},
    {"IT-RA", make<TmPolicy<kITRA>>},
    {"IP-Lib-Bare", make<TmPolicy<kIPLibBare>>},
};

} // namespace

std::unique_ptr<CacheIface>
makeShardedCache(const std::string &branch, const Settings &settings,
                 std::uint32_t worker_threads, std::uint32_t shards)
{
    if (shards == 0)
        return nullptr;
    const std::uint32_t t = worker_threads == 0 ? 1 : worker_threads;
    for (const BranchEntry &e : kBranches) {
        if (branch == e.name)
            return e.make(settings, t, shards);
    }
    return nullptr;
}

} // namespace tmemc::mc
