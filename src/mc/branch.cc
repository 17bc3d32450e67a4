/**
 * @file
 * Branch registry: explicit instantiation of CacheCore for every
 * branch in the paper's ladder, plus the name-based factory.
 *
 * This file is the reproduction's analogue of "expect to fork the
 * code" (Section 6): twelve clones of the same cache source, one per
 * synchronization discipline.
 */

#include "mc/branch.h"

#include "mc/cache_iface.h"
#include "mc/sync_lock.h"
#include "mc/sync_tm.h"

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

/** Adapter from CacheCore<P> to the erased interface. */
template <typename P>
class CacheAdapter final : public CacheIface
{
  public:
    CacheAdapter(const Settings &settings, std::uint32_t threads)
        : core_(settings, threads)
    {
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
        const auto r = core_.get(tid, key, nkey, out, out_cap);
        return {r.status, r.vlen, r.casId};
    }

    OpStatus
    store(std::uint32_t tid, const char *key, std::size_t nkey,
          const char *val, std::size_t nbytes, StoreMode mode,
          std::uint64_t cas_expected, std::int64_t exptime,
          std::uint64_t *cas_out) override
    {
        return core_.store(tid, key, nkey, val, nbytes, mode,
                           cas_expected, exptime, cas_out);
    }

    OpStatus
    del(std::uint32_t tid, const char *key, std::size_t nkey) override
    {
        return core_.del(tid, key, nkey);
    }

    OpStatus
    arith(std::uint32_t tid, const char *key, std::size_t nkey,
          std::uint64_t delta, bool incr,
          std::uint64_t &out_value) override
    {
        const auto r = core_.arith(tid, key, nkey, delta, incr);
        out_value = r.value;
        return r.status;
    }

    OpStatus
    touch(std::uint32_t tid, const char *key, std::size_t nkey,
          std::int64_t exptime) override
    {
        return core_.touch(tid, key, nkey, exptime);
    }

    OpStatus
    concat(std::uint32_t tid, const char *key, std::size_t nkey,
           const char *extra, std::size_t nextra, bool append) override
    {
        return core_.concat(tid, key, nkey, extra, nextra, append);
    }

    std::size_t
    statsText(std::uint32_t tid, char *out, std::size_t cap) override
    {
        return core_.statsText(tid, out, cap);
    }

    void flushAll(std::uint32_t tid) override { core_.flushAll(tid); }

    GlobalStats globalStats() override
    {
        return core_.globalStatsSnapshot();
    }

    ThreadStatsBlock threadStats() override
    {
        return core_.aggregateThreadStats();
    }

    std::vector<LockProfileRow> lockProfile() const override
    {
        return core_.lockProfile();
    }

    std::uint64_t linkedItemCount() override
    {
        return core_.linkedItemCount();
    }

    std::uint32_t hashPowerNow() override { return core_.hashPowerNow(); }

    void quiesceMaintenance() override { core_.quiesceMaintenance(); }

    void
    requestRebalance(std::uint32_t src_cls, std::uint32_t dst_cls) override
    {
        core_.requestRebalance(src_cls, dst_cls);
    }

  private:
    CacheCore<P> core_;
};

} // namespace

std::unique_ptr<CacheIface>
makeCache(const std::string &branch, const Settings &settings,
          std::uint32_t worker_threads)
{
    const std::uint32_t t = worker_threads == 0 ? 1 : worker_threads;

    if (branch == "Baseline") {
        return std::make_unique<CacheAdapter<LockPolicy<kBaseline>>>(
            settings, t);
    }
    if (branch == "Semaphore") {
        return std::make_unique<CacheAdapter<LockPolicy<kSemaphore>>>(
            settings, t);
    }
    if (branch == "IP")
        return std::make_unique<CacheAdapter<TmPolicy<kIP>>>(settings, t);
    if (branch == "IT")
        return std::make_unique<CacheAdapter<TmPolicy<kIT>>>(settings, t);
    if (branch == "IP-Callable") {
        return std::make_unique<CacheAdapter<TmPolicy<kIPCallable>>>(
            settings, t);
    }
    if (branch == "IT-Callable") {
        return std::make_unique<CacheAdapter<TmPolicy<kITCallable>>>(
            settings, t);
    }
    if (branch == "IP-Max") {
        return std::make_unique<CacheAdapter<TmPolicy<kIPMax>>>(settings,
                                                                t);
    }
    if (branch == "IT-Max") {
        return std::make_unique<CacheAdapter<TmPolicy<kITMax>>>(settings,
                                                                t);
    }
    if (branch == "IP-Lib") {
        return std::make_unique<CacheAdapter<TmPolicy<kIPLib>>>(settings,
                                                                t);
    }
    if (branch == "IT-Lib") {
        return std::make_unique<CacheAdapter<TmPolicy<kITLib>>>(settings,
                                                                t);
    }
    if (branch == "IP-onCommit") {
        return std::make_unique<CacheAdapter<TmPolicy<kIPOnCommit>>>(
            settings, t);
    }
    if (branch == "IT-onCommit") {
        return std::make_unique<CacheAdapter<TmPolicy<kITOnCommit>>>(
            settings, t);
    }
    if (branch == "IT-Fused") {
        return std::make_unique<CacheAdapter<TmPolicy<kITFused>>>(
            settings, t);
    }
    if (branch == "IT-RA") {
        return std::make_unique<CacheAdapter<TmPolicy<kITRA>>>(
            settings, t);
    }
    if (branch == "IP-Lib-Bare") {
        return std::make_unique<CacheAdapter<TmPolicy<kIPLibBare>>>(
            settings, t);
    }
    return nullptr;
}

} // namespace tmemc::mc
