/**
 * @file
 * Soak test: every branch under simultaneous pressure from all the
 * machinery at once — mixed gets/sets/deletes/incrs/appends, forced
 * evictions (tiny memory budget), hash expansions (tiny initial
 * table), and slab rebalances (bimodal value sizes) — followed by full
 * invariant checks.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "mc/cache_iface.h"
#include "tm/api.h"

namespace
{

using namespace tmemc;
using namespace tmemc::mc;

class SoakTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SoakTest, EverythingAtOnce)
{
    tm::Runtime::get().configure(runtimeCfgFor(GetParam()));
    tm::Runtime::get().resetStats();

    Settings s;
    s.maxBytes = 256 * 1024;   // Tiny: constant eviction pressure.
    s.slabPageSize = 32 * 1024;
    s.hashPowerInit = 5;       // 32 buckets: expansions guaranteed.
    s.evictionSearchDepth = 5;
    auto cache = makeShardedCache(GetParam(), s, 4);
    ASSERT_NE(cache, nullptr);

    constexpr int threads = 4;
    constexpr int ops = 6000;
    std::atomic<bool> corrupt{false};

    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            XorShift128 rng(2026 + t);
            std::vector<char> buf(8192);
            for (int i = 0; i < ops && !corrupt.load(); ++i) {
                const std::string key =
                    "soak" + std::to_string(rng.nextBounded(400));
                const double roll = rng.nextDouble();
                if (roll < 0.30) {
                    // Bimodal sizes force cross-class slab pressure.
                    const std::size_t len =
                        rng.nextDouble() < 0.8 ? 24 : 3000;
                    const std::string val(len, 'v');
                    cache->store(t, key.data(), key.size(), val.data(),
                                 val.size());
                } else if (roll < 0.35) {
                    cache->del(t, key.data(), key.size());
                } else if (roll < 0.42) {
                    std::uint64_t v = 0;
                    cache->arith(t, key.data(), key.size(), 1, true, v);
                } else if (roll < 0.48) {
                    cache->concat(t, key.data(), key.size(), "+", 1,
                                  rng.nextDouble() < 0.5);
                } else if (roll < 0.50) {
                    cache->touch(t, key.data(), key.size(), 0);
                } else {
                    const auto r = cache->get(t, key.data(), key.size(),
                                              buf.data(), buf.size());
                    if (r.status == OpStatus::Ok && r.vlen > buf.size())
                        corrupt.store(true);
                }
            }
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_FALSE(corrupt.load());

    cache->quiesceMaintenance();
    const GlobalStats gs = cache->globalStats();
    // Pressure did what it should.
    EXPECT_GT(gs.evictions, 0u) << "no eviction pressure";
    EXPECT_GT(cache->hashPowerNow(), 5u) << "no expansion happened";
    // Accounting invariants at quiescence.
    EXPECT_EQ(gs.currItems, cache->linkedItemCount());
    // And the cache still works.
    ASSERT_EQ(cache->store(0, "final", 5, "check", 5), OpStatus::Ok);
    char out[16];
    const auto r = cache->get(0, "final", 5, out, sizeof(out));
    ASSERT_EQ(r.status, OpStatus::Ok);
    EXPECT_EQ(std::string(out, r.vlen), "check");
}

TEST_P(SoakTest, CrossShardEverythingAtOnce)
{
    // The sharded variant of the soak: same machinery (evictions,
    // expansions, rebalances) running independently in 4 shards, plus
    // 8-key gets spanning shards racing the churn, plus injected
    // allocation failures (mc.slabs.alloc). More distinct keys
    // than the unsharded soak so each shard's private budget still
    // overflows into eviction.
    tm::Runtime::get().configure(runtimeCfgFor(GetParam()));
    tm::Runtime::get().resetStats();

    Settings s;
    s.maxBytes = 256 * 1024;
    s.slabPageSize = 32 * 1024;
    s.hashPowerInit = 5;
    s.evictionSearchDepth = 5;
    auto cache = makeShardedCache(GetParam(), s, 4, 4);
    ASSERT_NE(cache, nullptr);

    constexpr int threads = 4;
    constexpr int ops = 5000;
    constexpr int key_space = 1600;
    std::atomic<bool> corrupt{false};

    // Armed only for the churn phase: the final sanity store below
    // must not eat an injected allocation failure.
    fault::Policy p;
    p.trigger = fault::Trigger::Probability;
    p.probability = 0.005;
    p.seed = 2026;
    auto alloc_faults = std::make_unique<fault::ScopedFault>(
        "mc.slabs.alloc", p);

    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            XorShift128 rng(8806 + t);
            std::vector<char> buf(8192);
            std::vector<std::vector<char>> mbufs(
                8, std::vector<char>(8192));
            for (int i = 0; i < ops && !corrupt.load(); ++i) {
                const std::string key =
                    "shsoak" + std::to_string(rng.nextBounded(key_space));
                const double roll = rng.nextDouble();
                if (roll < 0.30) {
                    const std::size_t len =
                        rng.nextDouble() < 0.7 ? 24 : 3000;
                    const std::string val(len, 'v');
                    cache->store(t, key.data(), key.size(), val.data(),
                                 val.size());
                } else if (roll < 0.35) {
                    cache->del(t, key.data(), key.size());
                } else if (roll < 0.42) {
                    std::uint64_t v = 0;
                    cache->arith(t, key.data(), key.size(), 1, true, v);
                } else if (roll < 0.48) {
                    cache->concat(t, key.data(), key.size(), "+", 1,
                                  rng.nextDouble() < 0.5);
                } else if (roll < 0.58) {
                    // An 8-key get spanning shards, one get per key.
                    for (int j = 0; j < 8; ++j) {
                        const std::string mk =
                            "shsoak" +
                            std::to_string(rng.nextBounded(key_space));
                        const auto r =
                            cache->get(t, mk.data(), mk.size(),
                                       mbufs[j].data(), mbufs[j].size());
                        if (r.status == OpStatus::Ok &&
                            r.vlen > mbufs[j].size())
                            corrupt.store(true);
                    }
                } else {
                    const auto r = cache->get(t, key.data(), key.size(),
                                              buf.data(), buf.size());
                    if (r.status == OpStatus::Ok && r.vlen > buf.size())
                        corrupt.store(true);
                }
            }
        });
    }
    for (auto &w : workers)
        w.join();
    alloc_faults.reset();
    EXPECT_FALSE(corrupt.load());

    cache->quiesceMaintenance();
    const GlobalStats gs = cache->globalStats();
    EXPECT_GT(gs.evictions, 0u) << "no eviction pressure";
    EXPECT_GT(cache->hashPowerNow(), 5u) << "no expansion happened";
    EXPECT_EQ(gs.currItems, cache->linkedItemCount());
    ASSERT_EQ(cache->store(0, "final", 5, "check", 5), OpStatus::Ok);
    char out[16];
    const auto r = cache->get(0, "final", 5, out, sizeof(out));
    ASSERT_EQ(r.status, OpStatus::Ok);
    EXPECT_EQ(std::string(out, r.vlen), "check");
}

INSTANTIATE_TEST_SUITE_P(
    AllBranches, SoakTest, ::testing::ValuesIn(allBranchNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

} // namespace
