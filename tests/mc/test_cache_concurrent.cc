/**
 * @file
 * Concurrency tests of the cache, over every branch: mixed workloads
 * under contention must preserve value integrity and the accounting
 * invariants, through hash expansions, evictions, and slab rebalances.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
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

class ConcurrentBranchTest : public ::testing::TestWithParam<std::string>
{
  protected:
    void
    SetUp() override
    {
        tm::Runtime::get().configure(runtimeCfgFor(GetParam()));
        tm::Runtime::get().resetStats();
    }
};

/** Deterministic value derived from the key, so readers can verify. */
std::string
valueFor(const std::string &key, int version)
{
    std::string v = key + ":" + std::to_string(version) + ":";
    while (v.size() < 64)
        v.push_back(static_cast<char>('a' + v.size() % 26));
    return v;
}

TEST_P(ConcurrentBranchTest, MixedOpsPreserveValueIntegrity)
{
    Settings s;
    s.maxBytes = 16 * 1024 * 1024;
    s.slabPageSize = 32 * 1024;
    s.hashPowerInit = 7;  // Low: forces expansion mid-test.
    auto cache = makeCache(GetParam(), s, 4);
    ASSERT_NE(cache, nullptr);

    constexpr int threads = 4;
    constexpr int keys = 200;
    constexpr int ops = 4000;
    std::atomic<bool> corrupt{false};

    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            XorShift128 rng(77 + t);
            char buf[512];
            for (int i = 0; i < ops && !corrupt.load(); ++i) {
                const int k = static_cast<int>(rng.nextBounded(keys));
                const std::string key = "ck" + std::to_string(k);
                const double roll = rng.nextDouble();
                if (roll < 0.25) {
                    const std::string val =
                        valueFor(key, static_cast<int>(rng.nextBounded(8)));
                    cache->store(t, key.data(), key.size(), val.data(),
                                 val.size());
                } else if (roll < 0.30) {
                    cache->del(t, key.data(), key.size());
                } else {
                    const auto r = cache->get(t, key.data(), key.size(),
                                              buf, sizeof(buf));
                    if (r.status == OpStatus::Ok) {
                        // Value must be one of the versions of THIS key
                        // — a torn or crossed value fails the prefix.
                        const std::string got(buf, r.vlen);
                        if (got.rfind(key + ":", 0) != 0 ||
                            got.size() != 64)
                            corrupt.store(true);
                    }
                }
            }
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_FALSE(corrupt.load());

    cache->quiesceMaintenance();
    // Accounting invariant: global counter equals hash occupancy.
    EXPECT_EQ(cache->globalStats().currItems, cache->linkedItemCount());
}

TEST_P(ConcurrentBranchTest, ExpansionUnderLoadLosesNothing)
{
    Settings s;
    s.maxBytes = 32 * 1024 * 1024;
    s.slabPageSize = 64 * 1024;
    s.hashPowerInit = 6;  // 64 buckets; expansion guaranteed.
    auto cache = makeCache(GetParam(), s, 4);
    ASSERT_NE(cache, nullptr);

    constexpr int threads = 4;
    constexpr int per_thread = 1200;
    std::vector<std::thread> writers;
    for (int t = 0; t < threads; ++t) {
        writers.emplace_back([&, t] {
            for (int i = 0; i < per_thread; ++i) {
                const std::string key =
                    "w" + std::to_string(t) + "-" + std::to_string(i);
                const std::string val = valueFor(key, 0);
                ASSERT_EQ(cache->store(t, key.data(), key.size(),
                                       val.data(), val.size()),
                          OpStatus::Ok);
            }
        });
    }
    for (auto &w : writers)
        w.join();
    cache->quiesceMaintenance();

    EXPECT_GT(cache->hashPowerNow(), 6u);
    // Every key must still be reachable with its exact value.
    char buf[512];
    for (int t = 0; t < threads; ++t) {
        for (int i = 0; i < per_thread; ++i) {
            const std::string key =
                "w" + std::to_string(t) + "-" + std::to_string(i);
            const auto r =
                cache->get(0, key.data(), key.size(), buf, sizeof(buf));
            ASSERT_EQ(r.status, OpStatus::Ok) << key;
            ASSERT_EQ(std::string(buf, r.vlen), valueFor(key, 0)) << key;
        }
    }
    EXPECT_EQ(cache->globalStats().currItems,
              static_cast<std::uint64_t>(threads * per_thread));
}

TEST_P(ConcurrentBranchTest, ConcurrentArithNeverLosesIncrements)
{
    Settings s;
    s.maxBytes = 4 * 1024 * 1024;
    auto cache = makeCache(GetParam(), s, 4);
    ASSERT_NE(cache, nullptr);
    ASSERT_EQ(cache->store(0, "ctr", 3, "0", 1), OpStatus::Ok);

    constexpr int threads = 4;
    constexpr int per_thread = 1000;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            std::uint64_t v = 0;
            for (int i = 0; i < per_thread; ++i)
                ASSERT_EQ(cache->arith(t, "ctr", 3, 1, true, v),
                          OpStatus::Ok);
        });
    }
    for (auto &w : workers)
        w.join();
    char buf[64];
    const auto r = cache->get(0, "ctr", 3, buf, sizeof(buf));
    ASSERT_EQ(r.status, OpStatus::Ok);
    EXPECT_EQ(std::string(buf, r.vlen),
              std::to_string(threads * per_thread));
}

TEST_P(ConcurrentBranchTest, GetDuringInPlaceArithIsNotTorn)
{
    // incr/decr rewrite the value and its length in place while a GET
    // holds its reference to the item. Flipping 99 <-> 100 changes the
    // length, so a GET that pairs one rewrite's length with another's
    // bytes returns "10" or "99\0" instead of a value someone wrote.
    Settings s;
    s.maxBytes = 4 * 1024 * 1024;
    auto cache = makeCache(GetParam(), s, 2);
    ASSERT_NE(cache, nullptr);
    ASSERT_EQ(cache->store(0, "n", 1, "99", 2), OpStatus::Ok);

    std::atomic<bool> stop{false};
    std::thread flipper([&] {
        std::uint64_t v = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            cache->arith(0, "n", 1, 1, true, v);
            cache->arith(0, "n", 1, 1, false, v);
        }
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
    std::string torn;
    char buf[16];
    while (torn.empty() && std::chrono::steady_clock::now() < deadline) {
        const auto r = cache->get(1, "n", 1, buf, sizeof(buf));
        const std::string got(buf, r.status == OpStatus::Ok ? r.vlen : 0);
        if (got != "99" && got != "100")
            torn = got;
    }
    stop.store(true);
    flipper.join();
    EXPECT_TRUE(torn.empty())
        << "get returned " << ::testing::PrintToString(torn)
        << ", a value no incr or decr wrote";
}

TEST_P(ConcurrentBranchTest, SlabRebalanceUnderLoad)
{
    Settings s;
    s.maxBytes = 256 * 1024;
    s.slabPageSize = 32 * 1024;
    auto cache = makeCache(GetParam(), s, 2);
    ASSERT_NE(cache, nullptr);

    // Fill with small values (class A), then switch the workload to
    // large values (class B): the allocator runs dry for B and asks
    // the rebalancer to strip pages from A.
    std::string small_val(16, 's');
    for (int i = 0; i < 2000; ++i) {
        const std::string key = "small" + std::to_string(i);
        cache->store(0, key.data(), key.size(), small_val.data(),
                     small_val.size());
    }
    std::string big_val(4000, 'B');
    int stored = 0;
    for (int i = 0; i < 200; ++i) {
        const std::string key = "big" + std::to_string(i);
        if (cache->store(1, key.data(), key.size(), big_val.data(),
                         big_val.size()) == OpStatus::Ok)
            ++stored;
    }
    // Large stores must eventually succeed (eviction or page moves).
    EXPECT_GT(stored, 50);
    cache->quiesceMaintenance();
    EXPECT_EQ(cache->globalStats().currItems, cache->linkedItemCount());
}

TEST_P(ConcurrentBranchTest, ReadersDuringFlushSeeNoGarbage)
{
    Settings s;
    s.maxBytes = 8 * 1024 * 1024;
    auto cache = makeCache(GetParam(), s, 3);
    ASSERT_NE(cache, nullptr);
    for (int i = 0; i < 500; ++i) {
        const std::string key = "f" + std::to_string(i);
        const std::string val = valueFor(key, 1);
        cache->store(0, key.data(), key.size(), val.data(), val.size());
    }
    std::atomic<bool> stop{false};
    std::atomic<bool> corrupt{false};
    std::thread reader([&] {
        XorShift128 rng(5);
        char buf[256];
        while (!stop.load()) {
            const std::string key =
                "f" + std::to_string(rng.nextBounded(500));
            const auto r = cache->get(1, key.data(), key.size(), buf,
                                      sizeof(buf));
            if (r.status == OpStatus::Ok) {
                const std::string got(buf, r.vlen);
                if (got.rfind(key + ":", 0) != 0)
                    corrupt.store(true);
            }
        }
    });
    cache->flushAll(2);
    stop.store(true);
    reader.join();
    EXPECT_FALSE(corrupt.load());
    // A concurrent flush may skip items whose reference or item lock a
    // reader held at that instant (the save-for-later path); a second,
    // quiescent flush must leave the cache empty.
    cache->flushAll(2);
    EXPECT_EQ(cache->globalStats().currItems, 0u);
}

/** Collect @p count keys that the cache maps to shard @p shard. */
std::vector<std::string>
keysOnShard(const CacheIface &cache, std::uint32_t shard, int count,
            const std::string &prefix)
{
    std::vector<std::string> out;
    for (int i = 0; out.size() < static_cast<std::size_t>(count); ++i) {
        const std::string k = prefix + std::to_string(i);
        if (cache.shardOf(k.data(), k.size()) == shard)
            out.push_back(k);
    }
    return out;
}

TEST_P(ConcurrentBranchTest, CrossShardCollidingVsSpreadTorture)
{
    // Two key families on a 4-shard cache: "colliding" keys that all
    // land on shard 0 (maximum intra-shard contention) and "spread"
    // keys covering every shard (maximum cross-shard traffic). Both
    // families hammered at once must preserve value integrity — a
    // routing bug that sent a key to two different shards would show
    // up as a phantom miss or a stale value after a delete.
    Settings s;
    s.maxBytes = 16 * 1024 * 1024;
    s.slabPageSize = 32 * 1024;
    s.hashPowerInit = 7;
    auto cache = makeShardedCache(GetParam(), s, 4, 4);
    ASSERT_NE(cache, nullptr);
    ASSERT_EQ(cache->shardCount(), 4u);

    std::vector<std::string> keys =
        keysOnShard(*cache, 0, 12, "collide");
    for (std::uint32_t sh = 0; sh < 4; ++sh) {
        for (const std::string &k : keysOnShard(*cache, sh, 3, "spread"))
            keys.push_back(k);
    }

    constexpr int threads = 4;
    constexpr int ops = 3000;
    std::atomic<bool> corrupt{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            XorShift128 rng(911 + t);
            char buf[512];
            for (int i = 0; i < ops && !corrupt.load(); ++i) {
                const std::string &key =
                    keys[rng.nextBounded(keys.size())];
                const double roll = rng.nextDouble();
                if (roll < 0.30) {
                    const std::string val =
                        valueFor(key, static_cast<int>(rng.nextBounded(8)));
                    cache->store(t, key.data(), key.size(), val.data(),
                                 val.size());
                } else if (roll < 0.38) {
                    cache->del(t, key.data(), key.size());
                } else {
                    const auto r = cache->get(t, key.data(), key.size(),
                                              buf, sizeof(buf));
                    if (r.status == OpStatus::Ok) {
                        const std::string got(buf, r.vlen);
                        if (got.rfind(key + ":", 0) != 0 ||
                            got.size() != 64)
                            corrupt.store(true);
                    }
                }
            }
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_FALSE(corrupt.load());

    cache->quiesceMaintenance();
    // Aggregated accounting must hold across the shard set.
    EXPECT_EQ(cache->globalStats().currItems, cache->linkedItemCount());
}

TEST_P(ConcurrentBranchTest, MultiGetSpanningShardsRacesDeletes)
{
    // Readers batch multi-gets that span all four shards while
    // writers churn the same keys with sets and deletes under
    // eviction pressure (tiny budget) and injected allocation
    // failures (the PR-2 fault sites). Every returned hit must carry
    // the right key's value — a batch that crossed results between
    // slots, or read an item a delete/eviction had already unlinked,
    // fails the prefix check.
    Settings s;
    s.maxBytes = 1024 * 1024;
    s.slabPageSize = 32 * 1024;
    s.hashPowerInit = 6;
    s.evictionSearchDepth = 5;
    auto cache = makeShardedCache(GetParam(), s, 4, 4);
    ASSERT_NE(cache, nullptr);

    fault::Policy p;
    p.trigger = fault::Trigger::Probability;
    p.probability = 0.01;
    p.seed = 404;
    fault::ScopedFault alloc_faults("mc.slabs.alloc", p);

    std::vector<std::string> keys;
    for (std::uint32_t sh = 0; sh < 4; ++sh) {
        for (const std::string &k : keysOnShard(*cache, sh, 8, "span"))
            keys.push_back(k);
    }

    std::atomic<bool> stop{false};
    std::atomic<bool> corrupt{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 2; ++t) {
        writers.emplace_back([&, t] {
            XorShift128 rng(31 + t);
            while (!stop.load()) {
                const std::string &key =
                    keys[rng.nextBounded(keys.size())];
                if (rng.nextDouble() < 0.7) {
                    const std::string val =
                        valueFor(key, static_cast<int>(rng.nextBounded(4)));
                    cache->store(t, key.data(), key.size(), val.data(),
                                 val.size());
                } else {
                    cache->del(t, key.data(), key.size());
                }
            }
        });
    }

    std::vector<std::thread> readers;
    for (int t = 2; t < 4; ++t) {
        readers.emplace_back([&, t] {
            XorShift128 rng(77 + t);
            std::vector<std::vector<char>> bufs(16,
                                                std::vector<char>(512));
            for (int round = 0; round < 600 && !corrupt.load();
                 ++round) {
                // Batch spans the shards in shuffled order.
                std::vector<CacheIface::MultiGetReq> reqs(16);
                std::vector<const std::string *> picked(16);
                for (int i = 0; i < 16; ++i) {
                    picked[i] = &keys[rng.nextBounded(keys.size())];
                    reqs[i].key = picked[i]->data();
                    reqs[i].nkey = picked[i]->size();
                    reqs[i].out = bufs[i].data();
                    reqs[i].outCap = bufs[i].size();
                }
                cache->getMulti(static_cast<std::uint32_t>(t),
                                reqs.data(), reqs.size());
                for (int i = 0; i < 16; ++i) {
                    if (reqs[i].result.status != OpStatus::Ok)
                        continue;
                    const std::string got(bufs[i].data(),
                                          reqs[i].result.vlen);
                    if (got.rfind(*picked[i] + ":", 0) != 0 ||
                        got.size() != 64)
                        corrupt.store(true);
                }
            }
        });
    }
    for (auto &r : readers)
        r.join();
    stop.store(true);
    for (auto &w : writers)
        w.join();
    EXPECT_FALSE(corrupt.load());

    cache->quiesceMaintenance();
    EXPECT_EQ(cache->globalStats().currItems, cache->linkedItemCount());
}

INSTANTIATE_TEST_SUITE_P(
    AllBranches, ConcurrentBranchTest,
    ::testing::ValuesIn(allBranchNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

} // namespace
