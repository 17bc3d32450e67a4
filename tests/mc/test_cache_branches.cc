/**
 * @file
 * Behavioural tests of the cache API, parameterized over every branch
 * of the transactionalization ladder: the same assertions must hold
 * from Baseline through IT-onCommit.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/fault.h"
#include "mc/cache_iface.h"
#include "mc/sharded_cache.h"
#include "tm/api.h"

namespace
{

using namespace tmemc;
using namespace tmemc::mc;

class BranchTest : public ::testing::TestWithParam<std::string>
{
  protected:
    void
    SetUp() override
    {
        tm::Runtime::get().configure(runtimeCfgFor(GetParam()));
        tm::Runtime::get().resetStats();
        Settings s;
        s.maxBytes = 8 * 1024 * 1024;
        s.slabPageSize = 16 * 1024;
        s.hashPowerInit = 8;
        cache_ = makeShardedCache(GetParam(), s, 4);
        ASSERT_NE(cache_, nullptr);
    }

    OpStatus
    put(const std::string &key, const std::string &val,
        StoreMode mode = StoreMode::Set, std::uint64_t cas = 0)
    {
        return cache_->store(0, key.data(), key.size(), val.data(),
                             val.size(), mode, cas);
    }

    /** Get as a string; empty optional on miss. */
    bool
    fetch(const std::string &key, std::string &out,
          std::uint64_t *cas = nullptr)
    {
        char buf[4096];
        const auto r =
            cache_->get(0, key.data(), key.size(), buf, sizeof(buf));
        if (r.status != OpStatus::Ok)
            return false;
        out.assign(buf, r.vlen);
        if (cas != nullptr)
            *cas = r.casId;
        return true;
    }

    std::unique_ptr<CacheIface> cache_;
};

TEST_P(BranchTest, MissOnEmptyCache)
{
    std::string out;
    EXPECT_FALSE(fetch("nothing", out));
}

TEST_P(BranchTest, OneShardConsultsItsFaultSite)
{
    // A one-shard handle routes through the same entry as a sharded
    // one: every operation consults mc.shard0.op, so --slow-shard 0
    // slows a default single-shard server too.
    ASSERT_EQ(cache_->shardCount(), 1u);
    fault::Policy p;
    p.trigger = fault::Trigger::EveryNth;
    p.n = 1;
    const fault::ScopedFault site(shardFaultSite(0), p);
    char buf[64];
    cache_->get(0, "fk", 2, buf, sizeof buf);
    EXPECT_EQ(fault::hits(shardFaultSite(0)), 1u);
}

TEST_P(BranchTest, SetThenGetRoundTrips)
{
    ASSERT_EQ(put("hello", "world"), OpStatus::Ok);
    std::string out;
    ASSERT_TRUE(fetch("hello", out));
    EXPECT_EQ(out, "world");
}

TEST_P(BranchTest, OverwriteReplacesValue)
{
    ASSERT_EQ(put("k", "first"), OpStatus::Ok);
    ASSERT_EQ(put("k", "second-longer-value"), OpStatus::Ok);
    std::string out;
    ASSERT_TRUE(fetch("k", out));
    EXPECT_EQ(out, "second-longer-value");
    EXPECT_EQ(cache_->globalStats().currItems, 1u);
}

TEST_P(BranchTest, AddOnlyWhenAbsent)
{
    EXPECT_EQ(put("a", "1", StoreMode::Add), OpStatus::Ok);
    EXPECT_EQ(put("a", "2", StoreMode::Add), OpStatus::NotStored);
    std::string out;
    ASSERT_TRUE(fetch("a", out));
    EXPECT_EQ(out, "1");
}

TEST_P(BranchTest, ReplaceOnlyWhenPresent)
{
    EXPECT_EQ(put("r", "x", StoreMode::Replace), OpStatus::NotStored);
    ASSERT_EQ(put("r", "x"), OpStatus::Ok);
    EXPECT_EQ(put("r", "y", StoreMode::Replace), OpStatus::Ok);
    std::string out;
    ASSERT_TRUE(fetch("r", out));
    EXPECT_EQ(out, "y");
}

TEST_P(BranchTest, CasMatchesAndMismatches)
{
    ASSERT_EQ(put("c", "v1"), OpStatus::Ok);
    std::string out;
    std::uint64_t cas = 0;
    ASSERT_TRUE(fetch("c", out, &cas));
    EXPECT_EQ(put("c", "v2", StoreMode::Cas, cas), OpStatus::Ok);
    // Stale CAS id now fails.
    EXPECT_EQ(put("c", "v3", StoreMode::Cas, cas), OpStatus::Exists);
    ASSERT_TRUE(fetch("c", out));
    EXPECT_EQ(out, "v2");
    EXPECT_EQ(put("missing", "v", StoreMode::Cas, 1), OpStatus::Miss);
    EXPECT_EQ(cache_->globalStats().casBadval, 1u);
}

TEST_P(BranchTest, DeleteRemoves)
{
    ASSERT_EQ(put("d", "gone"), OpStatus::Ok);
    EXPECT_EQ(cache_->del(0, "d", 1), OpStatus::Ok);
    std::string out;
    EXPECT_FALSE(fetch("d", out));
    EXPECT_EQ(cache_->del(0, "d", 1), OpStatus::Miss);
    EXPECT_EQ(cache_->globalStats().currItems, 0u);
}

TEST_P(BranchTest, IncrDecrArithmetic)
{
    ASSERT_EQ(put("n", "10"), OpStatus::Ok);
    std::uint64_t v = 0;
    EXPECT_EQ(cache_->arith(0, "n", 1, 5, true, v), OpStatus::Ok);
    EXPECT_EQ(v, 15u);
    EXPECT_EQ(cache_->arith(0, "n", 1, 3, false, v), OpStatus::Ok);
    EXPECT_EQ(v, 12u);
    std::string out;
    ASSERT_TRUE(fetch("n", out));
    EXPECT_EQ(out, "12");
    // Decrement clamps at zero, like memcached.
    EXPECT_EQ(cache_->arith(0, "n", 1, 100, false, v), OpStatus::Ok);
    EXPECT_EQ(v, 0u);
    // Miss path.
    EXPECT_EQ(cache_->arith(0, "absent", 6, 1, true, v), OpStatus::Miss);
}

TEST_P(BranchTest, IncrGrowsDigitCountInPlace)
{
    ASSERT_EQ(put("g", "9"), OpStatus::Ok);
    std::uint64_t v = 0;
    for (int i = 0; i < 5; ++i)
        ASSERT_EQ(cache_->arith(0, "g", 1, 999, true, v), OpStatus::Ok);
    std::string out;
    ASSERT_TRUE(fetch("g", out));
    EXPECT_EQ(out, std::to_string(9 + 5 * 999));
}

TEST_P(BranchTest, AppendPrependInPlace)
{
    ASSERT_EQ(put("cat", "middle"), OpStatus::Ok);
    EXPECT_EQ(cache_->concat(0, "cat", 3, "-end", 4, true),
              OpStatus::Ok);
    EXPECT_EQ(cache_->concat(0, "cat", 3, "front-", 6, false),
              OpStatus::Ok);
    std::string out;
    ASSERT_TRUE(fetch("cat", out));
    EXPECT_EQ(out, "front-middle-end");
    // Missing key: NOT_STORED, like memcached.
    EXPECT_EQ(cache_->concat(0, "nope", 4, "x", 1, true),
              OpStatus::NotStored);
}

TEST_P(BranchTest, AppendGrowsAcrossChunkBoundary)
{
    // Start small, append until the value must migrate to bigger slab
    // classes (the CAS-replace path).
    ASSERT_EQ(put("grow", "0123456789"), OpStatus::Ok);
    std::string expected = "0123456789";
    const std::string chunk(64, 'z');
    for (int i = 0; i < 40; ++i) {
        ASSERT_EQ(cache_->concat(0, "grow", 4, chunk.data(),
                                 chunk.size(), true),
                  OpStatus::Ok)
            << "round " << i;
        expected += chunk;
    }
    std::string out;
    ASSERT_TRUE(fetch("grow", out));
    EXPECT_EQ(out.size(), expected.size());
    EXPECT_EQ(out, expected);
    EXPECT_EQ(cache_->globalStats().currItems, 1u);
}

TEST_P(BranchTest, PrependPreservesOrderAcrossGrowth)
{
    ASSERT_EQ(put("pre", "tail"), OpStatus::Ok);
    std::string expected = "tail";
    for (int i = 0; i < 30; ++i) {
        const std::string piece = std::to_string(i) + "|";
        ASSERT_EQ(cache_->concat(0, "pre", 3, piece.data(), piece.size(),
                                 false),
                  OpStatus::Ok);
        expected = piece + expected;
    }
    std::string out;
    ASSERT_TRUE(fetch("pre", out));
    EXPECT_EQ(out, expected);
}

TEST_P(BranchTest, TouchUpdatesExpiry)
{
    ASSERT_EQ(put("t", "v"), OpStatus::Ok);
    EXPECT_EQ(cache_->touch(0, "t", 1, 1), OpStatus::Ok);
    EXPECT_EQ(cache_->touch(0, "zz", 2, 1), OpStatus::Miss);
    // Advance logical time far past the expiry; expired items are
    // lazily reclaimed on the next get.
    std::string out;
    for (int i = 0; i < 100000 && fetch("t", out); ++i) {
    }
    EXPECT_FALSE(fetch("t", out));
    EXPECT_GE(cache_->globalStats().expiredUnfetched, 1u);
}

TEST_P(BranchTest, StoreReportsTheCasIdItLinked)
{
    std::uint64_t cas = 0;
    std::uint64_t seen = 0;
    std::string out;
    ASSERT_EQ(cache_->store(0, "id", 2, "v1", 2, StoreMode::Set, 0, 0, &cas),
              OpStatus::Ok);
    ASSERT_TRUE(fetch("id", out, &seen));
    EXPECT_NE(cas, 0u);
    EXPECT_EQ(cas, seen);

    // Every storing mode reports the id the next get sees.
    const std::uint64_t prev = cas;
    ASSERT_EQ(cache_->store(0, "id", 2, "v2", 2, StoreMode::Cas, cas, 0,
                            &cas),
              OpStatus::Ok);
    ASSERT_TRUE(fetch("id", out, &seen));
    EXPECT_NE(cas, prev);
    EXPECT_EQ(cas, seen);
    ASSERT_EQ(cache_->store(0, "id", 2, "v3", 2, StoreMode::Replace, 0, 0,
                            &cas),
              OpStatus::Ok);
    ASSERT_TRUE(fetch("id", out, &seen));
    EXPECT_EQ(cas, seen);
    ASSERT_EQ(cache_->store(0, "id2", 3, "v", 1, StoreMode::Add, 0, 0,
                            &cas),
              OpStatus::Ok);
    ASSERT_TRUE(fetch("id2", out, &seen));
    EXPECT_EQ(cas, seen);
}

TEST_P(BranchTest, StatsCountersTrackOps)
{
    ASSERT_EQ(put("s1", "v"), OpStatus::Ok);
    std::string out;
    ASSERT_TRUE(fetch("s1", out));
    fetch("s-missing", out);
    const ThreadStatsBlock ts = cache_->threadStats();
    EXPECT_EQ(ts.cmdSet, 1u);
    EXPECT_EQ(ts.cmdGet, 2u);
    EXPECT_EQ(ts.getHits, 1u);
    EXPECT_EQ(ts.getMisses, 1u);
    const GlobalStats gs = cache_->globalStats();
    EXPECT_EQ(gs.currItems, 1u);
    EXPECT_EQ(gs.totalItems, 1u);
    EXPECT_EQ(gs.currBytes, 1u);
}

TEST_P(BranchTest, StatsTextRendersRows)
{
    ASSERT_EQ(put("x", "val"), OpStatus::Ok);
    char buf[2048];
    const std::size_t n = cache_->statsText(0, buf, sizeof(buf));
    ASSERT_GT(n, 0u);
    const std::string text(buf, n);
    EXPECT_NE(text.find("STAT curr_items 1\r\n"), std::string::npos);
    EXPECT_NE(text.find("STAT cmd_set 1\r\n"), std::string::npos);
}

TEST_P(BranchTest, FlushAllEmptiesTheCache)
{
    for (int i = 0; i < 50; ++i) {
        const std::string k = "flush" + std::to_string(i);
        ASSERT_EQ(put(k, "v"), OpStatus::Ok);
    }
    EXPECT_EQ(cache_->globalStats().currItems, 50u);
    cache_->flushAll(0);
    EXPECT_EQ(cache_->globalStats().currItems, 0u);
    EXPECT_EQ(cache_->linkedItemCount(), 0u);
    std::string out;
    EXPECT_FALSE(fetch("flush7", out));
}

TEST_P(BranchTest, ManyKeysSurviveHashExpansion)
{
    const std::uint32_t initial_power = cache_->hashPowerNow();
    constexpr int n = 2000;  // >> 1.5 * 2^8 buckets.
    for (int i = 0; i < n; ++i) {
        const std::string k = "exp" + std::to_string(i);
        ASSERT_EQ(put(k, "v" + std::to_string(i)), OpStatus::Ok);
    }
    cache_->quiesceMaintenance();
    EXPECT_GT(cache_->hashPowerNow(), initial_power);
    for (int i = 0; i < n; ++i) {
        const std::string k = "exp" + std::to_string(i);
        std::string out;
        ASSERT_TRUE(fetch(k, out)) << k;
        EXPECT_EQ(out, "v" + std::to_string(i));
    }
    EXPECT_EQ(cache_->globalStats().currItems,
              static_cast<std::uint64_t>(n));
}

TEST_P(BranchTest, EvictionKeepsCacheWithinBudget)
{
    // Tiny cache: force the eviction path hard. SetUp configured the
    // runtime already; configuring again here would race cache_'s
    // maintainers, whose wake-up probes are transactions.
    Settings s;
    s.maxBytes = 64 * 1024;
    s.slabPageSize = 16 * 1024;
    s.hashPowerInit = 6;
    auto small = makeShardedCache(GetParam(), s, 2);
    std::string big(512, 'B');
    for (int i = 0; i < 600; ++i) {
        const std::string k = "evict" + std::to_string(i);
        const auto st = small->store(0, k.data(), k.size(), big.data(),
                                     big.size());
        ASSERT_TRUE(st == OpStatus::Ok || st == OpStatus::OutOfMemory);
    }
    const GlobalStats gs = small->globalStats();
    EXPECT_GT(gs.evictions, 0u);
    // Newest items must still be present.
    char buf[1024];
    const auto r = small->get(0, "evict599", 8, buf, sizeof(buf));
    EXPECT_EQ(r.status, OpStatus::Ok);
    EXPECT_EQ(gs.currItems, small->linkedItemCount());
}

TEST_P(BranchTest, LargeValueRejected)
{
    std::string huge(64 * 1024, 'x');
    EXPECT_EQ(put("big", huge), OpStatus::NotStored);
}

INSTANTIATE_TEST_SUITE_P(
    AllBranches, BranchTest,
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
