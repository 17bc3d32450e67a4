/**
 * @file
 * Tests for the memslap-like workload driver: determinism, mix
 * accounting, hit-rate behaviour, the loopback transports, the
 * measurement window and the value-size check.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "mc/cache_iface.h"
#include "net/server.h"
#include "tm/api.h"
#include "workload/memslap.h"

namespace
{

using namespace tmemc;
using namespace tmemc::mc;
using namespace tmemc::workload;

std::unique_ptr<CacheIface>
freshCache(const char *branch = "Baseline", std::uint32_t threads = 4)
{
    tm::Runtime::get().configure(tm::RuntimeCfg{});
    Settings s;
    s.maxBytes = 64 * 1024 * 1024;
    return makeCache(branch, s, threads);
}

TEST(Memslap, KeyFormattingIsFixedWidthAndUnique)
{
    char a[64];
    char b[64];
    formatKey(a, 0, 1);
    formatKey(b, 0, 2);
    EXPECT_EQ(std::strlen(a), kKeySize);
    EXPECT_EQ(std::strlen(b), kKeySize);
    EXPECT_STRNE(a, b);
    formatKey(b, 1, 1);  // Different thread, same index.
    EXPECT_STRNE(a, b);
    formatKey(b, 0, 1);
    EXPECT_STREQ(a, b);  // Deterministic.
}

TEST(Memslap, ExecutesExactOpBudget)
{
    auto cache = freshCache();
    MemslapCfg cfg;
    cfg.concurrency = 3;
    cfg.executeNumber = 1000;
    cfg.windowSize = 500;
    const auto result = runMemslap(*cache, cfg);
    EXPECT_EQ(result.ops, 3000u);
    // gets + sets == measured ops + the warm phase's window stores
    // (default mix has no arith/delete traffic).
    const auto ts = cache->threadStats();
    EXPECT_EQ(ts.cmdGet + ts.cmdSet, 3000u + 3 * 500u);
    EXPECT_GE(ts.cmdSet, 3 * 500u);
}

TEST(Memslap, WarmWindowMakesGetsHit)
{
    auto cache = freshCache();
    MemslapCfg cfg;
    cfg.concurrency = 2;
    cfg.executeNumber = 2000;
    cfg.windowSize = 1000;
    const auto result = runMemslap(*cache, cfg);
    // Every key was preloaded and the cache is big enough: ~no misses.
    EXPECT_EQ(result.misses, 0u);
    EXPECT_GT(result.hits, 0u);
    EXPECT_EQ(result.failures, 0u);
    EXPECT_EQ(result.lostAckedUpdates, 0u);
}

TEST(Memslap, MixFractionsRoughlyHonoured)
{
    auto cache = freshCache();
    MemslapCfg cfg;
    cfg.concurrency = 2;
    cfg.executeNumber = 10000;
    cfg.windowSize = 1000;
    cfg.setFraction = 0.3;
    runMemslap(*cache, cfg);
    const auto ts = cache->threadStats();
    const double sets =
        static_cast<double>(ts.cmdSet) - 2 * 1000;  // minus warm phase
    EXPECT_NEAR(sets / 20000.0, 0.3, 0.02);
}

TEST(Memslap, DeterministicAcrossRuns)
{
    // Same seed, same branch => identical hit/miss accounting.
    MemslapCfg cfg;
    cfg.concurrency = 2;
    cfg.executeNumber = 3000;
    cfg.windowSize = 400;
    cfg.setFraction = 0.2;
    cfg.seed = 777;

    auto c1 = freshCache();
    const auto r1 = runMemslap(*c1, cfg);
    c1.reset();
    auto c2 = freshCache();
    const auto r2 = runMemslap(*c2, cfg);
    EXPECT_EQ(r1.hits, r2.hits);
    EXPECT_EQ(r1.misses, r2.misses);
}

/** A loopback run against an in-process server: every op answered,
 *  every acknowledged update read back fresh. */
void
expectCleanLoopbackRun(bool binary)
{
    auto cache = freshCache("IT-onCommit", 2);
    net::ServerCfg scfg;
    scfg.port = 0;
    scfg.workers = 2;
    net::Server server(*cache, scfg);
    ASSERT_TRUE(server.start());

    MemslapCfg cfg;
    cfg.concurrency = 2;
    cfg.executeNumber = 1500;
    cfg.windowSize = 300;
    cfg.setFraction = 0.3;
    cfg.binaryProtocol = binary;
    cfg.serverPort = server.port();
    const auto r = runMemslapNet(cfg);
    server.stop();
    EXPECT_EQ(r.ops, 3000u);
    EXPECT_EQ(server.requestsServed(), 2 * (300u + 1500u));
    EXPECT_GT(r.hits, 0u);
    EXPECT_EQ(r.misses, 0u);
    EXPECT_EQ(r.failures, 0u);
    EXPECT_EQ(r.lostResponses, 0u);
    EXPECT_EQ(r.lostAckedUpdates, 0u);
}

TEST(Memslap, LoopbackAsciiRunIsClean) { expectCleanLoopbackRun(false); }

TEST(Memslap, LoopbackBinaryRunIsClean) { expectCleanLoopbackRun(true); }

TEST(Memslap, SnapshotCountsOnlyTheMeasuredWindow)
{
    // The warm phase stores 1000 keys per thread; one measured op per
    // thread must leave only a handful of transactions in the window.
    constexpr std::uint32_t threads = 4;
    auto cache = freshCache("IT", threads);
    MemslapCfg cfg;
    cfg.concurrency = threads;
    cfg.executeNumber = 1;
    cfg.windowSize = 1000;
    runMemslap(*cache, cfg);
    cache.reset();  // Join the maintainers: their transactions count.
    const auto snap = tm::Runtime::get().snapshot();
    EXPECT_LT(snap.total.txns, 100u * threads);
}

TEST(Memslap, RejectsValuesShorterThanTheStamp)
{
    MemslapCfg cfg;
    cfg.concurrency = 1;
    cfg.valueSize = kStampSize - 1;
    EXPECT_DEATH(runMemslap(*freshCache(), cfg), "sequence stamp");
}

} // namespace
