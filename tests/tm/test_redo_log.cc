/**
 * @file
 * Unit tests for the masked redo log.
 */

#include <gtest/gtest.h>

#include <vector>

#include "tm/redo_log.h"
#include "tm_test_util.h"

namespace
{

using tmemc::tm::RedoLog;
using namespace tmemc;

TEST(RedoLog, EmptyLookupMisses)
{
    RedoLog log;
    std::uint64_t v = 0, m = 0;
    EXPECT_FALSE(log.lookup(0x1000, v, m));
    EXPECT_TRUE(log.empty());
}

TEST(RedoLog, InsertThenLookup)
{
    RedoLog log;
    log.insert(0x1000, 0xdeadbeef, 0xffffffffull);
    std::uint64_t v = 0, m = 0;
    ASSERT_TRUE(log.lookup(0x1000, v, m));
    EXPECT_EQ(v, 0xdeadbeefull);
    EXPECT_EQ(m, 0xffffffffull);
    EXPECT_EQ(log.size(), 1u);
}

TEST(RedoLog, OverlappingMasksMerge)
{
    RedoLog log;
    log.insert(0x2000, 0x00000000000000aa, 0x00000000000000ff);
    log.insert(0x2000, 0x0000000000bb0000, 0x0000000000ff0000);
    std::uint64_t v = 0, m = 0;
    ASSERT_TRUE(log.lookup(0x2000, v, m));
    EXPECT_EQ(m, 0x0000000000ff00ffull);
    EXPECT_EQ(v, 0x0000000000bb00aaull);
    EXPECT_EQ(log.size(), 1u);  // Same word: one entry.
}

TEST(RedoLog, LaterWriteWinsWithinMask)
{
    RedoLog log;
    log.insert(0x3000, 0x11, 0xff);
    log.insert(0x3000, 0x22, 0xff);
    std::uint64_t v = 0, m = 0;
    ASSERT_TRUE(log.lookup(0x3000, v, m));
    EXPECT_EQ(v & 0xff, 0x22u);
}

TEST(RedoLog, DistinctWordsKeptApart)
{
    RedoLog log;
    for (std::uintptr_t a = 0x1000; a < 0x1000 + 8 * 100; a += 8)
        log.insert(a, a, ~0ull);
    EXPECT_EQ(log.size(), 100u);
    for (std::uintptr_t a = 0x1000; a < 0x1000 + 8 * 100; a += 8) {
        std::uint64_t v = 0, m = 0;
        ASSERT_TRUE(log.lookup(a, v, m));
        EXPECT_EQ(v, a);
    }
}

TEST(RedoLog, GrowsPastInitialIndexCapacity)
{
    RedoLog log;
    constexpr int n = 10000;
    for (int i = 0; i < n; ++i)
        log.insert(0x10000 + 8ull * i, i, ~0ull);
    EXPECT_EQ(log.size(), static_cast<std::size_t>(n));
    std::uint64_t v = 0, m = 0;
    ASSERT_TRUE(log.lookup(0x10000 + 8ull * (n - 1), v, m));
    EXPECT_EQ(v, static_cast<std::uint64_t>(n - 1));
}

TEST(RedoLog, ClearForgetsEverything)
{
    RedoLog log;
    log.insert(0x1000, 1, ~0ull);
    log.clear();
    std::uint64_t v = 0, m = 0;
    EXPECT_FALSE(log.lookup(0x1000, v, m));
    EXPECT_TRUE(log.empty());
    // Reusable after clear.
    log.insert(0x1000, 2, ~0ull);
    ASSERT_TRUE(log.lookup(0x1000, v, m));
    EXPECT_EQ(v, 2u);
}

TEST(RedoLog, ClearAfterGrowthLeavesNoStaleEntries)
{
    RedoLog log;
    constexpr std::uintptr_t kBase = 0x10000;
    constexpr int kBig = 4096;
    for (int i = 0; i < kBig; ++i)
        log.insert(kBase + 8ull * i, i, ~0ull);
    // Many clears of the grown index: each leaves it empty.
    for (int round = 1; round <= 100; ++round) {
        log.clear();
        ASSERT_TRUE(log.empty());
        const std::uintptr_t own = kBase + 8ull * (round % kBig);
        log.insert(own, 1000000 + round, ~0ull);
        std::uint64_t v = 0, m = 0;
        ASSERT_TRUE(log.lookup(own, v, m));
        EXPECT_EQ(v, 1000000u + round);
        EXPECT_FALSE(log.lookup(own + 8, v, m));
        EXPECT_FALSE(log.lookup(kBase + 8ull * (kBig - 1), v, m));
        EXPECT_EQ(log.size(), 1u);
    }
}

TEST(RedoLog, ClearEmptiesCollidingChains)
{
    // Words 512 KiB apart share a home slot in any index of up to 64K
    // slots, so each insert lands one further down a single probe
    // chain. A clear that left a chain slot behind would answer for an
    // old word once new words of the same home refill the chain.
    RedoLog log;
    constexpr std::uintptr_t kBase = 0x10000;
    constexpr std::uintptr_t kStride = std::uintptr_t{8} << 16;
    constexpr int kWords = 200;
    for (int i = 0; i < kWords; ++i)
        log.insert(kBase + kStride * i, i, ~0ull);
    log.clear();
    for (int i = kWords; i < 2 * kWords; ++i)
        log.insert(kBase + kStride * i, 7, ~0ull);
    std::uint64_t v = 0, m = 0;
    for (int i = 0; i < kWords; ++i)
        ASSERT_FALSE(log.lookup(kBase + kStride * i, v, m)) << i;
    for (int i = kWords; i < 2 * kWords; ++i) {
        ASSERT_TRUE(log.lookup(kBase + kStride * i, v, m)) << i;
        EXPECT_EQ(v, 7u);
    }
}

/** A transaction that grows the redo log's index must not leave
 *  entries that a later transaction on the descriptor reads. */
class RedoLogRuntime : public ::testing::TestWithParam<tm::AlgoKind>
{
};

TEST_P(RedoLogRuntime, LargeTxnLeavesNoStaleEntries)
{
    tests::useRuntime(GetParam());
    static const tm::TxnAttr attr{"redo-large", tm::TxnKind::Atomic};
    constexpr std::size_t kWords = 4096;
    std::vector<std::uint64_t> words(kWords, 0);
    tm::run(attr, [&](tm::TxDesc &d) {
        for (std::size_t i = 0; i < kWords; ++i)
            tm::txStore(d, &words[i], std::uint64_t{i + 1});
    });
    for (std::size_t i = 0; i < kWords; ++i)
        ASSERT_EQ(words[i], i + 1);
    // Change memory behind the log's back (no transaction is running):
    // a stale entry would hand a later read the old buffered value.
    for (std::size_t i = 0; i < kWords; ++i)
        words[i] = 7 * i;
    for (std::size_t i = 0; i < kWords; i += 97) {
        const std::uint64_t seen = tm::run(attr, [&](tm::TxDesc &d) {
            tm::txStore(d, &words[i], std::uint64_t{42});
            const std::uint64_t own = tm::txLoad(d, &words[i]);
            const std::size_t j = (i + 1) % kWords;
            return own * 1000000 + tm::txLoad(d, &words[j]);
        });
        EXPECT_EQ(seen, 42 * 1000000 + 7 * ((i + 1) % kWords));
    }
}

INSTANTIATE_TEST_SUITE_P(
    BufferedAlgos, RedoLogRuntime,
    ::testing::Values(tm::AlgoKind::Lazy, tm::AlgoKind::RA),
    [](const ::testing::TestParamInfo<tm::AlgoKind> &info) {
        return tests::algoName(info.param);
    });

TEST(RedoLog, EntriesPreserveInsertionOrder)
{
    RedoLog log;
    log.insert(0x1000, 1, ~0ull);
    log.insert(0x2000, 2, ~0ull);
    log.insert(0x3000, 3, ~0ull);
    const auto &es = log.entries();
    ASSERT_EQ(es.size(), 3u);
    EXPECT_EQ(es[0].wordAddr, 0x1000u);
    EXPECT_EQ(es[1].wordAddr, 0x2000u);
    EXPECT_EQ(es[2].wordAddr, 0x3000u);
}

} // namespace
