/**
 * @file
 * The TM sync policy's per-site attribute registry: lookups take no
 * lock, and racing first lookups of one site agree on one TxnAttr.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "mc/sync_tm.h"

namespace
{

using namespace tmemc;

TEST(SiteAttrRegistry, RacingFirstLookupsShareOneAttr)
{
    constexpr int kThreads = 8;
    constexpr int kRounds = 50;
    for (int round = 0; round < kRounds; ++round) {
        // A fresh registry and site each round: every round is a
        // first touch.
        mc::SiteAttrRegistry<mc::kITOnCommit> reg;
        const mc::SiteInfo site{"test:racing-site", mc::kNoUnsafe,
                                mc::kNoUnsafe, true};
        std::atomic<int> ready{0};
        std::vector<const tm::TxnAttr *> got(kThreads, nullptr);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                ready.fetch_add(1);
                while (ready.load() < kThreads)
                    std::this_thread::yield();
                got[t] = &reg.get(site);
            });
        }
        for (auto &th : threads)
            th.join();
        for (int t = 0; t < kThreads; ++t)
            ASSERT_EQ(got[t], got[0]) << "round " << round;
        EXPECT_STREQ(got[0]->name, "test:racing-site");
        EXPECT_EQ(got[0]->kind, tm::TxnKind::Atomic);
        EXPECT_FALSE(got[0]->startsSerial);
        EXPECT_TRUE(got[0]->readOnlyHint);
    }
}

TEST(SiteAttrRegistry, DistinctSitesGetDistinctStableAttrs)
{
    mc::SiteAttrRegistry<mc::kITOnCommit> reg;
    static const mc::SiteInfo sites[] = {
        {"test:a", mc::kNoUnsafe, mc::kNoUnsafe},
        {"test:b", mc::kNoUnsafe, mc::kNoUnsafe},
        {"test:c", mc::kNoUnsafe, mc::kNoUnsafe},
    };
    std::vector<const tm::TxnAttr *> first;
    for (const mc::SiteInfo &s : sites)
        first.push_back(&reg.get(s));
    EXPECT_NE(first[0], first[1]);
    EXPECT_NE(first[1], first[2]);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(&reg.get(sites[i]), first[i]);
        EXPECT_STREQ(first[i]->name, sites[i].name);
        EXPECT_EQ(first[i]->kind, tm::TxnKind::Atomic);
    }
}

TEST(SiteAttrRegistryDeathTest, OverflowPanics)
{
    using Reg = mc::SiteAttrRegistry<mc::kITOnCommit>;
    static mc::SiteInfo sites[Reg::kSlots + 1];
    for (mc::SiteInfo &s : sites)
        s.name = "test:overflow";
    EXPECT_DEATH(
        {
            Reg reg;
            for (const mc::SiteInfo &s : sites)
                reg.get(s);
        },
        "more than 64 sites");
}

} // namespace
