/**
 * @file
 * The TM runtime over the per-thread slot table: a departed thread's
 * counts stay in its slot until resetStats(), a thread that reuses a
 * slot after a reset counts from zero, and writers keep committing
 * and quiescing while threads claim and release slots around them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/thread_slot.h"
#include "tm/api.h"
#include "tm_test_util.h"

namespace
{

using namespace tmemc;
using tmemc::tests::useRuntime;

const tm::TxnAttr kSlotAttr{"slots:commit", tm::TxnKind::Atomic, false};
const tm::TxnAttr kWriterAttr{"slots:writer", tm::TxnKind::Atomic, false};
const tm::TxnAttr kChurnAttr{"slots:churn", tm::TxnKind::Atomic, false};

/** Commit @p n increments of @p word. */
void
commitIncrements(const tm::TxnAttr &attr, std::uint64_t *word,
                 std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i) {
        tm::run(attr, [&](tm::TxDesc &tx) {
            tm::txStore(tx, word, tm::txLoad(tx, word) + 1);
        });
    }
}

std::uint64_t
siteCommits(const tm::StatsSnapshot &snap, const tm::TxnAttr &attr)
{
    const auto it = snap.perSite.find(&attr);
    return it == snap.perSite.end() ? 0 : it->second.commits;
}

class ThreadSlotTest : public ::testing::Test
{
  protected:
    void SetUp() override { useRuntime(tm::AlgoKind::GccEager); }
};

TEST_F(ThreadSlotTest, ExitedThreadStillCountsUntilReset)
{
    static std::uint64_t word = 0;
    std::thread([] { commitIncrements(kSlotAttr, &word, 25); }).join();

    tm::Runtime &rt = tm::Runtime::get();
    const tm::StatsSnapshot after_exit = rt.snapshot();
    EXPECT_EQ(siteCommits(after_exit, kSlotAttr), 25u);
    EXPECT_GE(after_exit.total.commits, 25u);

    rt.resetStats();
    const tm::StatsSnapshot after_reset = rt.snapshot();
    EXPECT_EQ(after_reset.perSite.count(&kSlotAttr), 0u);
    EXPECT_EQ(after_reset.total.commits, 0u);
}

TEST_F(ThreadSlotTest, SlotReusedAfterResetStartsFromZero)
{
    static std::uint64_t word = 0;
    std::size_t first_slot = 0;
    std::uint64_t first_id = 0;
    std::thread([&] {
        commitIncrements(kSlotAttr, &word, 40);
        first_slot = thread_slot::index();
        first_id = tm::myDesc().threadId;
    }).join();

    tm::Runtime &rt = tm::Runtime::get();
    rt.resetStats();
    std::size_t second_slot = 0;
    std::uint64_t second_id = 0;
    std::thread([&] {
        commitIncrements(kSlotAttr, &word, 7);
        second_slot = thread_slot::index();
        second_id = tm::myDesc().threadId;
    }).join();

    // The lowest free slot is the one the first thread released; the
    // descriptor is reused, the thread id is not.
    EXPECT_EQ(second_slot, first_slot);
    EXPECT_NE(second_id, first_id);
    const tm::StatsSnapshot snap = rt.snapshot();
    EXPECT_EQ(siteCommits(snap, kSlotAttr), 7u);
    ASSERT_GT(snap.commitsPerThread.size(), second_slot);
    EXPECT_EQ(snap.commitsPerThread[second_slot], 7u);
    EXPECT_EQ(snap.abortsPerThread[second_slot], 0u);
}

TEST_F(ThreadSlotTest, ChurnWhileWritersCommitAndQuiesce)
{
    constexpr unsigned kBatches = 60;
    constexpr unsigned kBatchThreads = 4;
    constexpr std::uint64_t kChurnCommits = 20;
    static std::uint64_t writer_word = 0;
    static std::uint64_t churn_word = 0;
    writer_word = 0;
    churn_word = 0;
    const std::size_t mark0 = thread_slot::highWater();

    // Two writers commit (each commit quiesces over every slot) until
    // the churn is over.
    std::atomic<bool> churning{true};
    std::atomic<std::uint64_t> written{0};
    std::vector<std::thread> writers;
    for (int w = 0; w < 2; ++w) {
        writers.emplace_back([&] {
            std::uint64_t n = 0;
            do {
                commitIncrements(kWriterAttr, &writer_word, 1);
                ++n;
            } while (churning.load(std::memory_order_acquire));
            written.fetch_add(n, std::memory_order_relaxed);
        });
    }
    // Meanwhile threads claim slots, commit and exit, releasing their
    // slots to the next batch.
    for (unsigned b = 0; b < kBatches; ++b) {
        std::vector<std::thread> batch;
        for (unsigned i = 0; i < kBatchThreads; ++i) {
            batch.emplace_back([] {
                commitIncrements(kChurnAttr, &churn_word, kChurnCommits);
            });
        }
        for (std::thread &t : batch)
            t.join();
    }
    churning.store(false, std::memory_order_release);
    for (std::thread &t : writers)
        t.join();

    const std::uint64_t churned = kBatches * kBatchThreads * kChurnCommits;
    EXPECT_EQ(writer_word, written.load());
    EXPECT_EQ(churn_word, churned);
    const tm::StatsSnapshot snap = tm::Runtime::get().snapshot();
    EXPECT_EQ(siteCommits(snap, kWriterAttr), written.load());
    EXPECT_EQ(siteCommits(snap, kChurnAttr), churned);
    std::uint64_t per_slot = 0;
    for (const std::uint64_t c : snap.commitsPerThread)
        per_slot += c;
    EXPECT_EQ(per_slot, snap.total.commits);
    // Released slots are reused: the churn raised the mark no higher
    // than the threads alive at once (this one, two writers, a batch).
    EXPECT_LE(thread_slot::highWater(),
              std::max<std::size_t>(mark0, 1 + 2 + kBatchThreads));
}

} // namespace
