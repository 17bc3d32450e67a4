/**
 * @file
 * Timestamp extension in the orec algorithms (GccEager, Lazy, RA),
 * driven deterministically: a reader transaction reads x and stops
 * behind a latch; a writer on another thread commits; the reader then
 * meets a version newer than its start time, either loading a word
 * (the load-side extension) or write-locking one (the lock-side
 * extension: GccEager's store, the redo-log algorithms' commit).
 *
 *  - x still valid: the extension succeeds and the reader commits with
 *    no abort.
 *  - x overwritten: the extension fails and the reader aborts exactly
 *    once; the retry sees both new values.
 *
 * The writer's site is non-privatizing, so its commit does not
 * quiesce on the reader it is racing (tm::TxnAttr::privatizes).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "tm/api.h"
#include "tm_test_util.h"

namespace
{

using namespace tmemc;

const tm::TxnAttr readerAttr{"ext:reader", tm::TxnKind::Atomic, false};
const tm::TxnAttr writerAttr{"ext:writer", tm::TxnKind::Atomic, false,
                             /*readOnlyHint=*/false,
                             /*privatizes=*/false};

/** Three words on separate cache lines (and, checked, separate orecs). */
struct alignas(64) Line
{
    std::uint64_t v = 0;
};

class TimestampExtensionTest : public ::testing::TestWithParam<tm::AlgoKind>
{
  protected:
    void
    SetUp() override
    {
        tmemc::tests::useRuntime(GetParam(), tm::CmKind::NoCM);
        tm::OrecTable &orecs = tm::Runtime::get().orecs();
        auto orec = [&](const Line &l) {
            return &orecs.forWord(reinterpret_cast<std::uintptr_t>(&l.v));
        };
        ASSERT_NE(orec(x_), orec(y_));
        ASSERT_NE(orec(x_), orec(w_));
        ASSERT_NE(orec(y_), orec(w_));
    }

    /**
     * The reader reads x, waits until the writer has committed, then
     * runs @p after_latch. @return the number of reader attempts.
     */
    template <typename Writer, typename After>
    int
    race(Writer &&writer, After &&after_latch)
    {
        std::atomic<bool> read_x{false}, written{false};
        int attempts = 0;
        std::thread reader([&] {
            tm::run(readerAttr, [&](tm::TxDesc &tx) {
                ++attempts;
                seenX_ = tm::txLoad(tx, &x_.v);
                read_x = true;
                while (!written.load())
                    std::this_thread::yield();
                after_latch(tx);
            });
        });
        while (!read_x.load())
            std::this_thread::yield();
        tm::run(writerAttr, [&](tm::TxDesc &tx) { writer(tx); });
        written = true;
        reader.join();
        return attempts;
    }

    Line x_, y_, w_;
    std::uint64_t seenX_ = 0;
    std::uint64_t seenY_ = 0;
};

TEST_P(TimestampExtensionTest, LoadExtendsPastUnrelatedCommit)
{
    const int attempts = race(
        [&](tm::TxDesc &tx) { tm::txStore<std::uint64_t>(tx, &y_.v, 1); },
        [&](tm::TxDesc &tx) { seenY_ = tm::txLoad(tx, &y_.v); });
    EXPECT_EQ(attempts, 1);
    EXPECT_EQ(tm::Runtime::get().snapshot().total.aborts, 0u);
    EXPECT_EQ(seenX_, 0u);
    EXPECT_EQ(seenY_, 1u);
}

TEST_P(TimestampExtensionTest, LockExtendsPastUnrelatedCommit)
{
    const int attempts = race(
        [&](tm::TxDesc &tx) { tm::txStore<std::uint64_t>(tx, &w_.v, 1); },
        [&](tm::TxDesc &tx) { tm::txStore<std::uint64_t>(tx, &w_.v, 2); });
    EXPECT_EQ(attempts, 1);
    EXPECT_EQ(tm::Runtime::get().snapshot().total.aborts, 0u);
    EXPECT_EQ(seenX_, 0u);
    EXPECT_EQ(w_.v, 2u);
}

TEST_P(TimestampExtensionTest, LoadAbortsOnceWhenEarlierReadIsOverwritten)
{
    const int attempts = race(
        [&](tm::TxDesc &tx) {
            tm::txStore<std::uint64_t>(tx, &x_.v, 1);
            tm::txStore<std::uint64_t>(tx, &y_.v, 1);
        },
        [&](tm::TxDesc &tx) { seenY_ = tm::txLoad(tx, &y_.v); });
    EXPECT_EQ(attempts, 2);
    EXPECT_EQ(tm::Runtime::get().snapshot().total.aborts, 1u);
    EXPECT_EQ(seenX_, 1u);
    EXPECT_EQ(seenY_, 1u);
}

TEST_P(TimestampExtensionTest, LockAbortsOnceWhenEarlierReadIsOverwritten)
{
    const int attempts = race(
        [&](tm::TxDesc &tx) {
            tm::txStore<std::uint64_t>(tx, &x_.v, 1);
            tm::txStore<std::uint64_t>(tx, &w_.v, 1);
        },
        [&](tm::TxDesc &tx) {
            tm::txStore<std::uint64_t>(tx, &w_.v, seenX_ + 1);
        });
    EXPECT_EQ(attempts, 2);
    EXPECT_EQ(tm::Runtime::get().snapshot().total.aborts, 1u);
    EXPECT_EQ(seenX_, 1u);
    EXPECT_EQ(w_.v, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Orec, TimestampExtensionTest,
    ::testing::Values(tm::AlgoKind::GccEager, tm::AlgoKind::Lazy,
                      tm::AlgoKind::RA),
    [](const ::testing::TestParamInfo<tm::AlgoKind> &info) {
        return tmemc::tests::algoName(info.param);
    });

} // namespace
