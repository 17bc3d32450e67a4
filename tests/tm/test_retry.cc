/**
 * @file
 * Tests for tm::retry() — the condition-synchronization extension the
 * paper recommends TM specifications adopt (Sections 3.2 and 5).
 *
 * Includes a transactional bounded queue: the producer/consumer
 * pattern that memcached's maintenance-thread wakeups implement with
 * semaphores, rebuilt on retry with no condition variables at all.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "tm/api.h"
#include "tm_test_util.h"

namespace
{

using namespace tmemc;
using tmemc::tests::useRuntime;

const tm::TxnAttr attr{"retry:txn", tm::TxnKind::Atomic, false};

class RetryTest : public ::testing::TestWithParam<tm::AlgoKind>
{
  protected:
    void SetUp() override { useRuntime(GetParam(), tm::CmKind::NoCM); }
};

TEST_P(RetryTest, RetryBlocksUntilPredicateHolds)
{
    static std::uint64_t flag;
    flag = 0;
    std::atomic<bool> woke{false};

    std::thread waiter([&] {
        const std::uint64_t seen = tm::run(attr, [&](tm::TxDesc &tx) {
            const std::uint64_t v = tm::txLoad(tx, &flag);
            if (v == 0)
                tm::retry(tx);
            return v;
        });
        EXPECT_EQ(seen, 42u);
        woke = true;
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_FALSE(woke.load());  // Still blocked: predicate false.
    tm::run(attr, [&](tm::TxDesc &tx) {
        tm::txStore<std::uint64_t>(tx, &flag, 42);
    });
    waiter.join();
    EXPECT_TRUE(woke.load());
    const auto snap = tm::Runtime::get().snapshot();
    EXPECT_GE(snap.total.retries, 1u);
}

TEST_P(RetryTest, RetryRollsBackSpeculativeWrites)
{
    static std::uint64_t cell;
    static std::uint64_t gate;
    cell = 0;
    gate = 0;
    std::thread waiter([&] {
        tm::run(attr, [&](tm::TxDesc &tx) {
            // Speculative write that must be undone on each retry wait.
            tm::txStore<std::uint64_t>(tx, &cell,
                                       tm::txLoad(tx, &cell) + 1);
            if (tm::txLoad(tx, &gate) == 0)
                tm::retry(tx);
        });
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // The waiter has retried at least once; its speculative increment
    // must not be visible. Observe transactionally: a plain read
    // would race with the eager algorithm's in-place writes.
    const std::uint64_t observed = tm::run(
        attr, [&](tm::TxDesc &tx) { return tm::txLoad(tx, &cell); });
    EXPECT_EQ(observed, 0u);
    tm::run(attr, [&](tm::TxDesc &tx) {
        tm::txStore<std::uint64_t>(tx, &gate, 1);
    });
    waiter.join();
    EXPECT_EQ(cell, 1u);  // Exactly one increment committed.
}

TEST_P(RetryTest, BoundedQueueProducerConsumer)
{
    // The paper's Figure 2 coordination pattern without semaphores or
    // condition variables: pure transactions + retry.
    constexpr int capacity = 4;
    constexpr int total = 500;
    static std::uint64_t ring[capacity];
    static std::uint64_t head;
    static std::uint64_t tail;
    head = tail = 0;

    std::thread producer([&] {
        for (int i = 1; i <= total; ++i) {
            tm::run(attr, [&](tm::TxDesc &tx) {
                const std::uint64_t h = tm::txLoad(tx, &head);
                const std::uint64_t t = tm::txLoad(tx, &tail);
                if (h - t >= capacity)
                    tm::retry(tx);  // Full.
                tm::txStore<std::uint64_t>(tx, &ring[h % capacity],
                                           static_cast<std::uint64_t>(i));
                tm::txStore<std::uint64_t>(tx, &head, h + 1);
            });
        }
    });
    std::uint64_t sum = 0;
    std::uint64_t last = 0;
    bool ordered = true;
    std::thread consumer([&] {
        for (int i = 0; i < total; ++i) {
            const std::uint64_t v = tm::run(attr, [&](tm::TxDesc &tx) {
                const std::uint64_t h = tm::txLoad(tx, &head);
                const std::uint64_t t = tm::txLoad(tx, &tail);
                if (t == h)
                    tm::retry(tx);  // Empty.
                const std::uint64_t val =
                    tm::txLoad(tx, &ring[t % capacity]);
                tm::txStore<std::uint64_t>(tx, &tail, t + 1);
                return val;
            });
            ordered = ordered && (v == last + 1);
            last = v;
            sum += v;
        }
    });
    producer.join();
    consumer.join();
    EXPECT_TRUE(ordered);
    EXPECT_EQ(sum, static_cast<std::uint64_t>(total) * (total + 1) / 2);
}

TEST_P(RetryTest, SerialCommitWakesRetryWaiter)
{
    // A serial-irrevocable writer stores raw; its commit must still
    // move the word a retry waiter sleeps on.
    static const tm::TxnAttr serial{"retry:serial-writer",
                                    tm::TxnKind::Relaxed, true};
    static std::uint64_t flag;
    static std::uint64_t unrelated;
    flag = 0;
    unrelated = 0;
    std::atomic<int> attempts{0};
    std::atomic<bool> woke{false};

    std::thread waiter([&] {
        tm::run(attr, [&](tm::TxDesc &tx) {
            attempts.fetch_add(1);
            if (tm::txLoad(tx, &flag) == 0)
                tm::retry(tx);
        });
        woke = true;
    });
    while (attempts.load() == 0)
        std::this_thread::yield();
    // The waiter read flag == 0 under the serial lock's read side, so
    // this serial writer commits after that snapshot.
    tm::run(serial, [&](tm::TxDesc &tx) {
        tm::txStore<std::uint64_t>(tx, &flag, 1);
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (!woke.load() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(woke.load()) << "serial commit did not wake the waiter";
    // Unblock a still-sleeping waiter with a speculative commit, so a
    // lost wake-up fails here instead of hanging the suite.
    tm::run(attr, [&](tm::TxDesc &tx) {
        tm::txStore<std::uint64_t>(tx, &unrelated, 1);
    });
    waiter.join();
}

TEST_P(RetryTest, RetryOutsideTransactionIsFatal)
{
    EXPECT_DEATH(tm::retry(tm::myDesc()), "outside a transaction");
}

TEST_P(RetryTest, RetryInSerialModeIsFatal)
{
    static const tm::TxnAttr serial{"retry:serial", tm::TxnKind::Relaxed,
                                    true};
    EXPECT_DEATH(tm::run(serial,
                         [](tm::TxDesc &tx) { tm::retry(tx); }),
                 "irrevocable");
}

INSTANTIATE_TEST_SUITE_P(
    Algos, RetryTest,
    ::testing::Values(tm::AlgoKind::GccEager, tm::AlgoKind::Lazy,
                      tm::AlgoKind::NOrec, tm::AlgoKind::RA),
    [](const ::testing::TestParamInfo<tm::AlgoKind> &info) {
        return tmemc::tests::algoName(info.param);
    });

} // namespace
