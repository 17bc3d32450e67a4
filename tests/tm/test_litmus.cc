/**
 * @file
 * Weak-memory litmus tests with transactional boundaries, after the
 * Chong, Sorensen & Wickerson catalogue: SB, MP, LB and IRIW where
 * every shared access runs inside its own (tiny) transaction. Strong
 * isolation plus real-time ordering of committed transactions forbids
 * the classic relaxed outcomes even though each access sits in a
 * separate transaction — e.g. SB's r1 == r2 == 0 would require a
 * serialization cycle through the threads' program orders.
 *
 * The suite runs across all speculative algorithms including the
 * fence-free RA branch — the one these outcomes are actually at risk
 * on: RA has no seq_cst fences anywhere, so the forbidden results can
 * only stay forbidden if the orec release/acquire pairs and the
 * release-ordered commit clock are placed correctly. CI runs this
 * file under TSan; outcome assertions catch ordering bugs TSan's
 * happens-before analysis cannot (a too-weak ordering that is not a
 * data race).
 *
 * Harness: persistent threads with atomic round/done counters as
 * barriers (thread churn would dominate at thousands of rounds).
 * TMEMC_LITMUS_ROUNDS overrides the per-test round count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "litmus_harness.h"
#include "obs/tail.h"
#include "tm/api.h"
#include "tm_test_util.h"

namespace
{

using namespace tmemc;
using tmemc::tests::useRuntime;

const tm::TxnAttr kAttr{"litmus", tm::TxnKind::Atomic, false};

int
litmusRounds()
{
    if (const char *s = std::getenv("TMEMC_LITMUS_ROUNDS"))
        return static_cast<int>(std::strtol(s, nullptr, 10));
    return 2000;
}

/** Transactional store of @p v into @p var — one tx per access. */
void
txPut(tm::TmVar<std::uint64_t> &var, std::uint64_t v)
{
    tm::run(kAttr, [&](tm::TxDesc &tx) { var.set(tx, v); });
}

/** Transactional load — one tx per access. */
std::uint64_t
txGet(tm::TmVar<std::uint64_t> &var)
{
    return tm::run(kAttr,
                   [&](tm::TxDesc &tx) { return var.get(tx); });
}

/** Round harness (tests/tm/litmus_harness.h), stopping after the
 *  first fatal gtest failure. The worker bodies here ignore the
 *  harness's thread-index parameter. */
void
litmusRun(int rounds, const std::function<void()> &reset,
          const std::vector<std::function<void()>> &bodies,
          const std::function<void(int)> &check)
{
    std::vector<std::function<void(unsigned)>> wrapped;
    wrapped.reserve(bodies.size());
    for (const auto &body : bodies)
        wrapped.emplace_back([&body](unsigned) { body(); });
    litmus::litmusRun(rounds, reset, wrapped, check, [] {
        return !::testing::Test::HasFatalFailure();
    });
}

class LitmusTest : public ::testing::TestWithParam<tm::AlgoKind>
{
  protected:
    void SetUp() override { useRuntime(GetParam()); }
    void
    TearDown() override
    {
        tm::Runtime::get().configure(tm::RuntimeCfg{});
    }
};

TEST_P(LitmusTest, StoreBuffering)
{
    // SB: forbidden outcome r1 == 0 && r2 == 0 — would need each
    // thread's load serialized before the other thread's earlier
    // (program-order) store.
    tm::TmVar<std::uint64_t> x{0}, y{0};
    std::uint64_t r1 = 0, r2 = 0;
    litmusRun(
        litmusRounds(),
        [&] {
            x.rawSet(0);
            y.rawSet(0);
        },
        {[&] {
             txPut(x, 1);
             r1 = txGet(y);
         },
         [&] {
             txPut(y, 1);
             r2 = txGet(x);
         }},
        [&](int round) {
            ASSERT_FALSE(r1 == 0 && r2 == 0)
                << "SB relaxed outcome at round " << round;
        });
}

TEST_P(LitmusTest, MessagePassing)
{
    // MP: flag == 1 implies the payload write is visible.
    tm::TmVar<std::uint64_t> data{0}, flag{0};
    std::uint64_t r_flag = 0, r_data = 0;
    litmusRun(
        litmusRounds(),
        [&] {
            data.rawSet(0);
            flag.rawSet(0);
        },
        {[&] {
             txPut(data, 1);
             txPut(flag, 1);
         },
         [&] {
             r_flag = txGet(flag);
             r_data = txGet(data);
         }},
        [&](int round) {
            ASSERT_FALSE(r_flag == 1 && r_data == 0)
                << "MP relaxed outcome at round " << round;
        });
}

TEST_P(LitmusTest, LoadBuffering)
{
    // LB: forbidden outcome r1 == 1 && r2 == 1 — each load would have
    // to observe a store that is serialized after it.
    tm::TmVar<std::uint64_t> x{0}, y{0};
    std::uint64_t r1 = 0, r2 = 0;
    litmusRun(
        litmusRounds(),
        [&] {
            x.rawSet(0);
            y.rawSet(0);
        },
        {[&] {
             r1 = txGet(y);
             txPut(x, 1);
         },
         [&] {
             r2 = txGet(x);
             txPut(y, 1);
         }},
        [&](int round) {
            ASSERT_FALSE(r1 == 1 && r2 == 1)
                << "LB relaxed outcome at round " << round;
        });
}

TEST_P(LitmusTest, Iriw)
{
    // IRIW: two independent writers, two readers; the readers must
    // agree on the order of the writes (no (1,0) vs (1,0) crosswise).
    // This is the outcome plain release/acquire famously permits —
    // transactions must restore the single total order.
    tm::TmVar<std::uint64_t> x{0}, y{0};
    std::uint64_t r1 = 0, r2 = 0, r3 = 0, r4 = 0;
    litmusRun(
        litmusRounds(),
        [&] {
            x.rawSet(0);
            y.rawSet(0);
        },
        {[&] { txPut(x, 1); },
         [&] { txPut(y, 1); },
         [&] {
             r1 = txGet(x);
             r2 = txGet(y);
         },
         [&] {
             r3 = txGet(y);
             r4 = txGet(x);
         }},
        [&](int round) {
            ASSERT_FALSE(r1 == 1 && r2 == 0 && r3 == 1 && r4 == 0)
                << "IRIW relaxed outcome at round " << round
                << " (readers disagree on the write order)";
        });
}

TEST(ArmedLatchLitmus, ArmedLatchPublishesConfig)
{
    // From atomlint's initial tree scan (AL2, armed-latch protocol):
    // obs::armTail() once stored both the tail K and its latch
    // relaxed, so a worker whose relaxed fast-path gate saw the latch
    // could trace against a stale K. The arm now sets the probe's one
    // armed bitmask with release, and requestBeginSlow() re-reads it
    // with acquire; this MP-shaped test pins that: whenever a request
    // is admitted (nonzero id), the K configured by that arm must be
    // visible.
    int roundK = 0;  // Written in reset, read after the go barrier.
    std::uint64_t r_id = 0;
    std::size_t r_k = 0;
    obs::tail::disarmTail();
    litmusRun(
        litmusRounds(),
        [&] {
            obs::tail::disarmTail();
            roundK = 5 + (std::rand() & 7);
            r_id = 0;
            r_k = 0;
        },
        {[&] { obs::tail::armTail(static_cast<std::size_t>(roundK)); },
         [&] {
             const obs::probe::Request req =
                 obs::probe::requestBegin(0, false, 0);
             // Sequenced after requestBeginSlow's acquire re-read of
             // the latch, so the arm's configuration is visible.
             r_k = obs::tail::tailK();
             r_id = req.id;
             obs::probe::requestEnd(req);
         }},
        [&](int round) {
            if (r_id != 0)
                ASSERT_EQ(r_k, static_cast<std::size_t>(roundK))
                    << "admitted request saw a stale tail K at round "
                    << round;
        });
    obs::tail::disarmTail();
}

INSTANTIATE_TEST_SUITE_P(Algos, LitmusTest,
                         ::testing::Values(tm::AlgoKind::GccEager,
                                           tm::AlgoKind::Lazy,
                                           tm::AlgoKind::NOrec,
                                           tm::AlgoKind::RA),
                         [](const auto &info) {
                             return tmemc::tests::algoName(info.param);
                         });

} // namespace
