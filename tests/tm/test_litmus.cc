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
 * The mixed-access shapes (MixedLitmusTest) add the cases where plain
 * and transactional accesses meet: privatization via a flag, the
 * eager doomed writer under weak isolation, and publication. Each runs
 * twice, with the privatizing transaction declared privatizing
 * (tm::TxnAttr::privatizes, so its commit quiesces) and declared not.
 *
 * Harness: persistent threads with atomic round/done counters as
 * barriers (thread churn would dominate at thousands of rounds).
 * TMEMC_LITMUS_ROUNDS overrides the per-test round count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <tuple>
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

/**
 * Mixed transactional/plain litmus shapes, after Chong, Sorensen and
 * Wickerson's privatization and publication tests. The parameter is
 * the algorithm and whether the privatizing (or publishing)
 * transaction is declared privatizing. Only the declared run must
 * forbid the privatization shapes' bad outcomes: without the
 * declaration the commit does not quiesce, which is exactly what the
 * declaration exists to demand, and those runs report how often the
 * outcome showed.
 *
 * "Plain" accesses are tm::rawLoad/rawStore, the relaxed word accesses
 * the TM itself uses for uninstrumented memory: non-transactional, yet
 * not a data race in the C++ sense, so the undeclared runs stay clean
 * under TSan while keeping weak isolation's hazards.
 */
class MixedLitmusTest
    : public ::testing::TestWithParam<std::tuple<tm::AlgoKind, bool>>
{
  protected:
    void SetUp() override { useRuntime(std::get<0>(GetParam())); }
    void
    TearDown() override
    {
        tm::Runtime::get().configure(tm::RuntimeCfg{});
    }

    /** The privatizer's (publisher's) site under this run. */
    static const tm::TxnAttr &
    privatizerAttr()
    {
        static const tm::TxnAttr declared{"litmus:privatizer",
                                          tm::TxnKind::Atomic, false};
        static const tm::TxnAttr undeclared{
            "litmus:privatizer-undeclared", tm::TxnKind::Atomic, false,
            /*readOnlyHint=*/false, /*privatizes=*/false};
        return std::get<1>(GetParam()) ? declared : undeclared;
    }

    /** The other thread's site: never privatizing, in either run. */
    static const tm::TxnAttr &
    otherAttr()
    {
        static const tm::TxnAttr attr{"litmus:other", tm::TxnKind::Atomic,
                                      false, /*readOnlyHint=*/false,
                                      /*privatizes=*/false};
        return attr;
    }

    /** Assert @p bad never held in the declared run; in the other
     *  run, report how many rounds showed it. */
    void
    forbidIfDeclared(int bad_rounds, const char *what)
    {
        if (std::get<1>(GetParam())) {
            EXPECT_EQ(bad_rounds, 0) << what;
        } else {
            RecordProperty("undeclared_bad_rounds", bad_rounds);
            std::printf("[ undeclared ] %s: %d of %d rounds\n", what,
                        bad_rounds, litmusRounds());
        }
    }

    void
    newRound()
    {
        tm::rawStore(&x_, 0);
        tm::rawStore(&flag_, 0);
        written_ = false;
    }

    /** T0's privatizing commit of flag = 1, once T1's transaction has
     *  written x and is lingering (the overlap both shapes need). */
    void
    privatize()
    {
        const auto limit = std::chrono::steady_clock::now() + kLimit;
        while (!written_.load() && std::chrono::steady_clock::now() < limit)
            std::this_thread::yield();
        tm::run(privatizerAttr(), [&](tm::TxDesc &tx) {
            tm::txStore<std::uint64_t>(tx, &flag_, 1);
        });
    }

    /** T1: tx { if (flag == 0) x = 1 }, lingering after the write
     *  until T0's flag commit lands, so the attempt is doomed while
     *  T0 runs its plain access. A quiescing T0 stores flag before it
     *  waits for this attempt, so the linger ends without help; the
     *  time bound only guards against a stalled thread. */
    void
    writeUnlessPrivatized()
    {
        tm::run(otherAttr(), [&](tm::TxDesc &tx) {
            if (tm::txLoad(tx, &flag_) != 0)
                return;
            tm::txStore<std::uint64_t>(tx, &x_, 1);
            written_ = true;
            const auto limit = std::chrono::steady_clock::now() + kLimit;
            while (tm::rawLoad(&flag_) == 0 &&
                   std::chrono::steady_clock::now() < limit)
                std::this_thread::yield();
        });
    }

    /** Bound on each handshake wait (reached only if a thread stalls). */
    static constexpr std::chrono::seconds kLimit{5};

    std::atomic<bool> written_{false};

    alignas(64) std::uint64_t x_ = 0;
    alignas(64) std::uint64_t flag_ = 0;
};

TEST_P(MixedLitmusTest, PrivatizationViaFlag)
{
    // T0: tx { priv = 1 }; x = 2 (plain).
    // T1: tx { if (priv == 0) x = 1 }.
    // Forbidden: final x != 2. If T1 serialized first, its write lands
    // before T0's plain store; if after, it sees priv == 1 and does
    // not write. The schedule is forced: T1 has read priv == 0 and
    // written x when T0 commits, so T1 is doomed. x == 0 is its undo
    // clobbering the plain store (GccEager's direct update); x == 1
    // would be a write-back landing after it.
    int bad = 0;
    litmusRun(
        litmusRounds(),
        [&] { newRound(); },
        {[&] {
             privatize();
             tm::rawStore(&x_, 2);
         },
         [&] { writeUnlessPrivatized(); }},
        [&](int) { bad += tm::rawLoad(&x_) != 2; });
    forbidIfDeclared(bad, "privatized x clobbered after the plain store");
}

TEST_P(MixedLitmusTest, EagerDoomedWriterUnderWeakIsolation)
{
    // T0: tx { priv = 1 }; r = x (plain).
    // T1: tx { if (priv == 0) x = 1 }, doomed by T0's commit as above.
    // Forbidden: r != final x. r == 1 with x == 0 is a plain read of
    // the doomed transaction's in-place write (GccEager's direct
    // update); r == 0 with x == 1 would miss a write serialized before
    // the privatization. The redo-log algorithms never expose a
    // doomed write, so only GccEager can show the outcome undeclared.
    std::uint64_t r = 0;
    int bad = 0;
    litmusRun(
        litmusRounds(),
        [&] {
            newRound();
            r = 0;
        },
        {[&] {
             privatize();
             r = tm::rawLoad(&x_);
         },
         [&] { writeUnlessPrivatized(); }},
        [&](int) { bad += r != tm::rawLoad(&x_); });
    forbidIfDeclared(bad, "plain read disagrees with the final x");
}

TEST_P(MixedLitmusTest, Publication)
{
    // T0: x = 1 (plain); tx { flag = 1 }.
    // T1: tx { rf = flag; if (rf == 1) rx = x }.
    // Forbidden: rf == 1 && rx == 0 — the flag's commit publishes the
    // plain store before it. Publication safety rests on the commit's
    // release ordering, not on quiescence, so both runs forbid it.
    std::uint64_t rf = 0, rx = 0;
    litmusRun(
        litmusRounds(),
        [&] {
            newRound();
            rf = rx = 0;
        },
        {[&] {
             tm::rawStore(&x_, 1);
             tm::run(privatizerAttr(), [&](tm::TxDesc &tx) {
                 tm::txStore<std::uint64_t>(tx, &flag_, 1);
             });
         },
         [&] {
             tm::run(otherAttr(), [&](tm::TxDesc &tx) {
                 rf = tm::txLoad(tx, &flag_);
                 rx = rf == 1 ? tm::txLoad(tx, &x_) : 0;
             });
         }},
        [&](int round) {
            ASSERT_FALSE(rf == 1 && rx == 0)
                << "publication: flag seen without the payload at round "
                << round;
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

INSTANTIATE_TEST_SUITE_P(
    Algos, MixedLitmusTest,
    ::testing::Combine(::testing::Values(tm::AlgoKind::GccEager,
                                         tm::AlgoKind::Lazy,
                                         tm::AlgoKind::NOrec,
                                         tm::AlgoKind::RA),
                       ::testing::Bool()),
    [](const auto &info) {
        return tmemc::tests::algoName(std::get<0>(info.param)) +
               (std::get<1>(info.param) ? "_Declared" : "_Undeclared");
    });

} // namespace
