/**
 * @file
 * Privatization-safety tests (paper Figure 1 and Section 3.1).
 *
 * The IP branch pattern: data guarded by a transactional boolean lock
 * is accessed *outside* transactions once the lock is held. This is
 * explicit privatization; the Draft C++ TM Specification requires the
 * TM to make it safe, and GCC's default algorithm provides it via
 * commit-time quiescence. These tests drive that pattern hard.
 *
 * tmemc quiesces only the writer commits that need it
 * (tm::TxnAttr::privatizes): a privatizing site or nested section, a
 * deferred free, or an onCommit handler. QuiescenceRuleTest pins that
 * rule against a transaction held open on another thread, and the
 * NestedPop case checks that a privatizing section flattened into a
 * non-privatizing transaction still protects the memory it unlinks.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "tm/api.h"
#include "tm_test_util.h"

namespace
{

using namespace tmemc;

const tm::TxnAttr lockAttr{"priv:lock", tm::TxnKind::Atomic, false};
const tm::TxnAttr touchAttr{"priv:touch", tm::TxnKind::Atomic, false};
/** A site whose commits need no quiescence of their own. */
const tm::TxnAttr noPrivAttr{"priv:no-priv", tm::TxnKind::Atomic, false,
                             /*readOnlyHint=*/false,
                             /*privatizes=*/false};

class PrivatizationTest : public ::testing::TestWithParam<tm::AlgoKind>
{
  protected:
    void
    SetUp() override
    {
        tmemc::tests::useRuntime(GetParam(), tm::CmKind::NoCM);
    }
};

/** Transactional boolean lock (the paper's itemlock replacement). */
struct TmBoolLock
{
    std::uint64_t held = 0;

    bool
    tryAcquire()
    {
        return tm::run(lockAttr, [&](tm::TxDesc &tx) {
            if (tm::txLoad(tx, &held) != 0)
                return false;
            tm::txStore<std::uint64_t>(tx, &held, 1);
            return true;
        });
    }

    void
    release()
    {
        tm::run(lockAttr, [&](tm::TxDesc &tx) {
            tm::txStore<std::uint64_t>(tx, &held, 0);
        });
    }
};

TEST_P(PrivatizationTest, PrivatizedDataNotClobbered)
{
    // Thread A privatizes `data` by committing the tm-bool acquire,
    // then mutates it with plain accesses (func2a in Figure 1a).
    // Thread B reads the lock and, when free, uses the data inside a
    // transaction (func1a). The data must always be internally
    // consistent: pair (u, v) with v == u + 1.
    static TmBoolLock lock;
    static std::uint64_t u, v;
    lock.held = 0;
    u = 10;
    v = 11;
    std::atomic<bool> bad{false};
    constexpr int rounds = 3000;

    std::thread privatizer([&] {
        for (int i = 0; i < rounds; ++i) {
            if (!lock.tryAcquire())
                continue;
            // Privatized: non-transactional read-modify-write.
            const std::uint64_t nu = u + 1;
            u = nu;
            v = nu + 1;
            if (v != u + 1)
                bad = true;
            lock.release();
        }
    });
    std::thread reader([&] {
        for (int i = 0; i < rounds; ++i) {
            const bool ok = tm::run(touchAttr, [&](tm::TxDesc &tx) {
                if (tm::txLoad(tx, &lock.held) != 0)
                    return true;  // Lock held: stay away.
                const std::uint64_t su = tm::txLoad(tx, &u);
                const std::uint64_t sv = tm::txLoad(tx, &v);
                return sv == su + 1;
            });
            if (!ok)
                bad = true;
        }
    });
    privatizer.join();
    reader.join();
    EXPECT_FALSE(bad.load());
    EXPECT_EQ(v, u + 1);
}

struct Node
{
    std::uint64_t value;
    Node *next;
};

const tm::TxnAttr popAttr{"priv:pop", tm::TxnKind::Atomic, false};
const tm::TxnAttr scanAttr{"priv:scan", tm::TxnKind::Atomic, false};

/** Transactionally unlink the list's first node (nullptr: empty). */
Node *
popBody(tm::TxDesc &tx, Node **head)
{
    Node *h = tm::txLoad(tx, head);
    if (h == nullptr)
        return nullptr;
    tm::txStore<Node *>(tx, head, tm::txLoad(tx, &h->next));
    return h;
}

/**
 * The classic privatization idiom: @p pop transactionally unlinks a
 * node from a shared list, then the popper reads/writes and frees it
 * privately while another thread scans the list transactionally.
 */
void
unlinkThenReclaim(const std::function<Node *(Node **)> &pop)
{
    static Node *head;

    constexpr int nodes = 2000;
    head = nullptr;
    for (int i = 0; i < nodes; ++i) {
        Node *n = new Node{static_cast<std::uint64_t>(i), head};
        head = n;
    }

    std::atomic<bool> bad{false};
    std::atomic<bool> done{false};
    std::thread scanner([&] {
        // Repeatedly walks the list transactionally; must never touch
        // a freed node (crash/UB under ASan) nor see a torn value.
        while (!done.load()) {
            tm::run(scanAttr, [&](tm::TxDesc &tx) {
                Node *cur = tm::txLoad(tx, &head);
                int steps = 0;
                while (cur != nullptr && steps < 64) {
                    const std::uint64_t val = tm::txLoad(tx, &cur->value);
                    if (val >= nodes)
                        bad = true;
                    cur = tm::txLoad(tx, &cur->next);
                    ++steps;
                }
            });
        }
    });
    std::thread popper([&] {
        for (int i = 0; i < nodes; ++i) {
            Node *mine = pop(&head);
            if (mine == nullptr)
                break;
            // Privatized: plain access, then reclamation.
            mine->value = ~0ull;
            delete mine;
        }
        done = true;
    });
    popper.join();
    scanner.join();
    EXPECT_FALSE(bad.load());
    EXPECT_EQ(head, nullptr);
}

TEST_P(PrivatizationTest, UnlinkThenReclaimIsSafe)
{
    unlinkThenReclaim([](Node **head) {
        return tm::run(popAttr, [&](tm::TxDesc &tx) {
            return popBody(tx, head);
        });
    });
}

TEST_P(PrivatizationTest, NestedPopInNonPrivatizingTxIsSafe)
{
    // The pop is a privatizing section flattened into a transaction
    // whose own site is declared non-privatizing (the shape of a GET's
    // release freeing through mc:slabs-free). The nested section's
    // flag must make the enclosing commit quiesce.
    unlinkThenReclaim([](Node **head) {
        return tm::run(noPrivAttr, [&](tm::TxDesc &) {
            return tm::run(popAttr, [&](tm::TxDesc &tx) {
                return popBody(tx, head);
            });
        });
    });
}

/** Poll @p flag until it is set or @p limit passes. */
bool
becomesTrue(const std::atomic<bool> &flag, std::chrono::milliseconds limit)
{
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (!flag.load()) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
}

/**
 * Which writer commits quiesce. A holder thread keeps a same-domain
 * transaction open behind a latch; a writer thread then commits one
 * transaction. A commit that must quiesce cannot return until the
 * latch opens; one that need not returns while it is closed.
 *
 * Neither verdict rests on timing: a quiescing commit never returns
 * while the latch is closed, however long the test waits, and a
 * non-quiescing one is given up to kReturns. The kBlocked window only
 * bounds how long a missing wait takes to show.
 */
class QuiescenceRuleTest : public ::testing::TestWithParam<tm::AlgoKind>
{
  protected:
    /** How long a quiescing commit is watched while the latch is closed. */
    static constexpr std::chrono::milliseconds kBlocked{200};
    /** Upper bound for a commit that must (now) return. */
    static constexpr std::chrono::milliseconds kReturns{20000};

    void
    SetUp() override
    {
        tmemc::tests::useRuntime(GetParam(), tm::CmKind::NoCM);
    }

    /** Run @p writer on its own thread while a transaction is held
     *  open. @return whether its commit returned within @p limit with
     *  the holder still open. */
    bool
    returnsWhileHeld(const std::function<void()> &writer,
                     std::chrono::milliseconds limit)
    {
        static const tm::TxnAttr holdAttr{"quiesce:hold",
                                          tm::TxnKind::Atomic, false};
        std::atomic<bool> started{false}, open{false}, done{false};
        std::thread holder([&] {
            // An empty body: nothing to conflict with, so the one
            // attempt's published start stays put until the latch.
            tm::run(holdAttr, [&](tm::TxDesc &) {
                started = true;
                while (!open.load())
                    std::this_thread::yield();
            });
        });
        EXPECT_TRUE(becomesTrue(started, kReturns));
        std::thread committer([&] {
            writer();
            done = true;
        });
        const bool returned = becomesTrue(done, limit);
        open = true;
        EXPECT_TRUE(becomesTrue(done, kReturns))
            << "the commit never returned";
        committer.join();
        holder.join();
        return returned;
    }

    /** The commit must not wait for the holder. */
    void
    expectNoWait(const std::function<void()> &writer)
    {
        EXPECT_TRUE(returnsWhileHeld(writer, kReturns));
    }

    /** The commit must wait for the holder. */
    void
    expectWait(const std::function<void()> &writer)
    {
        EXPECT_FALSE(returnsWhileHeld(writer, kBlocked));
    }

    std::uint64_t word_ = 0;
};

TEST_P(QuiescenceRuleTest, NonPrivatizingWriterDoesNotWait)
{
    // A nested section that is non-privatizing too adds no wait.
    expectNoWait([this] {
        tm::run(noPrivAttr, [&](tm::TxDesc &tx) {
            tm::txStore<std::uint64_t>(tx, &word_, 1);
            tm::run(noPrivAttr, [&](tm::TxDesc &inner) {
                tm::txStore<std::uint64_t>(inner, &word_, 2);
            });
        });
    });
    EXPECT_EQ(word_, 2u);
}

TEST_P(QuiescenceRuleTest, PrivatizingWriterWaits)
{
    expectWait([this] {
        tm::run(popAttr, [&](tm::TxDesc &tx) {
            tm::txStore<std::uint64_t>(tx, &word_, 1);
        });
    });
}

TEST_P(QuiescenceRuleTest, NestedPrivatizingSectionMakesCommitWait)
{
    expectWait([this] {
        tm::run(noPrivAttr, [&](tm::TxDesc &tx) {
            tm::txStore<std::uint64_t>(tx, &word_, 1);
            tm::run(popAttr, [&](tm::TxDesc &inner) {
                tm::txStore<std::uint64_t>(inner, &word_, 2);
            });
        });
    });
}

TEST_P(QuiescenceRuleTest, DeferredFreeMakesCommitWait)
{
    expectWait([this] {
        void *buf = std::malloc(64);
        tm::run(noPrivAttr, [&](tm::TxDesc &tx) {
            tm::txStore<std::uint64_t>(tx, &word_, 1);
            tm::txFree(tx, buf);
        });
    });
}

TEST_P(QuiescenceRuleTest, OnCommitHandlerMakesCommitWait)
{
    bool ran = false;
    expectWait([&] {
        tm::run(noPrivAttr, [&](tm::TxDesc &tx) {
            tm::txStore<std::uint64_t>(tx, &word_, 1);
            tm::onCommit(tx, [&] { ran = true; });
        });
    });
    EXPECT_TRUE(ran);
}

const auto kAlgos = ::testing::Values(tm::AlgoKind::GccEager,
                                      tm::AlgoKind::Lazy,
                                      tm::AlgoKind::NOrec, tm::AlgoKind::RA);

std::string
algoParamName(const ::testing::TestParamInfo<tm::AlgoKind> &info)
{
    return tmemc::tests::algoName(info.param);
}

INSTANTIATE_TEST_SUITE_P(Algos, PrivatizationTest, kAlgos, algoParamName);
INSTANTIATE_TEST_SUITE_P(Algos, QuiescenceRuleTest, kAlgos, algoParamName);

} // namespace
