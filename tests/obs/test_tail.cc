/**
 * @file
 * Tail tracer tests: reservoir invariants with fabricated traces
 * (top-K under serial and concurrent insert, eviction floor,
 * arm/disarm toggling), the fold from probe ring slices to span
 * chains through the real TM runtime (serial-switch attribution, ring
 * wrap, agreement with the ring dump, quiescence waits), and an
 * end-to-end server round trip where a fault-injected slow shard must
 * surface in `stats tail` with its complete parse→flush chain.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "mc/cache_iface.h"
#include "mc/hash.h"
#include "mc/sharded_cache.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/hist.h"
#include "obs/probe.h"
#include "obs/tail.h"
#include "tm/api.h"

namespace
{

using namespace tmemc;
using obs::tail::PendingTrace;
using obs::tail::RequestTrace;
using obs::tail::Span;
using obs::tail::SpanKind;
using obs::tail::TxOutcome;
using obs::probe::Event;

/** A finished trace with the given id and total latency. */
PendingTrace
fabricate(std::uint64_t id, std::uint64_t total_ns)
{
    auto t = std::make_shared<RequestTrace>();
    t->id = id;
    t->startNs = 1000;
    t->endNs = 1000 + total_ns;
    Span s;
    s.kind = SpanKind::Parse;
    s.t0 = t->startNs;
    s.t1 = t->endNs;
    t->spans.push_back(s);
    return t;
}

std::vector<std::uint64_t>
totalsOf(const std::vector<std::shared_ptr<const RequestTrace>> &v)
{
    std::vector<std::uint64_t> out;
    for (const auto &t : v)
        out.push_back(t->totalNs());
    return out;
}

class TailReservoirTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::tail::resetTail();
        obs::probe::resetRing();
    }
    void
    TearDown() override
    {
        obs::tail::disarmTail();
        obs::tail::resetTail();
        obs::probe::disarmRing();
        obs::probe::resetRing();
    }
};

/** Run one traced request around @p body and return its finished
 *  trace (the reply counts as flushed at once). */
template <typename F>
PendingTrace
traceRequest(F &&body, std::uint32_t worker = 0, bool binary = false)
{
    const obs::probe::Request req =
        obs::probe::requestBegin(worker, binary, obs::nowNanos());
    EXPECT_NE(req.id, 0u);
    body();
    PendingTrace p = obs::probe::requestEnd(req);
    EXPECT_NE(p, nullptr);
    obs::tail::finishRequest(p, obs::nowNanos());
    return p;
}

TEST_F(TailReservoirTest, KeepsExactlyTheKSlowest)
{
    obs::tail::armTail(4);
    // Offer 20 traces in an order that exercises both heap growth and
    // eviction: ascending then interleaved.
    for (std::uint64_t i = 1; i <= 10; ++i)
        obs::tail::detail::offerTrace(fabricate(i, i * 1000));
    for (std::uint64_t i = 20; i > 10; --i)
        obs::tail::detail::offerTrace(fabricate(i, i * 1000));
    const auto snap = obs::tail::snapshotTail();
    EXPECT_EQ(totalsOf(snap),
              (std::vector<std::uint64_t>{20000, 19000, 18000, 17000}));
}

TEST_F(TailReservoirTest, FloorRejectsFastEvictsSlow)
{
    obs::tail::armTail(3);
    obs::tail::detail::offerTrace(fabricate(1, 10000));
    obs::tail::detail::offerTrace(fabricate(2, 20000));
    obs::tail::detail::offerTrace(fabricate(3, 30000));
    // Full at {30,20,10}us: a faster trace must bounce off the floor…
    obs::tail::detail::offerTrace(fabricate(4, 5000));
    EXPECT_EQ(totalsOf(obs::tail::snapshotTail()),
              (std::vector<std::uint64_t>{30000, 20000, 10000}));
    // …and a slower one must evict the current minimum.
    obs::tail::detail::offerTrace(fabricate(5, 40000));
    EXPECT_EQ(totalsOf(obs::tail::snapshotTail()),
              (std::vector<std::uint64_t>{40000, 30000, 20000}));
}

TEST_F(TailReservoirTest, ConcurrentInsertAndMergeKeepTopK)
{
    constexpr std::uint64_t kThreads = 4;
    constexpr std::uint64_t kPerThread = 200;
    obs::tail::armTail(8);
    // Distinct totals 1..800; each thread fills its own reservoir
    // while the main thread keeps merging snapshots.
    std::vector<std::thread> workers;
    for (std::uint64_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([t] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                const std::uint64_t total = (i * kThreads + t + 1);
                obs::tail::detail::offerTrace(
                    fabricate(total, total * 100));
            }
        });
    }
    for (int i = 0; i < 50; ++i) {
        const auto snap = obs::tail::snapshotTail();
        EXPECT_LE(snap.size(), 8u);
        for (std::size_t j = 1; j < snap.size(); ++j)
            EXPECT_GE(snap[j - 1]->totalNs(), snap[j]->totalNs());
    }
    for (auto &w : workers)
        w.join();
    // Final merge: exactly the 8 slowest of the 800 offered.
    std::vector<std::uint64_t> want;
    for (std::uint64_t total = 800; total > 792; --total)
        want.push_back(total * 100);
    EXPECT_EQ(totalsOf(obs::tail::snapshotTail()), want);
}

TEST_F(TailReservoirTest, ArmDisarmToggle)
{
    // Disarmed: the request boundaries trace nothing.
    EXPECT_FALSE(obs::tail::tailArmed());
    obs::probe::Request req =
        obs::probe::requestBegin(0, false, obs::nowNanos());
    EXPECT_EQ(req.id, 0u);
    EXPECT_EQ(obs::probe::requestEnd(req), nullptr);
    EXPECT_EQ(obs::tail::tailConsidered(), 0u);

    obs::tail::armTail(2);
    EXPECT_TRUE(obs::tail::tailArmed());
    EXPECT_EQ(obs::tail::tailK(), 2u);
    req = obs::probe::requestBegin(0, false, obs::nowNanos());
    EXPECT_NE(req.id, 0u);
    PendingTrace p = obs::probe::requestEnd(req);
    ASSERT_NE(p, nullptr);
    obs::tail::finishRequest(std::move(p), obs::nowNanos());
    EXPECT_EQ(obs::tail::tailConsidered(), 1u);
    EXPECT_EQ(obs::tail::snapshotTail().size(), 1u);

    // Disarm: tracing stops, but the reservoir keeps its contents so
    // a post-mortem `stats tail` still works.
    obs::tail::disarmTail();
    req = obs::probe::requestBegin(0, false, obs::nowNanos());
    EXPECT_EQ(req.id, 0u);
    EXPECT_EQ(obs::probe::requestEnd(req), nullptr);
    EXPECT_EQ(obs::tail::tailConsidered(), 1u);
    EXPECT_EQ(obs::tail::snapshotTail().size(), 1u);

    // Re-arming starts a fresh window.
    obs::tail::armTail(2);
    EXPECT_EQ(obs::tail::tailConsidered(), 0u);
    EXPECT_TRUE(obs::tail::snapshotTail().empty());
}

TEST_F(TailReservoirTest, SerialSwitchAttributionThroughRuntime)
{
    tm::Runtime::get().configure(tm::RuntimeCfg{});
    obs::tail::armTail(8);
    const obs::probe::Request req =
        obs::probe::requestBegin(7, true, obs::nowNanos());
    ASSERT_NE(req.id, 0u);
    obs::probe::emit(Event::Shard, nullptr, 3);

    // A relaxed transaction that hits an unsafe op: attempt 1 must
    // record a serial-switch with the unsafeOp site as its cause,
    // attempt 2 a serial commit.
    static const tm::TxnAttr attr{"tail-test-unsafe",
                                  tm::TxnKind::Relaxed};
    tm::run(attr, [](tm::TxDesc &d) { tm::unsafeOp(d, "test-unsafe"); });

    PendingTrace p = obs::probe::requestEnd(req);
    ASSERT_NE(p, nullptr);
    obs::tail::finishRequest(std::move(p), obs::nowNanos());

    const auto snap = obs::tail::snapshotTail();
    ASSERT_EQ(snap.size(), 1u);
    const RequestTrace &t = *snap[0];
    EXPECT_EQ(t.worker, 7u);
    EXPECT_EQ(t.shard, 3u);
    EXPECT_TRUE(t.binary);
    ASSERT_EQ(t.spans.size(), 5u);

    EXPECT_EQ(t.spans[0].kind, SpanKind::Parse);
    EXPECT_EQ(t.spans[1].kind, SpanKind::Exec);
    EXPECT_GE(t.spans[1].t1, t.spans[1].t0);

    EXPECT_EQ(t.spans[2].kind, SpanKind::Tx);
    EXPECT_EQ(t.spans[2].attempt, 1u);
    EXPECT_EQ(t.spans[2].outcome, TxOutcome::Switch);
    EXPECT_FALSE(t.spans[2].serial);
    EXPECT_STREQ(t.spans[2].site, "tail-test-unsafe");
    EXPECT_STREQ(t.spans[2].cause, "test-unsafe");

    EXPECT_EQ(t.spans[3].kind, SpanKind::Tx);
    EXPECT_EQ(t.spans[3].attempt, 2u);
    EXPECT_EQ(t.spans[3].outcome, TxOutcome::Commit);
    EXPECT_TRUE(t.spans[3].serial);

    EXPECT_EQ(t.spans[4].kind, SpanKind::Flush);
    EXPECT_GE(t.spans[4].t1, t.spans[4].t0);
    EXPECT_GT(t.totalNs(), 0u);
}

TEST_F(TailReservoirTest, RingWrapMarksOverflowAndKeepsTheChain)
{
    obs::tail::armTail(4);
    // More events than the ring holds: the request's begin record and
    // its first attempts are overwritten before the fold reads them.
    const PendingTrace p = traceRequest([] {
        for (std::size_t i = 0; i < obs::probe::kRingCapacity; ++i) {
            obs::probe::emit(Event::TxBegin, "wrap", 1);
            obs::probe::emit(Event::TxCommit, "wrap", 1);
        }
    });
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(p->overflow);
    ASSERT_GE(p->spans.size(), 3u);
    EXPECT_LE(p->spans.size(), obs::tail::kMaxTailSpans);
    EXPECT_EQ(p->spans[0].kind, SpanKind::Parse);
    EXPECT_EQ(p->spans[1].kind, SpanKind::Exec);
    EXPECT_EQ(p->spans.back().kind, SpanKind::Flush);
    EXPECT_GE(p->spans.back().t1, p->spans.back().t0);
    EXPECT_EQ(p->spans[2].kind, SpanKind::Tx);
    EXPECT_EQ(p->spans[2].outcome, TxOutcome::Commit);
}

/** The ring dump's tx events between one request's begin and end
 *  records, as "<event> site=<site>". */
std::vector<std::string>
dumpTxEvents(const std::string &dump, std::uint64_t id)
{
    const std::string arg = " arg=" + std::to_string(id);
    std::vector<std::string> out;
    std::istringstream in(dump);
    std::string line;
    bool inside = false;
    while (std::getline(in, line)) {
        if (line.find("request_begin") != std::string::npos &&
            line.find(arg) != std::string::npos) {
            inside = true;
        } else if (inside && line.find("request_end") != std::string::npos) {
            break;
        } else if (inside && line.find(" tx_") != std::string::npos &&
                   line.find("tx_cause") == std::string::npos) {
            const std::size_t ev = line.find(" tx_") + 1;
            out.push_back(line.substr(ev, line.find(" shard=") - ev));
        }
    }
    return out;
}

TEST_F(TailReservoirTest, RingDumpAndChainListTheSameTxEvents)
{
    tm::Runtime::get().configure(tm::RuntimeCfg{});
    obs::probe::armRing();
    obs::tail::armTail(8);
    static const tm::TxnAttr relaxed{"tail-dump-relaxed",
                                     tm::TxnKind::Relaxed};
    static const tm::TxnAttr plain{"tail-dump-plain", tm::TxnKind::Atomic};
    static std::uint64_t word = 0;
    const PendingTrace p = traceRequest([] {
        tm::run(plain, [](tm::TxDesc &d) {
            tm::txStore(d, &word, std::uint64_t{1});
        });
        tm::run(relaxed, [](tm::TxDesc &d) { tm::unsafeOp(d, "dump-op"); });
        tm::run(plain, [](tm::TxDesc &d) { (void)tm::txLoad(d, &word); });
    });
    ASSERT_NE(p, nullptr);

    std::vector<std::string> chain;
    for (const Span &s : p->spans) {
        if (s.kind != SpanKind::Tx)
            continue;
        const std::string site = std::string(" site=") + s.site;
        chain.push_back("tx_begin" + site);
        chain.push_back(std::string(s.outcome == TxOutcome::Switch
                                        ? "tx_serial_switch"
                                        : "tx_commit") +
                        site);
    }
    ASSERT_EQ(chain.size(), 8u);  // Commit, switch + serial commit, commit.
    EXPECT_EQ(dumpTxEvents(obs::probe::dumpRing(), p->id), chain);
}

TEST_F(TailReservoirTest, QuiesceWaitShowsInTheChain)
{
    tm::Runtime::get().configure(tm::RuntimeCfg{});
    obs::probe::armRing();
    obs::tail::armTail(8);
    static const tm::TxnAttr parked{"tail-quiesce-parked",
                                    tm::TxnKind::Atomic};
    static const tm::TxnAttr writer{"tail-quiesce-writer",
                                    tm::TxnKind::Atomic};
    static std::uint64_t word = 0;
    constexpr auto kSettle = std::chrono::milliseconds(20);
    constexpr auto kPark = std::chrono::milliseconds(20);
    std::atomic<bool> published{false};
    std::uint64_t park0 = 0;
    std::uint64_t park1 = 0;
    auto &clock = tm::Runtime::get().homeDomain().clock;

    // The parked transaction has published its start. It waits for the
    // writer's commit to move the clock (the writer is then entering
    // quiesce, which must wait this transaction out), settles so the
    // writer's wait has surely begun, then parks.
    std::thread parker([&] {
        tm::run(parked, [&](tm::TxDesc &) {
            const std::uint64_t c0 = clock.load(std::memory_order_acquire);
            published.store(true, std::memory_order_release);
            while (clock.load(std::memory_order_acquire) == c0)
                std::this_thread::yield();
            std::this_thread::sleep_for(kSettle);
            park0 = obs::nowNanos();
            std::this_thread::sleep_for(kPark);
            park1 = obs::nowNanos();
        });
    });
    while (!published.load(std::memory_order_acquire))
        std::this_thread::yield();
    const PendingTrace p = traceRequest([] {
        tm::run(writer, [](tm::TxDesc &d) {
            tm::txStore(d, &word, std::uint64_t{1});
        });
    });
    parker.join();
    ASSERT_NE(p, nullptr);

    const Span *wait = nullptr;
    for (const Span &s : p->spans) {
        if (s.kind == SpanKind::Wait)
            wait = &s;
    }
    ASSERT_NE(wait, nullptr) << "no wait span in the chain";
    EXPECT_STREQ(wait->cause, "quiesce");
    EXPECT_GE(wait->t1 - wait->t0, park1 - park0);
    EXPECT_NE(obs::probe::dumpRing().find("wait site=quiesce"),
              std::string::npos);
    EXPECT_NE(obs::tail::tailAsciiRows().find(";wait:quiesce:"),
              std::string::npos);
}

TEST_F(TailReservoirTest, RenderersAgreeWithSnapshot)
{
    obs::tail::armTail(4);
    obs::tail::setTailLabel("IT-test", "gcc-eager");
    obs::tail::detail::offerTrace(fabricate(42, 5000));
    const std::string ascii = obs::tail::tailAsciiRows();
    EXPECT_NE(ascii.find("STAT tail_armed 1"), std::string::npos);
    EXPECT_NE(ascii.find("STAT tail_kept 1"), std::string::npos);
    EXPECT_NE(ascii.find("STAT tail0 id=42"), std::string::npos);
    const std::string json = obs::tail::tailToJson();
    EXPECT_NE(json.find("\"schema\":\"tmemc-tail-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"branch\":\"IT-test\""), std::string::npos);
    EXPECT_NE(json.find("\"id\":42"), std::string::npos);
}

// ----------------------------------------------------------------------
// End to end: a fault-injected slow shard surfaces in `stats tail`.
// ----------------------------------------------------------------------

TEST(TailServerRoundTrip, SlowShardSurfacesWithFullSpanChain)
{
    constexpr std::uint32_t kShards = 4;
    tm::Runtime::get().configure(tm::RuntimeCfg{});
    obs::tail::resetTail();
    obs::tail::armTail(16);

    mc::Settings settings;
    settings.maxBytes = 16 * 1024 * 1024;
    // The IT branch switches serial on unsafe ops mid-flight, so the
    // traced requests carry deterministic serial-switch attribution.
    auto cache = mc::makeShardedCache("IT", settings, 2, kShards);
    ASSERT_NE(cache, nullptr);

    // Make the hot key's shard slow: every op entering it stalls.
    const std::uint32_t shard =
        mc::shardOfHash(mc::hashKey("hot", 3), kShards);
    fault::Policy policy;
    policy.trigger = fault::Trigger::EveryNth;
    policy.n = 1;
    policy.delayUs = 3000;
    fault::ScopedFault slow(mc::shardFaultSite(shard), policy);

    net::ServerCfg cfg;
    cfg.port = 0;
    cfg.workers = 2;
    net::Server server(*cache, cfg);
    ASSERT_TRUE(server.start());
    net::Client c;
    ASSERT_TRUE(c.connect("127.0.0.1", server.port()));

    // Sequential round trips: each reply is flushed (and its trace
    // offered) before the next request, so `stats tail` sees them.
    EXPECT_EQ(c.roundTripAscii("set hot 0 0 5\r\nhello\r\n"),
              "STORED\r\n");
    EXPECT_EQ(c.roundTripAscii("get hot\r\n"),
              "VALUE hot 0 5\r\nhello\r\nEND\r\n");
    const std::string stats = c.roundTripAscii("stats tail\r\n");
    server.stop();

    EXPECT_NE(stats.find("STAT tail_armed 1"), std::string::npos);
    ASSERT_NE(stats.find("STAT tail0 "), std::string::npos)
        << "no kept requests in:\n"
        << stats;

    // The slowest request must be one of the two stalled commands,
    // attributed to the slow shard, with its whole chain present.
    const std::size_t row0 = stats.find("STAT tail0 ");
    const std::string row =
        stats.substr(row0, stats.find("\r\n", row0) - row0);
    EXPECT_NE(row.find("shard=" + std::to_string(shard)),
              std::string::npos)
        << row;
    EXPECT_NE(row.find("spans=parse:"), std::string::npos) << row;
    EXPECT_NE(row.find(";exec:"), std::string::npos) << row;
    EXPECT_NE(row.find("tx1:"), std::string::npos) << row;
    EXPECT_NE(row.find(";flush:"), std::string::npos) << row;
    // Abort attribution over the wire: the IT branch's in-flight
    // switch shows up as a serial-switch span with its unsafe-op
    // cause, somewhere in the kept set.
    EXPECT_NE(stats.find(":serial-switch:"), std::string::npos)
        << stats;

    obs::tail::disarmTail();
    obs::tail::resetTail();
}

} // namespace
