/**
 * @file
 * Tests for the MetricsRegistry (source registration, the three
 * render targets, JSON file round-trip) and the probe's flight
 * recorder (arm/record/dump/reset). Both are process-global
 * singletons, so every test restores the state it touched —
 * histograms via resetHistograms(), sources via unregisterSource, the
 * probe rings via disarmRing()+resetRing().
 */

#include <cstdio>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/thread_slot.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "tm/api.h"

namespace tmemc::obs
{
namespace
{

bool
contains(const std::string &hay, const std::string &needle)
{
    return hay.find(needle) != std::string::npos;
}

// Attrs must have static storage duration (the runtime keys per-site
// profiling off their addresses).
const tm::TxnAttr kMetricsAttr{"obs_metrics_test", tm::TxnKind::Relaxed,
                               false};
const tm::TxnAttr kHistAttr{"obs_tx_hist_test", tm::TxnKind::Relaxed,
                            false};
const tm::TxnAttr kTraceAttr{"obs_trace_test", tm::TxnKind::Relaxed,
                             false};

/** Configure the global TM runtime and commit one transaction. */
void
commitOneTxn(const tm::TxnAttr &attr)
{
    tm::RuntimeCfg cfg;
    tm::Runtime::get().configure(cfg);
    static std::uint64_t cell = 0;
    tm::run(attr, [](tm::TxDesc &tx) {
        tm::txStore<std::uint64_t>(tx, &cell, tm::txLoad(tx, &cell) + 1);
    });
}

class MetricsTest : public ::testing::Test
{
  protected:
    void SetUp() override { MetricsRegistry::get().resetHistograms(); }
    void TearDown() override
    {
        MetricsRegistry::get().resetHistograms();
    }
};

TEST_F(MetricsTest, SourcePrefixingAndUnregisterBarrier)
{
    auto &reg = MetricsRegistry::get();
    const std::uint64_t token = reg.registerSource("unit", [] {
        return std::vector<Counter>{{"alpha", 7}, {"beta", 11}};
    });

    MetricsSnapshot snap = reg.snapshot();
    std::uint64_t alpha = 0, beta = 0;
    for (const Counter &c : snap.counters) {
        if (c.name == "unit_alpha")
            alpha = c.value;
        if (c.name == "unit_beta")
            beta = c.value;
    }
    EXPECT_EQ(alpha, 7u);
    EXPECT_EQ(beta, 11u);

    reg.unregisterSource(token);
    for (const Counter &c : reg.snapshot().counters)
        EXPECT_TRUE(c.name.rfind("unit_", 0) != 0) << c.name;
}

TEST_F(MetricsTest, HistogramsAppearInSnapshot)
{
    hist(HistKind::Command).record(5000);   // 5 us
    hist(HistKind::Command).record(5000);
    hist(HistKind::Tx).record(20000);       // 20 us

    const MetricsSnapshot snap = MetricsRegistry::get().snapshot();
    EXPECT_EQ(snap.hists[unsigned(HistKind::Command)].count, 2u);
    EXPECT_EQ(snap.hists[unsigned(HistKind::Tx)].count, 1u);
    EXPECT_NEAR(snap.hists[unsigned(HistKind::Tx)].p50Us, 20.0, 1.0);
    EXPECT_EQ(snap.hists[unsigned(HistKind::CacheOp)].count, 0u);
}

TEST_F(MetricsTest, JsonShapeAndValues)
{
    auto &reg = MetricsRegistry::get();
    const std::uint64_t token = reg.registerSource(
        "unit", [] { return std::vector<Counter>{{"gamma", 42}}; });
    hist(HistKind::CacheOp).record(3000);

    const std::string json = reg.snapshot().toJson();
    reg.unregisterSource(token);

    EXPECT_TRUE(json.rfind("{\"schema\":\"tmemc-metrics-v1\"", 0) == 0)
        << json;
    EXPECT_TRUE(contains(json, "\"unit_gamma\":42")) << json;
    // Every histogram kind gets a latency object, populated or not.
    for (const char *key :
         {"\"cmd\":{", "\"op\":{", "\"tx\":{", "\"tx_serial\":{",
          "\"tx_attempts\":{"})
        EXPECT_TRUE(contains(json, key)) << key << " missing: " << json;
    EXPECT_TRUE(contains(json, "\"op\":{\"count\":1")) << json;
    // Crude structural check: braces balance.
    int depth = 0;
    for (const char ch : json) {
        depth += (ch == '{') - (ch == '}');
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST_F(MetricsTest, WriteJsonFileRoundTrip)
{
    auto &reg = MetricsRegistry::get();
    hist(HistKind::Tx).record(9000);
    const std::string expected = reg.snapshot().toJson();

    const std::string path =
        ::testing::TempDir() + "metrics_roundtrip.json";
    ASSERT_TRUE(reg.writeJsonFile(path));

    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string got;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        got.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());

    EXPECT_EQ(got, expected);
    EXPECT_FALSE(reg.writeJsonFile("/nonexistent-dir/x/y.json"));
}

TEST_F(MetricsTest, AsciiLatencyRowsMatchSnapshot)
{
    hist(HistKind::Command).record(1000);
    hist(HistKind::Command).record(1000);
    hist(HistKind::Command).record(1000);

    const MetricsSnapshot snap = MetricsRegistry::get().snapshot();
    const std::string rows = snap.asciiLatencyRows();

    EXPECT_TRUE(contains(rows, "STAT lat_cmd_count 3\r\n")) << rows;
    for (const char *prefix :
         {"lat_cmd_", "lat_op_", "lat_tx_", "lat_tx_serial_",
          "lat_tx_attempts_"}) {
        EXPECT_TRUE(contains(rows, std::string("STAT ") + prefix +
                                       "p99_us "))
            << prefix << " missing: " << rows;
    }
}

TEST_F(MetricsTest, AsciiTmRowsCarryRuntimeCounters)
{
    // The TM runtime registers its "tm" source at construction; one
    // committed transaction must show up in the stats-tm rows.
    tm::Runtime::get().resetStats();
    commitOneTxn(kMetricsAttr);

    const std::string rows =
        MetricsRegistry::get().snapshot().asciiTmRows();
    EXPECT_TRUE(contains(rows, "STAT tm_commits ")) << rows;
    EXPECT_TRUE(contains(rows, "STAT tm_txns ")) << rows;
    EXPECT_TRUE(contains(rows, "STAT lat_tx_count ")) << rows;
    // Latency rows for non-TM kinds do NOT belong in stats tm.
    EXPECT_FALSE(contains(rows, "lat_cmd_")) << rows;
}

TEST_F(MetricsTest, ClusterRowsRenderOnlyClusterCounters)
{
    // net::Cluster registers a "cluster" source; `stats cluster` is
    // rendered from the prefixed counters by asciiClusterRows(). The
    // render must pick up every cluster_ counter, survive the JSON
    // round trip, and vanish when the source unregisters (cluster
    // torn down).
    auto &reg = MetricsRegistry::get();
    const std::uint64_t token = reg.registerSource("cluster", [] {
        return std::vector<Counter>{{"requests", 100},
                                    {"ejections", 3},
                                    {"read_repairs", 7}};
    });

    const MetricsSnapshot snap = reg.snapshot();
    const std::string rows = snap.asciiClusterRows();
    EXPECT_TRUE(contains(rows, "STAT cluster_requests 100\r\n")) << rows;
    EXPECT_TRUE(contains(rows, "STAT cluster_ejections 3\r\n")) << rows;
    EXPECT_TRUE(contains(rows, "STAT cluster_read_repairs 7\r\n"))
        << rows;
    // Non-cluster counters (tm_, net_, unit_...) stay out.
    for (const Counter &c : snap.counters) {
        if (c.name.rfind("cluster_", 0) != 0)
            EXPECT_FALSE(contains(rows, "STAT " + c.name + " "))
                << c.name << " leaked into: " << rows;
    }
    EXPECT_TRUE(contains(snap.toJson(), "\"cluster_ejections\":3"));

    reg.unregisterSource(token);
    EXPECT_EQ(reg.snapshot().asciiClusterRows(), "");
}

TEST_F(MetricsTest, TmSourceCountsExitedThreadsUntilReset)
{
    const auto tm_commits = [] {
        for (const Counter &c : MetricsRegistry::get().snapshot().counters) {
            if (c.name == "tm_commits")
                return c.value;
        }
        return std::uint64_t{0};
    };
    commitOneTxn(kMetricsAttr);
    tm::Runtime::get().resetStats();
    std::thread([] {
        for (int i = 0; i < 3; ++i)
            commitOneTxn(kMetricsAttr);
    }).join();
    EXPECT_EQ(tm_commits(), 3u);
    tm::Runtime::get().resetStats();
    EXPECT_EQ(tm_commits(), 0u);
}

TEST_F(MetricsTest, TxHistogramRecordsCommits)
{
    commitOneTxn(kHistAttr);
    MetricsRegistry::get().resetHistograms();
    for (int i = 0; i < 10; ++i)
        commitOneTxn(kHistAttr);

    const MetricsSnapshot snap = MetricsRegistry::get().snapshot();
    // Uncontended single-thread commits: exactly one attempt each,
    // recorded as attempts*1000 so p50 reads as the attempt count.
    EXPECT_EQ(snap.hists[unsigned(HistKind::TxAttempts)].count, 10u);
    EXPECT_NEAR(snap.hists[unsigned(HistKind::TxAttempts)].p50Us, 1.0,
                0.05);
    EXPECT_EQ(snap.hists[unsigned(HistKind::TxSerial)].count, 0u);

    // Tx latency is sampled: one top-level transaction at a random
    // position in each block of 64 per thread, so k*64 commits from a
    // block boundary give exactly k samples.
    while (tm::myDesc().obsTxSeq % 64 != 0)
        commitOneTxn(kHistAttr);
    MetricsRegistry::get().resetHistograms();
    constexpr unsigned kSamples = 3;
    for (unsigned i = 0; i < kSamples * 64; ++i)
        commitOneTxn(kHistAttr);
    EXPECT_EQ(MetricsRegistry::get()
                  .snapshot()
                  .hists[unsigned(HistKind::Tx)]
                  .count,
              kSamples);
}

TEST_F(MetricsTest, TxSamplesCoverEveryPositionOfARepeatedSequence)
{
    // A request runs a fixed sequence of transactions (6 on a GET): the
    // sample must not alias with it and skip some of its positions.
    constexpr unsigned kSeq = 6;
    unsigned sampled[kSeq] = {};
    commitOneTxn(kHistAttr);
    for (unsigned i = 0; i < 64 * 60; ++i) {
        tm::run(kHistAttr, [](tm::TxDesc &) {});
        if (tm::myDesc().obsStartNs != 0)
            ++sampled[i % kSeq];
    }
    for (unsigned pos = 0; pos < kSeq; ++pos)
        EXPECT_GT(sampled[pos], 0u) << "position " << pos;
}

using probe::Event;

/** Records the ring dump lists (one "t=..." line each). */
std::size_t
ringRecords()
{
    std::istringstream in(probe::dumpRing());
    std::size_t n = 0;
    for (std::string line; std::getline(in, line);)
        n += line.rfind("t=", 0) == 0 ? 1 : 0;
    return n;
}

class TraceTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        probe::disarmRing();
        probe::resetRing();
    }
    void TearDown() override
    {
        probe::disarmRing();
        probe::resetRing();
    }
};

TEST_F(TraceTest, DisarmedRecordsNothing)
{
    EXPECT_EQ(probe::armed(), 0u);
    probe::emit(Event::TxBegin, "site_a");
    EXPECT_EQ(ringRecords(), 0u);
}

TEST_F(TraceTest, ArmedRecordsAndDumps)
{
    probe::armRing();
    EXPECT_EQ(probe::armed(), probe::kRingBit);
    probe::emit(Event::TxBegin, "site_a");
    probe::emit(Event::Shard, nullptr, 3);
    probe::emit(Event::TxCause, "site_b", 1, "unsafe_b");
    probe::emit(Event::TxSwitch, "site_b");
    probe::emit(Event::TxCommit, "site_a");
    EXPECT_EQ(ringRecords(), 5u);

    const std::string dump = probe::dumpRing();
    EXPECT_TRUE(contains(dump, probe::eventName(Event::TxBegin)))
        << dump;
    EXPECT_TRUE(contains(dump, "tx_serial_switch site=site_b shard=3"))
        << dump;
    EXPECT_TRUE(contains(dump, "cause=unsafe_b")) << dump;

    // Disarm keeps contents for a post-mortem dump; reset drops them.
    probe::disarmRing();
    probe::emit(Event::TxAbort, "site_c");
    EXPECT_EQ(ringRecords(), 5u);
    probe::resetRing();
    EXPECT_EQ(ringRecords(), 0u);
    EXPECT_EQ(probe::dumpRing(), "");
}

TEST_F(TraceTest, RingOnlyRecordsRequestBoundaries)
{
    probe::armRing();
    const probe::Request req = probe::requestBegin(0, false, 0);
    EXPECT_EQ(req.id, 0u);
    EXPECT_EQ(probe::requestEnd(req), nullptr);
    const std::string dump = probe::dumpRing();
    EXPECT_TRUE(contains(dump, "request_begin site=ascii")) << dump;
    EXPECT_TRUE(contains(dump, "request_end")) << dump;
}

TEST_F(TraceTest, RingWrapsAtCapacity)
{
    probe::armRing();
    for (std::size_t i = 0; i < probe::kRingCapacity + 100; ++i)
        probe::emit(Event::TxCommit, "wrap");
    EXPECT_EQ(ringRecords(), probe::kRingCapacity);
    EXPECT_TRUE(contains(probe::dumpRing(), "100 older records overwritten"));
}

TEST_F(TraceTest, DumpKeepsAnExitedThreadsRecords)
{
    probe::armRing();
    std::size_t slot = 0;
    std::thread([&] {
        slot = thread_slot::index();
        probe::emit(Event::TxCommit, "exited_thread_site");
    }).join();
    const std::string dump = probe::dumpRing();
    EXPECT_TRUE(contains(dump, "slot=" + std::to_string(slot) +
                                   " tx_commit site=exited_thread_site"))
        << dump;
}

TEST_F(TraceTest, RuntimeEmitsTraceEventsWhenArmed)
{
    probe::armRing();
    commitOneTxn(kTraceAttr);

    const std::string dump = probe::dumpRing();
    EXPECT_TRUE(contains(dump, "site=obs_trace_test")) << dump;
    EXPECT_TRUE(contains(dump, probe::eventName(Event::TxBegin))) << dump;
    EXPECT_TRUE(contains(dump, probe::eventName(Event::TxCommit)))
        << dump;
}

} // namespace
} // namespace tmemc::obs
