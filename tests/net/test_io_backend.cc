/**
 * @file
 * The I/O backend matrix (epoll / writev, net/server.h): both
 * backends serve the same bytes, and the zero-copy gather path obeys
 * the same backpressure caps and fault-injection invariants as the
 * seed copy path.
 *
 * Branch is IP-onCommit throughout: its item strategy supports pinned
 * gets (CacheCore::pinnedGetSupported()), so the writev backend
 * actually ships GET hits zero-copy — the IT-* branches fall
 * back to the copy path and would test nothing new.
 *
 * Tests named *Chaos* run fault schedules on the net.sys.writev site;
 * the CMake registration exposes them under `ctest -L chaos` too.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "mc/binary_protocol.h"
#include "mc/cache_iface.h"
#include "mc/protocol.h"
#include "mc/reply.h"
#include "net/client.h"
#include "net/server.h"
#include "tm/runtime.h"

namespace
{

using namespace tmemc;

// ----------------------------------------------------------------------
// Flag plumbing
// ----------------------------------------------------------------------

TEST(IoBackendFlag, ParseAcceptsEpollAndWritevOnly)
{
    net::IoBackend b = net::IoBackend::Writev;
    EXPECT_TRUE(net::parseIoBackend("epoll", b));
    EXPECT_EQ(b, net::IoBackend::Epoll);
    EXPECT_TRUE(net::parseIoBackend("writev", b));
    EXPECT_EQ(b, net::IoBackend::Writev);

    // There is no ring-based readiness backend; its old name and
    // aliases are rejected like any unknown value.
    for (const char *gone : {"io_uring", "uring", "io-uring", "kqueue"}) {
        EXPECT_FALSE(net::parseIoBackend(gone, b)) << gone;
        EXPECT_EQ(b, net::IoBackend::Writev);  // Untouched on failure.
    }

    EXPECT_STREQ(net::ioBackendName(net::IoBackend::Epoll), "epoll");
    EXPECT_STREQ(net::ioBackendName(net::IoBackend::Writev), "writev");
}

// ----------------------------------------------------------------------
// The zero-copy executor, off the wire
// ----------------------------------------------------------------------

TEST(PinnedExecute, AsciiGetHitRidesAsPinnedSegment)
{
    tm::Runtime::get().configure(tm::RuntimeCfg{});
    mc::Settings settings;
    settings.maxBytes = 16 * 1024 * 1024;
    auto cache = mc::makeCache("IP-onCommit", settings, 1);
    ASSERT_NE(cache, nullptr);
    ASSERT_TRUE(cache->pinnedGetSupported());

    ASSERT_EQ(mc::protocolExecute(*cache, 0, "set pk 0 0 5\r\nhello\r\n"),
              "STORED\r\n");

    mc::Reply out;
    ASSERT_TRUE(
        mc::protocolExecutePinned(*cache, 0, "get pk\r\n", out));
    EXPECT_TRUE(out.hasPinned());
    EXPECT_EQ(out.str(), "VALUE pk 0 5\r\nhello\r\nEND\r\n");

    // Misses produce no pinned segment; mutations refuse the pinned
    // path outright (the caller falls back to protocolExecute).
    mc::Reply miss;
    ASSERT_TRUE(
        mc::protocolExecutePinned(*cache, 0, "get nope\r\n", miss));
    EXPECT_FALSE(miss.hasPinned());
    EXPECT_EQ(miss.str(), "END\r\n");

    mc::Reply set;
    EXPECT_FALSE(mc::protocolExecutePinned(*cache, 0,
                                           "set pk 0 0 1\r\nx\r\n",
                                           set));
    EXPECT_EQ(set.bytes(), 0u);
}

// ----------------------------------------------------------------------
// Backend matrix fixture
// ----------------------------------------------------------------------

class IoBackendTest : public ::testing::TestWithParam<net::IoBackend>
{
  protected:
    void
    SetUp() override
    {
        fault::disarmAll();
        tm::Runtime::get().configure(tm::RuntimeCfg{});
        mc::Settings settings;
        settings.maxBytes = 16 * 1024 * 1024;
        cache_ = mc::makeCache("IP-onCommit", settings, kWorkers);
        ASSERT_NE(cache_, nullptr);
        ASSERT_TRUE(cache_->pinnedGetSupported());
    }

    void
    TearDown() override
    {
        fault::disarmAll();
        if (server_ != nullptr)
            server_->stop();
    }

    void
    startServer(net::ServerCfg cfg)
    {
        cfg.port = 0;
        cfg.workers = kWorkers;
        cfg.ioBackend = GetParam();
        server_ = std::make_unique<net::Server>(*cache_, cfg);
        ASSERT_TRUE(server_->start());
    }

    net::Client
    makeClient()
    {
        net::Client c;
        EXPECT_TRUE(c.connect("127.0.0.1", server_->port(), 5000));
        c.setRecvTimeout(10000);
        return c;
    }

    static constexpr std::uint32_t kWorkers = 2;
    std::unique_ptr<mc::CacheIface> cache_;
    std::unique_ptr<net::Server> server_;
};

TEST_P(IoBackendTest, RoundTripsAreByteIdenticalAcrossBackends)
{
    startServer(net::ServerCfg{});
    net::Client c = makeClient();
    for (int i = 0; i < 20; ++i) {
        const std::string k = "k" + std::to_string(i);
        const std::string v = "value-" + std::to_string(i);
        ASSERT_EQ(c.roundTripAscii("set " + k + " 0 0 " +
                                   std::to_string(v.size()) + "\r\n" +
                                   v + "\r\n"),
                  "STORED\r\n");
        ASSERT_EQ(c.roundTripAscii("get " + k + "\r\n"),
                  "VALUE " + k + " 0 " + std::to_string(v.size()) +
                      "\r\n" + v + "\r\nEND\r\n");
    }

    // Multi-key get with an interior miss: hit, miss, hit.
    EXPECT_EQ(c.roundTripAscii("get k1 missing k2\r\n"),
              "VALUE k1 0 7\r\nvalue-1\r\nVALUE k2 0 7\r\nvalue-2"
              "\r\nEND\r\n");

    // gets carries the CAS id on the pinned path too.
    const std::string gets = c.roundTripAscii("gets k1\r\n");
    EXPECT_EQ(gets.compare(0, 13, "VALUE k1 0 7 "), 0) << gets;

    // Binary protocol on the same connection (copy path everywhere).
    const std::string wire =
        c.roundTripBinary(mc::binSetRequest("bk", "bv"));
    mc::BinResponse r;
    ASSERT_GT(mc::binParseResponse(wire, r), 0u);
    EXPECT_EQ(r.status, mc::BinStatus::Ok);

    // The configured backend is visible over the wire.
    const std::string stats = c.roundTripAscii("stats\r\n");
    const std::string want = std::string("STAT io_backend ") +
                             net::ioBackendName(GetParam()) + "\r\n";
    EXPECT_NE(stats.find(want), std::string::npos) << stats;
}

TEST_P(IoBackendTest, PipelinedBurstKeepsOrder)
{
    startServer(net::ServerCfg{});
    net::Client c = makeClient();
    const std::string v(600, 'p');
    ASSERT_EQ(c.roundTripAscii("set pipe 0 0 " +
                               std::to_string(v.size()) + "\r\n" + v +
                               "\r\n"),
              "STORED\r\n");
    constexpr int kN = 200;
    std::string batch;
    for (int i = 0; i < kN; ++i)
        batch += "get pipe\r\n";
    ASSERT_TRUE(c.sendAll(batch));
    for (int i = 0; i < kN; ++i) {
        std::string reply;
        ASSERT_TRUE(c.recvAscii(reply)) << "reply " << i;
        ASSERT_EQ(reply, "VALUE pipe 0 " + std::to_string(v.size()) +
                             "\r\n" + v + "\r\nEND\r\n")
            << "reply " << i;
    }
}

TEST_P(IoBackendTest, SlowReaderHitsBackpressureOnPinnedBytes)
{
    // Satellite-4 regression: pendingWrite() must count pinned bytes.
    // The reply to one 8 KiB GET is almost entirely pinned payload —
    // if only owned bytes counted, the backlog would register ~30
    // bytes and the hard cap could never fire on the zero-copy path.
    net::ServerCfg cfg;
    cfg.limits.wbufSoftCap = 2 * 1024;
    cfg.limits.wbufHardCap = 4 * 1024;
    startServer(cfg);

    // Stall whichever write path this backend uses, so replies can
    // only accumulate against the caps.
    fault::Policy p;
    p.trigger = fault::Trigger::EveryNth;
    p.n = 1;
    p.errnoValue = EAGAIN;
    fault::ScopedFault sfv("net.sys.writev", p);
    fault::ScopedFault sfw("net.write", p);

    net::Client c = makeClient();
    const std::string big(8 * 1024, 'B');
    ASSERT_TRUE(c.sendAll("set big 0 0 " + std::to_string(big.size()) +
                          "\r\n" + big + "\r\nget big\r\n"));
    std::string reply;
    EXPECT_FALSE(c.recvAscii(reply));  // Connection was cut.
    bool closed = false;
    for (int i = 0; i < 400 && !closed; ++i) {
        closed = server_->netStats().backpressureCloses >= 1;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(closed);

    // The shed is per-connection; with the stall lifted the server
    // serves the same item intact.
    fault::disarmAll();
    net::Client fresh = makeClient();
    EXPECT_EQ(fresh.roundTripAscii("get big\r\n"),
              "VALUE big 0 " + std::to_string(big.size()) + "\r\n" +
                  big + "\r\nEND\r\n");
}

// ----------------------------------------------------------------------
// drain() vs. in-flight pinned segments
// ----------------------------------------------------------------------

/**
 * Forwarding cache that counts pin acquire/release pairs. getPinned
 * rewrites PinnedValue::owner to this wrapper, so every release the
 * server performs — normal send completion, backpressure shed, or
 * connection teardown during drain()/stop() — routes through
 * releasePinned() here before reaching the real cache.
 */
class PinCountingCache : public mc::CacheIface
{
  public:
    explicit PinCountingCache(mc::CacheIface &inner) : inner_(inner) {}

    std::uint64_t acquired() const { return acquired_.load(); }
    std::uint64_t released() const { return released_.load(); }

    const char *branchName() const override
    {
        return inner_.branchName();
    }
    const mc::BranchCfg &branchCfg() const override
    {
        return inner_.branchCfg();
    }
    GetResult
    get(std::uint32_t tid, const char *key, std::size_t nkey, char *out,
        std::size_t out_cap) override
    {
        return inner_.get(tid, key, nkey, out, out_cap);
    }
    bool pinnedGetSupported() const override
    {
        return inner_.pinnedGetSupported();
    }
    PinnedValue
    getPinned(std::uint32_t tid, const char *key,
              std::size_t nkey) override
    {
        PinnedValue v = inner_.getPinned(tid, key, nkey);
        if (v.handle != nullptr) {
            acquired_.fetch_add(1);
            v.owner = this;
        }
        return v;
    }
    void
    releasePinned(std::uint32_t tid, void *handle) override
    {
        released_.fetch_add(1);
        inner_.releasePinned(tid, handle);
    }
    mc::OpStatus
    store(std::uint32_t tid, const char *key, std::size_t nkey,
          const char *val, std::size_t nbytes, mc::StoreMode mode,
          std::uint64_t cas_expected, std::int64_t exptime,
          std::uint64_t *cas_out) override
    {
        return inner_.store(tid, key, nkey, val, nbytes, mode,
                            cas_expected, exptime, cas_out);
    }
    mc::OpStatus
    del(std::uint32_t tid, const char *key, std::size_t nkey) override
    {
        return inner_.del(tid, key, nkey);
    }
    mc::OpStatus
    arith(std::uint32_t tid, const char *key, std::size_t nkey,
          std::uint64_t delta, bool incr,
          std::uint64_t &out_value) override
    {
        return inner_.arith(tid, key, nkey, delta, incr, out_value);
    }
    mc::OpStatus
    touch(std::uint32_t tid, const char *key, std::size_t nkey,
          std::int64_t exptime) override
    {
        return inner_.touch(tid, key, nkey, exptime);
    }
    mc::OpStatus
    concat(std::uint32_t tid, const char *key, std::size_t nkey,
           const char *extra, std::size_t nextra, bool append) override
    {
        return inner_.concat(tid, key, nkey, extra, nextra, append);
    }
    std::size_t
    statsText(std::uint32_t tid, char *out, std::size_t cap) override
    {
        return inner_.statsText(tid, out, cap);
    }
    void flushAll(std::uint32_t tid) override { inner_.flushAll(tid); }
    mc::GlobalStats globalStats() override
    {
        return inner_.globalStats();
    }
    mc::ThreadStatsBlock threadStats() override
    {
        return inner_.threadStats();
    }
    std::vector<mc::LockProfileRow> lockProfile() const override
    {
        return inner_.lockProfile();
    }
    std::uint64_t linkedItemCount() override
    {
        return inner_.linkedItemCount();
    }
    std::uint32_t hashPowerNow() override
    {
        return inner_.hashPowerNow();
    }
    void quiesceMaintenance() override { inner_.quiesceMaintenance(); }
    void
    requestRebalance(std::uint32_t src_cls,
                     std::uint32_t dst_cls) override
    {
        inner_.requestRebalance(src_cls, dst_cls);
    }
    std::uint32_t shardCount() const override
    {
        return inner_.shardCount();
    }
    std::uint32_t
    shardOf(const char *key, std::size_t nkey) const override
    {
        return inner_.shardOf(key, nkey);
    }

  private:
    mc::CacheIface &inner_;
    std::atomic<std::uint64_t> acquired_{0};
    std::atomic<std::uint64_t> released_{0};
};

class DrainPinsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault::disarmAll();
        tm::Runtime::get().configure(tm::RuntimeCfg{});
        mc::Settings settings;
        settings.maxBytes = 16 * 1024 * 1024;
        inner_ = mc::makeCache("IP-onCommit", settings, 2);
        ASSERT_NE(inner_, nullptr);
        counting_ = std::make_unique<PinCountingCache>(*inner_);
        net::ServerCfg cfg;
        cfg.port = 0;
        cfg.workers = 2;
        cfg.ioBackend = net::IoBackend::Writev;
        server_ = std::make_unique<net::Server>(*counting_, cfg);
        ASSERT_TRUE(server_->start());
    }

    void
    TearDown() override
    {
        fault::disarmAll();
        if (server_ != nullptr)
            server_->stop();
    }

    /** Queue kGets pinned replies server-side by stalling the write
     *  syscalls, then wait until every pin is held. */
    void
    queuePinnedBacklog(net::Client &c)
    {
        const std::string v(2048, 'd');
        ASSERT_EQ(c.roundTripAscii("set dk 0 0 " +
                                   std::to_string(v.size()) + "\r\n" +
                                   v + "\r\n"),
                  "STORED\r\n");
        fault::Policy p;
        p.trigger = fault::Trigger::EveryNth;
        p.n = 1;
        p.errnoValue = EAGAIN;
        fault::arm("net.sys.writev", p);
        fault::arm("net.write", p);
        std::string burst;
        for (int i = 0; i < kGets; ++i)
            burst += "get dk\r\n";
        ASSERT_TRUE(c.sendAll(burst));
        for (int i = 0; i < 1000; ++i) {
            if (counting_->acquired() >= kGets &&
                counting_->released() < counting_->acquired())
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        ASSERT_GE(counting_->acquired(), std::uint64_t{kGets});
        ASSERT_LT(counting_->released(), counting_->acquired());
    }

    static constexpr int kGets = 4;
    std::unique_ptr<mc::CacheIface> inner_;
    std::unique_ptr<PinCountingCache> counting_;
    std::unique_ptr<net::Server> server_;
};

TEST_F(DrainPinsTest, GracefulDrainFlushesAndReleasesEveryPin)
{
    net::Client c;
    ASSERT_TRUE(c.connect("127.0.0.1", server_->port(), 5000));
    c.setRecvTimeout(10000);
    queuePinnedBacklog(c);

    // Lift the stall: drain() must flush the queued pinned segments
    // (8 KiB fits loopback socket buffers without a reader) and drop
    // every reference before returning.
    fault::disarmAll();
    EXPECT_TRUE(server_->drain(5000));
    EXPECT_EQ(counting_->released(), counting_->acquired());

    // The flushed bytes are intact in the client's receive buffer.
    const std::string want =
        "VALUE dk 0 2048\r\n" + std::string(2048, 'd') + "\r\nEND\r\n";
    for (int i = 0; i < kGets; ++i) {
        std::string reply;
        ASSERT_TRUE(c.recvAscii(reply)) << "reply " << i;
        EXPECT_EQ(reply, want) << "reply " << i;
    }
}

TEST_F(DrainPinsTest, DeadlineForcedDrainStillReleasesEveryPin)
{
    net::Client c;
    ASSERT_TRUE(c.connect("127.0.0.1", server_->port(), 5000));
    c.setRecvTimeout(10000);
    queuePinnedBacklog(c);

    // Keep the write path stalled so the backlog can never flush: the
    // deadline forces the remaining connections closed, and teardown
    // must still release every pinned segment it rips out of the
    // queues — a leaked reference here would pin slab memory forever.
    (void)server_->drain(300);
    EXPECT_EQ(counting_->released(), counting_->acquired());
    EXPECT_GE(counting_->acquired(), std::uint64_t{kGets});
}

// ----------------------------------------------------------------------
// Fault schedules on the gather-write syscall (chaos suite members)
// ----------------------------------------------------------------------

TEST_P(IoBackendTest, ChaosShortWritevStitchesReplies)
{
    startServer(net::ServerCfg{});
    // Every gather write is truncated to 7 bytes: headers, pinned
    // payloads, and trailers all leave in ragged fragments that may
    // split a segment mid-iovec. Replies must still be byte-perfect.
    fault::Policy p;
    p.trigger = fault::Trigger::EveryNth;
    p.n = 1;
    p.byteCap = 7;
    fault::ScopedFault sfv("net.sys.writev", p);
    fault::ScopedFault sfw("net.write", p);

    net::Client c = makeClient();
    for (int i = 0; i < 30; ++i) {
        const std::string k = "sw" + std::to_string(i);
        const std::string v = "payload-" + std::to_string(i);
        ASSERT_EQ(c.roundTripAscii("set " + k + " 0 0 " +
                                   std::to_string(v.size()) + "\r\n" +
                                   v + "\r\n"),
                  "STORED\r\n");
        ASSERT_EQ(c.roundTripAscii("get " + k + "\r\n"),
                  "VALUE " + k + " 0 " + std::to_string(v.size()) +
                      "\r\n" + v + "\r\nEND\r\n");
    }
    if (GetParam() != net::IoBackend::Epoll)
        EXPECT_GT(sfv.firedCount(), 0u);
}

TEST_P(IoBackendTest, ChaosWritevEagainRetriesWithoutCorruption)
{
    startServer(net::ServerCfg{});
    // Half of all gather writes spuriously report EAGAIN; the flush
    // must wait for EPOLLOUT and resume exactly where it left off.
    fault::Policy p;
    p.trigger = fault::Trigger::Probability;
    p.probability = 0.5;
    p.seed = 424242;
    p.errnoValue = EAGAIN;
    fault::ScopedFault sfv("net.sys.writev", p);
    fault::ScopedFault sfw("net.write", p);

    net::Client c = makeClient();
    const std::string v(2048, 'e');
    ASSERT_EQ(c.roundTripAscii("set ek 0 0 " +
                               std::to_string(v.size()) + "\r\n" + v +
                               "\r\n"),
              "STORED\r\n");
    for (int i = 0; i < 40; ++i) {
        ASSERT_EQ(c.roundTripAscii("get ek\r\n"),
                  "VALUE ek 0 " + std::to_string(v.size()) + "\r\n" +
                      v + "\r\nEND\r\n")
            << "round " << i;
    }
}

TEST_P(IoBackendTest, ChaosEvictionPressureNeverTearsPinnedReplies)
{
    // A tiny cache under a write storm: items the reader just pinned
    // are prime eviction candidates. The refcount must keep every
    // pinned chunk's bytes alive until the kernel accepted them —
    // acknowledged VALUE replies must match what was stored, always.
    mc::Settings settings;
    settings.maxBytes = 2 * 1024 * 1024;
    cache_ = mc::makeCache("IP-onCommit", settings, kWorkers);
    ASSERT_NE(cache_, nullptr);
    startServer(net::ServerCfg{});

    // Ragged flushes widen the queued-pin window the storm races.
    fault::Policy p;
    p.trigger = fault::Trigger::Probability;
    p.probability = 0.5;
    p.seed = 777;
    p.byteCap = 512;
    fault::ScopedFault sfv("net.sys.writev", p);
    fault::ScopedFault sfw("net.write", p);

    auto valueFor = [](int i) {
        std::string v;
        while (v.size() < 8 * 1024)
            v += "v" + std::to_string(i) + "-";
        return v;
    };

    std::atomic<bool> stop{false};
    std::atomic<int> torn{0};
    std::thread writer([&] {
        net::Client w = makeClient();
        for (int i = 0; !stop.load(); ++i) {
            const std::string v = valueFor(i);
            const std::string r = w.roundTripAscii(
                "set wk" + std::to_string(i) + " 0 0 " +
                std::to_string(v.size()) + "\r\n" + v + "\r\n");
            if (r != "STORED\r\n" &&
                r.compare(0, 12, "SERVER_ERROR") != 0) {
                torn.fetch_add(1);
                break;
            }
        }
    });

    {
        net::Client r = makeClient();
        for (int round = 0; round < 120; ++round) {
            const int id = round % 8;
            const std::string k = "rk" + std::to_string(id);
            const std::string v = valueFor(1000 + id);
            ASSERT_EQ(r.roundTripAscii(
                          "set " + k + " 0 0 " +
                          std::to_string(v.size()) + "\r\n" + v +
                          "\r\n"),
                      "STORED\r\n")
                << "round " << round;
            const std::string got =
                r.roundTripAscii("get " + k + "\r\n");
            // Eviction may win the race (END); a hit must be intact.
            ASSERT_TRUE(got == "VALUE " + k + " 0 " +
                                   std::to_string(v.size()) + "\r\n" +
                                   v + "\r\nEND\r\n" ||
                        got == "END\r\n")
                << "round " << round << " torn reply ("
                << got.size() << " bytes)";
        }
    }
    stop.store(true);
    writer.join();
    EXPECT_EQ(torn.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(Backends, IoBackendTest,
                         ::testing::Values(net::IoBackend::Epoll,
                                           net::IoBackend::Writev),
                         [](const auto &info) {
                             return info.param == net::IoBackend::Epoll
                                        ? "Epoll"
                                        : "Writev";
                         });

} // namespace
