/**
 * @file
 * Overload-resilience tests: each shedding mechanism — idle reaping,
 * the connection limit, write-buffer backpressure, graceful drain —
 * has a dedicated test, and each leaves its mark in a counter that is
 * also reachable over the wire through the ASCII `stats` command.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "common/fault.h"
#include "mc/cache_iface.h"
#include "net/client.h"
#include "net/server.h"
#include "tm/runtime.h"

namespace
{

using namespace tmemc;

/** Like the server fixture, but each test picks its own ServerCfg. */
class ResilienceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault::disarmAll();
        tm::Runtime::get().configure(tm::RuntimeCfg{});
        mc::Settings settings;
        settings.maxBytes = 16 * 1024 * 1024;
        cache_ = mc::makeShardedCache("IT-onCommit", settings, kWorkers);
        ASSERT_NE(cache_, nullptr);
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

    /** Poll until @p pred or ~2s; resilience events are async. */
    template <typename Pred>
    static bool
    eventually(Pred pred)
    {
        for (int i = 0; i < 400; ++i) {
            if (pred())
                return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        return pred();
    }

    static constexpr std::uint32_t kWorkers = 2;
    std::unique_ptr<mc::CacheIface> cache_;
    std::unique_ptr<net::Server> server_;
};

// ----------------------------------------------------------------------
// Idle timeout
// ----------------------------------------------------------------------

TEST_F(ResilienceTest, IdleConnectionsAreReaped)
{
    net::ServerCfg cfg;
    cfg.idleTimeoutMs = 100;
    startServer(cfg);

    net::Client c = makeClient();
    ASSERT_EQ(c.roundTripAscii("set idle 0 0 2\r\nok\r\n"), "STORED\r\n");

    // Go quiet past the deadline: the reaper must close us.
    std::string reply;
    EXPECT_FALSE(c.recvAscii(reply));  // Blocks until the server's FIN.
    EXPECT_TRUE(eventually([&] {
        return server_->netStats().idleKicks >= 1 &&
               server_->openConnections() == 0;
    }));

    // An active client is never reaped: keep one busy well past the
    // deadline.
    net::Client busy = makeClient();
    for (int i = 0; i < 30; ++i) {
        ASSERT_EQ(busy.roundTripAscii("get idle\r\n"),
                  "VALUE idle 0 2\r\nok\r\nEND\r\n");
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

// ----------------------------------------------------------------------
// Connection limit
// ----------------------------------------------------------------------

TEST_F(ResilienceTest, MaxConnsRejectsPolitelyAndRecovers)
{
    net::ServerCfg cfg;
    cfg.maxConns = 2;
    startServer(cfg);

    // Fill the limit; a round trip guarantees each socket has been
    // adopted by its loop (adoption is what the limit counts).
    net::Client a = makeClient();
    net::Client b = makeClient();
    ASSERT_EQ(a.roundTripAscii("set k 0 0 1\r\nx\r\n"), "STORED\r\n");
    ASSERT_EQ(b.roundTripAscii("get k\r\n"),
              "VALUE k 0 1\r\nx\r\nEND\r\n");

    // One over the limit: the TCP connect succeeds (backlog), but the
    // server answers with the polite rejection and a clean FIN — not
    // an RST, not silence.
    net::Client rejected = makeClient();
    std::string reply;
    ASSERT_TRUE(rejected.recvAscii(reply));
    EXPECT_EQ(reply, "SERVER_ERROR too many connections\r\n");
    EXPECT_FALSE(rejected.recvAscii(reply));  // EOF after the error.
    EXPECT_EQ(server_->netStats().rejectedConnections, 1u);

    // The limit is live headroom, not a lifetime cap: free a slot and
    // the next client gets in.
    a.close();
    ASSERT_TRUE(eventually(
        [&] { return server_->netStats().currConnections < 2; }));
    net::Client late = makeClient();
    EXPECT_EQ(late.roundTripAscii("get k\r\n"),
              "VALUE k 0 1\r\nx\r\nEND\r\n");

    // Established connections were never disturbed.
    EXPECT_EQ(b.roundTripAscii("get k\r\n"),
              "VALUE k 0 1\r\nx\r\nEND\r\n");
}

// ----------------------------------------------------------------------
// Backpressure
// ----------------------------------------------------------------------

TEST_F(ResilienceTest, HardCapClosesConnectionThatStoppedReading)
{
    net::ServerCfg cfg;
    cfg.limits.wbufSoftCap = 2 * 1024;
    cfg.limits.wbufHardCap = 4 * 1024;
    startServer(cfg);

    // Stall the server's writes so replies can only accumulate.
    fault::Policy p;
    p.trigger = fault::Trigger::EveryNth;
    p.n = 1;
    p.errnoValue = EAGAIN;
    fault::ScopedFault sf("net.write", p);

    // One value larger than the hard cap: its reply alone overruns
    // the budget the moment it is queued. (Must stay under the
    // cache's itemSizeMax, or the set itself is refused.)
    net::Client c = makeClient();
    const std::string big(8 * 1024, 'B');
    ASSERT_TRUE(c.sendAll("set big 0 0 " + std::to_string(big.size()) +
                          "\r\n" + big + "\r\nget big\r\n"));
    std::string reply;
    EXPECT_FALSE(c.recvAscii(reply));  // Connection was cut.
    EXPECT_TRUE(eventually(
        [&] { return server_->netStats().backpressureCloses >= 1; }));

    // The server sheds the one connection, not its health.
    fault::disarmAll();
    net::Client fresh = makeClient();
    EXPECT_EQ(fresh.roundTripAscii("get big\r\n").compare(0, 6,
                                                          "VALUE "),
              0);
}

TEST_F(ResilienceTest, SoftCapPausesReadingWithoutKillingTheConn)
{
    net::ServerCfg cfg;
    cfg.limits.wbufSoftCap = 4 * 1024;
    cfg.limits.wbufHardCap = 1024 * 1024;
    startServer(cfg);

    net::Client c = makeClient();
    const std::string v(2 * 1024, 'v');
    ASSERT_EQ(c.roundTripAscii("set v 0 0 " + std::to_string(v.size()) +
                               "\r\n" + v + "\r\n"),
              "STORED\r\n");
    // Pipeline enough gets that the reply stream crosses the soft cap
    // many times over; because this client *does* read, every reply
    // must still arrive, in order, intact — backpressure pauses the
    // conn, it never drops it.
    constexpr int kN = 50;
    std::string batch;
    for (int i = 0; i < kN; ++i)
        batch += "get v\r\n";
    ASSERT_TRUE(c.sendAll(batch));
    for (int i = 0; i < kN; ++i) {
        std::string reply;
        ASSERT_TRUE(c.recvAscii(reply)) << "reply " << i;
        EXPECT_EQ(reply, "VALUE v 0 " + std::to_string(v.size()) +
                             "\r\n" + v + "\r\nEND\r\n")
            << "reply " << i;
    }
    EXPECT_EQ(server_->netStats().backpressureCloses, 0u);
}

// ----------------------------------------------------------------------
// Graceful drain
// ----------------------------------------------------------------------

TEST_F(ResilienceTest, DrainClosesIdleConnectionsCleanly)
{
    startServer(net::ServerCfg{});
    net::Client c = makeClient();
    ASSERT_EQ(c.roundTripAscii("set d 0 0 2\r\nok\r\n"), "STORED\r\n");

    EXPECT_TRUE(server_->drain(2000));
    std::string reply;
    EXPECT_FALSE(c.recvAscii(reply));  // Clean EOF, not a hang.
    EXPECT_EQ(server_->openConnections(), 0u);

    // Drained means drained: no new connections are served.
    net::Client late;
    if (late.connect("127.0.0.1", server_->port(), 200)) {
        late.setRecvTimeout(500);
        EXPECT_NE(late.roundTripAscii("get d\r\n"),
                  "VALUE d 0 2\r\nok\r\nEND\r\n");
    }
}

TEST_F(ResilienceTest, DrainFlushesQueuedRepliesBeforeClosing)
{
    startServer(net::ServerCfg{});
    net::Client c = makeClient();

    // Wedge the server's writes, then issue requests: they execute
    // but their replies stay queued in the connection.
    fault::Policy p;
    p.trigger = fault::Trigger::EveryNth;
    p.n = 1;
    p.errnoValue = EAGAIN;
    fault::arm("net.write", p);
    constexpr int kN = 10;
    std::string batch;
    for (int i = 0; i < kN; ++i)
        batch += "set dr" + std::to_string(i) + " 0 0 2\r\nok\r\n";
    ASSERT_TRUE(c.sendAll(batch));
    // Let the loop execute the batch (replies cannot leave, so wait
    // on wall time; generous for loopback).
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    fault::disarm("net.write");

    // Drain must deliver every queued reply before the FIN.
    std::thread drainer(
        [&] { EXPECT_TRUE(server_->drain(5000)); });
    for (int i = 0; i < kN; ++i) {
        std::string reply;
        ASSERT_TRUE(c.recvAscii(reply)) << "reply " << i;
        EXPECT_EQ(reply, "STORED\r\n") << "reply " << i;
    }
    std::string reply;
    EXPECT_FALSE(c.recvAscii(reply));  // Then EOF.
    drainer.join();
}

TEST_F(ResilienceTest, DrainDeadlineForcesStragglers)
{
    startServer(net::ServerCfg{});
    net::Client c = makeClient();

    // Permanently wedge writes so the queued reply can never leave:
    // drain must give up at the deadline and report it.
    fault::Policy p;
    p.trigger = fault::Trigger::EveryNth;
    p.n = 1;
    p.errnoValue = EAGAIN;
    fault::ScopedFault sf("net.write", p);
    ASSERT_TRUE(c.sendAll("set z 0 0 2\r\nok\r\n"));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(server_->drain(300));
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(elapsed, std::chrono::seconds(5));  // Bounded, not hung.
    EXPECT_EQ(server_->openConnections(), 0u);    // Still torn down.
}

// ----------------------------------------------------------------------
// Stats over the wire
// ----------------------------------------------------------------------

TEST_F(ResilienceTest, ServerCountersRoundTripThroughAsciiStats)
{
    net::ServerCfg cfg;
    cfg.maxConns = 1;
    startServer(cfg);

    net::Client c = makeClient();
    ASSERT_EQ(c.roundTripAscii("set s 0 0 1\r\nv\r\n"), "STORED\r\n");

    // Provoke one rejection so a nonzero counter crosses the wire.
    net::Client rejected = makeClient();
    std::string line;
    ASSERT_TRUE(rejected.recvAscii(line));
    ASSERT_EQ(line, "SERVER_ERROR too many connections\r\n");

    const std::string reply = c.roundTripAscii("stats\r\n");
    // Cache stats and server stats arrive as one block with one END.
    EXPECT_NE(reply.find("STAT curr_connections 1\r\n"),
              std::string::npos)
        << reply;
    EXPECT_NE(reply.find("STAT total_connections 1\r\n"),
              std::string::npos)
        << reply;
    EXPECT_NE(reply.find("STAT rejected_connections 1\r\n"),
              std::string::npos)
        << reply;
    EXPECT_NE(reply.find("STAT idle_kicks 0\r\n"), std::string::npos);
    EXPECT_NE(reply.find("STAT backpressure_closes 0\r\n"),
              std::string::npos);
    EXPECT_NE(reply.find("STAT oom_errors 0\r\n"), std::string::npos);
    EXPECT_NE(reply.find("STAT accept_failures 0\r\n"),
              std::string::npos);
    // Exactly one terminator, at the very end.
    EXPECT_EQ(reply.find("END\r\n"), reply.size() - 5);

    // The snapshot API agrees with the wire.
    const net::NetStats s = server_->netStats();
    EXPECT_EQ(s.currConnections, 1u);
    EXPECT_EQ(s.totalConnections, 1u);
    EXPECT_EQ(s.rejectedConnections, 1u);
    EXPECT_EQ(s.oomErrors, 0u);
}

} // namespace
