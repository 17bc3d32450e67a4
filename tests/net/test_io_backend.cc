/**
 * @file
 * The server's one write path (net/conn.h): each connection appends
 * replies to a single write buffer and flushes it with write(2). The
 * cases check that replies leave byte-exact and in order, that the
 * backlog obeys the backpressure caps, and that the flush survives
 * the net.write fault schedules (short writes, spurious EAGAIN).
 *
 * Branch is IP-onCommit throughout; the subject is the connection
 * layer, not the cache.
 *
 * Tests named *Chaos* run fault schedules on the net.write site; the
 * CMake registration exposes them under `ctest -L chaos` too.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "mc/binary_protocol.h"
#include "mc/cache_iface.h"
#include "mc/protocol.h"
#include "net/client.h"
#include "net/conn.h"
#include "net/server.h"
#include "tm/runtime.h"

namespace
{

using namespace tmemc;

// ----------------------------------------------------------------------
// Fixture
// ----------------------------------------------------------------------

class WritePathTest : public ::testing::Test
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

    static constexpr std::uint32_t kWorkers = 2;
    std::unique_ptr<mc::CacheIface> cache_;
    std::unique_ptr<net::Server> server_;
};

TEST_F(WritePathTest, RoundTripsAreByteExact)
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

    // gets carries the CAS id.
    const std::string gets = c.roundTripAscii("gets k1\r\n");
    EXPECT_EQ(gets.compare(0, 13, "VALUE k1 0 7 "), 0) << gets;

    // Binary protocol on the same connection.
    const std::string wire =
        c.roundTripBinary(mc::binSetRequest("bk", "bv"));
    mc::BinResponse r;
    ASSERT_GT(mc::binParseResponse(wire, r), 0u);
    EXPECT_EQ(r.status, mc::BinStatus::Ok);
}

TEST_F(WritePathTest, PipelinedBurstKeepsOrder)
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

TEST_F(WritePathTest, SlowReaderHitsBackpressure)
{
    // The reply to one 8 KiB GET overshoots a 4 KiB hard cap while
    // the write path is stalled, so the connection must be shed.
    net::ServerCfg cfg;
    cfg.limits.wbufSoftCap = 2 * 1024;
    cfg.limits.wbufHardCap = 4 * 1024;
    startServer(cfg);

    // Stall the write path, so replies can only accumulate against
    // the caps.
    fault::Policy p;
    p.trigger = fault::Trigger::EveryNth;
    p.n = 1;
    p.errnoValue = EAGAIN;
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
// Fault schedules on the write syscall (chaos suite members)
// ----------------------------------------------------------------------

TEST_F(WritePathTest, ChaosShortWritesStitchReplies)
{
    startServer(net::ServerCfg{});
    // Every write is truncated to 7 bytes: headers, payloads, and
    // trailers all leave in ragged fragments. Replies must still be
    // byte-perfect.
    fault::Policy p;
    p.trigger = fault::Trigger::EveryNth;
    p.n = 1;
    p.byteCap = 7;
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
    EXPECT_GT(sfw.firedCount(), 0u);
}

TEST(ConnWriteBuffer, ChaosShortWritesBehindPartlyFlushedFront)
{
    // One Conn on a socketpair whose send buffer is tiny and whose
    // peer does not read, with every write capped at 7 bytes. A
    // 50-request burst arrives in chunks; each chunk's flush stops at
    // EAGAIN with the buffer's front only partly written, and the
    // next chunk's replies are appended behind it. The expected bytes
    // come from running the same requests against a second fresh
    // cache of the same branch, so even the binary CAS ids match.
    fault::disarmAll();
    tm::Runtime::get().configure(tm::RuntimeCfg{});
    mc::Settings settings;
    settings.maxBytes = 16 * 1024 * 1024;
    auto cache = mc::makeCache("IP-onCommit", settings, 1);
    auto ref = mc::makeCache("IP-onCommit", settings, 1);
    ASSERT_NE(cache, nullptr);
    ASSERT_NE(ref, nullptr);
    auto run = [](mc::CacheIface &c, bool binary,
                  const std::string &frame) {
        return binary ? mc::binaryExecute(c, 0, frame)
                      : mc::protocolExecute(c, 0, frame);
    };
    const net::ExecFn exec = [&](std::uint32_t, bool binary,
                                 const std::string &frame,
                                 std::string &out) {
        out += run(*cache, binary, frame);
    };

    struct Req
    {
        bool binary;
        std::string wire;
    };
    std::vector<Req> reqs;
    std::vector<std::string> want;
    for (int i = 0; i < 50; ++i) {
        const std::string n = std::to_string((i / 6) % 2);
        const std::string v(2000 + i, static_cast<char>('a' + i % 26));
        const auto op = static_cast<std::uint32_t>(i);
        switch (i % 6) {
          case 0:
            reqs.push_back({false, "set pa" + n + " 0 0 " +
                                       std::to_string(v.size()) +
                                       "\r\n" + v + "\r\n"});
            break;
          case 1:
            reqs.push_back({false, "get pa" + n + "\r\n"});
            break;
          case 2:
            reqs.push_back({true, mc::binSetRequest("pb" + n, v)});
            break;
          case 3:
            reqs.push_back(
                {true, mc::binRequest(mc::BinOp::Get, "pb" + n, "", "",
                                      0, op)});
            break;
          case 4:
            reqs.push_back(
                {false, "get miss" + std::to_string(i) + "\r\n"});
            break;
          default:
            reqs.push_back(
                {true, mc::binRequest(mc::BinOp::Get,
                                      "miss" + std::to_string(i), "",
                                      "", 0, op)});
            break;
        }
        want.push_back(run(*ref, reqs.back().binary, reqs.back().wire));
    }

    int sv[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    const int sndbuf = 4096;
    ASSERT_EQ(::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &sndbuf,
                           sizeof(sndbuf)),
              0);
    ASSERT_EQ(::fcntl(sv[0], F_SETFL, O_NONBLOCK), 0);
    const net::ConnLimits limits;
    net::Conn conn(sv[0], 1, limits);  // Owns sv[0] from here on.

    fault::Policy p;
    p.trigger = fault::Trigger::EveryNth;
    p.n = 1;
    p.byteCap = 7;
    fault::ScopedFault sfw("net.write", p);

    std::size_t queued = 0;  // Reply bytes the chunks so far produce.
    for (std::size_t i = 0; i < reqs.size(); i += 10) {
        std::string chunk;
        for (std::size_t j = i; j < i + 10 && j < reqs.size(); ++j) {
            chunk += reqs[j].wire;
            queued += want[j].size();
        }
        ASSERT_EQ(::write(sv[1], chunk.data(), chunk.size()),
                  static_cast<ssize_t>(chunk.size()));
        ASSERT_TRUE(conn.onReadable(0, exec));
        // Some bytes left, the rest wait behind them.
        ASSERT_TRUE(conn.wantsWrite()) << "chunk " << i / 10;
        ASSERT_LT(conn.pendingWrite(), queued) << "chunk " << i / 10;
    }

    std::string got;
    char buf[4096];
    for (int spins = 0; spins < 100000; ++spins) {
        const ssize_t n = ::recv(sv[1], buf, sizeof(buf), MSG_DONTWAIT);
        if (n > 0)
            got.append(buf, static_cast<std::size_t>(n));
        if (!conn.wantsWrite() && n <= 0)
            break;
        ASSERT_TRUE(conn.onWritable(0, exec));
    }
    ::close(sv[1]);
    EXPECT_EQ(conn.requestsServed(), reqs.size());
    ASSERT_EQ(got.size(), queued);
    std::size_t off = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        ASSERT_EQ(got.substr(off, want[i].size()), want[i])
            << "reply " << i;
        off += want[i].size();
    }
    EXPECT_GT(sfw.firedCount(), 0u);
}

TEST_F(WritePathTest, ChaosWriteEagainRetriesWithoutCorruption)
{
    startServer(net::ServerCfg{});
    // Half of all writes spuriously report EAGAIN; the flush must
    // wait for EPOLLOUT and resume exactly where it left off.
    fault::Policy p;
    p.trigger = fault::Trigger::Probability;
    p.probability = 0.5;
    p.seed = 424242;
    p.errnoValue = EAGAIN;
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

TEST_F(WritePathTest, ChaosEvictionPressureNeverTearsReplies)
{
    // A tiny cache under a write storm: items the reader just read
    // are prime eviction candidates, and ragged flushes keep replies
    // queued while the storm runs. Acknowledged VALUE replies must
    // match what was stored, always.
    mc::Settings settings;
    settings.maxBytes = 2 * 1024 * 1024;
    cache_ = mc::makeCache("IP-onCommit", settings, kWorkers);
    ASSERT_NE(cache_, nullptr);
    startServer(net::ServerCfg{});

    fault::Policy p;
    p.trigger = fault::Trigger::Probability;
    p.probability = 0.5;
    p.seed = 777;
    p.byteCap = 512;
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

} // namespace
