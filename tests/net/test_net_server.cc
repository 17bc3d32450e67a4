/**
 * @file
 * End-to-end server tests: real sockets over loopback against cache
 * branches, both protocols, including the streaming edge cases the
 * framing layer exists for — requests split across writes, pipelined
 * requests in one write, oversized keys/values, and abrupt client
 * disconnects mid-request.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/fault.h"
#include "mc/binary_protocol.h"
#include "mc/cache_iface.h"
#include "net/client.h"
#include "net/server.h"
#include "tm/runtime.h"

namespace
{

using namespace tmemc;

/** Server-over-a-branch fixture: fresh cache + server per test. */
class NetServerTest : public ::testing::TestWithParam<const char *>
{
  protected:
    void
    SetUp() override
    {
        tm::Runtime::get().configure(tm::RuntimeCfg{});
        mc::Settings settings;
        settings.maxBytes = 16 * 1024 * 1024;
        cache_ = mc::makeShardedCache(GetParam(), settings, kWorkers);
        ASSERT_NE(cache_, nullptr);
        net::ServerCfg cfg;
        cfg.port = 0;  // Ephemeral.
        cfg.workers = kWorkers;
        server_ = std::make_unique<net::Server>(*cache_, cfg);
        ASSERT_TRUE(server_->start());
    }

    void
    TearDown() override
    {
        server_->stop();
    }

    net::Client
    makeClient()
    {
        net::Client c;
        EXPECT_TRUE(c.connect("127.0.0.1", server_->port()));
        return c;
    }

    static constexpr std::uint32_t kWorkers = 2;
    std::unique_ptr<mc::CacheIface> cache_;
    std::unique_ptr<net::Server> server_;
};

// ----------------------------------------------------------------------
// Round trips
// ----------------------------------------------------------------------

TEST_P(NetServerTest, AsciiSetGetDeleteRoundTrip)
{
    net::Client c = makeClient();
    EXPECT_EQ(c.roundTripAscii("set alpha 0 0 5\r\nhello\r\n"),
              "STORED\r\n");
    EXPECT_EQ(c.roundTripAscii("get alpha\r\n"),
              "VALUE alpha 0 5\r\nhello\r\nEND\r\n");
    EXPECT_EQ(c.roundTripAscii("delete alpha\r\n"), "DELETED\r\n");
    EXPECT_EQ(c.roundTripAscii("get alpha\r\n"), "END\r\n");
    EXPECT_EQ(c.roundTripAscii("delete alpha\r\n"), "NOT_FOUND\r\n");
}

TEST_P(NetServerTest, BinarySetGetDeleteRoundTrip)
{
    net::Client c = makeClient();

    std::string reply = c.roundTripBinary(mc::binSetRequest("k", "val"));
    mc::BinResponse r;
    ASSERT_GT(mc::binParseResponse(reply, r), 0u);
    EXPECT_EQ(r.status, mc::BinStatus::Ok);

    reply = c.roundTripBinary(mc::binRequest(mc::BinOp::Get, "k"));
    ASSERT_GT(mc::binParseResponse(reply, r), 0u);
    EXPECT_EQ(r.status, mc::BinStatus::Ok);
    EXPECT_EQ(r.value, "val");

    reply = c.roundTripBinary(mc::binRequest(mc::BinOp::Delete, "k"));
    ASSERT_GT(mc::binParseResponse(reply, r), 0u);
    EXPECT_EQ(r.status, mc::BinStatus::Ok);

    reply = c.roundTripBinary(mc::binRequest(mc::BinOp::Get, "k"));
    ASSERT_GT(mc::binParseResponse(reply, r), 0u);
    EXPECT_EQ(r.status, mc::BinStatus::KeyNotFound);
}

TEST_P(NetServerTest, BothProtocolsShareOneCache)
{
    net::Client c = makeClient();
    // Store over binary, read over ASCII, on the same connection.
    std::string reply =
        c.roundTripBinary(mc::binSetRequest("mixed", "payload"));
    mc::BinResponse r;
    ASSERT_GT(mc::binParseResponse(reply, r), 0u);
    ASSERT_EQ(r.status, mc::BinStatus::Ok);
    EXPECT_EQ(c.roundTripAscii("get mixed\r\n"),
              "VALUE mixed 0 7\r\npayload\r\nEND\r\n");
}

TEST_P(NetServerTest, IncrDecrTouchVersionOverWire)
{
    net::Client c = makeClient();
    EXPECT_EQ(c.roundTripAscii("set n 0 0 2\r\n10\r\n"), "STORED\r\n");
    EXPECT_EQ(c.roundTripAscii("incr n 5\r\n"), "15\r\n");
    EXPECT_EQ(c.roundTripAscii("decr n 1\r\n"), "14\r\n");
    EXPECT_EQ(c.roundTripAscii("touch n 100\r\n"), "TOUCHED\r\n");
    const std::string v = c.roundTripAscii("version\r\n");
    EXPECT_EQ(v.compare(0, 8, "VERSION "), 0);
}

// ----------------------------------------------------------------------
// Streaming edge cases
// ----------------------------------------------------------------------

TEST_P(NetServerTest, RequestSplitAcrossManyWrites)
{
    net::Client c = makeClient();
    const std::string req = "set split 0 0 6\r\nabcdef\r\n";
    // Drip the request one byte at a time; the server must buffer
    // and frame incrementally.
    for (char ch : req) {
        ASSERT_TRUE(c.sendAll(std::string(1, ch)));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::string reply;
    ASSERT_TRUE(c.recvAscii(reply));
    EXPECT_EQ(reply, "STORED\r\n");
    EXPECT_EQ(c.roundTripAscii("get split\r\n"),
              "VALUE split 0 6\r\nabcdef\r\nEND\r\n");
}

TEST_P(NetServerTest, BinaryRequestSplitAcrossWrites)
{
    net::Client c = makeClient();
    const std::string frame = mc::binSetRequest("bk", "bv");
    // Split inside the 24-byte header, then inside the body.
    ASSERT_TRUE(c.sendAll(frame.substr(0, 10)));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(c.sendAll(frame.substr(10, 20)));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(c.sendAll(frame.substr(30)));
    std::string reply;
    ASSERT_TRUE(c.recvBinary(reply));
    mc::BinResponse r;
    ASSERT_GT(mc::binParseResponse(reply, r), 0u);
    EXPECT_EQ(r.status, mc::BinStatus::Ok);
}

TEST_P(NetServerTest, PipelinedRequestsInOneWrite)
{
    net::Client c = makeClient();
    std::string batch;
    constexpr int kN = 20;
    for (int i = 0; i < kN; ++i) {
        const std::string k = "pipe" + std::to_string(i);
        batch += "set " + k + " 0 0 3\r\nv" +
                 std::to_string(i % 10) + "x\r\n";
    }
    for (int i = 0; i < kN; ++i)
        batch += "get pipe" + std::to_string(i) + "\r\n";
    ASSERT_TRUE(c.sendAll(batch));
    for (int i = 0; i < kN; ++i) {
        std::string reply;
        ASSERT_TRUE(c.recvAscii(reply));
        EXPECT_EQ(reply, "STORED\r\n") << "set " << i;
    }
    for (int i = 0; i < kN; ++i) {
        std::string reply;
        ASSERT_TRUE(c.recvAscii(reply));
        EXPECT_EQ(reply.compare(0, 6, "VALUE "), 0) << "get " << i;
    }
}

TEST_P(NetServerTest, MixedProtocolPipelineInOneWrite)
{
    net::Client c = makeClient();
    // ASCII set, binary set, ASCII get, binary get — one write.
    std::string batch = "set a1 0 0 2\r\nAA\r\n";
    batch += mc::binSetRequest("b1", "BB");
    batch += "get b1\r\n";
    batch += mc::binRequest(mc::BinOp::Get, "a1");
    ASSERT_TRUE(c.sendAll(batch));

    std::string reply;
    ASSERT_TRUE(c.recvAscii(reply));
    EXPECT_EQ(reply, "STORED\r\n");
    ASSERT_TRUE(c.recvBinary(reply));
    mc::BinResponse r;
    ASSERT_GT(mc::binParseResponse(reply, r), 0u);
    EXPECT_EQ(r.status, mc::BinStatus::Ok);
    ASSERT_TRUE(c.recvAscii(reply));
    EXPECT_EQ(reply, "VALUE b1 0 2\r\nBB\r\nEND\r\n");
    ASSERT_TRUE(c.recvBinary(reply));
    ASSERT_GT(mc::binParseResponse(reply, r), 0u);
    EXPECT_EQ(r.value, "AA");
}

TEST_P(NetServerTest, OversizedKeyGetsErrorAndClose)
{
    net::Client c = makeClient();
    const std::string req =
        "get " + std::string(4096, 'k') + "\r\n";
    ASSERT_TRUE(c.sendAll(req));
    std::string reply;
    ASSERT_TRUE(c.recvAscii(reply));
    EXPECT_EQ(reply.compare(0, 12, "CLIENT_ERROR"), 0);
    // The server closes after an unframeable request; the next recv
    // must see EOF, not a hang.
    EXPECT_FALSE(c.recvAscii(reply));
}

TEST_P(NetServerTest, OversizedValueGetsErrorAndClose)
{
    net::Client c = makeClient();
    ASSERT_TRUE(c.sendAll("set big 0 0 999999999\r\n"));
    std::string reply;
    ASSERT_TRUE(c.recvAscii(reply));
    EXPECT_EQ(reply.compare(0, 12, "SERVER_ERROR"), 0);
    EXPECT_FALSE(c.recvAscii(reply));
}

TEST_P(NetServerTest, BinaryGarbageClosesConnection)
{
    net::Client c = makeClient();
    // Binary-magic byte followed by a frame whose lengths lie.
    mc::BinHeader h;
    h.magic = static_cast<std::uint8_t>(mc::BinMagic::Request);
    h.opcode = static_cast<std::uint8_t>(mc::BinOp::Get);
    h.keyLength = 100;
    h.bodyLength = 4;
    std::string wire(mc::kBinHeaderSize, '\0');
    mc::binEncodeHeader(
        h, reinterpret_cast<std::uint8_t *>(wire.data()));
    ASSERT_TRUE(c.sendAll(wire));
    std::string reply;
    EXPECT_FALSE(c.recvBinary(reply));  // Closed, no response.
}

TEST_P(NetServerTest, AbruptDisconnectMidRequestLeavesServerHealthy)
{
    // Half a storage request, then a hard close (RST via SO_LINGER
    // would be even harsher; plain close exercises the same path
    // because the frame never completes).
    for (int round = 0; round < 3; ++round) {
        net::Client c = makeClient();
        ASSERT_TRUE(c.sendAll("set doomed 0 0 100\r\npartial-bo"));
        c.close();
    }
    // Binary flavour: header promising a body that never comes.
    {
        net::Client c = makeClient();
        const std::string frame = mc::binSetRequest("doomed2", "body");
        ASSERT_TRUE(c.sendAll(frame.substr(0, frame.size() - 2)));
        c.close();
    }
    // The server must still serve new clients flawlessly.
    net::Client c = makeClient();
    EXPECT_EQ(c.roundTripAscii("set alive 0 0 2\r\nok\r\n"),
              "STORED\r\n");
    EXPECT_EQ(c.roundTripAscii("get alive\r\n"),
              "VALUE alive 0 2\r\nok\r\nEND\r\n");
    // And the half-written key must not exist.
    EXPECT_EQ(c.roundTripAscii("get doomed\r\n"), "END\r\n");
}

TEST_P(NetServerTest, QuitClosesConnection)
{
    net::Client c = makeClient();
    ASSERT_TRUE(c.sendAll("set q 0 0 1\r\nz\r\nquit\r\n"));
    std::string reply;
    ASSERT_TRUE(c.recvAscii(reply));
    EXPECT_EQ(reply, "STORED\r\n");
    EXPECT_FALSE(c.recvAscii(reply));  // EOF after quit.
}

// ----------------------------------------------------------------------
// Reconnect after server restart
// ----------------------------------------------------------------------

TEST_P(NetServerTest, ClientReconnectsAfterServerRestart)
{
    // Regression: a server restart used to leave the client erroring
    // forever — fill()/sendAll() kept the defunct fd, so every later
    // call failed on it and there was no way back short of a fresh
    // Client. Now EOF/hard errors drop the socket and
    // ensureConnected() re-dials the remembered endpoint.
    net::Client c = makeClient();
    EXPECT_EQ(c.roundTripAscii("set alpha 0 0 5\r\nhello\r\n"),
              "STORED\r\n");
    const std::uint16_t port = server_->port();
    server_->stop();

    // The dead socket surfaces as a failed round trip AND a closed
    // client (previously: failed round trip, fd still held).
    EXPECT_EQ(c.roundTripAscii("get alpha\r\n"), "");
    EXPECT_FALSE(c.isConnected());

    // Nothing is listening yet, so re-dialing fails — but cleanly,
    // leaving the client able to try again.
    EXPECT_FALSE(c.ensureConnected(500));

    // Restart on the same port (the cache survives in this process);
    // one ensureConnected later the same client works again.
    net::ServerCfg cfg;
    cfg.port = port;
    cfg.workers = kWorkers;
    server_ = std::make_unique<net::Server>(*cache_, cfg);
    ASSERT_TRUE(server_->start());
    ASSERT_TRUE(c.ensureConnected(2000));
    EXPECT_TRUE(c.isConnected());
    EXPECT_EQ(c.roundTripAscii("get alpha\r\n"),
              "VALUE alpha 0 5\r\nhello\r\nEND\r\n");
}

TEST_P(NetServerTest, EnsureConnectedIsIdempotentOnLiveSocket)
{
    net::Client c = makeClient();
    EXPECT_EQ(c.roundTripAscii("set idem 0 0 2\r\nok\r\n"),
              "STORED\r\n");
    // A live socket is left alone — no spurious re-dial.
    const std::uint64_t before = server_->accepted();
    EXPECT_TRUE(c.ensureConnected(1000));
    EXPECT_EQ(server_->accepted(), before);
    EXPECT_EQ(c.roundTripAscii("get idem\r\n"),
              "VALUE idem 0 2\r\nok\r\nEND\r\n");
}

TEST_P(NetServerTest, ConnectFaultSiteFailsTheDial)
{
    // The net.sys.connect site fails the dial before the kernel sees
    // it — the hook cluster partition schedules are built on.
    fault::Policy p;
    p.trigger = fault::Trigger::EveryNth;
    p.n = 1;
    p.errnoValue = EHOSTUNREACH;
    {
        fault::ScopedFault sf("net.sys.connect", p);
        net::Client c;
        EXPECT_FALSE(c.connect("127.0.0.1", server_->port()));
        EXPECT_FALSE(c.connect("127.0.0.1", server_->port(), 1000));
        EXPECT_EQ(sf.firedCount(), 2u);
    }
    // Disarmed: the same dial succeeds.
    net::Client c = makeClient();
    EXPECT_EQ(c.roundTripAscii("version\r\n").compare(0, 8, "VERSION "),
              0);
}

// ----------------------------------------------------------------------
// Concurrency
// ----------------------------------------------------------------------

TEST_P(NetServerTest, ManyConcurrentClients)
{
    constexpr int kClients = 8;
    constexpr int kOpsPerClient = 50;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
            net::Client c;
            if (!c.connect("127.0.0.1", server_->port())) {
                ++failures;
                return;
            }
            for (int i = 0; i < kOpsPerClient; ++i) {
                const std::string k =
                    "c" + std::to_string(t) + "-" + std::to_string(i);
                if (c.roundTripAscii("set " + k + " 0 0 3\r\nxyz\r\n") !=
                    "STORED\r\n")
                    ++failures;
                if (c.roundTripAscii("get " + k + "\r\n")
                        .compare(0, 6, "VALUE ") != 0)
                    ++failures;
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_GE(server_->accepted(), static_cast<std::uint64_t>(kClients));
}

TEST_P(NetServerTest, MetricsAdminCommandReturnsJson)
{
    auto c = makeClient();
    EXPECT_EQ(c.roundTripAscii("set m1 0 0 2\r\nok\r\n"), "STORED\r\n");

    // The reply is one JSON line followed by END; the ASCII framer
    // sees them as two responses.
    const std::string json = c.roundTripAscii("metrics\r\n");
    ASSERT_TRUE(json.rfind("{\"schema\":\"tmemc-metrics-v1\"", 0) == 0)
        << json;
    EXPECT_NE(json.find("\"net_requests_served\":"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"net_curr_connections\":"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"latency\":{"), std::string::npos) << json;
    std::string tail;
    ASSERT_TRUE(c.recvAscii(tail));
    EXPECT_EQ(tail, "END\r\n");

    // The connection stays usable after the admin command.
    EXPECT_EQ(c.roundTripAscii("get m1\r\n"),
              "VALUE m1 0 2\r\nok\r\nEND\r\n");
}

TEST_P(NetServerTest, StatsLatencyAndTmRows)
{
    auto c = makeClient();
    EXPECT_EQ(c.roundTripAscii("set s1 0 0 2\r\nok\r\n"), "STORED\r\n");
    EXPECT_EQ(c.roundTripAscii("get s1\r\n"),
              "VALUE s1 0 2\r\nok\r\nEND\r\n");

    const std::string lat = c.roundTripAscii("stats latency\r\n");
    EXPECT_NE(lat.find("STAT lat_cmd_count "), std::string::npos) << lat;
    EXPECT_NE(lat.find("STAT lat_cmd_p99_us "), std::string::npos)
        << lat;
    EXPECT_NE(lat.find("STAT lat_tx_count "), std::string::npos) << lat;
    EXPECT_EQ(lat.compare(lat.size() - 5, 5, "END\r\n"), 0) << lat;
    // The set and get above each went through the command timer.
    EXPECT_EQ(lat.find("STAT lat_cmd_count 0\r\n"), std::string::npos)
        << lat;

    const std::string tmrows = c.roundTripAscii("stats tm\r\n");
    EXPECT_NE(tmrows.find("STAT tm_commits "), std::string::npos)
        << tmrows;
    EXPECT_NE(tmrows.find("STAT tm_txns "), std::string::npos) << tmrows;
    EXPECT_EQ(tmrows.compare(tmrows.size() - 5, 5, "END\r\n"), 0)
        << tmrows;
}

TEST(NetServerShardedTest, QuietGetPipelineAnswersHitsInOrder)
{
    // A GetQ/GetKQ/GetKQ pipeline over four shards, keys on three
    // different shards, then a Noop as memcached clients send to
    // close a quiet run: each frame executes on its own, the miss
    // writes nothing, and the hits come back in request order, each
    // under its own opaque.
    tm::Runtime::get().configure(tm::RuntimeCfg{});
    mc::Settings settings;
    settings.maxBytes = 16 * 1024 * 1024;
    auto cache = mc::makeShardedCache("IT-onCommit", settings, 2, 4);
    ASSERT_NE(cache, nullptr);
    std::vector<std::string> keys;
    std::vector<std::uint32_t> used;
    for (int i = 0; keys.size() < 3; ++i) {
        const std::string k = "qp" + std::to_string(i);
        const std::uint32_t sh = cache->shardOf(k.data(), k.size());
        if (std::find(used.begin(), used.end(), sh) != used.end())
            continue;
        used.push_back(sh);
        keys.push_back(k);
    }
    net::ServerCfg cfg;
    cfg.port = 0;
    cfg.workers = 2;
    net::Server server(*cache, cfg);
    ASSERT_TRUE(server.start());

    {
        net::Client c;
        ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
        std::string batch = mc::binSetRequest(keys[0], "alpha") +
                            mc::binSetRequest(keys[2], "gamma") +
                            mc::binRequest(mc::BinOp::GetQ, keys[0], "",
                                           "", 0, 11) +
                            mc::binRequest(mc::BinOp::GetKQ, keys[1], "",
                                           "", 0, 22) +
                            mc::binRequest(mc::BinOp::GetKQ, keys[2], "",
                                           "", 0, 33) +
                            mc::binRequest(mc::BinOp::Noop, "", "", "", 0,
                                           44);
        ASSERT_TRUE(c.sendAll(batch));
        mc::BinResponse r;
        std::string reply;
        for (int i = 0; i < 2; ++i) {
            ASSERT_TRUE(c.recvBinary(reply));
            ASSERT_GT(mc::binParseResponse(reply, r), 0u);
            EXPECT_EQ(r.opcode, mc::BinOp::Set);
            EXPECT_EQ(r.status, mc::BinStatus::Ok);
        }
        ASSERT_TRUE(c.recvBinary(reply));
        ASSERT_GT(mc::binParseResponse(reply, r), 0u);
        EXPECT_EQ(r.opcode, mc::BinOp::GetQ);
        EXPECT_EQ(r.value, "alpha");
        EXPECT_TRUE(r.key.empty());  // GetQ omits the key...
        EXPECT_EQ(r.opaque, 11u);
        ASSERT_TRUE(c.recvBinary(reply));
        ASSERT_GT(mc::binParseResponse(reply, r), 0u);
        EXPECT_EQ(r.opcode, mc::BinOp::GetKQ);
        EXPECT_EQ(r.key, keys[2]);  // ...GetKQ echoes it.
        EXPECT_EQ(r.value, "gamma");
        EXPECT_EQ(r.opaque, 33u);
        ASSERT_TRUE(c.recvBinary(reply));
        ASSERT_GT(mc::binParseResponse(reply, r), 0u);
        EXPECT_EQ(r.opcode, mc::BinOp::Noop);
        EXPECT_EQ(r.opaque, 44u);
    }
    server.stop();
    // Every frame, the silent miss included, counts as one request.
    EXPECT_EQ(server.requestsServed(), 6u);
}

INSTANTIATE_TEST_SUITE_P(Branches, NetServerTest,
                         ::testing::Values("Baseline", "IT-onCommit"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &ch : name)
                                 if (ch == '-')
                                     ch = '_';
                             return name;
                         });

} // namespace
