/**
 * @file
 * Tests for the memcached binary protocol (the memslap --binary path).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "mc/binary_protocol.h"
#include "mc/cache_iface.h"
#include "mc/protocol.h"
#include "tm/api.h"
#include "workload/memslap.h"

namespace
{

using namespace tmemc;
using namespace tmemc::mc;

/** Parameter: branch name and shard count. */
class BinaryProtocolTest
    : public ::testing::TestWithParam<std::tuple<const char *, std::uint32_t>>
{
  protected:
    void
    SetUp() override
    {
        tm::Runtime::get().configure(tm::RuntimeCfg{});
        Settings s;
        s.maxBytes = 8 * 1024 * 1024;
        cache_ = makeShardedCache(std::get<0>(GetParam()), s, 2,
                                  std::get<1>(GetParam()));
        ASSERT_NE(cache_, nullptr);
    }

    BinResponse
    exec(const std::string &req)
    {
        const std::string wire = binaryExecute(*cache_, 0, req);
        BinResponse r;
        EXPECT_GT(binParseResponse(wire, r), 0u);
        return r;
    }

    std::unique_ptr<CacheIface> cache_;
};

TEST_P(BinaryProtocolTest, HeaderRoundTrips)
{
    BinHeader h;
    h.magic = static_cast<std::uint8_t>(BinMagic::Request);
    h.opcode = static_cast<std::uint8_t>(BinOp::Set);
    h.keyLength = 0x1234;
    h.extrasLength = 8;
    h.status = 0x0005;
    h.bodyLength = 0xdeadbeef;
    h.opaque = 0xcafebabe;
    h.cas = 0x0123456789abcdefull;
    std::uint8_t wire[kBinHeaderSize];
    binEncodeHeader(h, wire);
    // Spot-check network byte order.
    EXPECT_EQ(wire[2], 0x12);
    EXPECT_EQ(wire[3], 0x34);
    BinHeader back;
    ASSERT_TRUE(binDecodeHeader(wire, back));
    EXPECT_EQ(back.keyLength, h.keyLength);
    EXPECT_EQ(back.bodyLength, h.bodyLength);
    EXPECT_EQ(back.opaque, h.opaque);
    EXPECT_EQ(back.cas, h.cas);
}

TEST_P(BinaryProtocolTest, BadMagicRejected)
{
    std::uint8_t wire[kBinHeaderSize] = {0x42};
    BinHeader h;
    EXPECT_FALSE(binDecodeHeader(wire, h));
}

TEST_P(BinaryProtocolTest, SetThenGet)
{
    const auto set = exec(binSetRequest("bkey", "bvalue"));
    EXPECT_EQ(set.status, BinStatus::Ok);
    EXPECT_NE(set.cas, 0u);

    const auto get = exec(binRequest(BinOp::Get, "bkey"));
    EXPECT_EQ(get.status, BinStatus::Ok);
    EXPECT_EQ(get.value, "bvalue");
    EXPECT_EQ(get.extras.size(), 4u);  // flags
    EXPECT_TRUE(get.key.empty());      // GET omits the key.

    const auto getk = exec(binRequest(BinOp::GetK, "bkey"));
    EXPECT_EQ(getk.key, "bkey");
    EXPECT_EQ(getk.value, "bvalue");
}

TEST_P(BinaryProtocolTest, GetMiss)
{
    const auto r = exec(binRequest(BinOp::Get, "absent"));
    EXPECT_EQ(r.status, BinStatus::KeyNotFound);
}

TEST_P(BinaryProtocolTest, AddAndReplaceSemantics)
{
    EXPECT_EQ(exec(binSetRequest("a", "1", 0, 0, BinOp::Add)).status,
              BinStatus::Ok);
    EXPECT_EQ(exec(binSetRequest("a", "2", 0, 0, BinOp::Add)).status,
              BinStatus::NotStored);
    EXPECT_EQ(exec(binSetRequest("a", "3", 0, 0, BinOp::Replace)).status,
              BinStatus::Ok);
    EXPECT_EQ(exec(binSetRequest("zz", "4", 0, 0, BinOp::Replace)).status,
              BinStatus::NotStored);
}

TEST_P(BinaryProtocolTest, CasViaSetHeader)
{
    const auto set = exec(binSetRequest("c", "v1"));
    const auto good =
        exec(binSetRequest("c", "v2", 0, 0, BinOp::Set, set.cas));
    EXPECT_EQ(good.status, BinStatus::Ok);
    const auto stale =
        exec(binSetRequest("c", "v3", 0, 0, BinOp::Set, set.cas));
    EXPECT_EQ(stale.status, BinStatus::KeyExists);
}

TEST_P(BinaryProtocolTest, SetCountsNoGet)
{
    // The reply's CAS id comes from the store itself: a set runs no
    // hidden GET, so the retrieval counters do not move.
    exec(binSetRequest("warm", "x"));
    const ThreadStatsBlock before = cache_->threadStats();
    EXPECT_EQ(exec(binSetRequest("sc", "value")).status, BinStatus::Ok);
    EXPECT_EQ(exec(binSetRequest("sc", "v2", 0, 0, BinOp::Replace)).status,
              BinStatus::Ok);
    const ThreadStatsBlock after = cache_->threadStats();
    EXPECT_EQ(after.cmdGet, before.cmdGet);
    EXPECT_EQ(after.getHits, before.getHits);
    EXPECT_EQ(after.bytesWritten, before.bytesWritten);
    EXPECT_EQ(after.cmdSet, before.cmdSet + 2);
}

TEST_P(BinaryProtocolTest, SetCasMatchesGets)
{
    const auto set = exec(binSetRequest("gc", "abc"));
    ASSERT_EQ(set.status, BinStatus::Ok);
    ASSERT_NE(set.cas, 0u);
    const std::string expect = "VALUE gc 0 3 " + std::to_string(set.cas) +
                               "\r\nabc\r\nEND\r\n";
    EXPECT_EQ(protocolExecute(*cache_, 0, "gets gc\r\n"), expect);

    // A CAS set with that id succeeds and reports the next id.
    const auto cas =
        exec(binSetRequest("gc", "def", 0, 0, BinOp::Set, set.cas));
    EXPECT_EQ(cas.status, BinStatus::Ok);
    EXPECT_NE(cas.cas, set.cas);
    EXPECT_EQ(exec(binRequest(BinOp::Get, "gc")).cas, cas.cas);
}

TEST_P(BinaryProtocolTest, SetAppliesExpiry)
{
    // Extras carry flags(4) expiry(4); expiry 1 must reach the item,
    // as TOUCH's does in BranchTest.TouchUpdatesExpiry.
    ASSERT_EQ(exec(binSetRequest("ex", "v", 0, 1)).status, BinStatus::Ok);
    BinStatus st = BinStatus::Ok;
    for (int i = 0; i < 100000 && st == BinStatus::Ok; ++i)
        st = exec(binRequest(BinOp::Get, "ex")).status;
    EXPECT_EQ(st, BinStatus::KeyNotFound);
    EXPECT_GE(cache_->globalStats().expiredUnfetched, 1u);
}

/** The exact wire reply to a GET/GETK/GETQ/GETKQ hit. */
std::string
hitFrame(BinOp op, const std::string &key, const std::string &value,
         std::uint64_t cas, std::uint32_t opaque = 0)
{
    BinHeader h;
    h.magic = static_cast<std::uint8_t>(BinMagic::Response);
    h.opcode = static_cast<std::uint8_t>(op);
    h.keyLength = static_cast<std::uint16_t>(key.size());
    h.extrasLength = 4;
    h.bodyLength = static_cast<std::uint32_t>(4 + key.size() + value.size());
    h.cas = cas;
    h.opaque = opaque;
    std::string out(kBinHeaderSize, '\0');
    binEncodeHeader(h, reinterpret_cast<std::uint8_t *>(out.data()));
    return out + std::string(4, '\0') + key + value;
}

/** The exact wire reply to a loud GET miss. */
std::string
missFrame(BinOp op)
{
    BinHeader h;
    h.magic = static_cast<std::uint8_t>(BinMagic::Response);
    h.opcode = static_cast<std::uint8_t>(op);
    h.status = static_cast<std::uint16_t>(BinStatus::KeyNotFound);
    std::string out(kBinHeaderSize, '\0');
    binEncodeHeader(h, reinterpret_cast<std::uint8_t *>(out.data()));
    return out;
}

TEST_P(BinaryProtocolTest, ReusedCopySlotLeavesNoStaleBytes)
{
    // One thread reads a value of nearly 16 KiB, then a 3-byte one,
    // then a miss: each reply must be exact, with nothing left over
    // from the larger value in the reused copy slot.
    const std::string big(16000, 'B');
    const auto sb = exec(binSetRequest("big", big));
    const auto ss = exec(binSetRequest("small", "abc"));
    ASSERT_EQ(sb.status, BinStatus::Ok);
    ASSERT_EQ(ss.status, BinStatus::Ok);

    auto run = [&](const std::string &req) {
        return binaryExecute(*cache_, 0, req);
    };
    EXPECT_EQ(run(binRequest(BinOp::Get, "big")),
              hitFrame(BinOp::Get, "", big, sb.cas));
    EXPECT_EQ(run(binRequest(BinOp::GetK, "small")),
              hitFrame(BinOp::GetK, "small", "abc", ss.cas));
    EXPECT_EQ(run(binRequest(BinOp::Get, "absent")),
              missFrame(BinOp::Get));

    // Quiet gets, one frame each: big, small, then a silent miss.
    EXPECT_EQ(run(binRequest(BinOp::GetQ, "big", "", "", 0, 1)),
              hitFrame(BinOp::GetQ, "", big, sb.cas, 1));
    EXPECT_EQ(run(binRequest(BinOp::GetKQ, "small", "", "", 0, 2)),
              hitFrame(BinOp::GetKQ, "small", "abc", ss.cas, 2));
    EXPECT_EQ(run(binRequest(BinOp::GetQ, "absent", "", "", 0, 3)), "");

    // ASCII get and multi-get on the same thread.
    const std::string big_reply = "VALUE big 0 16000\r\n" + big + "\r\n";
    const std::string small_reply = "VALUE small 0 3\r\nabc\r\n";
    auto ascii = [&](const std::string &req) {
        return protocolExecute(*cache_, 0, req);
    };
    EXPECT_EQ(ascii("get big\r\n"), big_reply + "END\r\n");
    EXPECT_EQ(ascii("get small\r\n"), small_reply + "END\r\n");
    EXPECT_EQ(ascii("get absent\r\n"), "END\r\n");
    EXPECT_EQ(ascii("get big small absent\r\n"),
              big_reply + small_reply + "END\r\n");
    EXPECT_EQ(ascii("get small absent big\r\n"),
              small_reply + big_reply + "END\r\n");
}

TEST_P(BinaryProtocolTest, LongQuietGetRunAnswersEveryHit)
{
    // Forty quiet gets of growing values, one binaryExecute each,
    // all copied through the thread's one reused copy slot.
    std::vector<std::string> frames;
    std::string expect;
    for (int i = 0; i < 40; ++i) {
        const std::string k = "lq" + std::to_string(i);
        const std::string v(static_cast<std::size_t>(i * 97), 'a' + i % 26);
        const auto set = exec(binSetRequest(k, v));
        ASSERT_EQ(set.status, BinStatus::Ok);
        frames.push_back(binRequest(BinOp::GetKQ, k, "", "", 0,
                                    static_cast<std::uint32_t>(i)));
        expect += hitFrame(BinOp::GetKQ, k, v, set.cas,
                           static_cast<std::uint32_t>(i));
    }
    std::string got;
    for (const std::string &f : frames)
        got += binaryExecute(*cache_, 0, f);
    EXPECT_EQ(got, expect);
}

TEST_P(BinaryProtocolTest, DeleteAndNoop)
{
    exec(binSetRequest("d", "x"));
    EXPECT_EQ(exec(binRequest(BinOp::Delete, "d")).status, BinStatus::Ok);
    EXPECT_EQ(exec(binRequest(BinOp::Delete, "d")).status,
              BinStatus::KeyNotFound);
    EXPECT_EQ(exec(binRequest(BinOp::Noop, "")).status, BinStatus::Ok);
}

TEST_P(BinaryProtocolTest, IncrDecrBinaryValues)
{
    exec(binSetRequest("n", "100"));
    const auto up = exec(binArithRequest(BinOp::Increment, "n", 23));
    EXPECT_EQ(up.status, BinStatus::Ok);
    ASSERT_EQ(up.value.size(), 8u);
    // 64-bit big-endian result.
    std::uint64_t v = 0;
    for (unsigned char c : up.value)
        v = (v << 8) | c;
    EXPECT_EQ(v, 123u);
    const auto down = exec(binArithRequest(BinOp::Decrement, "n", 23));
    std::uint64_t w = 0;
    for (unsigned char c : down.value)
        w = (w << 8) | c;
    EXPECT_EQ(w, 100u);
}

TEST_P(BinaryProtocolTest, VersionAndFlush)
{
    const auto v = exec(binRequest(BinOp::Version, ""));
    EXPECT_EQ(v.status, BinStatus::Ok);
    EXPECT_NE(v.value.find("tmemc"), std::string::npos);
    exec(binSetRequest("f", "x"));
    EXPECT_EQ(exec(binRequest(BinOp::Flush, "")).status, BinStatus::Ok);
    EXPECT_EQ(exec(binRequest(BinOp::Get, "f")).status,
              BinStatus::KeyNotFound);
}

TEST_P(BinaryProtocolTest, StatStreamTerminated)
{
    exec(binSetRequest("s", "x"));
    const std::string wire =
        binaryExecute(*cache_, 0, binRequest(BinOp::Stat, ""));
    // Parse all frames; the last must have an empty key and value.
    std::size_t pos = 0;
    int frames = 0;
    BinResponse last;
    while (pos < wire.size()) {
        BinResponse r;
        const std::size_t used = binParseResponse(wire.substr(pos), r);
        ASSERT_GT(used, 0u);
        pos += used;
        last = r;
        ++frames;
    }
    EXPECT_GT(frames, 3);
    EXPECT_TRUE(last.key.empty());
    EXPECT_TRUE(last.value.empty());
}

TEST_P(BinaryProtocolTest, QuietGetRunAnswersHitsOnly)
{
    exec(binSetRequest("q1", "alpha"));
    exec(binSetRequest("q3", "gamma"));

    // A pipelined multi-get: GetQ hit, GetKQ miss, GetKQ hit, one
    // binaryExecute per frame as the connection runs them. Only the
    // hits answer, in request order, each under its own opaque.
    const std::string wire =
        binaryExecute(*cache_, 0, binRequest(BinOp::GetQ, "q1", "", "", 0,
                                             11)) +
        binaryExecute(*cache_, 0, binRequest(BinOp::GetKQ, "q2", "", "",
                                             0, 22)) +
        binaryExecute(*cache_, 0, binRequest(BinOp::GetKQ, "q3", "", "",
                                             0, 33));
    BinResponse first;
    const std::size_t used = binParseResponse(wire, first);
    ASSERT_GT(used, 0u);
    EXPECT_EQ(first.status, BinStatus::Ok);
    EXPECT_EQ(first.value, "alpha");
    EXPECT_TRUE(first.key.empty());  // GetQ omits the key...
    EXPECT_EQ(first.opaque, 11u);

    BinResponse second;
    ASSERT_GT(binParseResponse(wire.substr(used), second), 0u);
    EXPECT_EQ(second.status, BinStatus::Ok);
    EXPECT_EQ(second.key, "q3");  // ...GetKQ echoes it.
    EXPECT_EQ(second.value, "gamma");
    EXPECT_EQ(second.opaque, 33u);

    // The q2 miss contributed no frame at all.
    EXPECT_EQ(used + binParseResponse(wire.substr(used), second),
              wire.size());
}

TEST_P(BinaryProtocolTest, QuietGetAllMissesSaysNothing)
{
    EXPECT_EQ(binaryExecute(*cache_, 0, binRequest(BinOp::GetQ, "ghost1")),
              "");
    EXPECT_EQ(
        binaryExecute(*cache_, 0, binRequest(BinOp::GetKQ, "ghost2")), "");
    // The loud opcodes answer a miss.
    EXPECT_EQ(binaryExecute(*cache_, 0, binRequest(BinOp::Get, "ghost1")),
              missFrame(BinOp::Get));
}

TEST_P(BinaryProtocolTest, MultiKeyAsciiGetKeepsRequestOrder)
{
    // Three keys on as many shards as the cache has (up to three),
    // written in one order and read in another with a miss between:
    // the hits come back in request order.
    std::vector<std::string> keys;
    std::vector<std::uint32_t> shards;
    const std::uint32_t want = std::min(cache_->shardCount(), 3u);
    for (int i = 0; keys.size() < 3; ++i) {
        const std::string k = "mk" + std::to_string(i);
        const std::uint32_t sh = cache_->shardOf(k.data(), k.size());
        const bool seen =
            std::find(shards.begin(), shards.end(), sh) != shards.end();
        if (seen && shards.size() < want)
            continue;
        shards.push_back(sh);
        keys.push_back(k);
    }
    for (int i = 2; i >= 0; --i) {
        const std::string v(static_cast<std::size_t>(i + 1), 'a' + i);
        ASSERT_EQ(exec(binSetRequest(keys[i], v)).status, BinStatus::Ok);
    }
    auto value = [&](int i) {
        return "VALUE " + keys[i] + " 0 " + std::to_string(i + 1) +
               "\r\n" +
               std::string(static_cast<std::size_t>(i + 1), 'a' + i) +
               "\r\n";
    };
    EXPECT_EQ(protocolExecute(*cache_, 0,
                              "get " + keys[0] + " " + keys[1] +
                                  " absent " + keys[2] + "\r\n"),
              value(0) + value(1) + value(2) + "END\r\n");
    EXPECT_EQ(protocolExecute(*cache_, 0,
                              "get " + keys[2] + " " + keys[0] + " " +
                                  keys[1] + "\r\n"),
              value(2) + value(0) + value(1) + "END\r\n");
}

TEST_P(BinaryProtocolTest, TruncatedFrameReturnsNothing)
{
    const std::string req = binSetRequest("k", "value");
    EXPECT_EQ(binaryExecute(*cache_, 0, req.substr(0, 10)), "");
    EXPECT_EQ(binaryExecute(*cache_, 0, req.substr(0, req.size() - 2)),
              "");
}

INSTANTIATE_TEST_SUITE_P(
    SomeBranches, BinaryProtocolTest,
    ::testing::Combine(::testing::Values("Baseline", "IT-onCommit"),
                       ::testing::Values(1u, 4u)),
    [](const auto &info) {
        std::string n = std::get<0>(info.param);
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n + "_" + std::to_string(std::get<1>(info.param)) + "shard";
    });

TEST(BinaryWorkload, MemslapBinaryModeRuns)
{
    tm::Runtime::get().configure(tm::RuntimeCfg{});
    Settings s;
    s.maxBytes = 32 * 1024 * 1024;
    auto cache = makeShardedCache("IT-onCommit", s, 2);
    workload::MemslapCfg cfg;
    cfg.concurrency = 2;
    cfg.executeNumber = 2000;
    cfg.windowSize = 500;
    cfg.binaryProtocol = true;
    const auto r = runMemslap(*cache, cfg);
    EXPECT_EQ(r.ops, 4000u);
    EXPECT_GT(r.hits, 0u);
    EXPECT_EQ(r.misses, 0u);
    EXPECT_EQ(r.failures, 0u);
}

} // namespace
