/**
 * @file
 * Robustness fuzzing of both protocol layers: random and mutated
 * inputs must never crash or corrupt the cache, only produce error
 * replies.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "mc/binary_protocol.h"
#include "mc/cache_iface.h"
#include "mc/protocol.h"
#include "tm/api.h"

namespace
{

using namespace tmemc;
using namespace tmemc::mc;

std::unique_ptr<CacheIface>
freshCache()
{
    tm::Runtime::get().configure(tm::RuntimeCfg{});
    Settings s;
    s.maxBytes = 8 * 1024 * 1024;
    return makeShardedCache("IT-onCommit", s, 1);
}

TEST(ProtocolFuzz, RandomBytesNeverCrashTextParser)
{
    auto cache = freshCache();
    XorShift128 rng(0xf022);
    for (int i = 0; i < 3000; ++i) {
        const std::size_t len = rng.nextBounded(64);
        std::string req;
        for (std::size_t j = 0; j < len; ++j)
            req.push_back(static_cast<char>(rng.nextBounded(256)));
        const std::string reply = protocolExecute(*cache, 0, req);
        EXPECT_FALSE(reply.empty());
    }
    SUCCEED();
}

TEST(ProtocolFuzz, MutatedValidCommandsNeverCrashTextParser)
{
    auto cache = freshCache();
    XorShift128 rng(0xf023);
    const std::string seeds[] = {
        "set key 0 0 5\r\nhello\r\n", "get key\r\n",
        "incr key 10\r\n",           "delete key\r\n",
        "cas key 0 0 3 42\r\nabc\r\n", "stats\r\n",
    };
    for (int i = 0; i < 3000; ++i) {
        std::string req = seeds[rng.nextBounded(std::size(seeds))];
        const int mutations = 1 + static_cast<int>(rng.nextBounded(4));
        for (int m = 0; m < mutations; ++m) {
            const std::size_t pos = rng.nextBounded(req.size());
            switch (rng.nextBounded(3)) {
              case 0:
                req[pos] = static_cast<char>(rng.nextBounded(256));
                break;
              case 1:
                req.erase(pos, 1);
                break;
              default:
                req.insert(pos, 1,
                           static_cast<char>(rng.nextBounded(256)));
                break;
            }
            if (req.empty())
                req = "x";
        }
        (void)protocolExecute(*cache, 0, req);
    }
    // The cache must still work afterwards.
    EXPECT_EQ(protocolExecute(*cache, 0, "set ok 0 0 2\r\nhi\r\n"),
              "STORED\r\n");
    EXPECT_EQ(protocolExecute(*cache, 0, "get ok\r\n"),
              "VALUE ok 0 2\r\nhi\r\nEND\r\n");
}

TEST(ProtocolFuzz, RandomFramesNeverCrashBinaryParser)
{
    auto cache = freshCache();
    XorShift128 rng(0xb17a);
    for (int i = 0; i < 3000; ++i) {
        const std::size_t len = rng.nextBounded(80);
        std::string req;
        for (std::size_t j = 0; j < len; ++j)
            req.push_back(static_cast<char>(rng.nextBounded(256)));
        (void)binaryExecute(*cache, 0, req);
    }
    SUCCEED();
}

TEST(ProtocolFuzz, MutatedValidFramesNeverCrashBinaryParser)
{
    auto cache = freshCache();
    XorShift128 rng(0xb17b);
    for (int i = 0; i < 3000; ++i) {
        std::string req = binSetRequest(
            "k" + std::to_string(rng.nextBounded(10)), "some-value");
        // Flip header and body bytes; mutated length fields that claim
        // more bytes than the buffer holds are exactly what the parser
        // must reject safely.
        const int flips = 1 + static_cast<int>(rng.nextBounded(6));
        for (int f = 0; f < flips; ++f) {
            const std::size_t pos = rng.nextBounded(req.size());
            req[pos] = static_cast<char>(rng.nextBounded(256));
        }
        (void)binaryExecute(*cache, 0, req);
    }
    // Still functional.
    BinResponse r;
    const std::string wire =
        binaryExecute(*cache, 0, binSetRequest("fine", "v"));
    ASSERT_GT(binParseResponse(wire, r), 0u);
    EXPECT_EQ(r.status, BinStatus::Ok);
}

TEST(ProtocolFuzz, HeaderLengthFieldLiesAreRejected)
{
    auto cache = freshCache();
    // keyLength > bodyLength: extras/key/value arithmetic must not
    // underflow.
    BinHeader h;
    h.magic = static_cast<std::uint8_t>(BinMagic::Request);
    h.opcode = static_cast<std::uint8_t>(BinOp::Get);
    h.keyLength = 100;
    h.extrasLength = 0;
    h.bodyLength = 4;  // Less than keyLength!
    std::string req(kBinHeaderSize + 4, '\0');
    binEncodeHeader(h, reinterpret_cast<std::uint8_t *>(req.data()));
    (void)binaryExecute(*cache, 0, req);  // Must not crash.
    SUCCEED();
}

} // namespace
