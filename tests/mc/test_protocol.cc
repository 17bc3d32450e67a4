/**
 * @file
 * Tests for the text-protocol layer.
 */

#include <gtest/gtest.h>

#include <string>

#include "mc/cache_iface.h"
#include "mc/protocol.h"
#include "tm/api.h"

namespace
{

using namespace tmemc;
using namespace tmemc::mc;

class ProtocolTest : public ::testing::TestWithParam<std::string>
{
  protected:
    void
    SetUp() override
    {
        tm::Runtime::get().configure(tm::RuntimeCfg{});
        Settings s;
        s.maxBytes = 8 * 1024 * 1024;
        cache_ = makeCache(GetParam(), s, 2);
        ASSERT_NE(cache_, nullptr);
    }

    std::string
    exec(const std::string &req)
    {
        return protocolExecute(*cache_, 0, req);
    }

    std::unique_ptr<CacheIface> cache_;
};

TEST_P(ProtocolTest, SetAndGet)
{
    EXPECT_EQ(exec("set greet 0 0 5\r\nhello\r\n"), "STORED\r\n");
    EXPECT_EQ(exec("get greet\r\n"),
              "VALUE greet 0 5\r\nhello\r\nEND\r\n");
}

TEST_P(ProtocolTest, GetMissEndsImmediately)
{
    EXPECT_EQ(exec("get nothing\r\n"), "END\r\n");
}

TEST_P(ProtocolTest, AddReplaceSemantics)
{
    EXPECT_EQ(exec("add k 0 0 1\r\na\r\n"), "STORED\r\n");
    EXPECT_EQ(exec("add k 0 0 1\r\nb\r\n"), "NOT_STORED\r\n");
    EXPECT_EQ(exec("replace k 0 0 1\r\nc\r\n"), "STORED\r\n");
    EXPECT_EQ(exec("replace zz 0 0 1\r\nd\r\n"), "NOT_STORED\r\n");
    EXPECT_EQ(exec("get k\r\n"), "VALUE k 0 1\r\nc\r\nEND\r\n");
}

TEST_P(ProtocolTest, GetsReturnsCasAndCasStores)
{
    EXPECT_EQ(exec("set c 0 0 2\r\nv1\r\n"), "STORED\r\n");
    const std::string reply = exec("gets c\r\n");
    // "VALUE c 0 2 <cas>\r\nv1\r\nEND\r\n"
    ASSERT_EQ(reply.rfind("VALUE c 0 2 ", 0), 0u);
    const std::size_t eol = reply.find("\r\n");
    const std::string cas = reply.substr(12, eol - 12);
    EXPECT_EQ(exec("cas c 0 0 2 " + cas + "\r\nv2\r\n"), "STORED\r\n");
    EXPECT_EQ(exec("cas c 0 0 2 " + cas + "\r\nv3\r\n"), "EXISTS\r\n");
    EXPECT_EQ(exec("cas zz 0 0 1 1\r\nx\r\n"), "NOT_FOUND\r\n");
}

TEST_P(ProtocolTest, StorageExptimeSetInsideTheStore)
{
    // The expiry rides on the store itself: no follow-up TOUCH, so no
    // phantom touch hit, and the item still expires.
    EXPECT_EQ(exec("set k 0 1 1\r\nx\r\n"), "STORED\r\n");
    EXPECT_EQ(cache_->threadStats().touchHits, 0u);
    std::string reply = "VALUE";
    for (int i = 0; i < 100000 && reply != "END\r\n"; ++i)
        reply = exec("get k\r\n");
    EXPECT_EQ(reply, "END\r\n");
    EXPECT_GE(cache_->globalStats().expiredUnfetched, 1u);
}

TEST_P(ProtocolTest, AppendPrepend)
{
    EXPECT_EQ(exec("append m 0 0 1\r\nx\r\n"), "NOT_STORED\r\n");
    exec("set m 0 0 3\r\nmid\r\n");
    EXPECT_EQ(exec("append m 0 0 4\r\n-end\r\n"), "STORED\r\n");
    EXPECT_EQ(exec("prepend m 0 0 4\r\npre-\r\n"), "STORED\r\n");
    EXPECT_EQ(exec("get m\r\n"),
              "VALUE m 0 11\r\npre-mid-end\r\nEND\r\n");
}

TEST_P(ProtocolTest, DeleteReports)
{
    exec("set d 0 0 1\r\nx\r\n");
    EXPECT_EQ(exec("delete d\r\n"), "DELETED\r\n");
    EXPECT_EQ(exec("delete d\r\n"), "NOT_FOUND\r\n");
}

TEST_P(ProtocolTest, IncrDecr)
{
    exec("set n 0 0 2\r\n40\r\n");
    EXPECT_EQ(exec("incr n 2\r\n"), "42\r\n");
    EXPECT_EQ(exec("decr n 40\r\n"), "2\r\n");
    EXPECT_EQ(exec("decr n 50\r\n"), "0\r\n");
    EXPECT_EQ(exec("incr missing 1\r\n"), "NOT_FOUND\r\n");
}

TEST_P(ProtocolTest, StatsAndVersionAndFlush)
{
    exec("set s 0 0 1\r\nx\r\n");
    const std::string stats = exec("stats\r\n");
    EXPECT_NE(stats.find("STAT curr_items 1\r\n"), std::string::npos);
    EXPECT_NE(stats.find("END\r\n"), std::string::npos);
    const std::string version = exec("version\r\n");
    EXPECT_EQ(version.rfind("VERSION ", 0), 0u);
    EXPECT_EQ(exec("flush_all\r\n"), "OK\r\n");
    EXPECT_EQ(exec("get s\r\n"), "END\r\n");
}

TEST_P(ProtocolTest, MalformedInputsRejected)
{
    EXPECT_EQ(exec(""), "ERROR\r\n");
    EXPECT_EQ(exec("\r\n"), "ERROR\r\n");
    EXPECT_EQ(exec("bogus cmd\r\n"), "ERROR\r\n");
    EXPECT_EQ(exec("get\r\n"), "ERROR\r\n");
    EXPECT_EQ(exec("set k 0 0\r\n"), "ERROR\r\n");
    // Declared more bytes than provided.
    EXPECT_EQ(exec("set k 0 0 10\r\nabc\r\n"),
              "CLIENT_ERROR bad data chunk\r\n");
    EXPECT_EQ(exec("incr n\r\n"), "ERROR\r\n");
}

INSTANTIATE_TEST_SUITE_P(SomeBranches, ProtocolTest,
                         ::testing::Values("Baseline", "IP-Callable",
                                           "IT-onCommit"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

} // namespace
