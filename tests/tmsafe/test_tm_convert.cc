/**
 * @file
 * Tests for the marshaling-based conversion and formatting functions.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "tm/api.h"
#include "tmsafe/marshal.h"
#include "tmsafe/tm_convert.h"
#include "tmsafe/tm_format.h"

namespace
{

using namespace tmemc;

const tm::TxnAttr attr{"tmconvert:test", tm::TxnKind::Atomic, false};

class TmConvertTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        tm::Runtime::get().configure(tm::RuntimeCfg{});
    }
};

TEST_F(TmConvertTest, StrtoullParsesLikeLibc)
{
    static char buf[64];
    const char *cases[] = {"0",          "18446744073709551615", "123abc",
                           "7",          "  123 tail",           "junk"};
    for (const char *cs : cases) {
        std::strcpy(buf, cs);
        char *libc_end = nullptr;
        const unsigned long long expect = std::strtoull(buf, &libc_end, 10);
        std::size_t consumed = 0;
        const unsigned long long got = tm::run(attr, [&](tm::TxDesc &tx) {
            return tmsafe::tm_strtoull(tx, buf, sizeof(buf), &consumed, 10);
        });
        EXPECT_EQ(got, expect) << cs;
        EXPECT_EQ(consumed, static_cast<std::size_t>(libc_end - buf))
            << cs;
    }
}

TEST_F(TmConvertTest, MaxLenBoundsTheParse)
{
    static char buf[32];
    std::strcpy(buf, "123456");
    const unsigned long long got = tm::run(attr, [&](tm::TxDesc &tx) {
        return tmsafe::tm_strtoull(tx, buf, 3, nullptr, 10);
    });
    EXPECT_EQ(got, 123u);  // Only 3 bytes marshaled.
}

TEST_F(TmConvertTest, SnprintfUllFormats)
{
    static char dst[32];
    std::memset(dst, 0x7f, sizeof(dst));
    const int len = tm::run(attr, [&](tm::TxDesc &tx) {
        return tmsafe::tm_snprintf_ull(tx, dst, sizeof(dst),
                                       18446744073709551615ull);
    });
    EXPECT_EQ(len, 20);
    EXPECT_STREQ(dst, "18446744073709551615");
}

TEST_F(TmConvertTest, SnprintfUllTruncatesLikeLibc)
{
    static char dst[8];
    char expect[8];
    const int elen = std::snprintf(expect, sizeof(expect), "%llu",
                                   123456789ull);
    const int len = tm::run(attr, [&](tm::TxDesc &tx) {
        return tmsafe::tm_snprintf_ull(tx, dst, sizeof(dst), 123456789ull);
    });
    EXPECT_EQ(len, elen);
    EXPECT_STREQ(dst, expect);
}

TEST_F(TmConvertTest, SnprintfStatShapesRow)
{
    static char dst[64];
    tm::run(attr, [&](tm::TxDesc &tx) {
        tmsafe::tm_snprintf_stat(tx, dst, sizeof(dst), "curr_items", 42);
    });
    EXPECT_STREQ(dst, "STAT curr_items 42\r\n");
}

TEST_F(TmConvertTest, MarshalRoundTrip)
{
    static char shared_in[64];
    static char shared_out[64];
    std::strcpy(shared_in, "marshal me");
    tm::run(attr, [&](tm::TxDesc &tx) {
        char stack[64];
        tm::txLoadBytes(tx, stack, shared_in, sizeof(stack));
        // "Pure" private-memory work:
        for (char *p = stack; *p; ++p)
            *p = static_cast<char>(std::toupper(
                static_cast<unsigned char>(*p)));
        tmsafe::marshalOut(tx, shared_out, stack, sizeof(stack));
    });
    EXPECT_STREQ(shared_out, "MARSHAL ME");
}

} // namespace
