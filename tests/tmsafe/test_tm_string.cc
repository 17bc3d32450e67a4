/**
 * @file
 * Extensional-equivalence tests: every tmsafe function must agree with
 * its libc counterpart, both the transactional clone (inside a
 * transaction) and the naive non-transactional clone.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "tm/api.h"
#include "tmsafe/tm_string.h"

namespace
{

using namespace tmemc;

const tm::TxnAttr attr{"tmsafe:test", tm::TxnKind::Atomic, false};

class TmStringTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        tm::Runtime::get().configure(tm::RuntimeCfg{});
    }
};

TEST_F(TmStringTest, MemcpyMatchesLibc)
{
    static char src[257];
    static char dst[257];
    XorShift128 rng(1);
    for (int round = 0; round < 50; ++round) {
        const std::size_t n = rng.nextBounded(256) + 1;
        for (std::size_t i = 0; i < n; ++i)
            src[i] = static_cast<char>(rng.next());
        std::memset(dst, 0, sizeof(dst));
        tm::run(attr, [&](tm::TxDesc &tx) {
            tmsafe::tm_memcpy(tx, dst, src, n);
        });
        EXPECT_EQ(std::memcmp(dst, src, n), 0);
    }
}

TEST_F(TmStringTest, MemmoveHandlesOverlapBothWays)
{
    static char buf[128];
    // Forward overlap (dst > src).
    for (int i = 0; i < 64; ++i)
        buf[i] = static_cast<char>('A' + i % 26);
    char expect[128];
    std::memcpy(expect, buf, sizeof(buf));
    std::memmove(expect + 10, expect, 50);
    tm::run(attr, [&](tm::TxDesc &tx) {
        tmsafe::tm_memmove(tx, buf + 10, buf, 50);
    });
    EXPECT_EQ(std::memcmp(buf, expect, 64), 0);

    // Backward overlap (dst < src).
    for (int i = 0; i < 64; ++i)
        buf[i] = static_cast<char>('a' + i % 26);
    std::memcpy(expect, buf, sizeof(buf));
    std::memmove(expect, expect + 7, 40);
    tm::run(attr, [&](tm::TxDesc &tx) {
        tmsafe::tm_memmove(tx, buf, buf + 7, 40);
    });
    EXPECT_EQ(std::memcmp(buf, expect, 64), 0);
}

TEST_F(TmStringTest, MemcmpSignMatchesLibc)
{
    static char a[64];
    static char b[64];
    XorShift128 rng(2);
    for (int round = 0; round < 200; ++round) {
        const std::size_t n = rng.nextBounded(63) + 1;
        for (std::size_t i = 0; i < n; ++i) {
            a[i] = static_cast<char>(rng.nextBounded(4));
            b[i] = static_cast<char>(rng.nextBounded(4));
        }
        const int expect = std::memcmp(a, b, n);
        const int got = tm::run(attr, [&](tm::TxDesc &tx) {
            return tmsafe::tm_memcmp(tx, a, b, n);
        });
        EXPECT_EQ(got < 0, expect < 0);
        EXPECT_EQ(got > 0, expect > 0);
        EXPECT_EQ(got == 0, expect == 0);
        EXPECT_EQ(tmsafe::naive_memcmp(a, b, n) == 0, expect == 0);
    }
    // A private key may be a short literal: only the shared side is
    // read word-wide (ASan flags a read past the literal).
    std::memcpy(a, "k1", 2);
    EXPECT_EQ(tm::run(attr,
                      [&](tm::TxDesc &tx) {
                          return tmsafe::tm_memcmp(tx, a, "k1", 2);
                      }),
              0);
}

TEST_F(TmStringTest, TransactionalCopyIsAtomicUnderAbort)
{
    // If the transaction aborts after tm_memcpy, the destination must
    // be fully restored (direct-update undo covers byte-granular ops).
    static char dst[64];
    std::memset(dst, 'o', sizeof(dst));
    char snapshot[64];
    std::memcpy(snapshot, dst, sizeof(dst));
    int attempts = 0;
    tm::run(attr, [&](tm::TxDesc &tx) {
        if (++attempts == 1) {
            char src[64];
            std::memset(src, 'n', sizeof(src));
            tmsafe::tm_memcpy(tx, dst, src, sizeof(src));
            throw tm::TxAbort{};
        }
    });
    EXPECT_EQ(std::memcmp(dst, snapshot, sizeof(dst)), 0);
}

} // namespace
