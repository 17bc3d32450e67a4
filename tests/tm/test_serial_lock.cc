/**
 * @file
 * Unit tests for the per-domain readers/writer serialization lock,
 * whose readers register in their own descriptors.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/thread_slot.h"
#include "tm/api.h"

namespace
{

using tmemc::tm::TxDesc;
using tmemc::tm::TxDomain;

/**
 * Enter read mode the way a speculative begin does: publish a start in
 * @p dom (the registration), then ask its lock to admit it.
 */
void
readLock(TxDomain &dom)
{
    TxDesc &d = tmemc::tm::myDesc();
    d.domain.store(&dom, std::memory_order_relaxed);
    do
        d.publishStart(0);
    while (!dom.serialLock.admitReader(d));
}

void
readUnlock()
{
    tmemc::tm::myDesc().unpublishStart();
}

void
pause()
{
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

TEST(SerialLock, ReadersShare)
{
    TxDomain dom(8);
    readLock(dom);
    std::thread other([&] {
        readLock(dom);
        readUnlock();
    });
    other.join();
    readUnlock();
    EXPECT_FALSE(dom.serialLock.writeHeld());
}

TEST(SerialLock, WriterExcludesReaders)
{
    TxDomain dom(8);
    std::atomic<bool> writer_in{false};
    std::atomic<bool> reader_done{false};

    dom.serialLock.writeLock();
    writer_in = true;
    std::thread reader([&] {
        readLock(dom);
        EXPECT_FALSE(writer_in.load());
        readUnlock();
        reader_done = true;
    });
    pause();
    EXPECT_FALSE(reader_done.load());
    writer_in = false;
    dom.serialLock.writeUnlock();
    reader.join();
    EXPECT_TRUE(reader_done.load());
}

TEST(SerialLock, WriterWaitsForReaders)
{
    TxDomain dom(8);
    std::atomic<bool> writer_acquired{false};
    readLock(dom);
    std::thread writer([&] {
        dom.serialLock.writeLock();
        writer_acquired = true;
        dom.serialLock.writeUnlock();
    });
    pause();
    EXPECT_FALSE(writer_acquired.load());
    readUnlock();
    writer.join();
    EXPECT_TRUE(writer_acquired.load());
}

TEST(SerialLock, ReaderInOtherDomainDoesNotBlockWriter)
{
    TxDomain a(8);
    TxDomain b(8);
    readLock(a);
    std::atomic<bool> b_acquired{false};
    std::thread writer([&] {
        b.serialLock.writeLock();
        b_acquired = true;
        b.serialLock.writeUnlock();
    });
    writer.join();
    EXPECT_TRUE(b_acquired.load());
    readUnlock();
}

TEST(SerialLock, ExitedThreadLeavesNoRegistration)
{
    TxDomain dom(8);
    std::size_t first = 0;
    std::thread([&] {
        first = tmemc::thread_slot::index();
        readLock(dom);
        readUnlock();
    }).join();
    // The next thread takes over the same slot, and with it the
    // descriptor; it runs nothing in dom.
    std::atomic<std::size_t> second{~std::size_t{0}};
    std::atomic<bool> release{false};
    std::thread reuser([&] {
        second = tmemc::thread_slot::index();
        while (!release.load())
            std::this_thread::yield();
    });
    while (second.load() == ~std::size_t{0})
        std::this_thread::yield();
    EXPECT_EQ(second.load(), first);
    dom.serialLock.writeLock();  // Would hang on a leftover registration.
    dom.serialLock.writeUnlock();
    release = true;
    reuser.join();
}

TEST(SerialLock, ConcurrentCountersUnderReadLock)
{
    TxDomain dom(8);
    constexpr int threads = 4;
    constexpr int per = 20000;
    std::atomic<int> shared{0};
    int exclusively_counted = 0;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&] {
            for (int i = 0; i < per; ++i) {
                if (i % 1000 == 0) {
                    dom.serialLock.writeLock();
                    ++exclusively_counted;  // Safe: exclusive.
                    dom.serialLock.writeUnlock();
                } else {
                    readLock(dom);
                    shared.fetch_add(1);
                    readUnlock();
                }
            }
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(exclusively_counted, threads * (per / 1000));
    EXPECT_EQ(shared.load(), threads * (per - per / 1000));
}

} // namespace
