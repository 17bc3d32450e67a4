/**
 * @file
 * Event-loop implementation over level-triggered epoll.
 */

#include "net/event_loop.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include "common/logging.h"
#include "net/sys.h"
#include "tm/api.h"

namespace tmemc::net
{

namespace
{

/** Register @p fd for input. @return false on kernel refusal. */
bool
epollAdd(int epfd, int fd)
{
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    return ::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) == 0;
}

} // namespace

EventLoop::EventLoop(std::uint32_t worker_id, ExecFn exec, ConnLimits limits,
                     std::uint32_t idle_timeout_ms, NetCounters &counters)
    : worker_(worker_id), exec_(std::move(exec)), limits_(limits),
      idleTimeoutMs_(idle_timeout_ms), counters_(counters)
{
}

EventLoop::~EventLoop()
{
    stop();
}

bool
EventLoop::start()
{
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    wakefd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (epfd_ < 0 || wakefd_ < 0 || !epollAdd(epfd_, wakefd_)) {
        closeFds();
        return false;
    }
    thread_ = std::thread([this] { run(); });
    return true;
}

void
EventLoop::stop()
{
    if (!thread_.joinable())
        return;
    stopping_.store(true, std::memory_order_release);
    wakeup();
    thread_.join();
    conns_.clear();
    open_.store(0, std::memory_order_relaxed);
    {
        // Sockets handed over but never adopted still need closing.
        std::lock_guard<std::mutex> guard(pendingMu_);
        for (int fd : pending_)
            ::close(fd);
        pending_.clear();
    }
    closeFds();
}

void
EventLoop::closeFds()
{
    if (wakefd_ >= 0)
        ::close(wakefd_);
    if (epfd_ >= 0)
        ::close(epfd_);
    wakefd_ = -1;
    epfd_ = -1;
}

void
EventLoop::adopt(int fd)
{
    {
        std::lock_guard<std::mutex> guard(pendingMu_);
        pending_.push_back(fd);
    }
    wakeup();
}

void
EventLoop::beginDrain()
{
    draining_.store(true, std::memory_order_release);
    wakeup();
}

void
EventLoop::wakeup()
{
    const std::uint64_t one = 1;
    // A full eventfd counter still wakes the loop; ignore EAGAIN.
    [[maybe_unused]] ssize_t n = ::write(wakefd_, &one, sizeof(one));
}

void
EventLoop::adoptPending()
{
    std::vector<int> batch;
    {
        std::lock_guard<std::mutex> guard(pendingMu_);
        batch.swap(pending_);
    }
    for (int fd : batch) {
        if (!epollAdd(epfd_, fd)) {
            ::close(fd);
            continue;
        }
        auto conn = std::make_unique<Conn>(fd, nextConnId_++, limits_);
        conn->evFlags = EPOLLIN;
        conns_.emplace(fd, std::move(conn));
        open_.fetch_add(1, std::memory_order_relaxed);
        counters_.currConnections.fetch_add(1, std::memory_order_relaxed);
    }
}

void
EventLoop::closeConn(int fd)
{
    auto it = conns_.find(fd);
    if (it == conns_.end())
        return;
    served_.fetch_add(it->second->requestsServed(),
                      std::memory_order_relaxed);
    if (it->second->closeReason() == CloseReason::Backpressure)
        counters_.backpressureCloses.fetch_add(1,
                                               std::memory_order_relaxed);
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
    conns_.erase(it);  // Conn destructor closes the fd.
    open_.fetch_sub(1, std::memory_order_relaxed);
    counters_.currConnections.fetch_sub(1, std::memory_order_relaxed);
}

void
EventLoop::reapIdle()
{
    if (idleTimeoutMs_ == 0)
        return;
    const auto now = std::chrono::steady_clock::now();
    const auto deadline = std::chrono::milliseconds(idleTimeoutMs_);
    std::vector<int> expired;
    for (const auto &kv : conns_)
        if (now - kv.second->lastActivity() >= deadline)
            expired.push_back(kv.first);
    for (int fd : expired) {
        closeConn(fd);
        counters_.idleKicks.fetch_add(1, std::memory_order_relaxed);
    }
}

void
EventLoop::retireDrained()
{
    std::vector<int> done;
    for (const auto &kv : conns_)
        if (!kv.second->wantsWrite())
            done.push_back(kv.first);
    for (int fd : done)
        closeConn(fd);
}

void
EventLoop::updateInterest(Conn &c)
{
    const std::uint32_t want = (c.wantsRead() ? EPOLLIN : 0u) |
                               (c.wantsWrite() ? EPOLLOUT : 0u);
    if (want == c.evFlags)
        return;  // Unchanged: no syscall (memcached's update_event).
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = c.fd();
    if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, c.fd(), &ev) == 0)
        c.evFlags = want;
}

void
EventLoop::run()
{
    // Register with the TM runtime before any traffic, so the
    // thread's descriptor exists for the whole serving lifetime
    // rather than materializing inside the first transaction.
    tm::myDesc();

    // The wait timeout doubles as the idle-reaper tick: short enough
    // that a connection overstays its deadline by at most ~25%.
    int timeout_ms = 100;
    if (idleTimeoutMs_ > 0)
        timeout_ms = std::clamp(static_cast<int>(idleTimeoutMs_ / 4), 1,
                                timeout_ms);

    epoll_event events[64];
    while (!stopping_.load(std::memory_order_acquire)) {
        int n = sys::epollWait(epfd_, events,
                               static_cast<int>(std::size(events)),
                               timeout_ms);
        if (n < 0) {
            if (errno != EINTR)
                break;
            n = 0;
        }
        adoptPending();
        const bool draining = draining_.load(std::memory_order_acquire);
        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            const std::uint32_t ev = events[i].events;
            const bool readable = (ev & EPOLLIN) != 0;
            const bool writable = (ev & EPOLLOUT) != 0;
            if (fd == wakefd_) {
                std::uint64_t drain;
                [[maybe_unused]] ssize_t r =
                    ::read(wakefd_, &drain, sizeof(drain));
                adoptPending();
                continue;
            }
            auto it = conns_.find(fd);
            if (it == conns_.end())
                continue;
            Conn &c = *it->second;
            bool alive = true;
            if ((ev & ~(EPOLLIN | EPOLLOUT)) != 0) {
                // Hang-up or error (epoll reports both unasked). Let
                // a readable-but-hung-up socket drain its final
                // bytes; a pure error closes immediately.
                alive = readable;
            }
            if (draining) {
                // No new requests; just push queued replies out.
                if (alive && writable)
                    alive = c.flushOnly();
            } else {
                if (alive && readable)
                    alive = c.onReadable(worker_, exec_);
                if (alive && writable)
                    alive = c.onWritable(worker_, exec_);
            }
            if (!alive) {
                closeConn(fd);
                continue;
            }
            updateInterest(c);
        }
        if (draining) {
            retireDrained();
            if (conns_.empty()) {
                std::lock_guard<std::mutex> guard(pendingMu_);
                if (pending_.empty())
                    break;  // Nothing owed; let stop() join us.
            }
        } else {
            reapIdle();
        }
    }
    // Drain on exit so lingering clients see clean closes.
    for (auto &kv : conns_)
        served_.fetch_add(kv.second->requestsServed(),
                          std::memory_order_relaxed);
    counters_.currConnections.fetch_sub(conns_.size(),
                                        std::memory_order_relaxed);
    conns_.clear();
    open_.store(0, std::memory_order_relaxed);
}

} // namespace tmemc::net
