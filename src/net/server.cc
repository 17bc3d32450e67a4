/**
 * @file
 * Server implementation: socket setup, accept loop, worker fan-out,
 * overload shedding, and the stats splice.
 */

#include "net/server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "mc/binary_protocol.h"
#include "mc/protocol.h"
#include "net/sys.h"
#include "obs/metrics.h"
#include "obs/tail.h"

namespace tmemc::net
{

namespace
{

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** How long a rejected socket may linger before being forced shut. */
constexpr std::chrono::milliseconds kRejectLinger{250};

constexpr char kTooManyConns[] = "SERVER_ERROR too many connections\r\n";

/** ASCII OOM replies all share this prefix (store + realloc paths). */
constexpr char kAsciiOomPrefix[] = "SERVER_ERROR out of memory";

/** Did this reply report an out-of-memory failure? */
bool
replyIsOom(bool binary, const std::string &reply)
{
    if (binary) {
        // One response header per request frame; status lives at
        // bytes 6..7 (network order).
        return reply.size() >= mc::kBinHeaderSize &&
               static_cast<std::uint8_t>(reply[0]) ==
                   static_cast<std::uint8_t>(mc::BinMagic::Response) &&
               static_cast<std::uint8_t>(reply[6]) == 0x00 &&
               static_cast<std::uint8_t>(reply[7]) ==
                   (static_cast<std::uint16_t>(
                        mc::BinStatus::OutOfMemory) &
                    0xff);
    }
    return reply.compare(0, sizeof(kAsciiOomPrefix) - 1,
                         kAsciiOomPrefix) == 0;
}

/** Is this ASCII frame a `stats` command (bare or with args)? */
bool
frameIsStats(const std::string &frame)
{
    return frame.compare(0, 5, "stats") == 0;
}

/** Is this ASCII frame the `metrics` admin command? */
bool
frameIsMetrics(const std::string &frame)
{
    return frame == "metrics\r\n" || frame == "metrics\n";
}

/** Is this ASCII frame the `tail` admin command? */
bool
frameIsTail(const std::string &frame)
{
    return frame == "tail\r\n" || frame == "tail\n";
}

} // namespace

Server::Server(mc::CacheIface &cache, ServerCfg cfg)
    : cache_(cache), cfg_(std::move(cfg))
{
    if (cfg_.workers == 0)
        cfg_.workers = 1;
}

Server::~Server()
{
    // Unregister first: once this returns, no snapshot can be running
    // the "net" source, so the teardown below cannot race with it.
    if (metricsToken_ != 0) {
        obs::MetricsRegistry::get().unregisterSource(metricsToken_);
        metricsToken_ = 0;
    }
    stop();
}

bool
Server::start()
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        return false;
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg_.port);
    if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
        stop();
        return false;
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd_, cfg_.backlog) != 0 ||
        !setNonBlocking(listenFd_)) {
        stop();
        return false;
    }
    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&bound),
                      &blen) != 0) {
        stop();
        return false;
    }
    port_ = ntohs(bound.sin_port);

    ExecFn exec = [this](std::uint32_t worker, bool binary,
                         const std::string &frame, std::string &out) {
        if (!binary && frameIsMetrics(frame)) {
            // Admin command: the whole metrics snapshot as one JSON
            // line. Served here, not in protocol.cc, so it exists
            // only where a server (and its net counters) exists.
            out.append(obs::MetricsRegistry::get().snapshot().toJson() +
                       "\r\nEND\r\n");
            return;
        }
        if (!binary && frameIsTail(frame)) {
            // The tail tracer's merged reservoir as one
            // tmemc-tail-v1 JSON line — the same document
            // --tail-json writes at exit, fetchable live.
            out.append(obs::tail::tailToJson() + "\r\nEND\r\n");
            return;
        }
        std::string reply =
            binary ? mc::binaryExecute(cache_, worker, frame)
                   : mc::protocolExecute(cache_, worker, frame);
        if (replyIsOom(binary, reply))
            counters_.oomErrors.fetch_add(1, std::memory_order_relaxed);
        if (!binary && frameIsStats(frame) && reply.size() >= 5 &&
            reply.compare(reply.size() - 5, 5, "END\r\n") == 0) {
            // Splice the server-level STAT lines in front of the
            // cache's trailing END so clients see one stats block.
            reply.insert(reply.size() - 5, statsLines());
        }
        out.append(reply);
    };
    for (std::uint32_t w = 0; w < cfg_.workers; ++w) {
        loops_.push_back(std::make_unique<EventLoop>(
            w, exec, cfg_.limits, cfg_.idleTimeoutMs, counters_));
        if (!loops_.back()->start()) {
            stop();
            return false;
        }
    }
    // The source stays registered across stop() — the counters and
    // servedFinal_ stay valid after teardown, so a metrics dump taken
    // after drain() still carries the final net totals. It is dropped
    // in the destructor, behind the unregister barrier.
    if (metricsToken_ == 0) {
        metricsToken_ = obs::MetricsRegistry::get().registerSource(
            "net", [this] {
                const NetStats s = netStats();
                return std::vector<obs::Counter>{
                    {"curr_connections", s.currConnections},
                    {"total_connections", s.totalConnections},
                    {"rejected_connections", s.rejectedConnections},
                    {"idle_kicks", s.idleKicks},
                    {"backpressure_closes", s.backpressureCloses},
                    {"oom_errors", s.oomErrors},
                    {"accept_failures", s.acceptFailures},
                    {"requests_served", requestsServed()},
                };
            });
    }
    stopping_.store(false, std::memory_order_release);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
Server::stop()
{
    stopping_.store(true, std::memory_order_release);
    if (acceptThread_.joinable())
        acceptThread_.join();
    for (auto &loop : loops_) {
        loop->stop();
        servedFinal_.fetch_add(loop->requestsServed(),
                               std::memory_order_relaxed);
    }
    loops_.clear();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
}

bool
Server::drain(std::uint32_t deadline_ms)
{
    // Phase 1: no new connections. Joining the accept thread also
    // retires any lingering rejected sockets (sweepRejected(force)).
    stopping_.store(true, std::memory_order_release);
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);  // Late connectors get a refusal, not a hang.
        listenFd_ = -1;
    }

    // Phase 2: let every loop flush what it owes.
    for (auto &loop : loops_)
        loop->beginDrain();
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(deadline_ms);
    bool drained = false;
    for (;;) {
        if (openConnections() == 0) {
            drained = true;
            break;
        }
        if (std::chrono::steady_clock::now() >= deadline)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    // Phase 3: tear down (forces whatever the deadline cut off).
    stop();
    return drained;
}

std::uint64_t
Server::requestsServed() const
{
    std::uint64_t total = servedFinal_.load(std::memory_order_relaxed);
    for (const auto &loop : loops_)
        total += loop->requestsServed();
    return total;
}

std::size_t
Server::openConnections() const
{
    std::size_t total = 0;
    for (const auto &loop : loops_)
        total += loop->openConnections();
    return total;
}

NetStats
Server::netStats() const
{
    NetStats s;
    s.currConnections =
        counters_.currConnections.load(std::memory_order_relaxed);
    s.totalConnections =
        counters_.totalConnections.load(std::memory_order_relaxed);
    s.rejectedConnections =
        counters_.rejectedConnections.load(std::memory_order_relaxed);
    s.idleKicks = counters_.idleKicks.load(std::memory_order_relaxed);
    s.backpressureCloses =
        counters_.backpressureCloses.load(std::memory_order_relaxed);
    s.oomErrors = counters_.oomErrors.load(std::memory_order_relaxed);
    s.acceptFailures =
        counters_.acceptFailures.load(std::memory_order_relaxed);
    return s;
}

std::string
Server::statsLines() const
{
    const NetStats s = netStats();
    char buf[512];
    const int n = std::snprintf(
        buf, sizeof(buf),
        "STAT curr_connections %llu\r\n"
        "STAT total_connections %llu\r\n"
        "STAT rejected_connections %llu\r\n"
        "STAT idle_kicks %llu\r\n"
        "STAT backpressure_closes %llu\r\n"
        "STAT oom_errors %llu\r\n"
        "STAT accept_failures %llu\r\n",
        static_cast<unsigned long long>(s.currConnections),
        static_cast<unsigned long long>(s.totalConnections),
        static_cast<unsigned long long>(s.rejectedConnections),
        static_cast<unsigned long long>(s.idleKicks),
        static_cast<unsigned long long>(s.backpressureCloses),
        static_cast<unsigned long long>(s.oomErrors),
        static_cast<unsigned long long>(s.acceptFailures));
    return n > 0 ? std::string(buf, static_cast<std::size_t>(n))
                 : std::string();
}

void
Server::rejectConn(int fd)
{
    // Counted before the client can see the rejection, so a client
    // that has read the error also sees it in `stats`.
    counters_.rejectedConnections.fetch_add(1, std::memory_order_relaxed);
    // Best-effort single write: the socket buffer of a fresh
    // connection always has room for one short error line.
    [[maybe_unused]] ssize_t n =
        ::send(fd, kTooManyConns, sizeof(kTooManyConns) - 1,
               MSG_NOSIGNAL);
    // Half-close so the client reads the error then a clean FIN; a
    // straight close() while its request bytes sit unread would RST
    // and can destroy the error in the peer's receive buffer.
    ::shutdown(fd, SHUT_WR);
    rejected_.push_back(
        {fd, std::chrono::steady_clock::now() + kRejectLinger});
}

void
Server::sweepRejected(bool force)
{
    auto it = rejected_.begin();
    const auto now = std::chrono::steady_clock::now();
    while (it != rejected_.end()) {
        bool done = force || now >= it->deadline;
        if (!done) {
            // Drain and detect the peer's FIN without blocking.
            char scratch[1024];
            const ssize_t n =
                ::recv(it->fd, scratch, sizeof(scratch), MSG_DONTWAIT);
            done = n == 0 ||
                   (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                    errno != EINTR);
        }
        if (done) {
            ::close(it->fd);
            it = rejected_.erase(it);
        } else {
            ++it;
        }
    }
}

void
Server::acceptLoop()
{
    while (!stopping_.load(std::memory_order_acquire)) {
        pollfd pfd{listenFd_, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, 50);
        sweepRejected(false);
        if (pr <= 0) {
            if (pr < 0 && errno != EINTR)
                break;
            continue;
        }
        for (;;) {
            const int fd = sys::acceptConn(
                listenFd_, SOCK_NONBLOCK | SOCK_CLOEXEC);
            if (fd < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK ||
                    errno == EINTR)
                    break;
                // EMFILE/ENFILE and kin: count, shed, keep listening.
                counters_.acceptFailures.fetch_add(
                    1, std::memory_order_relaxed);
                break;
            }
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
            if (cfg_.maxConns != 0 &&
                counters_.currConnections.load(
                    std::memory_order_relaxed) >= cfg_.maxConns) {
                // Accept-pause: reject this client politely and stop
                // pulling from the backlog until the next poll tick.
                rejectConn(fd);
                break;
            }
            counters_.totalConnections.fetch_add(
                1, std::memory_order_relaxed);
            loops_[rr_ % loops_.size()]->adopt(fd);
            ++rr_;
        }
    }
    sweepRejected(true);
}

} // namespace tmemc::net
