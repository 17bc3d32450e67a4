/**
 * @file
 * The TCP front end: a listening socket, an accept thread, and N
 * worker event loops serving the memcached protocols over any cache
 * branch.
 *
 * Layout mirrors memcached: the dispatcher (here: the accept thread)
 * accepts connections and assigns them round-robin to worker threads;
 * each worker runs an event loop and executes requests against the
 * shared cache under its own worker tid. Both protocols are served on
 * the same port, distinguished per frame by the binary magic byte.
 *
 * Overload resilience (all knobs in ServerCfg):
 *  - maxConns: past the limit the listener still accepts, writes
 *    "SERVER_ERROR too many connections\r\n", half-closes, and parks
 *    the socket on a short linger list so the client reads the error
 *    instead of an RST (memcached's conn-limit behaviour), then
 *    pauses the accept burst;
 *  - idleTimeoutMs / ConnLimits: enforced by the event loops;
 *  - drain(): graceful shutdown — stop accepting, flush every queued
 *    reply, bounded by a deadline.
 * Every shed path increments a NetCounters field; the counters are
 * served as server-level STAT lines spliced into ASCII `stats`
 * replies and snapshotted via netStats(). While the server runs they
 * are also registered with obs::MetricsRegistry under the "net_"
 * prefix, and the ASCII admin command `metrics` returns the whole
 * registry snapshot as one JSON line followed by END.
 *
 * The server borrows the cache — benchmarks build a cache for a
 * specific branch (makeShardedCache) and inspect its statistics after the
 * run. The cache must have been built for at least `workers` worker
 * threads, because loop i issues cache calls with tid i.
 */

#ifndef TMEMC_NET_SERVER_H
#define TMEMC_NET_SERVER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mc/cache_iface.h"
#include "net/event_loop.h"

namespace tmemc::net
{

/**
 * The one I/O backend: level-triggered epoll readiness, replies
 * flushed from each connection's write buffer with write(2). Kept
 * with ServerCfg::ioBackend only because tmemc-bench assigns both;
 * the server reads neither.
 */
enum class IoBackend : std::uint8_t
{
    Epoll,
};

/** Server knobs. */
struct ServerCfg
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  //!< 0 = ephemeral; read back via port().
    std::uint32_t workers = 4;
    int backlog = 1024;
    /** Open-connection ceiling; 0 = unlimited. Beyond it new clients
     *  get a polite SERVER_ERROR and a lingering close. */
    std::uint32_t maxConns = 0;
    /** Reap connections idle this long; 0 = never. */
    std::uint32_t idleTimeoutMs = 0;
    /** Per-connection byte budgets (defaults in ConnLimits). */
    ConnLimits limits{};
    /** Unused by the server; see IoBackend. */
    IoBackend ioBackend = IoBackend::Epoll;
};

/** Plain snapshot of the resilience counters (see NetCounters). */
struct NetStats
{
    std::uint64_t currConnections = 0;
    std::uint64_t totalConnections = 0;
    std::uint64_t rejectedConnections = 0;
    std::uint64_t idleKicks = 0;
    std::uint64_t backpressureCloses = 0;
    std::uint64_t oomErrors = 0;
    std::uint64_t acceptFailures = 0;
};

/** Multi-threaded epoll TCP server over one cache instance. */
class Server
{
  public:
    Server(mc::CacheIface &cache, ServerCfg cfg);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind, listen, spawn the worker loops and the accept thread.
     * @return false (with the socket layer cleaned up) on any setup
     *         failure, e.g. the port being taken.
     */
    bool start();

    /** Stop accepting, close every connection, join all threads. */
    void stop();

    /**
     * Graceful shutdown: stop accepting, let every loop flush its
     * queued replies and retire connections as they empty, then tear
     * down. Blocks for at most @p deadline_ms before forcing the
     * remaining connections closed.
     * @return true if every connection drained before the deadline.
     */
    bool drain(std::uint32_t deadline_ms);

    /** Bound port (useful with cfg.port == 0). */
    std::uint16_t port() const { return port_; }

    /** Connections accepted since start(). */
    std::uint64_t accepted() const
    {
        return counters_.totalConnections.load(std::memory_order_relaxed);
    }

    /** Requests executed across all loops (closed + live conns). */
    std::uint64_t requestsServed() const;

    /** Open connections across all loops. */
    std::size_t openConnections() const;

    /** Snapshot of the resilience counters. */
    NetStats netStats() const;

  private:
    void acceptLoop();
    /** Accept-then-reject one over-limit client (lingering close). */
    void rejectConn(int fd);
    /** Retire parked rejects whose peer closed or deadline passed. */
    void sweepRejected(bool force);
    /** Server-level STAT lines for the ASCII `stats` reply. */
    std::string statsLines() const;

    mc::CacheIface &cache_;
    ServerCfg cfg_;
    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    std::thread acceptThread_;
    // atom-protocol: release-acquire-pair
    std::atomic<bool> stopping_{false};
    NetCounters counters_;
    /** Metrics-registry token for the "net" counter source; 0 when
     *  not registered. Registered in start(), dropped only in the
     *  destructor so post-drain metrics dumps keep the net totals. */
    std::uint64_t metricsToken_ = 0;
    /** Requests served by loops already torn down in stop(). */
    // atom-protocol: relaxed-counter
    std::atomic<std::uint64_t> servedFinal_{0};
    std::vector<std::unique_ptr<EventLoop>> loops_;
    std::uint64_t rr_ = 0;  //!< Round-robin cursor (accept thread only).

    /** Rejected socket lingering until peer EOF or deadline. */
    struct Rejected
    {
        int fd;
        std::chrono::steady_clock::time_point deadline;
    };
    std::vector<Rejected> rejected_;  //!< Accept thread only.
};

} // namespace tmemc::net

#endif // TMEMC_NET_SERVER_H
