/**
 * @file
 * One worker event loop: a level-triggered epoll set, an eventfd
 * wakeup, and the set of connections assigned to this worker.
 *
 * This is the libevent worker thread of memcached's threads.c. The
 * listener hands accepted sockets over through adopt() (the analogue
 * of the notify-pipe CQ_ITEM push); the loop thread registers them
 * with its epoll set and from then on owns them exclusively — no
 * other thread ever touches a Conn, so connection state needs no
 * locking.
 *
 * Readiness is level-triggered: a connection whose flush left bytes
 * queued keeps EPOLLOUT interest, and the next epoll_wait reports it
 * again while the socket is writable, with no re-arm step.
 *
 * Overload duties (all enforced here, where the connections live):
 *  - idle reaping: the epoll_wait timeout doubles as the idle clock —
 *    each wakeup sweeps connections whose lastActivity() is older
 *    than the configured deadline (memcached's idle-timeout reaper);
 *  - backpressure: epoll interest follows Conn::wantsRead(), so a
 *    connection over its write-buffer soft cap stops being polled
 *    for input until the client drains it;
 *  - graceful drain: beginDrain() stops request intake, flushes
 *    every queued reply, and retires connections as they empty, so
 *    the loop thread exits on its own once nothing is owed.
 *
 * TM contract: the loop thread registers itself with the TM runtime
 * (tm::myDesc()) before serving traffic, and every transaction a
 * request needs begins and commits on this thread, inside the exec
 * callback. The loop's worker id doubles as the cache worker tid, so
 * a cache built for N workers pairs with exactly N event loops.
 */

#ifndef TMEMC_NET_EVENT_LOOP_H
#define TMEMC_NET_EVENT_LOOP_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/conn.h"

namespace tmemc::net
{

/**
 * Server-wide resilience counters, shared by the accept thread and
 * every event loop; each maps to a STAT line in the ASCII `stats`
 * reply (see Server::statsText).
 */
struct NetCounters
{
    // atom-protocol: relaxed-counter
    std::atomic<std::uint64_t> currConnections{0};
    // atom-protocol: relaxed-counter
    std::atomic<std::uint64_t> totalConnections{0};
    // atom-protocol: relaxed-counter
    std::atomic<std::uint64_t> rejectedConnections{0};
    // atom-protocol: relaxed-counter
    std::atomic<std::uint64_t> idleKicks{0};
    // atom-protocol: relaxed-counter
    std::atomic<std::uint64_t> backpressureCloses{0};
    // atom-protocol: relaxed-counter
    std::atomic<std::uint64_t> oomErrors{0};
    // atom-protocol: relaxed-counter
    std::atomic<std::uint64_t> acceptFailures{0};
};

/** One epoll worker; owns every connection assigned to it. */
class EventLoop
{
  public:
    /**
     * @param worker_id  Cache/TM worker tid this loop serves as.
     * @param exec       Request executor (shared by all loops).
     * @param limits     Per-connection byte budgets.
     * @param idle_timeout_ms  Reap connections idle this long
     *                         (0: never).
     * @param counters   Server-wide resilience counters.
     */
    EventLoop(std::uint32_t worker_id, ExecFn exec, ConnLimits limits,
              std::uint32_t idle_timeout_ms, NetCounters &counters);
    ~EventLoop();

    EventLoop(const EventLoop &) = delete;
    EventLoop &operator=(const EventLoop &) = delete;

    /** Spawn the loop thread. @return false if epoll setup failed. */
    bool start();

    /** Ask the thread to exit, join it, and close all connections. */
    void stop();

    /**
     * Transfer ownership of an accepted (already nonblocking) socket
     * to this loop. Thread-safe; called from the listener.
     */
    void adopt(int fd);

    /**
     * Stop executing new requests, flush queued replies, and close
     * connections as they empty; the loop thread exits by itself once
     * none remain. Join via stop() (idempotent) after the deadline.
     */
    void beginDrain();

    /** Requests served across all connections ever owned here. */
    std::uint64_t requestsServed() const
    {
        return served_.load(std::memory_order_relaxed);
    }

    /** Currently open connections (for tests and stats). */
    std::size_t openConnections() const
    {
        return open_.load(std::memory_order_relaxed);
    }

  private:
    void run();
    void wakeup();
    /** Close the epoll and eventfd descriptors (either may be -1). */
    void closeFds();
    void adoptPending();
    void closeConn(int fd);
    /** Close every idle-deadline-expired connection. */
    void reapIdle();
    /** Drain mode: retire connections whose replies are all out. */
    void retireDrained();
    /** Point epoll interest at wantsRead()/wantsWrite(); a no-op
     *  while they match what is registered (Conn::evFlags). */
    void updateInterest(Conn &c);

    std::uint32_t worker_;
    ExecFn exec_;
    ConnLimits limits_;
    std::uint32_t idleTimeoutMs_;
    NetCounters &counters_;
    int epfd_ = -1;
    int wakefd_ = -1;
    std::thread thread_;
    // atom-protocol: release-acquire-pair
    std::atomic<bool> stopping_{false};
    // atom-protocol: release-acquire-pair
    std::atomic<bool> draining_{false};

    std::mutex pendingMu_;
    std::vector<int> pending_;

    std::unordered_map<int, std::unique_ptr<Conn>> conns_;
    std::uint64_t nextConnId_ = 1;
    // atom-protocol: relaxed-counter
    std::atomic<std::uint64_t> served_{0};
    // atom-protocol: relaxed-counter
    std::atomic<std::size_t> open_{0};
};

} // namespace tmemc::net

#endif // TMEMC_NET_EVENT_LOOP_H
