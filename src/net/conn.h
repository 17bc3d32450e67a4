/**
 * @file
 * One TCP connection: nonblocking fd, incremental read buffer, one
 * reply buffer, and streaming protocol framing.
 *
 * memcached's conn state machine (conn_read -> conn_parse_cmd ->
 * conn_nread -> conn_write) collapses here into two reactive entry
 * points driven by the owning event loop: onReadable() drains the
 * socket, carves complete requests out of the read buffer with the
 * mc framing hooks (protocolTryFrame / binaryTryFrame), executes
 * them, and appends their replies to the write buffer; onWritable()
 * flushes it.
 *
 * The executor appends each reply straight onto the write buffer, and
 * flush() hands the unwritten tail to write(2) until the kernel stops
 * taking bytes. A flushed-offset index marks how much has left; once
 * everything has, the buffer is reset.
 *
 * Protocol selection follows memcached's sniffing rule: a frame whose
 * first byte is the binary request magic (0x80) is binary, anything
 * else is ASCII. Detection happens only at frame boundaries, so
 * binary value bytes can never be misread as a protocol switch.
 *
 * Overload behaviour is bounded on both sides (ConnLimits):
 *  - the read buffer caps unframeable input (slowloris guard);
 *  - pendingWrite() has a soft cap (stop polling EPOLLIN; TCP
 *    backpressure reaches the slow reader) and a hard cap (close: a
 *    reply burst no sane client leaves unread);
 *  - lastActivity() feeds the loop's idle reaper.
 *
 * Parsing and reply formatting happen entirely on these private
 * buffers before any lock or transaction is taken — the same
 * private-then-shared discipline the paper relies on for htons and
 * friends (Section 3.4).
 */

#ifndef TMEMC_NET_CONN_H
#define TMEMC_NET_CONN_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mc/protocol.h"
#include "obs/tail.h"

namespace tmemc::net
{

/**
 * Execute one complete request frame on worker thread @p worker,
 * appending the wire reply to @p out (the connection's write buffer).
 * @p binary distinguishes the two protocols.
 */
using ExecFn =
    std::function<void(std::uint32_t worker, bool binary,
                       const std::string &frame, std::string &out)>;

/** Per-connection byte budgets (shared, immutable per server). */
struct ConnLimits
{
    /** Max buffered unparsed request bytes before the client is
     *  dropped; also the request-size guard for both protocols. */
    std::size_t rbufCap = mc::kMaxBodyBytes + mc::kMaxCommandLine + 2;
    /** Pending-reply bytes above which the conn stops reading. */
    std::size_t wbufSoftCap = 256 * 1024;
    /** Pending-reply bytes above which the conn is closed. */
    std::size_t wbufHardCap = 8 * 1024 * 1024 + 512 * 1024;
};

/** Why a connection asked to be closed (for the loop's counters). */
enum class CloseReason : std::uint8_t
{
    None,          //!< Still alive.
    Peer,          //!< EOF, reset, protocol error, quit.
    Backpressure,  //!< Write backlog exceeded the hard cap.
};

/** A connected client socket owned by one event loop. */
class Conn
{
  public:
    /** Takes ownership of @p fd (closed on destruction). */
    Conn(int fd, std::uint64_t id, const ConnLimits &limits);
    ~Conn();

    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    int fd() const { return fd_; }
    std::uint64_t id() const { return id_; }

    /**
     * Drain the socket, execute every complete buffered request
     * (pipelining: one read may yield many frames; a frame may also
     * arrive over many reads), queue replies, and start flushing.
     * @return false when the connection is finished (EOF, fatal
     *         socket error, or a framing error whose reply has been
     *         flushed) and should be destroyed.
     */
    bool onReadable(std::uint32_t worker, const ExecFn &exec);

    /**
     * Continue flushing after EPOLLOUT; once the backlog falls below
     * the soft cap, resume executing any requests that were already
     * buffered when backpressure paused the batch (no new EPOLLIN is
     * coming for bytes we already hold).
     * @return false when done-for.
     */
    bool onWritable(std::uint32_t worker, const ExecFn &exec);

    /**
     * Drain-mode write path: push queued replies out without
     * executing anything new. @return false on socket death.
     */
    bool flushOnly();

    /** True while the write buffer holds unsent bytes. */
    bool wantsWrite() const { return woff_ < wbuf_.size(); }

    /** False while pending replies exceed the soft cap: the loop
     *  must stop polling EPOLLIN until the client drains us. */
    bool wantsRead() const { return pendingWrite() < limits_.wbufSoftCap; }

    /** Unflushed reply bytes. */
    std::size_t pendingWrite() const { return wbuf_.size() - woff_; }

    /** Why the last onReadable/onWritable returned false. */
    CloseReason closeReason() const { return closeReason_; }

    /** Last moment the socket made forward progress. */
    std::chrono::steady_clock::time_point lastActivity() const
    {
        return lastActivity_;
    }

    /** Requests executed on this connection (served-response count). */
    std::uint64_t requestsServed() const { return served_; }

    /** Readiness events the owning loop has registered for the socket
     *  (memcached's ev_flags): it re-registers only when they change. */
    std::uint32_t evFlags = 0;

  private:
    /**
     * Execute-and-flush until a fixed point: no more complete frames,
     * the soft cap is holding, or the connection must close (returns
     * false — closeReason() says why).
     */
    bool pump(std::uint32_t worker, const ExecFn &exec);

    /** Execute buffered complete frames; false on fatal frame error. */
    bool drainFrames(std::uint32_t worker, const ExecFn &exec);

    /** Write the buffered replies until EAGAIN or empty.
     *  @return false on socket error. */
    bool flush();

    /**
     * Once the goodbye reply is flushed, half-close the socket
     * (shutdown SHUT_WR) and discard input until the peer's FIN —
     * memcached's lingering close, which keeps the error reply from
     * being destroyed by an RST.
     */
    bool beginLingeringClose();

    /** Drain-and-discard mode reads. @return false at peer EOF. */
    bool discardInput();

    /**
     * Close the flush span of every traced request whose reply has
     * fully left the write buffer and offer the traces to the tail
     * reservoir. Called after every flush; a partial flush leaves the
     * traces pending so EPOLLOUT wait time lands in the flush span.
     * @p force finalizes regardless (connection teardown).
     */
    void finishTailPending(bool force = false);

    int fd_;
    std::uint64_t id_;
    const ConnLimits &limits_;
    std::string rbuf_;
    /** Replies not yet written; bytes before woff_ have been sent. */
    std::string wbuf_;
    std::size_t woff_ = 0;
    /** Traced requests (tail tracer armed) whose replies are still
     *  flushing; empty whenever the tracer is disarmed. */
    std::vector<obs::tail::PendingTrace> tailPending_;
    std::uint64_t served_ = 0;
    std::chrono::steady_clock::time_point lastActivity_;
    CloseReason closeReason_ = CloseReason::None;
    bool closing_ = false;   //!< Flush remaining bytes, then FIN.
    bool draining_ = false;  //!< FIN sent; discarding input to EOF.
};

} // namespace tmemc::net

#endif // TMEMC_NET_CONN_H
