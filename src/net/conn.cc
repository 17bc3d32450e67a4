/**
 * @file
 * Connection state machine implementation.
 */

#include "net/conn.h"

#include <cerrno>
#include <sys/socket.h>
#include <unistd.h>

#include "mc/binary_protocol.h"
#include "net/sys.h"
#include "obs/hist.h"
#include "obs/probe.h"

namespace tmemc::net
{

Conn::Conn(int fd, std::uint64_t id, const ConnLimits &limits)
    : fd_(fd), id_(id), limits_(limits),
      lastActivity_(std::chrono::steady_clock::now())
{
}

Conn::~Conn()
{
    // A connection dying with replies queued still finalizes its
    // traced requests: the flush span ends where the socket did.
    finishTailPending(true);
    if (fd_ >= 0)
        ::close(fd_);
}

bool
Conn::onReadable(std::uint32_t worker, const ExecFn &exec)
{
    char chunk[16 * 1024];
    lastActivity_ = std::chrono::steady_clock::now();
    if (draining_)
        return discardInput();

    bool saw_eof = false;
    for (;;) {
        const ssize_t n = sys::readFd(fd_, chunk, sizeof(chunk));
        if (n > 0) {
            rbuf_.append(chunk, static_cast<std::size_t>(n));
            if (rbuf_.size() > limits_.rbufCap) {
                // Unframeable flood; drop the client.
                closeReason_ = CloseReason::Peer;
                return false;
            }
            // A short read took everything queued (memcached's
            // try_read_network): skip the read that would only say
            // EAGAIN. Bytes or a FIN arriving later make the
            // level-triggered epoll report the socket again.
            if (static_cast<std::size_t>(n) < sizeof(chunk))
                break;
            continue;
        }
        if (n == 0) {
            saw_eof = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        closeReason_ = CloseReason::Peer;
        return false;  // ECONNRESET and friends.
    }

    if (!pump(worker, exec))
        return false;
    if (saw_eof) {
        // A client that half-closed after pipelining still gets its
        // replies if the kernel buffer takes them; anything the
        // nonblocking flush could not place is forfeit, as in
        // memcached's conn_closing.
        closeReason_ = CloseReason::Peer;
        return false;
    }
    if (closing_)
        return beginLingeringClose();
    return true;
}

bool
Conn::onWritable(std::uint32_t worker, const ExecFn &exec)
{
    lastActivity_ = std::chrono::steady_clock::now();
    if (!flush())
        return false;
    finishTailPending();
    if (draining_)
        return true;
    if (!pump(worker, exec))
        return false;
    if (closing_ && !wantsWrite())
        return beginLingeringClose();
    return true;
}

bool
Conn::pump(std::uint32_t worker, const ExecFn &exec)
{
    // Alternate execute-and-flush until a fixed point: drainFrames
    // pauses at the soft cap, but when flush() then empties the
    // backlog into the socket there will be no EPOLLOUT (nothing
    // pending) and no EPOLLIN (the bytes are already in rbuf_), so
    // any executable frames still buffered must be driven here, now.
    // The rbuf_-shrank progress test makes the loop terminate: a
    // pass that consumed nothing (incomplete frame, or still over
    // the soft cap after a partial flush) cannot repeat forever.
    for (;;) {
        const std::size_t before = rbuf_.size();
        if (!closing_ && !drainFrames(worker, exec))
            closing_ = true;
        if (!flush())
            return false;
        finishTailPending();
        if (pendingWrite() > limits_.wbufHardCap) {
            // The backlog outgrew what any client that stopped
            // reading deserves; cut it loose.
            closeReason_ = CloseReason::Backpressure;
            return false;
        }
        if (closing_ || rbuf_.empty() || !wantsRead() ||
            rbuf_.size() == before)
            return true;
    }
}

bool
Conn::flushOnly()
{
    lastActivity_ = std::chrono::steady_clock::now();
    const bool ok = flush();
    finishTailPending();
    return ok;
}

void
Conn::finishTailPending(bool force)
{
    if (tailPending_.empty())
        return;
    if (!force && wantsWrite())
        return;  // Replies still queued: the flush wait continues.
    const std::uint64_t now = obs::nowNanos();
    for (obs::tail::PendingTrace &p : tailPending_)
        obs::tail::finishRequest(std::move(p), now);
    tailPending_.clear();
}

bool
Conn::beginLingeringClose()
{
    if (wantsWrite())
        return true;  // Keep EPOLLOUT armed until the reply is out.
    if (!draining_) {
        // Half-close so the peer reads the reply then a clean FIN;
        // closing with unread client bytes would RST and can destroy
        // the reply in the peer's receive buffer. Input is discarded
        // until the peer's own FIN arrives.
        ::shutdown(fd_, SHUT_WR);
        draining_ = true;
    }
    return true;
}

bool
Conn::discardInput()
{
    char chunk[16 * 1024];
    for (;;) {
        const ssize_t n = sys::readFd(fd_, chunk, sizeof(chunk));
        if (n > 0)
            continue;
        if (n == 0) {
            closeReason_ = CloseReason::Peer;
            return false;  // Peer finished; now the close is clean.
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return true;
        if (errno == EINTR)
            continue;
        closeReason_ = CloseReason::Peer;
        return false;
    }
}

bool
Conn::drainFrames(std::uint32_t worker, const ExecFn &exec)
{
    std::size_t off = 0;
    bool ok = true;
    while (off < rbuf_.size()) {
        // Soft-cap check inside the burst too: a pipelined batch
        // stops executing once replies back up, leaving the rest of
        // the batch buffered until the client drains us.
        if (pendingWrite() >= limits_.wbufSoftCap)
            break;
        // Stamped before framing so the parse span covers the carve;
        // disarmed, this is one relaxed load and no clock read.
        const std::uint64_t parse_t0 =
            obs::tail::tailArmed() ? obs::nowNanos() : 0;
        const bool binary =
            static_cast<std::uint8_t>(rbuf_[off]) ==
            static_cast<std::uint8_t>(mc::BinMagic::Request);
        const mc::FrameResult fr =
            binary ? mc::binaryTryFrame(
                         reinterpret_cast<const std::uint8_t *>(
                             rbuf_.data() + off),
                         rbuf_.size() - off)
                   : mc::protocolTryFrame(rbuf_.data() + off,
                                          rbuf_.size() - off);
        if (fr.status == mc::FrameStatus::NeedMore)
            break;
        if (fr.status == mc::FrameStatus::Error) {
            // Text clients get the CLIENT_ERROR line; a corrupt
            // binary stream cannot be re-synchronized, so it just
            // closes.
            if (!binary && fr.error != nullptr)
                wbuf_.append(fr.error);
            ok = false;
            break;
        }
        const std::string frame = rbuf_.substr(off, fr.frameLen);
        if (!binary && (frame == "quit\r\n" || frame == "quit\n")) {
            // memcached's quit: close without a reply.
            off += fr.frameLen;
            ok = false;
            break;
        }
        // Per-command latency: framed request handed to exec() until
        // its reply is in the write buffer. The same unit is one
        // tail-tracer request: its chain starts with a parse span
        // back-dated to parse_t0 and stays pending until the reply's
        // last byte leaves the write buffer (finishTailPending closes
        // the flush span).
        const obs::probe::Request req =
            obs::probe::requestBegin(worker, binary, parse_t0);
        exec(worker, binary, frame, wbuf_);
        if (obs::tail::PendingTrace p = obs::probe::requestEnd(req))
            tailPending_.push_back(std::move(p));
        ++served_;
        off += fr.frameLen;
    }
    if (off == rbuf_.size())
        rbuf_.clear();
    else if (off > 0)
        rbuf_.erase(0, off);
    return ok;
}

bool
Conn::flush()
{
    while (woff_ < wbuf_.size()) {
        const ssize_t n =
            sys::writeFd(fd_, wbuf_.data() + woff_, wbuf_.size() - woff_);
        if (n > 0) {
            woff_ += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
            closeReason_ = CloseReason::Peer;
            return false;  // EPIPE etc.: peer is gone.
        }
        // EAGAIN, or nothing accepted: the event loop re-arms
        // EPOLLOUT. Once the sent prefix outweighs what is still
        // owed, drop it, so a client that keeps pipelining while it
        // reads slowly cannot grow the buffer without bound.
        if (woff_ >= wbuf_.size() - woff_) {
            wbuf_.erase(0, woff_);
            woff_ = 0;
        }
        return true;
    }
    // Everything is out. A buffer a reply burst inflated past the
    // soft cap is given back rather than kept for the connection's
    // lifetime (memcached's conn_shrink).
    if (wbuf_.capacity() > limits_.wbufSoftCap)
        std::string().swap(wbuf_);
    else
        wbuf_.clear();
    woff_ = 0;
    return true;
}

} // namespace tmemc::net
