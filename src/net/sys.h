/**
 * @file
 * Injectable syscall wrappers for the network layer.
 *
 * Every socket syscall the server's data path issues goes through
 * these shims so that tests can create adverse schedules on demand:
 * an accept(2) that hits EMFILE, a write(2) that only takes one byte,
 * an epoll_wait(2) that spuriously times out. Each wrapper consults a
 * fault-injection site (common/fault.h) before touching the kernel:
 *
 *   net.accept       fail with policy errno (default EMFILE)
 *   net.read         fail with errno, or short-read via byteCap
 *   net.write        fail with errno, or short-write via byteCap
 *   net.epoll_wait   fail with errno, or report zero events
 *   net.sys.connect  fail with errno (default ECONNREFUSED)
 *
 * Sites that model a slow peer honour the policy's delayUs payload
 * (fault::maybeDelay) before interpreting errno/byteCap, so one armed
 * policy expresses "stall 50ms then refuse" — the shape the cluster
 * client's deadline and ejection logic is tested against.
 *
 * When no site is armed (production), each wrapper is the raw syscall
 * behind one relaxed atomic load.
 *
 * Every wrapper is annotated TM_UNSAFE: a syscall is irrevocable, so
 * reaching one from an atomic transaction is a static error (tmlint
 * rule TM3) — the paper's GCC build rejected exactly these sites until
 * they were moved out of transactions or into relaxed ones.
 */

#ifndef TMEMC_NET_SYS_H
#define TMEMC_NET_SYS_H

#include <algorithm>
#include <cerrno>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/compiler.h"
#include "common/fault.h"

namespace tmemc::net::sys
{

TM_UNSAFE inline int
acceptConn(int listen_fd, int flags)
{
    if (fault::enabled()) {
        const fault::Action a = fault::consult("net.accept");
        if (a.fire) {
            errno = a.errnoValue != 0 ? a.errnoValue : EMFILE;
            return -1;
        }
    }
    return ::accept4(listen_fd, nullptr, nullptr, flags);
}

TM_UNSAFE inline int
connectFd(int fd, const struct sockaddr *addr, socklen_t len)
{
    if (fault::enabled()) {
        const fault::Action a = fault::consult("net.sys.connect");
        if (a.fire) {
            fault::maybeDelay(a);
            errno = a.errnoValue != 0 ? a.errnoValue : ECONNREFUSED;
            return -1;
        }
    }
    return ::connect(fd, addr, len);
}

TM_UNSAFE inline ssize_t
readFd(int fd, void *buf, std::size_t count)
{
    if (fault::enabled()) {
        const fault::Action a = fault::consult("net.read");
        if (a.fire) {
            fault::maybeDelay(a);
            if (a.errnoValue != 0) {
                errno = a.errnoValue;
                return -1;
            }
            if (a.byteCap != 0 && a.byteCap < count)
                count = a.byteCap;
        }
    }
    return ::read(fd, buf, count);
}

TM_UNSAFE inline ssize_t
writeFd(int fd, const void *buf, std::size_t count)
{
    if (fault::enabled()) {
        const fault::Action a = fault::consult("net.write");
        if (a.fire) {
            fault::maybeDelay(a);
            if (a.errnoValue != 0) {
                errno = a.errnoValue;
                return -1;
            }
            if (a.byteCap != 0 && a.byteCap < count)
                count = a.byteCap;
        }
    }
    return ::write(fd, buf, count);
}

TM_UNSAFE inline int
epollWait(int epfd, epoll_event *events, int maxevents, int timeout_ms)
{
    if (fault::enabled()) {
        const fault::Action a = fault::consult("net.epoll_wait");
        if (a.fire) {
            if (a.errnoValue != 0) {
                errno = a.errnoValue;
                return -1;
            }
            return 0;  // Simulated timeout with no ready events.
        }
    }
    return ::epoll_wait(epfd, events, maxevents, timeout_ms);
}

} // namespace tmemc::net::sys

#endif // TMEMC_NET_SYS_H
