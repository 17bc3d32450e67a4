/**
 * @file
 * The TM event stream: one fixed-capacity per-thread ring that every
 * transaction lifecycle point and every request boundary feeds once,
 * behind one armed bitmask.
 *
 * The paper's authors "manually diagnosed the causes of aborts and
 * serialization" by hacking execinfo into GCC's TM runtime (Section
 * 6). The per-site counters in tm/stats.h answer *how often*; this
 * stream answers *in what order*. Two consumers read it:
 *
 *  - the flight recorder (kRingBit, tmemc_server --trace): the last
 *    few thousand events per thread, dumped on demand or by the crash
 *    hook on panic()/fatal();
 *  - the tail tracer (kTailBit, obs/tail.h): requestEnd() folds the
 *    records this thread wrote since requestBegin() into the
 *    request's parse/exec/tx/wait/flush span chain.
 *
 * Cost model mirrors common/fault.h: while nothing is armed (the
 * default) every emit is one relaxed load of the bitmask and a
 * predictable branch. Armed, a record goes in under the ring's own
 * mutex — per-thread, so uncontended except while a dump or a fold
 * reads the ring. With only the tail bit set, threads outside a
 * traced request (maintenance threads, in-process benches) record
 * nothing.
 *
 * Rings outlive their threads: the registry keeps shared ownership,
 * so a post-mortem dump still shows events from exited workers.
 */

#ifndef TMEMC_OBS_PROBE_H
#define TMEMC_OBS_PROBE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics.h"

namespace tmemc::obs
{
namespace tail
{
struct RequestTrace;
} // namespace tail

namespace probe
{

/** What happened (one record per event). */
enum class Event : std::uint8_t
{
    RequestBegin,  //!< Executor call began (arg: tail request id).
    RequestEnd,    //!< Executor call returned (arg: tail request id).
    Shard,         //!< Request routed to a shard (arg: shard id).
    TxBegin,       //!< Top-level attempt began (arg: attempt number).
    TxCommit,      //!< Attempt committed.
    TxAbort,       //!< Attempt rolled back on a conflict or CM call.
    TxSwitch,      //!< Attempt rolled back to restart serial.
    TxPromote,     //!< Invisible-reader attempt promoted to full path.
    TxRetry,       //!< tm::retry() rolled back and waited for a commit.
    TxCause,       //!< Why the open attempt is about to end.
    Wait,          //!< A wait inside an attempt (arg: spun ns).
    FaultSiteHit,  //!< An armed fault-injection site was consulted.
};

/** Printable name for @p ev (the dump's event column). */
const char *eventName(Event ev);

/** One stream record. Site and cause are static strings (TxnAttr
 *  names, unsafe-op and fault-site literals); the ring stores the
 *  pointers, never copies. */
struct Record
{
    std::uint64_t ns;     //!< nowNanos() when the event happened.
    const char *site;     //!< Tx: attr name; Wait: what was waited on.
    const char *cause;    //!< TxCause: the unsafe op or promotion.
    std::uint32_t shard;  //!< Shard the thread last routed to.
    std::uint32_t arg;    //!< Per-event argument (see Event).
    Event kind;
    bool serial;          //!< Tx: the attempt runs serial-irrevocable.
};

/** Records kept per thread before the ring wraps. */
constexpr std::size_t kRingCapacity = 4096;

/** Armed-bitmask bits. */
constexpr std::uint8_t kRingBit = 1;  //!< Flight recorder: record all.
constexpr std::uint8_t kTailBit = 2;  //!< Tail tracer: record requests.

/** One request boundary pair: what requestBegin() noted for the
 *  matching requestEnd(). id is 0 when the request is not traced. */
struct Request
{
    std::uint64_t t0 = 0;       //!< Executor call began (Command hist).
    std::uint64_t id = 0;       //!< Tail request id; 0: not traced.
    std::uint64_t parseT0 = 0;  //!< Framing began.
    std::uint64_t mark = 0;     //!< Ring position at the begin record.
    std::uint32_t worker = 0;
    bool binary = false;
};

namespace detail
{

// atom-protocol: armed-latch
extern std::atomic<std::uint8_t> g_armed;

/** Slow path: append to this thread's ring (registers it on first
 *  use). Only reached while some bit is armed. */
void emitSlow(Event ev, const char *site, std::uint32_t arg,
              const char *cause, bool serial);

void requestBeginSlow(Request &req, std::uint32_t worker, bool binary,
                      std::uint64_t parse_t0);
std::shared_ptr<tail::RequestTrace> requestEndSlow(const Request &req,
                                                   std::uint64_t now);

} // namespace detail

/** One relaxed load: the armed bits (0 while nothing is armed). */
inline std::uint8_t
armed()
{
    return detail::g_armed.load(std::memory_order_relaxed);
}

/**
 * Emit point: no-op (one load + branch) while disarmed, ring append
 * while armed. @p site and @p cause must be static strings.
 */
inline void
emit(Event ev, const char *site, std::uint32_t arg = 0,
     const char *cause = nullptr, bool serial = false)
{
    if (armed() != 0)
        detail::emitSlow(ev, site, arg, cause, serial);
}

/**
 * An executor call begins. @p parse_t0 is the stamp taken before
 * framing began (0: none). While armed this records the boundary;
 * the tail tracer also mints the request id and notes the ring
 * position. The returned value goes back to requestEnd().
 */
inline Request
requestBegin(std::uint32_t worker, bool binary, std::uint64_t parse_t0)
{
    Request req;
    req.t0 = nowNanos();
    if (armed() != 0)
        detail::requestBeginSlow(req, worker, binary, parse_t0);
    return req;
}

/**
 * The executor call returned and its reply is queued. Records the
 * Command histogram and, while armed, the boundary. For a traced
 * request it also folds the ring slice since requestBegin() into its
 * span chain, whose flush span stays open until
 * tail::finishRequest(). Returns null when not traced.
 */
inline std::shared_ptr<tail::RequestTrace>
requestEnd(const Request &req)
{
    const std::uint64_t now = nowNanos();
    hist(HistKind::Command).record(now - req.t0);
    if (req.id == 0) {
        emit(Event::RequestEnd, nullptr);
        return nullptr;
    }
    return detail::requestEndSlow(req, now);
}

/** Arm the flight recorder and install the crash-dump hook. */
void armRing();

/** Disarm the flight recorder; rings keep their contents. */
void disarmRing();

/** Discard every ring's contents (test isolation). */
void resetRing();

/**
 * Render every ring, one "t=<ns> thread=<n> <event> site=<name>
 * shard=<s>" line per record (plus " arg=<a>" / " cause=<c>" where
 * set) in per-thread ring order, oldest surviving record first.
 */
std::string dumpRing();

} // namespace probe
} // namespace tmemc::obs

#endif // TMEMC_OBS_PROBE_H
