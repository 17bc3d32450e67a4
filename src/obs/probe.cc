/**
 * @file
 * The event stream's per-slot rings, the crash-dump hook, and the
 * request boundaries that hand a ring slice to the tail tracer.
 */

#include "obs/probe.h"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <vector>

#include "common/fault.h"
#include "common/logging.h"
#include "common/thread_slot.h"
#include "obs/tail.h"

namespace tmemc::obs::probe
{

const char *
eventName(Event ev)
{
    switch (ev) {
      case Event::RequestBegin:
        return "request_begin";
      case Event::RequestEnd:
        return "request_end";
      case Event::Shard:
        return "shard";
      case Event::TxBegin:
        return "tx_begin";
      case Event::TxCommit:
        return "tx_commit";
      case Event::TxAbort:
        return "tx_abort";
      case Event::TxSwitch:
        return "tx_serial_switch";
      case Event::TxPromote:
        return "tx_promote";
      case Event::TxRetry:
        return "tx_retry";
      case Event::TxCause:
        return "tx_cause";
      case Event::Wait:
        return "wait";
      case Event::FaultSiteHit:
        return "fault_site_hit";
    }
    return "?";
}

namespace
{

/** One thread slot's ring. The owner takes mu on every armed append,
 *  a dump or fold while reading, so appends stay uncontended except
 *  during a dump. Positions are monotonic (slot = pos % capacity);
 *  records below `floor` were discarded by resetRing(). */
struct Ring
{
    std::mutex mu;
    std::uint64_t written = 0;
    std::uint64_t floor = 0;
    std::vector<Record> recs{kRingCapacity};
    std::uint32_t shard = 0;  //!< Owner only: stamped into every record.

    /** Oldest position still held. */
    std::uint64_t
    first() const
    {
        return std::max(floor, written - std::min(written, kRingCapacity));
    }

    void
    append(Event ev, const char *site, std::uint32_t arg,
           const char *cause, bool serial)
    {
        if (ev == Event::Shard)
            shard = arg;
        recs[written++ % kRingCapacity] =
            Record{nowNanos(), site, cause, shard, arg, ev, serial};
    }
};

/** Ring per thread slot, allocated by the slot's owner on its first
 *  record and never freed, so a ring outlives its threads. */
// atom-protocol: release-acquire-pair
std::atomic<Ring *> g_slotRing[thread_slot::kCapacity] = {};

/** Between a traced requestBegin and its requestEnd. Tested before
 *  myRing(), so a tail-only thread gets a ring only when it records. */
thread_local bool t_inRequest = false;

Ring &
myRing()
{
    const std::size_t slot = thread_slot::index();
    Ring *ring = g_slotRing[slot].load(std::memory_order_acquire);
    if (ring == nullptr) {
        ring = new Ring;
        g_slotRing[slot].store(ring, std::memory_order_release);
    }
    return *ring;
}

/** Call @p fn(slot, ring) for every slot's ring. Each ring is read
 *  under its own lock, so a recording thread blocks only for its own
 *  ring's turn. */
template <typename F>
void
forEachRing(F fn)
{
    const std::size_t n = thread_slot::highWater();
    for (std::size_t slot = 0; slot < n; ++slot) {
        if (Ring *ring = g_slotRing[slot].load(std::memory_order_acquire)) {
            std::lock_guard<std::mutex> guard(ring->mu);
            fn(slot, *ring);
        }
    }
}

/** Crash hook: dump to stderr on panic()/fatal() while armed. */
void
crashDump()
{
    const std::string text = dumpRing();
    std::fputs("--- obs flight recorder ---\n", stderr);
    std::fputs(text.c_str(), stderr);
    std::fputs("--- end flight recorder ---\n", stderr);
}

/** Fault-site hook target (common/fault.h knows nothing of obs). */
void
faultHit(const char *site)
{
    emit(Event::FaultSiteHit, site);
}

} // namespace

namespace detail
{

// atom-protocol: armed-latch
std::atomic<std::uint8_t> g_armed{0};

void
emitSlow(Event ev, const char *site, std::uint32_t arg,
         const char *cause, bool serial)
{
    if ((armed() & kRingBit) == 0 && !t_inRequest)
        return;  // Tail only: events outside a traced request drop.
    Ring &ring = myRing();
    std::lock_guard<std::mutex> guard(ring.mu);
    ring.append(ev, site, arg, cause, serial);
}

void
requestBeginSlow(Request &req, std::uint32_t worker, bool binary,
                 std::uint64_t parse_t0)
{
    // Acquire re-read of the latch: synchronizes with armTail()'s
    // release, so the K and reservoir configuration written before
    // arming is visible to everything this request does. The caller's
    // relaxed gate proves nothing about that.
    const char *proto = binary ? "binary" : "ascii";
    if ((g_armed.load(std::memory_order_acquire) & kTailBit) == 0) {
        emitSlow(Event::RequestBegin, proto, 0, nullptr, false);
        return;  // Ring only: the boundary, without a request id.
    }
    req.id = tail::detail::admitRequest();
    req.worker = worker;
    req.binary = binary;
    req.parseT0 = parse_t0 != 0 && parse_t0 <= req.t0 ? parse_t0 : req.t0;
    t_inRequest = true;
    Ring &ring = myRing();
    std::lock_guard<std::mutex> guard(ring.mu);
    ring.shard = 0;
    req.mark = ring.written;
    ring.append(Event::RequestBegin, proto,
                static_cast<std::uint32_t>(req.id), nullptr, false);
}

std::shared_ptr<tail::RequestTrace>
requestEndSlow(const Request &req, std::uint64_t now)
{
    // The slice is copied out so the fold runs without the ring lock;
    // the thread-local buffer keeps its capacity across requests.
    thread_local std::vector<Record> slice;
    Ring &ring = myRing();
    std::unique_lock<std::mutex> guard(ring.mu);
    ring.append(Event::RequestEnd, nullptr,
                static_cast<std::uint32_t>(req.id), nullptr, false);
    t_inRequest = false;
    const std::uint64_t from = std::max(req.mark, ring.first());
    slice.clear();
    for (std::uint64_t i = from; i < ring.written; ++i)
        slice.push_back(ring.recs[i % kRingCapacity]);
    const std::uint32_t shard = ring.shard;
    guard.unlock();
    return tail::detail::foldRequest(req, slice, from > req.mark, shard,
                                     now);
}

} // namespace detail

void
armRing()
{
    setCrashHook(&crashDump);
    fault::setHitHook(&faultHit);
    // Release: the hooks installed above (their own release stores)
    // are published before the bit reads set (armed-latch protocol).
    detail::g_armed.fetch_or(kRingBit, std::memory_order_release);
}

void
disarmRing()
{
    detail::g_armed.fetch_and(static_cast<std::uint8_t>(~kRingBit),
                              std::memory_order_release);
}

void
resetRing()
{
    forEachRing([](std::size_t, Ring &ring) { ring.floor = ring.written; });
}

std::string
dumpRing()
{
    std::ostringstream os;
    forEachRing([&](std::size_t slot, Ring &ring) {
        const std::uint64_t first = ring.first();
        if (first > ring.floor) {
            os << "slot " << slot << ": " << (first - ring.floor)
               << " older records overwritten\n";
        }
        for (std::uint64_t i = first; i < ring.written; ++i) {
            const Record &r = ring.recs[i % kRingCapacity];
            os << "t=" << r.ns << " slot=" << slot << ' '
               << eventName(r.kind)
               << " site=" << (r.site != nullptr ? r.site : "?")
               << " shard=" << r.shard;
            if (r.arg != 0)
                os << " arg=" << r.arg;
            if (r.cause != nullptr)
                os << " cause=" << r.cause;
            os << '\n';
        }
    });
    return os.str();
}

} // namespace tmemc::obs::probe
