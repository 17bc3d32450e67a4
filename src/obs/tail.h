/**
 * @file
 * Per-request tail-latency tracer: request-scoped span chains kept
 * only for the slowest requests.
 *
 * The histograms in obs/metrics.h say *that* p99 regressed; this
 * tracer says *which requests* and *why*. It records nothing itself.
 * Conn::drainFrames brackets each executor call with
 * probe::requestBegin / probe::requestEnd, and the request's events —
 * shard routes, every transaction attempt (outcome, abort cause,
 * serial mode), quiescence waits — land in the thread's probe ring
 * like any other. At request end the ring slice written since the
 * begin is folded into the span chain: parse, exec, one span per
 * attempt and wait, and the flush span that stays open until the
 * reply's last byte left the socket queue. Only requests slow enough
 * for the top-K reservoir survive, so the memory cost is K traces,
 * not one per request (the llvm14-ldb tail-latency-debugger shape).
 *
 * Arming sets the probe's tail bit (tmemc_server --tail or
 * armTail()). The reservoir insert takes one mutex, and only *after*
 * a relaxed threshold check has rejected every request faster than
 * the current K-th slowest without locking anything.
 */

#ifndef TMEMC_OBS_TAIL_H
#define TMEMC_OBS_TAIL_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/probe.h"

namespace tmemc::obs::tail
{

/** What one span covers. Exec overlaps the tx attempts it contains;
 *  spans are kept in open order, so the chain reads as a timeline. */
enum class SpanKind : std::uint8_t
{
    Parse,  //!< Frame carved out of the read buffer.
    Exec,   //!< Executor call: dispatch through cache and protocol.
    Tx,     //!< One top-level transaction attempt.
    Wait,   //!< A wait inside an attempt (cause: what it waited on).
    Flush,  //!< Reply enqueued until its last byte left the out-queue.
};

/** How a Tx span's attempt ended. */
enum class TxOutcome : std::uint8_t
{
    None,      //!< Still open when the request's slice was folded.
    Commit,    //!< Attempt committed.
    Abort,     //!< Data conflict (or CM decision) rolled it back.
    Switch,    //!< unsafeOp() forced a serial restart.
    Promote,   //!< Invisible-reader fast path promoted to full path.
    Retry,     //!< tm::retry(): rolled back and waited for a commit.
};

const char *spanKindName(SpanKind kind);
const char *txOutcomeName(TxOutcome outcome, bool serial);

/** One span. Site/cause are static strings (TxnAttr names, literals);
 *  the span stores the pointer, never a copy. */
struct Span
{
    std::uint64_t t0 = 0;        //!< nowNanos() at open.
    std::uint64_t t1 = 0;        //!< nowNanos() at close (0: open).
    const char *site = nullptr;  //!< Tx: attr name.
    const char *cause = nullptr; //!< Tx: abort/switch/promote cause;
                                 //!< Wait: what was waited on.
    std::uint32_t shard = 0;     //!< Shard routed when the span closed.
    std::uint32_t attempt = 0;   //!< Tx: 1-based attempt number.
    SpanKind kind = SpanKind::Exec;
    TxOutcome outcome = TxOutcome::None;
    bool serial = false;         //!< Tx: ran serial-irrevocable.
};

/** Spans kept per request before the chain stops growing (a retry
 *  storm must not grow one trace without bound). */
constexpr std::size_t kMaxTailSpans = 96;

/** Default reservoir depth (the K of `stats tail`). */
constexpr std::size_t kDefaultTailK = 32;

/** One traced request: identity plus its complete span chain. */
struct RequestTrace
{
    std::uint64_t id = 0;       //!< Process-wide mint order, from 1.
    std::uint64_t startNs = 0;  //!< Parse began (nowNanos clock).
    std::uint64_t endNs = 0;    //!< Flush drained (or conn died).
    std::uint32_t worker = 0;   //!< Event-loop worker index.
    std::uint32_t shard = 0;    //!< Last shard the request routed to.
    bool binary = false;        //!< Protocol of the request frame.
    bool overflow = false;      //!< Spans dropped past kMaxTailSpans,
                                //!< or the ring wrapped mid-request.
    std::vector<Span> spans;

    std::uint64_t totalNs() const { return endNs - startNs; }
};

/** Handle for a request whose reply is still flushing: the Conn holds
 *  it until the out-queue drains, then finishRequest() closes the
 *  flush span and offers the trace to the reservoir. */
using PendingTrace = std::shared_ptr<RequestTrace>;

namespace detail
{

/** Mint the next request id and count the request considered. */
std::uint64_t admitRequest();

/**
 * Build @p req's trace from the ring records written since its
 * begin: parse [parseT0, t0], exec [t0, end_ns], one span per tx
 * attempt and wait, and an open flush span at @p end_ns. @p wrapped:
 * the ring overwrote part of the slice. @p shard: the last shard the
 * request routed to.
 */
PendingTrace foldRequest(const probe::Request &req,
                         const std::vector<probe::Record> &recs,
                         bool wrapped, std::uint32_t shard,
                         std::uint64_t end_ns);

/** Direct reservoir insert, bypassing the fold: the unit tests
 *  drive top-K/merge/wraparound invariants with fabricated traces. */
void offerTrace(PendingTrace trace);

} // namespace detail

/** One relaxed load: is the tail tracer armed? */
inline bool
tailArmed()
{
    return (probe::armed() & probe::kTailBit) != 0;
}

/**
 * The connection's out-queue drained (or the connection died) at
 * @p end_ns: close the flush span and offer the finished trace to
 * the reservoir. Null @p trace is ignored.
 */
void finishRequest(PendingTrace trace, std::uint64_t end_ns);

/** Arm the tracer with reservoir depth @p k (also resets the
 *  reservoir and the considered/kept counters). */
void armTail(std::size_t k = kDefaultTailK);

/** Disarm; the reservoir keeps its contents for a later dump. */
void disarmTail();

/** Discard the reservoir's contents and counters (test isolation). */
void resetTail();

/** Reservoir depth currently armed (or last armed). */
std::size_t tailK();

/** Requests traced since the last arm/reset (kept or not). */
std::uint64_t tailConsidered();

/** Label the dumps with the serving branch and TM algorithm (the
 *  process-wide context every span chain shares). */
void setTailLabel(const std::string &branch, const std::string &algo);

/**
 * The kept traces (at most K), slowest first. Traces are immutable
 * once offered, so the returned pointers are safe to render without
 * any lock.
 */
std::vector<std::shared_ptr<const RequestTrace>> snapshotTail();

/**
 * `stats tail` body: STAT tail_armed/tail_k/tail_considered/tail_kept
 * rows, then one "STAT tail<rank> id=... spans=..." row per kept
 * request, slowest first. Span tokens are ';'-joined, each
 * "<kind>:<detail>:s<shard>:<dur_us>" — e.g.
 * "tx1:abort:conflict:mc.assoc.set:s3:412" or "wait:quiesce:s3:40".
 */
std::string tailAsciiRows();

/** The whole snapshot as one tmemc-tail-v1 JSON object. */
std::string tailToJson();

/** Write tailToJson() to @p path. @return false on I/O error. */
bool writeTailJsonFile(const std::string &path);

} // namespace tmemc::obs::tail

#endif // TMEMC_OBS_TAIL_H
