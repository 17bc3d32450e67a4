/**
 * @file
 * Tail-tracer implementation: the fold from a probe ring slice to a
 * span chain, the top-K reservoir, and the ASCII / tmemc-tail-v1
 * renders.
 */

#include "obs/tail.h"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <sstream>

namespace tmemc::obs::tail
{

const char *
spanKindName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Parse:
        return "parse";
      case SpanKind::Exec:
        return "exec";
      case SpanKind::Tx:
        return "tx";
      case SpanKind::Wait:
        return "wait";
      case SpanKind::Flush:
        return "flush";
    }
    return "?";
}

const char *
txOutcomeName(TxOutcome outcome, bool serial)
{
    switch (outcome) {
      case TxOutcome::None:
        return "open";
      case TxOutcome::Commit:
        return serial ? "serial-commit" : "commit";
      case TxOutcome::Abort:
        return "abort";
      case TxOutcome::Switch:
        return "serial-switch";
      case TxOutcome::Promote:
        return "ro-promote";
      case TxOutcome::Retry:
        return "retry";
    }
    return "?";
}

namespace
{

/**
 * The reservoir: a min-heap (by total latency) of the K slowest
 * finished requests. g_minNs caches the heap minimum once it is full,
 * so the common case — a request faster than everything kept — is
 * rejected with one relaxed load and no lock. 0 means "not full yet:
 * always take the lock". Traces are immutable once offered.
 */
std::mutex g_keepMu;
std::vector<PendingTrace> g_keep;
// atom-protocol: relaxed-ok(lock-free fast-reject floor only; a stale
// read just means taking g_keepMu, the exact value lives under it)
std::atomic<std::uint64_t> g_minNs{0};

// atom-protocol: relaxed-counter
std::atomic<std::uint64_t> g_nextId{1};
// atom-protocol: relaxed-counter
std::atomic<std::uint64_t> g_considered{0};
// atom-protocol: relaxed-ok(config written before the probe's tail
// bit is set with release; readers acquire it in requestBeginSlow)
std::atomic<std::size_t> g_tailK{kDefaultTailK};

std::mutex g_labelMu;
std::string g_branchLabel;
std::string g_algoLabel;

std::string
jsonEscape(const char *s)
{
    std::string out;
    for (; s != nullptr && *s != '\0'; ++s) {
        const char c = *s;
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

/** Cause an attempt that ended without a TxCause event reports,
 *  indexed by TxOutcome. */
const char *const kDefaultCause[] = {nullptr, nullptr, "conflict",
                                     "unsafe-op", "ro-promotion",
                                     "tm::retry"};

} // namespace

namespace detail
{

std::uint64_t
admitRequest()
{
    g_considered.fetch_add(1, std::memory_order_relaxed);
    return g_nextId.fetch_add(1, std::memory_order_relaxed);
}

PendingTrace
foldRequest(const probe::Request &req,
            const std::vector<probe::Record> &recs, bool wrapped,
            std::uint32_t shard, std::uint64_t end_ns)
{
    using probe::Event;
    auto trace = std::make_shared<RequestTrace>(RequestTrace{
        .id = req.id, .startNs = req.parseT0, .worker = req.worker,
        .shard = shard, .binary = req.binary, .overflow = wrapped,
        .spans = {}});
    std::vector<Span> &spans = trace->spans;
    spans.push_back(
        {.t0 = req.parseT0, .t1 = req.t0, .kind = SpanKind::Parse});
    spans.push_back({.t0 = req.t0, .t1 = end_ns, .shard = shard,
                     .kind = SpanKind::Exec});
    // The open attempt's span; -1 when none is open (or it was dropped
    // at the cap, or its begin fell off a wrapped ring).
    std::ptrdiff_t tx = -1;
    for (const probe::Record &r : recs) {
        const bool closes = r.kind >= Event::TxCommit &&
                            r.kind <= Event::TxRetry;
        if (closes && tx >= 0) {
            Span &s = spans[static_cast<std::size_t>(tx)];
            s.t1 = r.ns;
            s.shard = r.shard;
            // TxCommit..TxRetry run in TxOutcome's Commit..Retry order.
            s.outcome = static_cast<TxOutcome>(
                static_cast<unsigned>(r.kind) -
                static_cast<unsigned>(Event::TxCommit) + 1);
            s.serial = s.serial || r.serial;
            if (s.cause == nullptr)
                s.cause = kDefaultCause[static_cast<unsigned>(s.outcome)];
        } else if (r.kind == Event::TxCause && tx >= 0) {
            spans[static_cast<std::size_t>(tx)].cause = r.cause;
        }
        if (closes || r.kind == Event::TxBegin)
            tx = -1;
        if (r.kind != Event::TxBegin && r.kind != Event::Wait)
            continue;
        // Tx and wait spans stop one short of the cap: the flush span
        // always fits, so even an overflowed chain reads parse..flush.
        if (spans.size() + 1 >= kMaxTailSpans) {
            trace->overflow = true;
        } else if (r.kind == Event::Wait) {
            spans.push_back({.t0 = r.ns - r.arg, .t1 = r.ns,
                             .cause = r.site, .shard = r.shard,
                             .kind = SpanKind::Wait});
        } else {
            tx = static_cast<std::ptrdiff_t>(spans.size());
            spans.push_back({.t0 = r.ns, .site = r.site,
                             .shard = r.shard, .attempt = r.arg,
                             .kind = SpanKind::Tx, .serial = r.serial});
        }
    }
    spans.push_back(
        {.t0 = end_ns, .shard = shard, .kind = SpanKind::Flush});
    return trace;
}

void
offerTrace(PendingTrace trace)
{
    const std::size_t k = g_tailK.load(std::memory_order_relaxed);
    if (trace == nullptr || k == 0)
        return;
    const std::uint64_t floor = g_minNs.load(std::memory_order_relaxed);
    if (floor != 0 && trace->totalNs() <= floor)
        return;  // Faster than everything kept: no lock taken.
    // Heap order: smallest total latency at the front, so the cheapest
    // kept trace is the one a slower newcomer evicts.
    auto slowerThan = [](const PendingTrace &a, const PendingTrace &b) {
        return a->totalNs() > b->totalNs();
    };
    std::lock_guard<std::mutex> guard(g_keepMu);
    g_keep.push_back(std::move(trace));
    std::push_heap(g_keep.begin(), g_keep.end(), slowerThan);
    while (g_keep.size() > k) {
        std::pop_heap(g_keep.begin(), g_keep.end(), slowerThan);
        g_keep.pop_back();
    }
    g_minNs.store(g_keep.size() >= k ? g_keep.front()->totalNs() : 0,
                  std::memory_order_relaxed);
}

} // namespace detail

void
finishRequest(PendingTrace trace, std::uint64_t end_ns)
{
    if (trace == nullptr)
        return;
    trace->endNs = std::max(end_ns, trace->startNs);
    trace->spans.back().t1 = trace->endNs;  // The fold's open flush span.
    detail::offerTrace(std::move(trace));
}

void
armTail(std::size_t k)
{
    g_tailK.store(k == 0 ? kDefaultTailK : k,
                  std::memory_order_relaxed);
    resetTail();
    // Release publishes the K/reservoir configuration written above:
    // a worker that acquires the latch in requestBeginSlow() must see
    // it (armed-latch protocol).
    probe::detail::g_armed.fetch_or(probe::kTailBit,
                                    std::memory_order_release);
}

void
disarmTail()
{
    probe::detail::g_armed.fetch_and(
        static_cast<std::uint8_t>(~probe::kTailBit),
        std::memory_order_release);
}

void
resetTail()
{
    std::lock_guard<std::mutex> guard(g_keepMu);
    g_keep.clear();
    g_minNs.store(0, std::memory_order_relaxed);
    g_considered.store(0, std::memory_order_relaxed);
}

std::size_t
tailK()
{
    return g_tailK.load(std::memory_order_relaxed);
}

std::uint64_t
tailConsidered()
{
    return g_considered.load(std::memory_order_relaxed);
}

void
setTailLabel(const std::string &branch, const std::string &algo)
{
    std::lock_guard<std::mutex> guard(g_labelMu);
    g_branchLabel = branch;
    g_algoLabel = algo;
}

std::vector<std::shared_ptr<const RequestTrace>>
snapshotTail()
{
    std::vector<std::shared_ptr<const RequestTrace>> all;
    {
        std::lock_guard<std::mutex> guard(g_keepMu);
        all.assign(g_keep.begin(), g_keep.end());
    }
    std::sort(all.begin(), all.end(),
              [](const auto &a, const auto &b) {
                  if (a->totalNs() != b->totalNs())
                      return a->totalNs() > b->totalNs();
                  return a->id < b->id;
              });
    return all;
}

namespace
{

std::uint64_t
spanDurNs(const Span &s)
{
    return s.t1 > s.t0 ? s.t1 - s.t0 : 0;
}

void
appendSpanAscii(std::ostringstream &os, const Span &s)
{
    char buf[192];
    if (s.kind == SpanKind::Tx) {
        std::snprintf(buf, sizeof(buf), "tx%u:%s:%s:%s:s%u:%llu",
                      s.attempt, txOutcomeName(s.outcome, s.serial),
                      s.cause != nullptr ? s.cause : "-",
                      s.site != nullptr ? s.site : "-", s.shard,
                      static_cast<unsigned long long>(spanDurNs(s) /
                                                      1000));
    } else if (s.kind == SpanKind::Wait) {
        std::snprintf(buf, sizeof(buf), "wait:%s:s%u:%llu",
                      s.cause != nullptr ? s.cause : "-", s.shard,
                      static_cast<unsigned long long>(spanDurNs(s) /
                                                      1000));
    } else {
        std::snprintf(buf, sizeof(buf), "%s:s%u:%llu",
                      spanKindName(s.kind), s.shard,
                      static_cast<unsigned long long>(spanDurNs(s) /
                                                      1000));
    }
    os << buf;
}

} // namespace

std::string
tailAsciiRows()
{
    const auto traces = snapshotTail();
    std::ostringstream os;
    os << "STAT tail_armed " << (tailArmed() ? 1 : 0) << "\r\n"
       << "STAT tail_k " << tailK() << "\r\n"
       << "STAT tail_considered " << tailConsidered() << "\r\n"
       << "STAT tail_kept " << traces.size() << "\r\n";
    std::size_t rank = 0;
    for (const auto &t : traces) {
        char head[160];
        std::snprintf(head, sizeof(head),
                      "STAT tail%zu id=%llu worker=%u shard=%u "
                      "binary=%d total_us=%llu spans=",
                      rank, static_cast<unsigned long long>(t->id),
                      t->worker, t->shard, t->binary ? 1 : 0,
                      static_cast<unsigned long long>(t->totalNs() /
                                                      1000));
        os << head;
        for (std::size_t i = 0; i < t->spans.size(); ++i) {
            if (i != 0)
                os << ';';
            appendSpanAscii(os, t->spans[i]);
        }
        if (t->overflow)
            os << ";...";
        os << "\r\n";
        ++rank;
    }
    return os.str();
}

std::string
tailToJson()
{
    const auto traces = snapshotTail();
    std::string branch;
    std::string algo;
    {
        std::lock_guard<std::mutex> guard(g_labelMu);
        branch = g_branchLabel;
        algo = g_algoLabel;
    }
    std::ostringstream os;
    os << "{\"schema\":\"tmemc-tail-v1\""
       << ",\"branch\":\"" << jsonEscape(branch.c_str()) << "\""
       << ",\"algo\":\"" << jsonEscape(algo.c_str()) << "\""
       << ",\"armed\":" << (tailArmed() ? "true" : "false")
       << ",\"k\":" << tailK()
       << ",\"considered\":" << tailConsidered()
       << ",\"kept\":" << traces.size() << ",\"requests\":[";
    bool first_req = true;
    for (const auto &t : traces) {
        if (!first_req)
            os << ',';
        first_req = false;
        os << "{\"id\":" << t->id << ",\"worker\":" << t->worker
           << ",\"shard\":" << t->shard
           << ",\"binary\":" << (t->binary ? "true" : "false")
           << ",\"start_ns\":" << t->startNs
           << ",\"total_ns\":" << t->totalNs()
           << ",\"overflow\":" << (t->overflow ? "true" : "false")
           << ",\"spans\":[";
        bool first_span = true;
        for (const Span &s : t->spans) {
            if (!first_span)
                os << ',';
            first_span = false;
            // t0 is trace-relative so timelines read from zero.
            const std::uint64_t rel =
                s.t0 > t->startNs ? s.t0 - t->startNs : 0;
            os << "{\"kind\":\"" << spanKindName(s.kind) << "\""
               << ",\"shard\":" << s.shard << ",\"t0_ns\":" << rel
               << ",\"dur_ns\":" << spanDurNs(s);
            if (s.kind == SpanKind::Tx) {
                os << ",\"attempt\":" << s.attempt
                   << ",\"outcome\":\""
                   << txOutcomeName(s.outcome, s.serial) << "\""
                   << ",\"serial\":" << (s.serial ? "true" : "false")
                   << ",\"site\":\""
                   << jsonEscape(s.site != nullptr ? s.site : "") << "\""
                   << ",\"cause\":\""
                   << jsonEscape(s.cause != nullptr ? s.cause : "")
                   << "\"";
            } else if (s.kind == SpanKind::Wait) {
                os << ",\"cause\":\""
                   << jsonEscape(s.cause != nullptr ? s.cause : "")
                   << "\"";
            }
            os << '}';
        }
        os << "]}";
    }
    os << "]}";
    return os.str();
}

bool
writeTailJsonFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const std::string text = tailToJson();
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
        std::fputc('\n', f) != EOF;
    return std::fclose(f) == 0 && ok;
}

} // namespace tmemc::obs::tail
