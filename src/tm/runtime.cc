/**
 * @file
 * Runtime singleton, per-slot descriptors, quiescence, and the
 * begin/commit/abort orchestration behind tm::run().
 */

#include "tm/runtime.h"

#include <algorithm>
#include <cstdlib>
#include <new>
#include <thread>

#include "common/logging.h"
#include "obs/hist.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "tm/api.h"
#include "tm/strict.h"

namespace tmemc::tm
{

Runtime::Runtime() : home_(RuntimeCfg{}.orecTableBits)
{
    configure(RuntimeCfg{});
    // Fold the cross-thread stats into the metrics registry under the
    // "tm_" prefix.
    obs::MetricsRegistry::get().registerSource("tm", [this] {
        const StatBlock total = this->snapshot().total;
        std::vector<obs::Counter> out;
        for (const StatField &f : kStatFields)
            out.push_back({f.name, total.*f.field});
        return out;
    });
}

Runtime &
Runtime::get()
{
    static Runtime instance;
    return instance;
}

// atom-nonblocking: scans the thread slots like quiesce()
void
Runtime::configure(const RuntimeCfg &cfg)
{
    if (!cfg.useSerialLock && cfg.cm == CmKind::SerialAfterN) {
        fatal("SerialAfterN contention management requires the serial "
              "lock; configure a different CM for NoLock mode");
    }
    if (!cfg.useSerialLock && cfg.algo == AlgoKind::Serial)
        fatal("the Serial algorithm requires the serial lock");

    const std::size_t n = thread_slot::highWater();
    for (std::size_t i = 0; i < n; ++i) {
        const TxDesc *d = descs_[i].load(std::memory_order_acquire);
        if (d != nullptr && d->state != RunState::Inactive)
            panic("Runtime::configure called with a transaction in flight");
    }

    cfg_ = cfg;
    algo_ = &algoFor(cfg.algo);
    cm_ = &cmFor(cfg.cm);
    home_.reset(cfg.orecTableBits);
}

TxDesc &
Runtime::myDesc()
{
    const thread_slot::Claim &me = thread_slot::mine();
    TxDesc *d = descs_[me.index].load(std::memory_order_acquire);
    if (d == nullptr) [[unlikely]] {
        d = new (descStore_[me.index]) TxDesc;
        descs_[me.index].store(d, std::memory_order_release);
    }
    // A new owner of the slot: same descriptor, fresh thread id (the
    // opacity checker keys program order on it).
    d->threadId = me.id;
    return *d;
}

// atom-nonblocking: every committer scans; descriptors are never freed
void
Runtime::quiesce(TxDomain *domain, std::uint64_t commit_time,
                 const TxDesc *self)
{
    // Pairs with the fence in TxDesc::publishStart: the commit's orec
    // and clock stores are ordered before the loads below. A thread's
    // slot claim stores the high-water mark and its descriptor before
    // its first publishStart, so the same pair covers a new thread.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    obs::probe::WaitStamp wait("quiesce");
    const std::size_t n = thread_slot::highWater();
    for (std::size_t i = 0; i < n; ++i) {
        const TxDesc *other = descs_[i].load(std::memory_order_acquire);
        if (other == nullptr || other == self)
            continue;
        for (;;) {
            const std::uint64_t pub =
                other->pubStart.load(std::memory_order_acquire);
            if (pub == 0 || pub - 1 >= commit_time)
                break;
            // Cross-domain starts are on unrelated clocks; comparing
            // them would stall this committer behind transactions that
            // can never read its domain's memory. The domain store
            // precedes the start publication (release order), so a
            // mismatch here means either a genuinely foreign
            // transaction or one that already unpublished.
            if (other->domain.load(std::memory_order_relaxed) != domain)
                break;
            wait.spin();
            std::this_thread::yield();
        }
    }
}

StatsSnapshot
Runtime::fold() const
{
    const std::size_t n = thread_slot::highWater();
    StatsSnapshot snap;
    snap.abortsPerThread.resize(n);
    snap.commitsPerThread.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (const TxDesc *d = descs_[i].load(std::memory_order_acquire)) {
            const StatBlock sum = d->stats.foldInto(snap);
            snap.abortsPerThread[i] = sum.aborts;
            snap.commitsPerThread[i] = sum.commits;
        }
    }
    return snap;
}

StatsSnapshot
Runtime::snapshot()
{
    // The mutex hand-off orders this fold's counter reads after the
    // baseline's, and read-read coherence then guarantees that no
    // counter reads below its baseline: the subtraction cannot wrap.
    std::lock_guard<std::mutex> guard(statsMu_);
    StatsSnapshot snap = fold();
    snap.subtract(statsBase_);
    return snap;
}

void
Runtime::resetStats()
{
    std::lock_guard<std::mutex> guard(statsMu_);
    statsBase_ = fold();
}

TxDesc &
myDesc()
{
    return Runtime::get().myDesc();
}

bool
inTransaction()
{
    return myDesc().nesting > 0;
}

#if TMEMC_TM_STRICT

namespace strict
{

bool
inSpeculativeTx()
{
    return myDesc().state == RunState::Speculative;
}

void
violation(const void *addr, const char *what)
{
    const TxDesc &d = myDesc();
    std::fprintf(stderr,
                 "tm-strict: uninstrumented access to shared word %p via "
                 "%s inside %s transaction '%s' (thread %llu)\n",
                 addr, what,
                 d.kind == TxnKind::Atomic ? "atomic" : "relaxed",
                 d.attr != nullptr ? d.attr->name : "?",
                 static_cast<unsigned long long>(d.threadId));
    // Leave the event tail on stderr even when the recorder was not
    // armed via --trace: the rings may still hold records from an
    // earlier armed window, and the dump header orients the reader.
    const std::string tail = obs::probe::dumpRing();
    std::fputs("tm-strict: flight recorder tail follows\n", stderr);
    std::fputs(tail.empty() ? "(flight recorder empty)\n" : tail.c_str(),
               stderr);
    panic("tm-strict violation: raw access via %s while speculative",
          what);
}

} // namespace strict

#endif // TMEMC_TM_STRICT

// ---------------------------------------------------------------------
// Ambient transaction domain
// ---------------------------------------------------------------------

namespace
{

thread_local TxDomain *tlsDomain = nullptr;

} // namespace

TxDomain *
currentDomain()
{
    return tlsDomain;
}

DomainScope::DomainScope(TxDomain *domain) : prev_(tlsDomain)
{
    tlsDomain = domain;
}

DomainScope::~DomainScope()
{
    tlsDomain = prev_;
}

// ---------------------------------------------------------------------
// Orchestration
// ---------------------------------------------------------------------

namespace detail
{

using obs::probe::Event;

/**
 * The one call each lifecycle point makes: bump this thread's stats
 * for @p ev, record the Tx/TxSerial/TxAttempts histograms on commit,
 * and feed the probe stream. @p cause: the unsafe op or promotion
 * trigger of a TxCause event (a static string). A template so each
 * call site compiles to its own event's work only.
 */
template <Event ev>
void
txEvent(Runtime &rt, TxDesc &d, const char *cause = nullptr)
{
    const TxnAttr &attr = *d.attr;
    LiveBlock &site = d.stats.site(attr);
    bool serial = d.state == RunState::SerialIrrevocable;
    switch (ev) {
      case Event::TxBegin:
        serial = d.pendingSerialRestart || rt.cfg().algo == AlgoKind::Serial;
        if (d.obsAttempts == 1)
            site.bump(Stat::Txns);
        break;
      case Event::TxCommit: {
        site.bump(Stat::Commits);
        // SerialCause Start..Abort map onto StartSerial..AbortSerial.
        if (d.serialCause != SerialCause::None) {
            site.bump(static_cast<Stat>(
                static_cast<unsigned>(Stat::StartSerial) +
                static_cast<unsigned>(d.serialCause) - 1));
        }
        if (serial) {
            site.bump(Stat::SerialCommits);
        } else if (d.roFast) {
            site.bump(Stat::ReadOnlyCommits);
            site.bump(Stat::RoFastCommits);
        } else if (rt.algo().isReadOnly(d)) {
            site.bump(Stat::ReadOnlyCommits);
        }
        const std::uint64_t end_ns = obs::nowNanos();
        obs::hist(obs::HistKind::Tx).record(end_ns - d.obsStartNs);
        if (d.obsSerialStartNs != 0) {
            obs::hist(obs::HistKind::TxSerial)
                .record(end_ns - d.obsSerialStartNs);
        }
        // Attempts are scaled by 1000 so the histogram's microsecond-
        // named quantiles read directly as attempt counts (see
        // obs/metrics.h).
        obs::hist(obs::HistKind::TxAttempts)
            .record(std::uint64_t{d.obsAttempts} * 1000);
        break;
      }
      case Event::TxAbort:
        site.bump(Stat::Aborts);
        break;
      case Event::TxPromote:
        site.bump(Stat::RoPromotions);
        break;
      case Event::TxRetry:
        site.bump(Stat::Retries);
        break;
      case Event::TxCause:
        // unsafeOp() flags the switch before emitting its cause; a
        // promotion trigger is not serialization blame.
        if (d.abortIsSwitch)
            d.stats.blame(attr, cause);
        break;
      default:
        break;
    }
    obs::probe::emit(ev, attr.name, d.obsAttempts, cause, serial);
}

void
setupTop(Runtime &rt, TxDesc &d, const TxnAttr &attr)
{
    if (attr.startsSerial && attr.kind == TxnKind::Atomic)
        panic("atomic transaction '%s' cannot be start-serial", attr.name);
    // Bind the ambient domain before any start time can be published:
    // quiesce() pairs its pubStart acquire with the publish release, so
    // this relaxed store is ordered before the publication it tags.
    TxDomain *domain = tlsDomain;
    d.domain.store(domain != nullptr ? domain : &rt.homeDomain(),
                   std::memory_order_relaxed);
    d.attr = &attr;
    d.kind = attr.kind;
    d.serialCause = attr.startsSerial ? SerialCause::Start
                                      : SerialCause::None;
    d.pendingSerialRestart = attr.startsSerial;
    d.abortIsSwitch = false;
    d.roFast = false;
    d.roPromote = false;
    d.consecAborts = 0;
    d.obsStartNs = obs::nowNanos();
    d.obsSerialStartNs = 0;
    d.obsAttempts = 0;
    d.onCommitHandlers.clear();
    d.onAbortHandlers.clear();
    d.commitFrees.clear();
    d.abortFrees.clear();
}

void
beginAttempt(Runtime &rt, TxDesc &d)
{
    rt.cm().beforeBegin(rt, d);

    const bool serial =
        d.pendingSerialRestart || rt.cfg().algo == AlgoKind::Serial;
    d.clearSets();
    d.nesting = 1;
    d.obsAttempts++;
    // Latch the opacity recorder before any lock wait or access: the
    // begin stamp may only predate the attempt's first access.
    opacity::beginRecord(d);
    // Emitted before any lock wait: a serial attempt's wait for the
    // write lock is part of the serialization cost its tail span must
    // attribute.
    txEvent<Event::TxBegin>(rt, d);
    if (serial) {
        // Serial-mode time includes the wait for the write lock: that
        // wait is part of the serialization cost the paper measures.
        if (d.obsSerialStartNs == 0)
            d.obsSerialStartNs = obs::nowNanos();
        if (!rt.cfg().useSerialLock) {
            fatal("transaction '%s' requires serialization, but the "
                  "serial lock was removed (NoLock mode); cause=%d",
                  d.attr->name, static_cast<int>(d.serialCause));
        }
        d.dom().serialLock.writeLock();
        d.state = RunState::SerialIrrevocable;
        return;
    }
    if (rt.cfg().useSerialLock)
        d.dom().serialLock.readLock();
    d.state = RunState::Speculative;
    // Invisible-reader fast path: hinted read-only sites skip the read
    // set and orec writes entirely. The start time is still published —
    // writer commits must quiesce on fast readers like any others.
    if (rt.cfg().roFastPath && d.attr->readOnlyHint && !d.roPromote &&
        rt.algo().beginRO(rt, d)) {
        d.roFast = true;
        return;
    }
    rt.algo().begin(rt, d);
}

void
commitAttempt(Runtime &rt, TxDesc &d)
{
    if (d.state == RunState::Speculative) {
        if (d.roFast) {
            // Invisible-reader commit: every load was validated against
            // the begin snapshot as it happened, so the attempt is a
            // consistent snapshot already. No clock movement, nothing
            // to release, nothing to quiesce on.
            d.unpublishStart();
            if (rt.cfg().useSerialLock)
                d.dom().serialLock.readUnlock();
            return;
        }
        // Throws TxAbort if validation fails.
        const std::uint64_t quiesce_at = rt.algo().commit(rt, d);
        d.unpublishStart();
        if (rt.cfg().useSerialLock)
            d.dom().serialLock.readUnlock();
        // Privatization safety / safe reclamation: wait out every
        // transaction that started before this commit. Must happen
        // after unpublishing so concurrent committers cannot deadlock.
        if (quiesce_at != 0)
            rt.quiesce(&d.dom(), quiesce_at, &d);
    } else {
        // A serial attempt writes raw and moves neither clock, so a
        // transaction parked in handleRetry would sleep past it. Step
        // the word that wait watches. Uninstrumented code in the body
        // may write too, so there is no cheap "did it write" test; a
        // spurious wake-up costs one re-execution, a lost one hangs.
        // No speculative attempt runs while the write lock is held, so
        // the step races no committer, and NOrec's seqlock stays even.
        TxDomain &dom = d.dom();
        if (rt.cfg().algo == AlgoKind::NOrec)
            dom.norecSeq.fetch_add(2, std::memory_order_release);
        else
            dom.clock.fetch_add(1, std::memory_order_release);
        dom.serialLock.writeUnlock();
    }
}

void
finishCommit(Runtime &rt, TxDesc &d)
{
    // Commit already took effect in commitAttempt, so the end stamp
    // lands after the attempt completed (a wider window is sound).
    opacity::finishRecord(d, /*committed=*/true,
                          d.state == RunState::SerialIrrevocable,
                          d.roFast);
    txEvent<Event::TxCommit>(rt, d);

    d.state = RunState::Inactive;
    d.nesting = 0;
    d.roFast = false;
    rt.cm().afterCommit(rt, d);

    // Deferred frees: safe now — commit() already quiesced, so no
    // doomed transaction still holds speculative references.
    for (void *p : d.commitFrees)
        std::free(p);
    d.commitFrees.clear();
    d.abortFrees.clear();
    d.onAbortHandlers.clear();

    // onCommit handlers run after every lock is released (GCC
    // semantics); they may themselves start transactions.
    d.onCommitHandlers.runAndClear();
}

/**
 * Undo the running speculative attempt: roll back, unpublish, close
 * the opacity record, reclaim speculative allocations and run the
 * onAbort handlers. @return whether it ran on the invisible-reader
 * fast path.
 */
bool
rollbackAttempt(Runtime &rt, TxDesc &d)
{
    const bool was_ro_fast = d.roFast;
    d.roFast = false;
    rt.algo().rollback(rt, d);
    d.unpublishStart();
    if (rt.cfg().useSerialLock)
        d.dom().serialLock.readUnlock();
    // Stamp after rollback: the aborted attempt's window closes once
    // its speculative effects are fully undone.
    opacity::finishRecord(d, /*committed=*/false, /*serial=*/false,
                          was_ro_fast);
    d.state = RunState::Inactive;
    d.nesting = 0;
    for (void *p : d.abortFrees)
        std::free(p);
    d.abortFrees.clear();
    d.commitFrees.clear();
    d.onAbortHandlers.runAndClear();
    d.onCommitHandlers.clear();
    return was_ro_fast;
}

void
handleAbort(Runtime &rt, TxDesc &d)
{
    if (d.state == RunState::SerialIrrevocable)
        panic("serial-irrevocable transaction '%s' aborted", d.attr->name);
    const bool was_ro_fast = rollbackAttempt(rt, d);
    if (d.abortIsSwitch) {
        // The rollback exists only to restart in serial mode; it does
        // not feed the contention manager.
        txEvent<Event::TxSwitch>(rt, d);
        d.abortIsSwitch = false;
        return;
    }
    if (was_ro_fast && d.roPromote) {
        // Promotion, not a conflict: the body needs write-path
        // machinery the fast path lacks. The retry runs fully
        // instrumented; the contention manager is not consulted.
        txEvent<Event::TxPromote>(rt, d);
        return;
    }
    if (was_ro_fast) {
        // Fast-path conflict: with no read set the attempt cannot
        // extend past the conflicting commit, but the full path can.
        // Retry there — and still charge the abort below, because this
        // was a genuine data conflict.
        d.roPromote = true;
    }

    txEvent<Event::TxAbort>(rt, d);
    d.consecAborts++;
    if (rt.cm().afterAbort(rt, d) && !d.pendingSerialRestart) {
        d.pendingSerialRestart = true;
        if (d.serialCause == SerialCause::None)
            d.serialCause = SerialCause::Abort;
    }
}

void
promoteRoFast(TxDesc &d, const char *what)
{
    txEvent<Event::TxCause>(Runtime::get(), d, what);
    d.roPromote = true;
    throw TxAbort{};
}

} // namespace detail

namespace detail
{

void
handleRetry(Runtime &rt, TxDesc &d)
{
    // Wait against the snapshot the attempt's reads were validated
    // at: the orec algorithms' start time (extensions included) or
    // NOrec's seqlock value. Re-reading the clock here instead would
    // miss a commit that landed between a read and this point, and
    // nothing would ever wake us.
    TxDomain &dom = d.dom();
    const bool norec = rt.cfg().algo == AlgoKind::NOrec;
    const std::uint64_t seen = norec ? d.norecSnapshot : d.startTime;
    rollbackAttempt(rt, d);

    // Wait for any writer commit in this domain since that snapshot.
    // A full implementation would watch only the read set's orecs;
    // waiting on the domain clock is the simple, conservative version
    // (cf. NOrec-style retry): a spurious wake-up costs one
    // re-execution, a lost one hangs. Foreign-domain commits cannot
    // change anything this transaction read, so they rightly do not
    // wake it.
    while ((norec ? dom.norecSeq.load(std::memory_order_acquire)
                  : dom.clock.load(std::memory_order_acquire)) == seen)
        std::this_thread::yield();
    // Emitted after the wait: the blocked time is the retry's cost,
    // and the tail span chain must show where it went.
    txEvent<Event::TxRetry>(rt, d);
}

} // namespace detail

void
retry(TxDesc &d)
{
    if (d.nesting == 0)
        panic("tm::retry() outside a transaction");
    if (d.state == RunState::SerialIrrevocable) {
        panic("tm::retry() in serial-irrevocable transaction '%s': an "
              "irrevocable transaction excludes the commits it would "
              "wait for",
              d.attr ? d.attr->name : "?");
    }
    throw TxRetry{};
}

void
unsafeOp(TxDesc &d, const char *what)
{
    if (d.nesting == 0)
        return;  // Non-transactional context: nothing to do.
    if (d.kind == TxnKind::Atomic) {
        panic("atomic transaction '%s' attempted unsafe operation '%s' "
              "(the specification rejects this statically)",
              d.attr ? d.attr->name : "?", what);
    }
    if (d.state == RunState::SerialIrrevocable)
        return;  // Already irrevocable.

    // GCC's in-flight switch: abort the speculative attempt and restart
    // the transaction serially (paper Section 3.3).
    if (d.serialCause == SerialCause::None ||
        d.serialCause == SerialCause::Start) {
        d.serialCause = SerialCause::InFlight;
    }
    d.pendingSerialRestart = true;
    d.abortIsSwitch = true;
    // Record what forced the switch (the diagnostic the paper had to
    // build into GCC via execinfo).
    detail::txEvent<detail::Event::TxCause>(Runtime::get(), d, what);
    throw TxAbort{};
}

void
noteCall(TxDesc &d, FnAttr fn_attr, const char *name)
{
    if (d.nesting == 0)
        return;
    switch (fn_attr) {
      case FnAttr::Safe:
      case FnAttr::Callable:
      case FnAttr::Pure:
        return;
      case FnAttr::Unannotated:
        if (!Runtime::get().cfg().inferCallableSafety)
            unsafeOp(d, name);
        return;
    }
}

// ---------------------------------------------------------------------
// Handler and allocation API
// ---------------------------------------------------------------------

void
onCommit(TxDesc &d, std::function<void()> fn)
{
    if (d.nesting == 0) {
        fn();  // Outside a transaction: run immediately.
        return;
    }
    if (d.roFast)
        detail::promoteRoFast(d, "tm::onCommit");
    d.onCommitHandlers.push(std::move(fn));
}

void
onAbort(TxDesc &d, std::function<void()> fn)
{
    if (d.nesting == 0)
        return;
    if (d.roFast)
        detail::promoteRoFast(d, "tm::onAbort");
    d.onAbortHandlers.push(std::move(fn));
}

void *
txMalloc(TxDesc &d, std::size_t bytes)
{
    void *p = txTryMalloc(d, bytes);
    if (p == nullptr)
        fatal("txMalloc: out of memory (%zu bytes)", bytes);
    return p;
}

void *
txTryMalloc(TxDesc &d, std::size_t bytes)
{
    void *p = std::malloc(bytes);
    if (p == nullptr)
        return nullptr;
    if (d.nesting > 0 && d.state == RunState::Speculative)
        d.abortFrees.push_back(p);
    return p;
}

void
txFree(TxDesc &d, void *ptr)
{
    if (ptr == nullptr)
        return;
    if (d.nesting == 0) {
        std::free(ptr);
        return;
    }
    // A deferred free relies on commit-time quiescence to wait out
    // doomed readers; the fast path skips quiescence, so it cannot
    // safely reclaim shared memory.
    if (d.roFast)
        detail::promoteRoFast(d, "tm::txFree");
    d.commitFrees.push_back(ptr);
}

// ---------------------------------------------------------------------
// Byte-granular transactional access
// ---------------------------------------------------------------------

void
txLoadBytes(TxDesc &d, void *dst, const void *src, std::size_t n)
{
    if (d.nesting == 0 || d.state == RunState::Inactive)
        panic("txLoadBytes outside a transaction");
    Runtime &rt = Runtime::get();
    auto *out = static_cast<unsigned char *>(dst);
    std::uintptr_t cur = reinterpret_cast<std::uintptr_t>(src);
    std::size_t remaining = n;
    while (remaining > 0) {
        const std::uintptr_t base = cur & ~std::uintptr_t{wordBytes - 1};
        const std::size_t off = cur - base;
        const std::size_t len = std::min(wordBytes - off, remaining);
        const std::uint64_t w = detail::loadWordDispatch(rt, d, base);
        std::memcpy(out, reinterpret_cast<const char *>(&w) + off, len);
        out += len;
        cur += len;
        remaining -= len;
    }
}

void
txStoreBytes(TxDesc &d, void *dst, const void *src, std::size_t n)
{
    if (d.nesting == 0 || d.state == RunState::Inactive)
        panic("txStoreBytes outside a transaction");
    Runtime &rt = Runtime::get();
    const auto *in = static_cast<const unsigned char *>(src);
    std::uintptr_t cur = reinterpret_cast<std::uintptr_t>(dst);
    std::size_t remaining = n;
    while (remaining > 0) {
        const std::uintptr_t base = cur & ~std::uintptr_t{wordBytes - 1};
        const std::size_t off = cur - base;
        const std::size_t len = std::min(wordBytes - off, remaining);
        std::uint64_t w = 0;
        std::memcpy(reinterpret_cast<char *>(&w) + off, in, len);
        detail::storeWordDispatch(rt, d, base, w, byteMask(off, len));
        in += len;
        cur += len;
        remaining -= len;
    }
}

} // namespace tmemc::tm
