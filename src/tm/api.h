/**
 * @file
 * Public transactional-memory API.
 *
 * This is the library rendering of the Draft C++ TM Specification
 * constructs the paper exercises:
 *
 *   __transaction_atomic { S; }   =>  tm::run(attr, [&](tm::TxDesc &tx) { S; })
 *                                     with attr.kind == TxnKind::Atomic
 *   __transaction_relaxed { S; }  =>  ... TxnKind::Relaxed
 *   transactional loads/stores    =>  tm::txLoad / tm::txStore /
 *                                     tm::txLoadBytes / tm::txStoreBytes
 *   onCommit / onAbort handlers   =>  tm::onCommit / tm::onAbort
 *   "in transaction?" query       =>  tm::inTransaction()
 *   transactional malloc/free     =>  tm::txMalloc / tm::txFree
 *
 * Transaction bodies receive the TxDesc explicitly — the analogue of
 * the hidden transaction-context parameter GCC passes to instrumented
 * clones. A body may return a value (transaction expressions).
 *
 * Re-execution semantics: the body lambda is re-invoked from its start
 * on abort, so locals declared inside the body are reinitialized, just
 * as with GCC's checkpoint/longjmp. Captured locals mutated inside the
 * body are NOT rolled back; initialize them at the top of the body.
 */

#ifndef TMEMC_TM_API_H
#define TMEMC_TM_API_H

#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/logging.h"
#include "tm/runtime.h"

namespace tmemc::tm
{

/** This thread's transaction descriptor (registered on first use). */
TM_PURE TxDesc &myDesc();

/** True while the calling thread is inside a transaction. */
TM_PURE bool inTransaction();

namespace detail
{

/** Dispatch a word load through the algorithm or serial fast path.
 *  All transactional loads funnel through here — including the serial
 *  raw path and the invisible-reader fast path — which is what lets
 *  the opacity recorder capture every attempt whole. */
TMEMC_ALWAYS_INLINE std::uint64_t
loadWordDispatch(Runtime &rt, TxDesc &d, std::uintptr_t word_addr)
{
    std::uint64_t w;
    if (d.state == RunState::SerialIrrevocable)
        w = rawLoad(reinterpret_cast<void *>(word_addr));
    else if (d.roFast)
        w = rt.algo().loadWordRO(rt, d, word_addr);
    else
        w = rt.algo().loadWord(rt, d, word_addr);
    if (d.opRecording)
        opacity::noteAccess(d, false, word_addr, w, ~std::uint64_t{0});
    return w;
}

/** Dispatch a word store through the algorithm or serial fast path. */
TMEMC_ALWAYS_INLINE void
storeWordDispatch(Runtime &rt, TxDesc &d, std::uintptr_t word_addr,
                  std::uint64_t val, std::uint64_t mask)
{
    if (d.state == RunState::SerialIrrevocable) {
        void *p = reinterpret_cast<void *>(word_addr);
        rawStore(p, maskMerge(rawLoad(p), val, mask));
        if (d.opRecording)
            opacity::noteAccess(d, true, word_addr, val, mask);
        return;
    }
    if (d.roFast)
        promoteRoFast(d, "store");  // Throws; retry takes the full path.
    rt.algo().storeWord(rt, d, word_addr, val, mask);
    if (d.opRecording)
        opacity::noteAccess(d, true, word_addr, val, mask);
}

} // namespace detail

/**
 * Transactionally copy @p n bytes from shared memory at @p src into
 * private memory at @p dst.
 */
TM_SAFE void txLoadBytes(TxDesc &d, void *dst, const void *src, std::size_t n);

/**
 * Transactionally copy @p n bytes from private memory at @p src into
 * shared memory at @p dst.
 */
TM_SAFE void txStoreBytes(TxDesc &d, void *dst, const void *src, std::size_t n);

/** Transactionally load a trivially copyable value. */
template <typename T>
TM_SAFE T
txLoad(TxDesc &d, const T *addr)
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "transactional access requires trivially copyable types");
    if constexpr (sizeof(T) == 8) {
        if (wordOffset(addr) == 0) {
            const std::uint64_t w = detail::loadWordDispatch(
                Runtime::get(), d, wordBase(addr));
            T out;
            std::memcpy(&out, &w, sizeof(T));
            return out;
        }
    }
    T out;
    txLoadBytes(d, &out, addr, sizeof(T));
    return out;
}

/** Transactionally store a trivially copyable value. */
template <typename T>
TM_SAFE void
txStore(TxDesc &d, T *addr, const T &val)
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "transactional access requires trivially copyable types");
    if constexpr (sizeof(T) == 8) {
        if (wordOffset(addr) == 0) {
            std::uint64_t w;
            std::memcpy(&w, &val, sizeof(T));
            detail::storeWordDispatch(Runtime::get(), d, wordBase(addr), w,
                                      ~std::uint64_t{0});
            return;
        }
    }
    txStoreBytes(d, addr, &val, sizeof(T));
}

/**
 * A shared variable accessed transactionally. rawGet/rawSet bypass
 * instrumentation and require external synchronization (used for
 * initialization and for the IP branch's privatized accesses).
 */
template <typename T>
class TmVar
{
  public:
    constexpr TmVar() = default;
    constexpr explicit TmVar(T v) : val_(v) {}

    /** Transactional read. */
    TM_SAFE T get(TxDesc &d) const { return txLoad(d, &val_); }
    /** Transactional write. */
    TM_SAFE void set(TxDesc &d, const T &v) { txStore(d, &val_, v); }

    /** Uninstrumented read; caller provides synchronization. Escape
     *  hatch like tm/raw.h rawLoad: tmlint flags it inside checked
     *  transaction bodies (rule TM1). */
    TM_PURE T rawGet() const { return const_cast<const volatile T &>(val_); }
    /** Uninstrumented write; caller provides synchronization. Escape
     *  hatch: flagged by tmlint inside checked bodies (rule TM1). */
    TM_PURE void rawSet(const T &v) { const_cast<volatile T &>(val_) = v; }

  private:
    T val_{};
};

/**
 * Register a deferred action to run after the enclosing transaction
 * commits (after all locks are released). Outside a transaction the
 * action runs immediately — the pattern the paper needed
 * inTransaction() for.
 */
TM_SAFE void onCommit(TxDesc &d, std::function<void()> fn);

/** Register a deferred action to run after a rollback, pre-retry. */
TM_SAFE void onAbort(TxDesc &d, std::function<void()> fn);

/**
 * Transaction-safe allocation: memory is usable immediately; if the
 * transaction aborts, the allocation is reclaimed automatically.
 */
TM_SAFE void *txMalloc(TxDesc &d, std::size_t bytes);

/** txMalloc that reports exhaustion: @return nullptr instead of
 *  terminating, for callers with a graceful out-of-memory path. */
TM_SAFE void *txTryMalloc(TxDesc &d, std::size_t bytes);

/**
 * Transaction-safe free: the memory is reclaimed only after commit
 * (and after quiescence), so concurrent doomed readers cannot fault.
 */
TM_SAFE void txFree(TxDesc &d, void *ptr);

/**
 * Execute @p body as a transaction described by @p attr.
 *
 * The body receives the thread's TxDesc and may return a value.
 * Nested calls flatten into the outer transaction. A non-TxAbort
 * exception escaping the body commits the transaction and propagates
 * (the draft specification's behaviour for relaxed transactions).
 */
template <typename F>
TM_SAFE auto
run(const TxnAttr &attr, F &&body) -> std::invoke_result_t<F &, TxDesc &>
{
    using R = std::invoke_result_t<F &, TxDesc &>;
    Runtime &rt = Runtime::get();
    TxDesc &d = myDesc();

    if (d.nesting > 0) {
        // Flat nesting: subsumed by the outer transaction. A relaxed
        // transaction lexically inside an atomic one is a static error
        // in the specification.
        if (attr.kind == TxnKind::Relaxed && d.kind == TxnKind::Atomic &&
            d.state != RunState::SerialIrrevocable) {
            panic("relaxed transaction '%s' nested in atomic '%s'",
                  attr.name, d.attr ? d.attr->name : "?");
        }
        ++d.nesting;
        // The flattened section's privatization needs become the
        // enclosing attempt's (TxDesc::privatizing).
        d.privatizing |= attr.privatizes;
        struct NestGuard
        {
            TxDesc &d;
            ~NestGuard() { --d.nesting; }
        } guard{d};
        return body(d);
    }

    detail::setupTop(rt, d, attr);
    for (;;) {
        detail::beginAttempt(rt, d);
        std::exception_ptr user_exc;
        std::optional<std::conditional_t<std::is_void_v<R>, char, R>> result;
        try {
            if constexpr (std::is_void_v<R>)
                body(d);
            else
                result.emplace(body(d));
        } catch (TxAbort &) {
            detail::handleAbort(rt, d);
            continue;
        } catch (TxRetry &) {
            detail::handleRetry(rt, d);
            continue;
        } catch (...) {
            // Commit-on-escape semantics for exceptions.
            user_exc = std::current_exception();
        }
        try {
            detail::commitAttempt(rt, d);
        } catch (TxAbort &) {
            detail::handleAbort(rt, d);
            continue;
        }
        detail::finishCommit(rt, d);
        if (user_exc)
            std::rethrow_exception(user_exc);
        if constexpr (std::is_void_v<R>)
            return;
        else
            return std::move(*result);
    }
}

/** Convenience: run an atomic transaction with an ad-hoc static attr. */
#define TMEMC_TXN_SITE(var, site_name, txn_kind, starts_serial)            \
    static const ::tmemc::tm::TxnAttr var{site_name, txn_kind,             \
                                          starts_serial}

} // namespace tmemc::tm

#endif // TMEMC_TM_API_H
