/**
 * @file
 * Memory contexts: how code inside a critical section touches shared
 * data.
 *
 * The cache core is written once against a context concept; each
 * branch's section runners hand the body the right context:
 *
 *  - PlainCtx: uninstrumented loads/stores, atomic RMW refcounts,
 *    volatile flag access, naive_* library clones, direct I/O. Used by
 *    the lock-based branches everywhere, and by the IP branch inside
 *    privatized item critical sections (paper Figure 1a).
 *
 *  - TmCtx<C>: instrumented loads/stores through the transaction; for
 *    each unsafe-operation category not yet made safe at branch stage
 *    C, the context performs the paper's in-flight switch (the
 *    transaction aborts and re-executes serial-irrevocably, after
 *    which the direct operation is legal).
 *
 * This mirrors GCC clone generation: one source, one uninstrumented
 * clone, one instrumented clone per branch configuration.
 */

#ifndef TMEMC_MC_CTX_H
#define TMEMC_MC_CTX_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/fault.h"
#include "common/logging.h"
#include "common/sem.h"
#include "mc/branch.h"
#include "tm/api.h"
#include "tm/strict.h"
#include "tmsafe/tm_convert.h"
#include "tmsafe/tm_format.h"
#include "tmsafe/tm_string.h"

namespace tmemc::mc
{

/** Version string stood in for libevent's event_get_version(). */
const char *worklistVersion();

// ----------------------------------------------------------------------
// PlainCtx
// ----------------------------------------------------------------------

/**
 * Uninstrumented memory context: locks (or IP-style privatization)
 * provide the exclusion.
 *
 * It is branch-parameterized for one reason: from the Max stage on,
 * the paper replaces *every* refcount RMW and volatile access with a
 * transaction, including the ones reached from privatized item
 * critical sections — "the availability of transaction expressions
 * meant that the total lines-of-code count did not change". Those
 * become the mini-transactions below, and they are what roughly
 * doubles the IP branch's transaction count in Table 2.
 */
template <BranchCfg C>
struct PlainCtx
{
    template <typename T>
    T
    load(const T *p) const
    {
        TMEMC_STRICT_RAW(p, "PlainCtx::load");
        return *p;
    }

    template <typename T>
    void
    store(T *p, T v) const
    {
        TMEMC_STRICT_RAW(p, "PlainCtx::store");
        *p = v;
    }

    /** Store to a word that is also read outside any section (the
     *  racy hash-expansion pre-check, as in memcached): a relaxed
     *  atomic here, so those reads do not race with a plain store. */
    template <typename T>
    void
    racyStore(T *p, T v) const
    {
        TMEMC_STRICT_RAW(p, "PlainCtx::racyStore");
        __atomic_store(p, &v, __ATOMIC_RELAXED);
    }

    // -- refcounts: memcached's lock_incr / lock_decr ------------------
    std::uint64_t
    refIncr(std::uint64_t *rc) const
    {
        if constexpr (C.useTm && !C.isUnsafe(UnsafeCat::AtomicRmw)) {
            static const tm::TxnAttr attr{"mc:refcount-expr",
                                          tm::TxnKind::Atomic, false};
            return tm::run(attr, [&](tm::TxDesc &tx) {
                const std::uint64_t v = tm::txLoad(tx, rc) + 1;
                tm::txStore(tx, rc, v);
                return v;
            });
        } else {
            return __atomic_add_fetch(rc, 1, __ATOMIC_SEQ_CST);
        }
    }

    std::uint64_t
    refDecr(std::uint64_t *rc) const
    {
        if constexpr (C.useTm && !C.isUnsafe(UnsafeCat::AtomicRmw)) {
            static const tm::TxnAttr attr{"mc:refcount-expr",
                                          tm::TxnKind::Atomic, false};
            return tm::run(attr, [&](tm::TxDesc &tx) {
                const std::uint64_t v = tm::txLoad(tx, rc) - 1;
                tm::txStore(tx, rc, v);
                return v;
            });
        } else {
            return __atomic_sub_fetch(rc, 1, __ATOMIC_SEQ_CST);
        }
    }

    std::uint64_t
    refRead(const std::uint64_t *rc) const
    {
        if constexpr (C.useTm && !C.isUnsafe(UnsafeCat::AtomicRmw)) {
            // Load-only mini-transaction: eligible for the
            // invisible-reader fast path (readOnlyHint).
            static const tm::TxnAttr attr{"mc:refcount-expr",
                                          tm::TxnKind::Atomic, false,
                                          true};
            return tm::run(attr, [&](tm::TxDesc &tx) {
                return tm::txLoad(tx, rc);
            });
        } else {
            return __atomic_load_n(rc, __ATOMIC_SEQ_CST);
        }
    }

    // -- volatile maintenance flags -------------------------------------
    // The legacy code's volatile flag accesses are rendered as relaxed
    // atomics: identical codegen for aligned words, but a defined
    // program under the C++ memory model, so the race-detection
    // discipline (TSan CI) checks the rest of the system instead of
    // drowning in the flags memcached always raced on.
    template <typename T>
    T
    volatileLoad(const T *p) const
    {
        if constexpr (C.useTm && !C.isUnsafe(UnsafeCat::Volatile)) {
            // Transaction expression over the renamed non-volatile;
            // load-only, so hinted for the invisible-reader fast path.
            static const tm::TxnAttr attr{"mc:volatile-expr",
                                          tm::TxnKind::Atomic, false,
                                          true};
            return tm::run(attr,
                           [&](tm::TxDesc &tx) { return tm::txLoad(tx, p); });
        } else {
            T out;
            __atomic_load(const_cast<T *>(p), &out, __ATOMIC_RELAXED);
            return out;
        }
    }

    template <typename T>
    void
    volatileStore(T *p, T v) const
    {
        if constexpr (C.useTm && !C.isUnsafe(UnsafeCat::Volatile)) {
            static const tm::TxnAttr attr{"mc:volatile-expr",
                                          tm::TxnKind::Atomic, false};
            tm::run(attr, [&](tm::TxDesc &tx) { tm::txStore(tx, p, v); });
        } else {
            __atomic_store(p, &v, __ATOMIC_RELAXED);
        }
    }

    // -- library calls (naive same-source clones) -----------------------
    int
    memcmpS(const void *shared, const void *priv, std::size_t n) const
    {
        return tmsafe::naive_memcmp(shared, priv, n);
    }

    void
    memcpyOut(void *priv_dst, const void *shared_src, std::size_t n) const
    {
        tmsafe::naive_memcpy(priv_dst, shared_src, n);
    }

    void
    memcpyIn(void *shared_dst, const void *priv_src, std::size_t n) const
    {
        tmsafe::naive_memcpy(shared_dst, priv_src, n);
    }

    void
    memmoveS(void *shared_dst, const void *shared_src,
             std::size_t n) const
    {
        tmsafe::naive_memmove(shared_dst, shared_src, n);
    }

    unsigned long long
    strtoullS(const char *shared, std::size_t max_len) const
    {
        char buf[128];
        std::size_t i = 0;
        for (; i < max_len && i < sizeof(buf) - 1; ++i) {
            buf[i] = shared[i];
            if (buf[i] == '\0')
                break;
        }
        buf[i < sizeof(buf) - 1 ? i : sizeof(buf) - 1] = '\0';
        return std::strtoull(buf, nullptr, 10);
    }

    int
    snprintfUllS(char *shared_dst, std::size_t n,
                 unsigned long long v) const
    {
        return std::snprintf(shared_dst, n, "%llu", v);
    }

    int
    snprintfStatS(char *shared_dst, std::size_t n, const char *name,
                  unsigned long long v) const
    {
        return std::snprintf(shared_dst, n, "STAT %s %llu\r\n", name, v);
    }

    // -- allocation ------------------------------------------------------
    /**
     * @return nullptr on exhaustion. An allocation hiccup must surface
     * as OpStatus::OutOfMemory (the SERVER_ERROR reply path), never
     * kill the server; callers handle nullptr the same way they handle
     * a slab class at its budget.
     */
    void *
    allocRaw(std::size_t bytes) const
    {
        if (TMEMC_UNLIKELY(fault::shouldFail("mc.ctx.alloc_raw")))
            return nullptr;
        return std::malloc(bytes);
    }

    void freeRaw(void *p) const { std::free(p); }

    // -- I/O and termination ----------------------------------------------
    void
    logEvent(bool enabled, const char *msg) const
    {
        if (enabled)
            std::fprintf(stderr, "%s\n", msg);
    }

    void semPost(Semaphore &s) const { s.post(); }

    void
    assertThat(bool ok, const char *what) const
    {
        if (TMEMC_UNLIKELY(!ok))
            panic("assertion failed: %s", what);
    }

    const char *eventVersion() const { return worklistVersion(); }

    /** Helper-call annotation point; meaningless without a TM. */
    void noteHelper(const char *) const {}
};

// ----------------------------------------------------------------------
// TmCtx
// ----------------------------------------------------------------------

/** Instrumented memory context for branch configuration C. */
template <BranchCfg C>
struct TmCtx
{
    tm::TxDesc &tx;

    template <typename T>
    TM_SAFE T
    load(const T *p) const
    {
        return tm::txLoad(tx, p);
    }

    template <typename T>
    TM_SAFE void
    store(T *p, T v) const
    {
        tm::txStore(tx, p, v);
    }

    /** PlainCtx::racyStore's counterpart: a transactional store. */
    template <typename T>
    TM_SAFE void
    racyStore(T *p, T v) const
    {
        tm::txStore(tx, p, v);
    }

    // -- refcounts -------------------------------------------------------
    TM_CALLABLE std::uint64_t
    refIncr(std::uint64_t *rc) const
    {
        if constexpr (C.isUnsafe(UnsafeCat::AtomicRmw)) {
            tm::unsafeOp(tx, "lock_incr");
            return __atomic_add_fetch(rc, 1, __ATOMIC_SEQ_CST);
        } else {
            const std::uint64_t v = tm::txLoad(tx, rc) + 1;
            tm::txStore(tx, rc, v);
            return v;
        }
    }

    TM_CALLABLE std::uint64_t
    refDecr(std::uint64_t *rc) const
    {
        if constexpr (C.isUnsafe(UnsafeCat::AtomicRmw)) {
            tm::unsafeOp(tx, "lock_decr");
            return __atomic_sub_fetch(rc, 1, __ATOMIC_SEQ_CST);
        } else {
            const std::uint64_t v = tm::txLoad(tx, rc) - 1;
            tm::txStore(tx, rc, v);
            return v;
        }
    }

    TM_CALLABLE std::uint64_t
    refRead(const std::uint64_t *rc) const
    {
        if constexpr (C.isUnsafe(UnsafeCat::AtomicRmw)) {
            tm::unsafeOp(tx, "atomic_load");
            return __atomic_load_n(rc, __ATOMIC_SEQ_CST);
        } else {
            return tm::txLoad(tx, rc);
        }
    }

    // -- volatile maintenance flags (renamed non-volatile at Max) ---------
    template <typename T>
    TM_CALLABLE T
    volatileLoad(const T *p) const
    {
        if constexpr (C.isUnsafe(UnsafeCat::Volatile)) {
            tm::unsafeOp(tx, "volatile-read");
            T out;
            __atomic_load(const_cast<T *>(p), &out, __ATOMIC_RELAXED);
            return out;
        } else {
            return tm::txLoad(tx, p);
        }
    }

    template <typename T>
    TM_CALLABLE void
    volatileStore(T *p, T v) const
    {
        if constexpr (C.isUnsafe(UnsafeCat::Volatile)) {
            tm::unsafeOp(tx, "volatile-write");
            __atomic_store(p, &v, __ATOMIC_RELAXED);
        } else {
            tm::txStore(tx, p, v);
        }
    }

    // -- library calls -----------------------------------------------------
    TM_CALLABLE int
    memcmpS(const void *shared, const void *priv, std::size_t n) const
    {
        noteHelper("memcmp");
        if constexpr (C.isUnsafe(UnsafeCat::Lib)) {
            tm::unsafeOp(tx, "memcmp");
            return tmsafe::naive_memcmp(shared, priv, n);
        } else {
            return tmsafe::tm_memcmp(tx, shared, priv, n);
        }
    }

    TM_CALLABLE void
    memcpyOut(void *priv_dst, const void *shared_src, std::size_t n) const
    {
        noteHelper("memcpy");
        if constexpr (C.isUnsafe(UnsafeCat::Lib)) {
            tm::unsafeOp(tx, "memcpy");
            tmsafe::naive_memcpy(priv_dst, shared_src, n);
        } else {
            tm::txLoadBytes(tx, priv_dst, shared_src, n);
        }
    }

    TM_CALLABLE void
    memcpyIn(void *shared_dst, const void *priv_src, std::size_t n) const
    {
        noteHelper("memcpy");
        if constexpr (C.isUnsafe(UnsafeCat::Lib)) {
            tm::unsafeOp(tx, "memcpy");
            tmsafe::naive_memcpy(shared_dst, priv_src, n);
        } else {
            tm::txStoreBytes(tx, shared_dst, priv_src, n);
        }
    }

    TM_CALLABLE void
    memmoveS(void *shared_dst, const void *shared_src,
             std::size_t n) const
    {
        noteHelper("memmove");
        if constexpr (C.isUnsafe(UnsafeCat::Lib)) {
            tm::unsafeOp(tx, "memmove");
            tmsafe::naive_memmove(shared_dst, shared_src, n);
        } else {
            tmsafe::tm_memmove(tx, shared_dst, shared_src, n);
        }
    }

    TM_CALLABLE unsigned long long
    strtoullS(const char *shared, std::size_t max_len) const
    {
        noteHelper("strtoull");
        if constexpr (C.isUnsafe(UnsafeCat::Lib)) {
            tm::unsafeOp(tx, "strtoull");
            return PlainCtx<C>{}.strtoullS(shared, max_len);
        } else {
            return tmsafe::tm_strtoull(tx, shared, max_len, nullptr, 10);
        }
    }

    TM_CALLABLE int
    snprintfUllS(char *shared_dst, std::size_t n,
                 unsigned long long v) const
    {
        noteHelper("snprintf");
        if constexpr (C.isUnsafe(UnsafeCat::Lib)) {
            tm::unsafeOp(tx, "snprintf");
            return std::snprintf(shared_dst, n, "%llu", v);
        } else {
            return tmsafe::tm_snprintf_ull(tx, shared_dst, n, v);
        }
    }

    TM_CALLABLE int
    snprintfStatS(char *shared_dst, std::size_t n, const char *name,
                  unsigned long long v) const
    {
        noteHelper("snprintf");
        if constexpr (C.isUnsafe(UnsafeCat::Lib)) {
            tm::unsafeOp(tx, "snprintf");
            return std::snprintf(shared_dst, n, "STAT %s %llu\r\n", name,
                                 v);
        } else {
            return tmsafe::tm_snprintf_stat(tx, shared_dst, n, name, v);
        }
    }

    // -- allocation ---------------------------------------------------------
    /** Same nullptr-on-exhaustion contract as PlainCtx::allocRaw. */
    TM_SAFE void *
    allocRaw(std::size_t bytes) const
    {
        if (TMEMC_UNLIKELY(fault::shouldFail("mc.ctx.alloc_raw")))
            return nullptr;
        return tm::txTryMalloc(tx, bytes);
    }

    TM_SAFE void freeRaw(void *p) const { tm::txFree(tx, p); }

    // -- I/O and termination --------------------------------------------------
    TM_CALLABLE void
    logEvent(bool enabled, const char *msg) const
    {
        if (!enabled)
            return;  // The fprintf-if-verbose pattern: conditional.
        if constexpr (C.isUnsafe(UnsafeCat::Io)) {
            tm::unsafeOp(tx, "fprintf");
            std::fprintf(stderr, "%s\n", msg);
        } else {
            tm::onCommit(tx, [msg] { std::fprintf(stderr, "%s\n", msg); });
        }
    }

    TM_CALLABLE void
    semPost(Semaphore &s) const
    {
        if constexpr (C.isUnsafe(UnsafeCat::Io)) {
            tm::unsafeOp(tx, "sem_post");
            s.post();
        } else {
            tm::onCommit(tx, [&s] { s.post(); });
        }
    }

    TM_CALLABLE void
    assertThat(bool ok, const char *what) const
    {
        if (TMEMC_LIKELY(ok))
            return;
        if constexpr (C.isUnsafe(UnsafeCat::Io)) {
            // Pre-onCommit: assert's I/O is an unsafe operation.
            tm::unsafeOp(tx, "assert");
        }
        // Post-onCommit: pure-wrapped terminating assert (paper
        // Section 3.5 — safe because atexit handlers never run and no
        // other thread can observe the doomed state).
        panic("assertion failed: %s", what);
    }

    TM_CALLABLE const char *
    eventVersion() const
    {
        if constexpr (C.isUnsafe(UnsafeCat::Io)) {
            tm::unsafeOp(tx, "event_get_version");
            return worklistVersion();
        } else {
            // Paper: call it once outside any transaction and use the
            // stored value (the version cannot change mid-run).
            static const char *cached = worklistVersion();
            return cached;
        }
    }

    /** transaction_callable / inferred-safety model (Section 2). */
    TM_SAFE void
    noteHelper(const char *name) const
    {
        tm::noteCall(tx,
                     C.annotateCallable ? tm::FnAttr::Callable
                                        : tm::FnAttr::Unannotated,
                     name);
    }
};

} // namespace tmemc::mc

#endif // TMEMC_MC_CTX_H
