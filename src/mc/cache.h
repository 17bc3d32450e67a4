/**
 * @file
 * CacheCore<Policy>: the memcached-like cache, written once against
 * the section/context policy so that all branches of the paper's
 * Section 3 ladder compile from a single source.
 *
 * Lock/transaction domains (after memcached 1.4.15):
 *  - cache domain: hash-table structure and chains, LRU lists, CAS
 *    counter, expansion state;
 *  - item domain (bucket-striped): item *content* — value bytes and
 *    per-item metadata touched between find and release;
 *  - slabs domain: free lists, page accounting;
 *  - stats domain: global counters (plus per-thread stat sections).
 *
 * The canonical order is item < cache < slabs < stats, and exactly as
 * in the paper it is violated on the eviction and slab-rebalance
 * paths, which *trylock* an item lock while holding the cache lock.
 *
 * A get spans three sections: find+refcount-incr (cache), value copy
 * (item), refcount-decr/release (cache). The reference count is what
 * keeps the item alive between sections; this is the cross-domain
 * window the refcounts exist for.
 */

#ifndef TMEMC_MC_CACHE_H
#define TMEMC_MC_CACHE_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "common/padded.h"
#include "obs/probe.h"
#include "tm/domain.h"
#include "tm/runtime.h"
#include "mc/assoc.h"
#include "mc/branch.h"
#include "mc/hash.h"
#include "mc/item.h"
#include "mc/lru.h"
#include "mc/mcstats.h"
#include "mc/settings.h"
#include "mc/site.h"
#include "mc/slabs.h"
#include "mc/sync_lock.h"

namespace tmemc::mc
{

// ----------------------------------------------------------------------
// Critical-section sites: name + static unsafe-category analysis.
// (What the spec's compiler derives; see site.h.)
// ----------------------------------------------------------------------
namespace sites
{
// get-find touches current_time (a volatile), the key comparison, and
// the refcount only on the hit path: conditionally unsafe, so it is
// relaxed and *switches in flight* when a hit occurs (Table 1's
// In-Flight Switch column). item-release leads unconditionally with a
// refcount RMW and the global-stats section with a volatile probe:
// those *start serial* (the Start Serial column).
//
// The four sites declared /*privatizes=*/false (get-find,
// item-release, stats-global, thread-stats) write only counters,
// refcounts and LRU links, words no code touches outside a
// transaction, and free only through the nested mc:slabs-free section,
// which stays privatizing. So a GET's find and release commits and the
// stats bumps skip the quiescence scan, while a GET that frees an item
// still waits (site.h, SiteInfo::privatizes).
inline const SiteInfo getFind{"mc:get-find", kNoUnsafe,
                              kVolatile | kLib | kRmw | kIo,
                              /*read_only=*/false, /*privatizes=*/false};
// get-copy only reads shared state (the value bytes stream into the
// caller's private buffer), so it carries the read-only hint: branches
// where the memcpy is transaction-safe run it as an invisible reader.
inline const SiteInfo getCopy{"mc:get-copy", kLib, kIo, true};
inline const SiteInfo release{"mc:item-release", kRmw, kIo,
                              /*read_only=*/false, /*privatizes=*/false};
inline const SiteInfo alloc{"mc:slabs-alloc", kNoUnsafe, kIo};
inline const SiteInfo evict{"mc:evict", kNoUnsafe, kRmw | kLib | kIo};
inline const SiteInfo storeLink{"mc:store-link", kNoUnsafe,
                                kLib | kRmw | kIo};
inline const SiteInfo globalStats{"mc:stats-global", kVolatile, kNoUnsafe,
                                  /*read_only=*/false,
                                  /*privatizes=*/false};
inline const SiteInfo expandTrigger{"mc:expand-trigger", kVolatile, kIo};
inline const SiteInfo del{"mc:delete", kNoUnsafe, kLib | kRmw | kIo};
inline const SiteInfo arithFind{"mc:arith-find", kNoUnsafe,
                                kLib | kRmw | kIo};
inline const SiteInfo arithApply{"mc:arith-apply", kLib, kIo};
inline const SiteInfo concatFind{"mc:concat-find", kNoUnsafe,
                                 kLib | kRmw | kIo};
inline const SiteInfo concatApply{"mc:concat-apply", kLib, kIo};
inline const SiteInfo touch{"mc:touch", kNoUnsafe,
                            kVolatile | kLib | kIo};
inline const SiteInfo threadStats{"mc:thread-stats", kNoUnsafe, kNoUnsafe,
                                  /*read_only=*/false,
                                  /*privatizes=*/false};
inline const SiteInfo statsRender{"mc:stats-render", kVolatile | kLib,
                                  kNoUnsafe};
inline const SiteInfo slabsFreeNested{"mc:slabs-free", kNoUnsafe, kIo};
inline const SiteInfo expandStart{"mc:expand-start", kVolatile, kNoUnsafe};
inline const SiteInfo expandStep{"mc:expand-step", kVolatile, kLib | kIo};
inline const SiteInfo rebalPlan{"mc:rebal-plan", kVolatile, kIo};
inline const SiteInfo rebalRun{"mc:rebal-run", kNoUnsafe,
                               kRmw | kLib | kIo};
inline const SiteInfo rebalFinish{"mc:rebal-finish", kVolatile, kIo};
// Fused-get extension: find + copy + bump in one transaction, no
// refcounts — only meaningful once every unsafe category is gone.
inline const SiteInfo getFused{"mc:get-fused", kNoUnsafe,
                               kVolatile | kLib | kIo};
} // namespace sites

/** Store-operation semantics. */
enum class StoreMode : std::uint8_t
{
    Set,      //!< Unconditional store.
    Add,      //!< Store only if absent.
    Replace,  //!< Store only if present.
    Cas,      //!< Store only if the CAS id matches.
};

/** Result codes shared by the protocol layer and benchmarks. */
enum class OpStatus : std::uint8_t
{
    Ok,
    Miss,
    NotStored,
    Exists,    //!< CAS mismatch.
    OutOfMemory,
    BadValue,  //!< Non-numeric value for incr/decr.
};

/** Outcome of a GET: status and, on a hit, value length and CAS id. */
struct GetResult
{
    OpStatus status = OpStatus::Miss;
    std::size_t vlen = 0;
    std::uint64_t casId = 0;
};

/** The cache, parameterized by a synchronization policy. */
template <typename P>
class CacheCore
{
  public:
    static constexpr BranchCfg cfg = P::cfg;

    CacheCore(const Settings &settings, std::uint32_t worker_threads)
        : cfg_(settings),
          domain_(domainOrecBits(settings)),
          policy_(settings.itemLockCount, worker_threads),
          tstats_(worker_threads)
    {
        assocInit(assoc_, settings.hashPowerInit);
        slabsInit(slabs_, settings);
        hashThread_ = std::thread([this] { hashMaintLoop(); });
        slabThread_ = std::thread([this] { slabMaintLoop(); });
    }

    ~CacheCore()
    {
        // Halt the maintainers (Figure 2's halt protocol).
        tm::DomainScope ds(&domain_);
        PlainCtx<cfg> c;
        c.volatileStore(&mxCanRun_, std::uint64_t{0});
        policy_.maintWakeUnlocked(c, MaintDomain::Hash);
        policy_.maintWakeUnlocked(c, MaintDomain::Slab);
        hashThread_.join();
        slabThread_.join();
        releaseAllMemory();
    }

    CacheCore(const CacheCore &) = delete;
    CacheCore &operator=(const CacheCore &) = delete;

    // ------------------------------------------------------------------
    // Operations
    // ------------------------------------------------------------------

    /**
     * GET: copy the value for @p key into @p out.
     * @return status and (on hit) the value length and CAS id.
     */
    GetResult
    get(std::uint32_t tid, const char *key, std::size_t nkey, char *out,
        std::size_t out_cap)
    {
        tm::DomainScope ds(&domain_);
        if constexpr (cfg.fusedGet)
            return getFusedImpl(tid, key, nkey, out, out_cap);
        tickAdvance();
        const std::uint32_t hv = hashKey(key, nkey);
        bumpThreadStat(tid, &ThreadStatsBlock::cmdGet);

        // Phase 1 (cache domain): find, take a reference, LRU bump.
        struct Found
        {
            Item *it = nullptr;
            std::uint32_t nbytes = 0;  //!< Expired items only.
            std::uint64_t cas = 0;
            bool expired = false;
        };
        const Found f = policy_.cacheSection(sites::getFind,
                                             [&](auto &c) -> Found {
            Found r;
            Item *it = assocFind(c, assoc_, key, nkey, hv);
            if (it == nullptr)
                return r;
            const std::uint64_t now = c.volatileLoad(&currentTime_);
            const std::int64_t expt = c.load(&it->exptime);
            if (expt != 0 && static_cast<std::uint64_t>(expt) < now) {
                // Expired: unlink in place.
                if (c.refRead(&it->refcount) == 0) {
                    r.nbytes = c.load(&it->nbytes);
                    unlinkAndFree(c, it, hv);
                    r.expired = true;
                    return r;
                }
            }
            c.refIncr(&it->refcount);
            const std::uint32_t cls = c.load(&it->clsid);
            if (now - c.load(&it->lastBump) >= cfg_.lruBumpInterval) {
                lruBump(c, lru_, it, cls);
                c.store(&it->lastBump, now);
            }
            c.logEvent(cfg_.verbose >= 2, "> GET");
            r.it = it;
            r.cas = c.load(&it->casId);
            return r;
        });

        GetResult res;
        if (f.expired) {
            statsExpired(tid, f.nbytes);
            bumpThreadStat(tid, &ThreadStatsBlock::getMisses);
            return res;
        }
        if (f.it == nullptr) {
            bumpThreadStat(tid, &ThreadStatsBlock::getMisses);
            return res;
        }

        // Phase 2 (item domain): copy the value out. This is the IP/IT
        // fork: a privatized plain copy under the tm-boolean, or an
        // instrumented copy inside an item transaction. The length is
        // read here, not in phase 1: incr/decr and an in-place append
        // or prepend rewrite the value and its length under this same
        // item lock or transaction while we hold our reference.
        const std::uint32_t vlen = policy_.itemSection(
            sites::getCopy, hv, [&](auto &c) -> std::uint32_t {
            const std::uint16_t nk = c.load(&f.it->nkey);
            const std::uint32_t nb = c.load(&f.it->nbytes);
            c.memcpyOut(out, itemValuePtr(f.it, nk),
                        nb < out_cap ? nb : out_cap);
            return nb;
        });
        const std::size_t copy_len = vlen < out_cap ? vlen : out_cap;

        // Phase 3 (cache domain): drop the reference; reclaim if the
        // item was replaced or deleted while we held it.
        policy_.cacheSection(sites::release, [&](auto &c) {
            const std::uint64_t rc = c.refDecr(&f.it->refcount);
            c.assertThat(rc != ~std::uint64_t{0}, "refcount underflow");
            if (rc == 0 &&
                (c.load(&f.it->itFlags) & kItemLinked) == 0) {
                freeItem(c, f.it);
            }
        });

        bumpThreadStat(tid, &ThreadStatsBlock::getHits);
        bumpThreadStat(tid, &ThreadStatsBlock::bytesWritten, copy_len);
        res.status = OpStatus::Ok;
        res.vlen = vlen;
        res.casId = f.cas;
        return res;
    }

    /**
     * SET/ADD/REPLACE/CAS. The item is linked with expiry @p exptime
     * (0 = never), and on Ok its new CAS id — assigned inside the link
     * transaction — is written to @p cas_out when non-null.
     */
    OpStatus
    store(std::uint32_t tid, const char *key, std::size_t nkey,
          const char *val, std::size_t nbytes,
          StoreMode mode = StoreMode::Set, std::uint64_t cas_expected = 0,
          std::int64_t exptime = 0, std::uint64_t *cas_out = nullptr)
    {
        tm::DomainScope ds(&domain_);
        tickAdvance();
        const std::uint32_t hv = hashKey(key, nkey);
        bumpThreadStat(tid, &ThreadStatsBlock::cmdSet);

        const std::size_t need = Item::totalSize(nkey, nbytes);
        const std::uint32_t cls = slabClsid(slabs_, need);
        if (cls >= kMaxSlabClasses)
            return OpStatus::NotStored;  // Too large (SERVER_ERROR).

        Item *fresh = allocItem(tid, cls);
        if (fresh == nullptr) {
            statsOom(tid);
            return OpStatus::OutOfMemory;
        }

        // Fill the fresh (captured) item with plain stores, exactly as
        // GCC's captured-memory optimization allows.
        fresh->refcount = 0;
        fresh->lastBump = currentTimePlain();
        fresh->itFlags = 0;
        fresh->nbytes = static_cast<std::uint32_t>(nbytes);
        fresh->nkey = static_cast<std::uint16_t>(nkey);
        fresh->clsid = static_cast<std::uint8_t>(cls);
        fresh->exptime = exptime;
        std::memcpy(fresh->key(), key, nkey);
        std::memcpy(fresh->value(), val, nbytes);

        // Link (cache domain).
        struct LinkResult
        {
            OpStatus status = OpStatus::Ok;
            bool replaced = false;
            std::uint64_t old_bytes = 0;
            std::uint64_t cas = 0;
        };
        const LinkResult lr = policy_.cacheSection(
            sites::storeLink, [&](auto &c) -> LinkResult {
            LinkResult r;
            Item *old = assocFind(c, assoc_, key, nkey, hv);
            if (mode == StoreMode::Add && old != nullptr) {
                r.status = OpStatus::NotStored;
                return r;
            }
            if (mode == StoreMode::Replace && old == nullptr) {
                r.status = OpStatus::NotStored;
                return r;
            }
            if (mode == StoreMode::Cas) {
                if (old == nullptr) {
                    r.status = OpStatus::Miss;
                    return r;
                }
                if (c.load(&old->casId) != cas_expected) {
                    r.status = OpStatus::Exists;
                    return r;
                }
            }
            if (old != nullptr) {
                r.replaced = true;
                r.old_bytes = c.load(&old->nbytes);
                unlinkLocked(c, old, hv);
            }
            assocInsert(c, assoc_, fresh, hv);
            lruLink(c, lru_, fresh, cls);
            const std::uint64_t cas = c.load(&casCounter_) + 1;
            c.store(&casCounter_, cas);
            c.store(&fresh->casId, cas);
            c.store(&fresh->itFlags, std::uint32_t{kItemLinked});
            c.logEvent(cfg_.verbose >= 2, "> STORE");
            r.cas = cas;
            return r;
        });

        if (lr.status != OpStatus::Ok) {
            // The fresh item never got linked; return its chunk.
            policy_.slabsSection(sites::slabsFreeNested, [&](auto &c) {
                slabsFree(c, slabs_, fresh, cls);
            });
            statsStoreFailed(tid, mode, lr.status);
            return lr.status;
        }

        // Global statistics (stats domain): the unconditional volatile
        // probe here is what makes this transaction start serial until
        // the Max stage.
        policy_.statsSection(sites::globalStats, [&](auto &c) {
            (void)c.volatileLoad(&gstats_.memLimitNear);
            if (!lr.replaced) {
                c.store(&gstats_.currItems, c.load(&gstats_.currItems) + 1);
            }
            c.store(&gstats_.totalItems, c.load(&gstats_.totalItems) + 1);
            const std::uint64_t bytes = c.load(&gstats_.currBytes);
            c.store(&gstats_.currBytes, bytes + nbytes - lr.old_bytes);
        });

        maybeTriggerExpansion();
        bumpThreadStat(tid, &ThreadStatsBlock::bytesRead, nbytes);
        if (cas_out != nullptr)
            *cas_out = lr.cas;
        return OpStatus::Ok;
    }

    /** DELETE. */
    OpStatus
    del(std::uint32_t tid, const char *key, std::size_t nkey)
    {
        tm::DomainScope ds(&domain_);
        tickAdvance();
        const std::uint32_t hv = hashKey(key, nkey);
        struct DelResult
        {
            bool hit = false;
            std::uint64_t bytes = 0;
        };
        const DelResult r = policy_.cacheSection(
            sites::del, [&](auto &c) -> DelResult {
            DelResult d;
            Item *it = assocFind(c, assoc_, key, nkey, hv);
            if (it == nullptr)
                return d;
            d.hit = true;
            d.bytes = c.load(&it->nbytes);
            unlinkLocked(c, it, hv);
            c.logEvent(cfg_.verbose >= 2, "> DELETE");
            return d;
        });
        if (!r.hit) {
            bumpThreadStat(tid, &ThreadStatsBlock::deleteMisses);
            return OpStatus::Miss;
        }
        policy_.statsSection(sites::globalStats, [&](auto &c) {
            (void)c.volatileLoad(&gstats_.memLimitNear);
            c.store(&gstats_.currItems, c.load(&gstats_.currItems) - 1);
            c.store(&gstats_.currBytes,
                    c.load(&gstats_.currBytes) - r.bytes);
        });
        bumpThreadStat(tid, &ThreadStatsBlock::deleteHits);
        return OpStatus::Ok;
    }

    /** INCR/DECR: parse the stored decimal value, adjust, reformat. */
    struct ArithResult
    {
        OpStatus status = OpStatus::Miss;
        std::uint64_t value = 0;
    };

    ArithResult
    arith(std::uint32_t tid, const char *key, std::size_t nkey,
          std::uint64_t delta, bool incr)
    {
        tm::DomainScope ds(&domain_);
        tickAdvance();
        const std::uint32_t hv = hashKey(key, nkey);
        Item *held = policy_.cacheSection(
            sites::arithFind, [&](auto &c) -> Item * {
            Item *it = assocFind(c, assoc_, key, nkey, hv);
            if (it == nullptr)
                return nullptr;
            c.refIncr(&it->refcount);
            return it;
        });
        if (held == nullptr) {
            bumpThreadStat(tid, incr ? &ThreadStatsBlock::incrMisses
                                     : &ThreadStatsBlock::decrMisses);
            return {};
        }

        // Item domain: parse + rewrite the value in place. The parse
        // and reformat are the paper's strtoull/snprintf unsafe
        // library calls inside a critical section.
        ArithResult res;
        policy_.itemSection(sites::arithApply, hv, [&](auto &c) {
            const std::uint16_t nk = c.load(&held->nkey);
            char *val = itemValuePtr(held, nk);
            const std::uint32_t nb = c.load(&held->nbytes);
            const unsigned long long cur = c.strtoullS(val, nb);
            const std::uint64_t next =
                incr ? cur + delta : (cur < delta ? 0 : cur - delta);
            const std::uint32_t cap = capacityFor(held, nk);
            const int len = c.snprintfUllS(val, cap, next);
            c.assertThat(len > 0 && static_cast<std::uint32_t>(len) < cap,
                         "incr result exceeds chunk capacity");
            c.store(&held->nbytes, static_cast<std::uint32_t>(len));
            res.status = OpStatus::Ok;
            res.value = next;
        });

        // Release + CAS bump (cache domain).
        policy_.cacheSection(sites::release, [&](auto &c) {
            const std::uint64_t cas = c.load(&casCounter_) + 1;
            c.store(&casCounter_, cas);
            c.store(&held->casId, cas);
            const std::uint64_t rc = c.refDecr(&held->refcount);
            if (rc == 0 && (c.load(&held->itFlags) & kItemLinked) == 0)
                freeItem(c, held);
        });
        bumpThreadStat(tid, incr ? &ThreadStatsBlock::incrHits
                                 : &ThreadStatsBlock::decrHits);
        return res;
    }

    /**
     * APPEND/PREPEND: extend an existing item's value in place when
     * the chunk has room (prepend shifts the old bytes with the
     * transaction-safe memmove), or atomically replace via CAS when it
     * does not.
     */
    OpStatus
    concat(std::uint32_t tid, const char *key, std::size_t nkey,
           const char *extra, std::size_t nextra, bool append)
    {
        tm::DomainScope ds(&domain_);
        for (int attempt = 0; attempt < 8; ++attempt) {
            tickAdvance();
            const std::uint32_t hv = hashKey(key, nkey);
            bumpThreadStat(tid, &ThreadStatsBlock::cmdSet);

            Item *held = policy_.cacheSection(
                sites::concatFind, [&](auto &c) -> Item * {
                Item *it = assocFind(c, assoc_, key, nkey, hv);
                if (it == nullptr)
                    return nullptr;
                c.refIncr(&it->refcount);
                return it;
            });
            if (held == nullptr)
                return OpStatus::NotStored;  // memcached semantics.

            // Item domain: try the in-place path; otherwise capture
            // the old value and its CAS id for the replace path.
            struct ConcatResult
            {
                bool inPlace = false;
                std::uint64_t cas = 0;
                std::uint32_t oldLen = 0;
            };
            std::vector<char> old_value;
            ConcatResult cr;
            policy_.itemSection(sites::concatApply, hv, [&](auto &c) {
                const std::uint16_t nk = c.load(&held->nkey);
                char *val = itemValuePtr(held, nk);
                const std::uint32_t nb = c.load(&held->nbytes);
                cr.oldLen = nb;
                const std::uint32_t cap = capacityFor(held, nk);
                if (nb + nextra <= cap) {
                    if (append) {
                        c.memcpyIn(val + nb, extra, nextra);
                    } else {
                        // Shift the existing bytes right (overlapping
                        // ranges: the tm_memmove case), then write the
                        // prefix.
                        c.memmoveS(val + nextra, val, nb);
                        c.memcpyIn(val, extra, nextra);
                    }
                    c.store(&held->nbytes,
                            static_cast<std::uint32_t>(nb + nextra));
                    cr.inPlace = true;
                    return;
                }
                old_value.resize(nb);
                c.memcpyOut(old_value.data(), val, nb);
            });

            // Release + CAS bump (in-place concat is a mutation).
            policy_.cacheSection(sites::release, [&](auto &c) {
                if (cr.inPlace) {
                    const std::uint64_t cas = c.load(&casCounter_) + 1;
                    c.store(&casCounter_, cas);
                    c.store(&held->casId, cas);
                } else {
                    cr.cas = c.load(&held->casId);
                }
                const std::uint64_t rc = c.refDecr(&held->refcount);
                if (rc == 0 &&
                    (c.load(&held->itFlags) & kItemLinked) == 0)
                    freeItem(c, held);
            });
            if (cr.inPlace) {
                bumpThreadStat(tid, &ThreadStatsBlock::bytesRead, nextra);
                policy_.statsSection(sites::globalStats, [&](auto &c) {
                    (void)c.volatileLoad(&gstats_.memLimitNear);
                    c.store(&gstats_.currBytes,
                            c.load(&gstats_.currBytes) + nextra);
                });
                return OpStatus::Ok;
            }

            // Replace path: build the combined value privately and CAS
            // it in; a concurrent mutation invalidates the CAS and we
            // retry the whole operation.
            std::vector<char> combined(cr.oldLen + nextra);
            if (append) {
                std::memcpy(combined.data(), old_value.data(), cr.oldLen);
                std::memcpy(combined.data() + cr.oldLen, extra, nextra);
            } else {
                std::memcpy(combined.data(), extra, nextra);
                std::memcpy(combined.data() + nextra, old_value.data(),
                            cr.oldLen);
            }
            const auto st =
                store(tid, key, nkey, combined.data(), combined.size(),
                      StoreMode::Cas, cr.cas);
            if (st != OpStatus::Exists)
                return st;  // Ok, OutOfMemory, or Miss (deleted).
            // CAS lost a race: retry from the top.
        }
        return OpStatus::NotStored;
    }

    /** TOUCH: refresh the expiry clock of an item. */
    OpStatus
    touch(std::uint32_t tid, const char *key, std::size_t nkey,
          std::int64_t exptime)
    {
        tm::DomainScope ds(&domain_);
        tickAdvance();
        const std::uint32_t hv = hashKey(key, nkey);
        const bool hit = policy_.cacheSection(sites::touch, [&](auto &c) {
            Item *it = assocFind(c, assoc_, key, nkey, hv);
            if (it == nullptr)
                return false;
            c.store(&it->exptime, exptime);
            c.store(&it->lastBump, c.volatileLoad(&currentTime_));
            return true;
        });
        bumpThreadStat(tid, hit ? &ThreadStatsBlock::touchHits
                                : &ThreadStatsBlock::touchMisses);
        return hit ? OpStatus::Ok : OpStatus::Miss;
    }

    /**
     * Render a "STAT name value" text block into @p out — the stats
     * command. Exercises snprintf inside the stats critical section.
     */
    std::size_t
    statsText(std::uint32_t tid, char *out, std::size_t cap)
    {
        tm::DomainScope ds(&domain_);
        ThreadStatsBlock agg = aggregateThreadStats();
        std::size_t pos = 0;
        policy_.statsSection(sites::statsRender, [&](auto &c) {
            (void)c.volatileLoad(&gstats_.memLimitNear);
            auto emit = [&](const char *name, std::uint64_t v) {
                if (pos >= cap)
                    return;
                const int n = c.snprintfStatS(out + pos, cap - pos, name, v);
                if (n > 0)
                    pos += static_cast<std::size_t>(n);
            };
            emit("curr_items", c.load(&gstats_.currItems));
            emit("total_items", c.load(&gstats_.totalItems));
            emit("bytes", c.load(&gstats_.currBytes));
            emit("evictions", c.load(&gstats_.evictions));
            emit("hash_expansions", c.load(&gstats_.hashExpansions));
            emit("slab_pages_moved", c.load(&gstats_.slabPagesMoved));
            emit("cas_badval", c.load(&gstats_.casBadval));
            emit("cmd_get", agg.cmdGet);
            emit("cmd_set", agg.cmdSet);
            emit("get_hits", agg.getHits);
            emit("get_misses", agg.getMisses);
        });
        return pos;
    }

    /** FLUSH_ALL: evict every linked item. */
    void
    flushAll(std::uint32_t tid)
    {
        tm::DomainScope ds(&domain_);
        for (std::uint32_t cls = 0; cls < slabs_.numClasses; ++cls) {
            while (evictOne(tid, cls)) {
            }
        }
    }

    // ------------------------------------------------------------------
    // Introspection (tests / benchmarks)
    // ------------------------------------------------------------------

    GlobalStats
    globalStatsSnapshot()
    {
        tm::DomainScope ds(&domain_);
        return policy_.statsSection(sites::globalStats, [&](auto &c) {
            GlobalStats g;
            (void)c.volatileLoad(&gstats_.memLimitNear);
            g.currItems = c.load(&gstats_.currItems);
            g.totalItems = c.load(&gstats_.totalItems);
            g.currBytes = c.load(&gstats_.currBytes);
            g.evictions = c.load(&gstats_.evictions);
            g.expiredUnfetched = c.load(&gstats_.expiredUnfetched);
            g.hashExpansions = c.load(&gstats_.hashExpansions);
            g.slabPagesMoved = c.load(&gstats_.slabPagesMoved);
            g.casBadval = c.load(&gstats_.casBadval);
            return g;
        });
    }

    ThreadStatsBlock
    aggregateThreadStats()
    {
        tm::DomainScope ds(&domain_);
        ThreadStatsBlock agg;
        for (std::uint32_t t = 0; t < tstats_.size(); ++t) {
            policy_.threadStatsSection(sites::threadStats, t, [&](auto &c) {
                ThreadStatsBlock b;
                copyThreadBlock(c, tstats_[t].value, b);
                agg.add(b);
            });
        }
        return agg;
    }

    std::vector<LockProfileRow> lockProfile() const
    {
        return policy_.lockProfile();
    }

    std::uint64_t
    linkedItemCount()
    {
        tm::DomainScope ds(&domain_);
        return policy_.cacheSection(sites::touch, [&](auto &c) {
            return c.load(&assoc_.itemCount);
        });
    }

    std::uint32_t
    hashPowerNow()
    {
        tm::DomainScope ds(&domain_);
        return policy_.cacheSection(sites::touch, [&](auto &c) {
            return c.load(&assoc_.hashPower);
        });
    }

    const Settings &settings() const { return cfg_; }

    /** Ask the rebalancer to move a page toward @p dst_cls (tests). */
    void
    requestRebalance(std::uint32_t src_cls, std::uint32_t dst_cls)
    {
        tm::DomainScope ds(&domain_);
        PlainCtx<cfg> c;
        c.store(&slabs_.rebalSrc, std::uint64_t{src_cls});
        c.store(&slabs_.rebalDst, std::uint64_t{dst_cls});
        c.volatileStore(&slabs_.rebalSignal, std::uint64_t{1});
        policy_.maintWakeUnlocked(c, MaintDomain::Slab);
    }

    /**
     * Block until maintenance is idle: no expansion or rebalance in
     * flight or pending, none left over that a store skipped while
     * another was in flight, and both maintainers parked, so neither
     * runs a transaction again until new work wakes it.
     */
    void
    quiesceMaintenance()
    {
        tm::DomainScope ds(&domain_);
        PlainCtx<cfg> c;
        do {
            while (c.volatileLoad(&assoc_.expanding) != 0 ||
                   c.volatileLoad(&slabs_.rebalSignal) != 0 ||
                   c.volatileLoad(&hashWorkPending_) != 0 ||
                   !maintainersParked())
                std::this_thread::yield();
            maybeTriggerExpansion();
        } while (c.volatileLoad(&hashWorkPending_) != 0);
    }

  private:
    /**
     * The fused get (extension branch): one transaction spans find,
     * expiry, LRU bump, and the value copy. The transaction's conflict
     * detection replaces the reference count entirely — a concurrent
     * replace/evict/delete of the item conflicts with this
     * transaction's reads and one of the two retries.
     */
    GetResult
    getFusedImpl(std::uint32_t tid, const char *key, std::size_t nkey,
                 char *out, std::size_t out_cap)
    {
        tickAdvance();
        const std::uint32_t hv = hashKey(key, nkey);
        bumpThreadStat(tid, &ThreadStatsBlock::cmdGet);
        GetResult res;
        struct Fused
        {
            bool hit = false;
            bool expired = false;
            std::size_t vlen = 0;
            std::uint64_t cas = 0;
            std::uint64_t bytes = 0;
        };
        const Fused f = policy_.cacheSection(
            sites::getFused, [&](auto &c) -> Fused {
            Fused r;
            Item *it = assocFind(c, assoc_, key, nkey, hv);
            if (it == nullptr)
                return r;
            const std::uint64_t now = c.volatileLoad(&currentTime_);
            const std::int64_t expt = c.load(&it->exptime);
            if (expt != 0 && static_cast<std::uint64_t>(expt) < now) {
                if (c.refRead(&it->refcount) == 0) {
                    r.bytes = c.load(&it->nbytes);
                    unlinkAndFree(c, it, hv);
                    r.expired = true;
                    return r;
                }
            }
            const std::uint32_t cls = c.load(&it->clsid);
            if (now - c.load(&it->lastBump) >= cfg_.lruBumpInterval) {
                lruBump(c, lru_, it, cls);
                c.store(&it->lastBump, now);
            }
            r.hit = true;
            r.vlen = c.load(&it->nbytes);
            r.cas = c.load(&it->casId);
            const std::uint16_t nk = c.load(&it->nkey);
            const std::size_t copy_len =
                r.vlen < out_cap ? r.vlen : out_cap;
            c.memcpyOut(out, itemValuePtr(it, nk), copy_len);
            return r;
        });
        if (f.expired) {
            statsExpired(tid, f.bytes);
            bumpThreadStat(tid, &ThreadStatsBlock::getMisses);
            return res;
        }
        if (!f.hit) {
            bumpThreadStat(tid, &ThreadStatsBlock::getMisses);
            return res;
        }
        bumpThreadStat(tid, &ThreadStatsBlock::getHits);
        bumpThreadStat(tid, &ThreadStatsBlock::bytesWritten,
                       f.vlen < out_cap ? f.vlen : out_cap);
        res.status = OpStatus::Ok;
        res.vlen = f.vlen;
        res.casId = f.cas;
        return res;
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    /** Item value pointer from an already-read nkey. */
    static char *
    itemValuePtr(Item *it, std::uint16_t nkey)
    {
        return it->key() + ((nkey + 7u) & ~7u);
    }

    /** Value capacity left in the item's chunk. */
    std::uint32_t
    capacityFor(const Item *it, std::uint16_t nkey) const
    {
        const std::uint32_t chunk = slabs_.classes[it->clsid].chunkSize;
        const std::uint32_t used = static_cast<std::uint32_t>(
            sizeof(Item) + ((nkey + 7u) & ~7u));
        return chunk > used ? chunk - used : 0;
    }

    template <typename Ctx>
    TM_CALLABLE void
    copyThreadBlock(Ctx &c, const ThreadStatsBlock &src,
                    ThreadStatsBlock &dst)
    {
        dst.cmdGet = c.load(&src.cmdGet);
        dst.cmdSet = c.load(&src.cmdSet);
        dst.getHits = c.load(&src.getHits);
        dst.getMisses = c.load(&src.getMisses);
        dst.deleteHits = c.load(&src.deleteHits);
        dst.deleteMisses = c.load(&src.deleteMisses);
        dst.incrHits = c.load(&src.incrHits);
        dst.incrMisses = c.load(&src.incrMisses);
        dst.decrHits = c.load(&src.decrHits);
        dst.decrMisses = c.load(&src.decrMisses);
        dst.casHits = c.load(&src.casHits);
        dst.casMisses = c.load(&src.casMisses);
        dst.touchHits = c.load(&src.touchHits);
        dst.touchMisses = c.load(&src.touchMisses);
        dst.bytesRead = c.load(&src.bytesRead);
        dst.bytesWritten = c.load(&src.bytesWritten);
    }

    template <typename Member>
    void
    bumpThreadStat(std::uint32_t tid, Member member, std::uint64_t by = 1)
    {
        ThreadStatsBlock &blk = tstats_[tid % tstats_.size()].value;
        policy_.threadStatsSection(sites::threadStats, tid, [&](auto &c) {
            c.store(&(blk.*member), c.load(&(blk.*member)) + by);
        });
    }

    /** Unlink from hash + LRU (cache section held). */
    template <typename Ctx>
    TM_CALLABLE void
    unlinkLocked(Ctx &c, Item *it, std::uint32_t hv)
    {
        const std::uint32_t cls = c.load(&it->clsid);
        assocUnlink(c, assoc_, it, hv);
        lruUnlink(c, lru_, it, cls);
        c.store(&it->itFlags, std::uint32_t{0});
        if (c.refRead(&it->refcount) == 0)
            freeItem(c, it);
        // Otherwise the releasing reader reclaims it (phase 3 of get).
    }

    /** Expire helper: full unlink + free (refcount known zero). */
    template <typename Ctx>
    TM_CALLABLE void
    unlinkAndFree(Ctx &c, Item *it, std::uint32_t hv)
    {
        const std::uint32_t cls = c.load(&it->clsid);
        assocUnlink(c, assoc_, it, hv);
        lruUnlink(c, lru_, it, cls);
        c.store(&it->itFlags, std::uint32_t{0});
        freeItem(c, it);
    }

    /** Return an unlinked, unreferenced item's chunk to its class. */
    template <typename Ctx>
    TM_CALLABLE void
    freeItem(Ctx &c, Item *it)
    {
        const std::uint32_t cls = c.load(&it->clsid);
        policy_.slabsSection(sites::slabsFreeNested, [&](auto &sc) {
            slabsFree(sc, slabs_, it, cls);
        });
    }

    /** Allocate a chunk, evicting if the budget is exhausted. */
    Item *
    allocItem(std::uint32_t tid, std::uint32_t cls)
    {
        for (int attempt = 0; attempt < 20; ++attempt) {
            Item *it = policy_.slabsSection(sites::alloc, [&](auto &c) {
                return slabsAlloc(c, slabs_, cls);
            });
            if (it != nullptr)
                return it;
            if (!evictOne(tid, cls)) {
                // Nothing evictable in this class: ask the mover to
                // shift a page here and wait for its answer (a moved
                // page or a refusal) before retrying. Yielding instead
                // spends every retry before a mover on another core
                // has even woken up.
                const std::uint64_t seen = rebalanceGeneration();
                if (requestRebalanceFromRichest(cls))
                    awaitRebalance(seen);
                else
                    std::this_thread::yield();
            }
        }
        return nullptr;
    }

    /** Completed mover passes so far (see awaitRebalance). */
    std::uint64_t
    rebalanceGeneration()
    {
        std::lock_guard<std::mutex> g(rebalDoneMu_);
        return rebalDone_;
    }

    /** Block until the mover finishes a pass begun after @p seen was
     *  read, or a bounded deadline passes (a mover stuck behind a
     *  referenced item must not wedge the store). */
    void
    awaitRebalance(std::uint64_t seen)
    {
        // Declared first, so a real wait's record is emitted unlocked.
        obs::probe::WaitStamp wait("alloc");
        std::unique_lock<std::mutex> ul(rebalDoneMu_);
        if (rebalDone_ == seen)
            wait.spin();  // wait_for below will block.
        rebalDoneCv_.wait_for(ul, std::chrono::milliseconds(100),
                              [&] { return rebalDone_ != seen; });
    }

    /**
     * Evict the coldest unreferenced item of @p cls (tail walk with
     * bounded depth). Holds the cache lock and *trylocks* the victim's
     * item lock — the canonical lock-order violation.
     * @return true if an item was evicted.
     */
    bool
    evictOne(std::uint32_t tid, std::uint32_t cls)
    {
        struct Evicted
        {
            bool did = false;
            std::uint64_t bytes = 0;
        };
        const Evicted ev = policy_.cacheSection(
            sites::evict, [&](auto &c) -> Evicted {
            Evicted r;
            Item *cand = c.load(&lru_.tails[cls]);
            for (int depth = 0;
                 cand != nullptr && depth < cfg_.evictionSearchDepth;
                 ++depth) {
                Item *prev = c.load(&cand->prev);
                // Re-derive the victim's hash: marshal the key out and
                // hash the private copy.
                char keybuf[256];
                const std::uint16_t nk = c.load(&cand->nkey);
                c.memcpyOut(keybuf, cand->key(), nk);
                const std::uint32_t hv = hashKey(keybuf, nk);

                Item *victim = cand;
                const bool locked = policy_.itemTryWithin(
                    c, hv, [&](auto &ic) {
                    if (ic.refRead(&victim->refcount) != 0)
                        return;
                    if ((ic.load(&victim->itFlags) & kItemLinked) == 0)
                        return;
                    r.bytes = ic.load(&victim->nbytes);
                    assocUnlink(c, assoc_, victim, hv);
                    lruUnlink(c, lru_, victim, cls);
                    ic.store(&victim->itFlags, std::uint32_t{0});
                    r.did = true;
                });
                if (locked && r.did) {
                    freeItem(c, victim);
                    return r;
                }
                // Busy or referenced: "save for later" — move on to
                // the next candidate (paper Figure 1a, line 7).
                cand = prev;
            }
            return r;
        });
        if (!ev.did)
            return false;
        policy_.statsSection(sites::globalStats, [&](auto &c) {
            (void)c.volatileLoad(&gstats_.memLimitNear);
            c.store(&gstats_.evictions, c.load(&gstats_.evictions) + 1);
            c.store(&gstats_.currItems, c.load(&gstats_.currItems) - 1);
            c.store(&gstats_.currBytes,
                    c.load(&gstats_.currBytes) - ev.bytes);
        });
        return true;
    }

    // ------------------------------------------------------------------
    // Time
    // ------------------------------------------------------------------

    void
    tickAdvance()
    {
        const std::uint64_t t =
            opTicks_.fetch_add(1, std::memory_order_relaxed);
        if ((t & 63) == 0) {
            // The clock-tick update: memcached's current_time volatile,
            // written racily by the clock handler.
            PlainCtx<cfg> c;
            c.volatileStore(&currentTime_, t >> 6);
        }
    }

    std::uint64_t
    currentTimePlain()
    {
        PlainCtx<cfg> c;
        return c.volatileLoad(&currentTime_);
    }

    // ------------------------------------------------------------------
    // Maintenance: hash expansion
    // ------------------------------------------------------------------

    void
    maybeTriggerExpansion()
    {
        // Racy pre-check outside any section, like memcached's. The
        // loads are relaxed atomics: committers store these words
        // concurrently, and the section below re-checks.
        PlainCtx<cfg> pc;
        const std::uint64_t items =
            __atomic_load_n(&assoc_.itemCount, __ATOMIC_RELAXED);
        const std::uint64_t buckets =
            1ull << __atomic_load_n(&assoc_.hashPower, __ATOMIC_RELAXED);
        if (items <= buckets + buckets / 2)
            return;
        if (pc.volatileLoad(&assoc_.expanding) != 0 ||
            pc.volatileLoad(&hashWorkPending_) != 0)
            return;
        policy_.cacheSection(sites::expandTrigger, [&](auto &c) {
            if (c.volatileLoad(&assoc_.expanding) != 0 ||
                c.volatileLoad(&hashWorkPending_) != 0)
                return;
            c.volatileStore(&hashWorkPending_, std::uint64_t{1});
            c.logEvent(cfg_.verbose >= 1, "hash expansion signalled");
            policy_.maintWake(c, MaintDomain::Hash);
        });
    }

    /**
     * A maintainer's wait for work or halt, keeping @p parked set
     * exactly while the maintainer sleeps with nothing to do: it is
     * cleared before each probe's transactions and set once a probe
     * finds no work. quiesceMaintenance() waits for both flags.
     */
    template <typename Work>
    void
    maintWaitParked(MaintDomain dom, std::uint64_t &parked, Work &&work)
    {
        policy_.maintWait(dom, [&](auto &c) {
            __atomic_store_n(&parked, 0, __ATOMIC_RELAXED);
            // Orders the clear before the work flags the maintainer
            // stores later, which quiesceMaintenance() reads first.
            __atomic_thread_fence(__ATOMIC_RELEASE);
            const bool go = work(c) || c.volatileLoad(&mxCanRun_) == 0;
            if (!go)
                __atomic_store_n(&parked, 1, __ATOMIC_RELEASE);
            return go;
        });
    }

    bool
    maintainersParked() const
    {
        __atomic_thread_fence(__ATOMIC_ACQUIRE);
        return __atomic_load_n(&hashParked_, __ATOMIC_ACQUIRE) != 0 &&
               __atomic_load_n(&slabParked_, __ATOMIC_ACQUIRE) != 0;
    }

    void
    hashMaintLoop()
    {
        tm::DomainScope ds(&domain_);
        for (;;) {
            maintWaitParked(MaintDomain::Hash, hashParked_, [&](auto &c) {
                return c.volatileLoad(&hashWorkPending_) != 0;
            });
            PlainCtx<cfg> pc;
            if (pc.volatileLoad(&mxCanRun_) == 0)
                return;

            const bool started = policy_.cacheSection(
                sites::expandStart, [&](auto &c) {
                if (c.volatileLoad(&assoc_.expanding) != 0)
                    return true;  // Resume an in-flight expansion.
                return assocStartExpand(c, assoc_);
            });
            if (!started) {
                // Table allocation failed: drop the request and keep
                // serving; the next trigger retries.
                pc.volatileStore(&hashWorkPending_, std::uint64_t{0});
                continue;
            }
            bool done = false;
            while (!done) {
                if (pc.volatileLoad(&mxCanRun_) == 0)
                    return;
                done = policy_.cacheSection(
                    sites::expandStep, [&](auto &c) {
                    // A batch of buckets per section, as memcached
                    // migrates hash_bulk_move buckets per lock hold.
                    for (int i = 0; i < 8; ++i) {
                        if (assocExpandBucket(c, assoc_))
                            return true;
                    }
                    return false;
                });
                std::this_thread::yield();
            }
            policy_.statsSection(sites::globalStats, [&](auto &c) {
                (void)c.volatileLoad(&gstats_.memLimitNear);
                c.store(&gstats_.hashExpansions,
                        c.load(&gstats_.hashExpansions) + 1);
            });
            pc.volatileStore(&hashWorkPending_, std::uint64_t{0});
        }
    }

    // ------------------------------------------------------------------
    // Maintenance: slab rebalance
    // ------------------------------------------------------------------

    /** @return true if a mover pass is now pending (this request or
     *  one already in flight); false if no class can give up a page. */
    bool
    requestRebalanceFromRichest(std::uint32_t dst_cls)
    {
        PlainCtx<cfg> pc;
        if (pc.volatileLoad(&slabs_.rebalSignal) != 0)
            return true;
        // Find the class with the most pages (racy scan is fine; the
        // rebalancer re-validates).
        std::uint32_t best = kMaxSlabClasses;
        std::uint64_t best_pages = 1;  // Need at least 2 to give one up.
        for (std::uint32_t i = 0; i < slabs_.numClasses; ++i) {
            if (i == dst_cls)
                continue;
            const std::uint64_t p = pc.load(&slabs_.classes[i].pageCount);
            if (p > best_pages) {
                best_pages = p;
                best = i;
            }
        }
        if (best == kMaxSlabClasses)
            return false;
        pc.store(&slabs_.rebalSrc, std::uint64_t{best});
        pc.store(&slabs_.rebalDst, std::uint64_t{dst_cls});
        pc.volatileStore(&slabs_.rebalSignal, std::uint64_t{1});
        policy_.maintWakeUnlocked(pc, MaintDomain::Slab);
        return true;
    }

    void
    slabMaintLoop()
    {
        tm::DomainScope ds(&domain_);
        for (;;) {
            maintWaitParked(MaintDomain::Slab, slabParked_, [&](auto &c) {
                return c.volatileLoad(&slabs_.rebalSignal) != 0;
            });
            PlainCtx<cfg> pc;
            if (pc.volatileLoad(&mxCanRun_) == 0)
                return;

            // Blocking acquire of the rebalance lock, rendered as
            // trylock + yield (paper Section 3.1).
            while (!policy_.rebalTryAcquire()) {
                if (pc.volatileLoad(&mxCanRun_) == 0)
                    return;
                std::this_thread::yield();
            }
            rebalanceOnePage();
            policy_.rebalRelease();
            pc.volatileStore(&slabs_.rebalSignal, std::uint64_t{0});
            // Report back after the clear: an allocator that reads the
            // generation and then finds the signal clear files a fresh
            // request rather than waiting on one that never comes.
            {
                std::lock_guard<std::mutex> g(rebalDoneMu_);
                ++rebalDone_;
            }
            rebalDoneCv_.notify_all();
        }
    }

    /** Move one page from rebalSrc to rebalDst, evicting its items. */
    void
    rebalanceOnePage()
    {
        struct Plan
        {
            void *page = nullptr;
            std::uint32_t src = 0;
            std::uint32_t dst = 0;
        };
        const Plan plan = policy_.slabsSection(
            sites::rebalPlan, [&](auto &c) -> Plan {
            Plan p;
            const std::uint64_t src = c.load(&slabs_.rebalSrc);
            const std::uint64_t dst = c.load(&slabs_.rebalDst);
            if (src >= slabs_.numClasses || dst >= slabs_.numClasses ||
                src == dst)
                return p;
            SlabClass &k = slabs_.classes[src];
            const std::uint64_t pages = c.load(&k.pageCount);
            if (pages < 2)
                return p;  // Never strip a class bare.
            p.page = c.load(&k.pages[pages - 1]);
            p.src = static_cast<std::uint32_t>(src);
            p.dst = static_cast<std::uint32_t>(dst);
            return p;
        });
        if (plan.page == nullptr)
            return;

        // 1. Remove this page's free chunks from the source free list.
        policy_.slabsSection(sites::rebalRun, [&](auto &c) {
            SlabClass &k = slabs_.classes[plan.src];
            Item **slot = &k.freeList;
            std::uint64_t removed = 0;
            Item *cur = c.load(slot);
            while (cur != nullptr) {
                if (inPage(slabs_, plan.page, cur)) {
                    c.store(slot, c.load(&cur->hNext));
                    ++removed;
                } else {
                    slot = &cur->hNext;
                }
                cur = c.load(slot);
            }
            c.store(&k.freeCount, c.load(&k.freeCount) - removed);
        });

        // 2. Evict every linked item that lives in the page (cache
        // section + per-item trylock, the order violation again).
        const std::uint32_t chunk = slabs_.classes[plan.src].chunkSize;
        const std::uint32_t per_page = slabs_.classes[plan.src].perPage;
        std::uint64_t evicted_items = 0;
        std::uint64_t evicted_bytes = 0;
        for (std::uint32_t j = 0; j < per_page; ++j) {
            auto *it = reinterpret_cast<Item *>(
                static_cast<char *>(plan.page) + std::size_t{j} * chunk);
            for (int spin = 0;; ++spin) {
                const bool settled = policy_.cacheSection(
                    sites::rebalRun, [&](auto &c) {
                    if ((c.load(&it->itFlags) & kItemLinked) == 0)
                        return true;  // Free or already gone.
                    char keybuf[256];
                    const std::uint16_t nk = c.load(&it->nkey);
                    c.memcpyOut(keybuf, it->key(), nk);
                    const std::uint32_t hv = hashKey(keybuf, nk);
                    bool moved = false;
                    policy_.itemTryWithin(c, hv, [&](auto &ic) {
                        if (ic.refRead(&it->refcount) != 0)
                            return;
                        evicted_bytes += ic.load(&it->nbytes);
                        assocUnlink(c, assoc_, it, hv);
                        lruUnlink(c, lru_, it, c.load(&it->clsid));
                        ic.store(&it->itFlags, std::uint32_t{0});
                        ++evicted_items;
                        moved = true;
                    });
                    return moved;
                });
                if (settled)
                    break;
                std::this_thread::yield();
                if (spin > 10000)
                    break;  // Referenced forever? Give up this chunk.
            }
        }

        // 3. Reassign the page to the destination class.
        policy_.slabsSection(sites::rebalFinish, [&](auto &c) {
            SlabClass &k = slabs_.classes[plan.src];
            c.store(&k.pageCount, c.load(&k.pageCount) - 1);
            slabsCarvePage(c, slabs_, plan.dst, plan.page);
            c.logEvent(cfg_.verbose >= 1, "slab page moved");
        });
        policy_.statsSection(sites::globalStats, [&](auto &c) {
            (void)c.volatileLoad(&gstats_.memLimitNear);
            c.store(&gstats_.slabPagesMoved,
                    c.load(&gstats_.slabPagesMoved) + 1);
            c.store(&gstats_.evictions,
                    c.load(&gstats_.evictions) + evicted_items);
            c.store(&gstats_.currItems,
                    c.load(&gstats_.currItems) - evicted_items);
            c.store(&gstats_.currBytes,
                    c.load(&gstats_.currBytes) - evicted_bytes);
        });
    }

    // ------------------------------------------------------------------
    // Miscellaneous
    // ------------------------------------------------------------------

    void
    statsExpired(std::uint32_t tid, std::uint64_t bytes)
    {
        policy_.statsSection(sites::globalStats, [&](auto &c) {
            (void)c.volatileLoad(&gstats_.memLimitNear);
            c.store(&gstats_.expiredUnfetched,
                    c.load(&gstats_.expiredUnfetched) + 1);
            c.store(&gstats_.currItems, c.load(&gstats_.currItems) - 1);
            c.store(&gstats_.currBytes,
                    c.load(&gstats_.currBytes) - bytes);
        });
    }

    void
    statsOom(std::uint32_t tid)
    {
        policy_.statsSection(sites::globalStats, [&](auto &c) {
            c.volatileStore(&gstats_.memLimitNear, std::uint64_t{1});
        });
    }

    void
    statsStoreFailed(std::uint32_t tid, StoreMode mode, OpStatus st)
    {
        if (mode == StoreMode::Cas) {
            if (st == OpStatus::Exists) {
                policy_.statsSection(sites::globalStats, [&](auto &c) {
                    (void)c.volatileLoad(&gstats_.memLimitNear);
                    c.store(&gstats_.casBadval,
                            c.load(&gstats_.casBadval) + 1);
                });
                bumpThreadStat(tid, &ThreadStatsBlock::casMisses);
            }
        }
    }

    void
    releaseAllMemory()
    {
        for (std::uint32_t i = 0; i < slabs_.numClasses; ++i) {
            SlabClass &k = slabs_.classes[i];
            for (std::uint64_t p = 0; p < k.pageCount; ++p)
                std::free(k.pages[p]);
            std::free(k.pages);
        }
        std::free(assoc_.primary);
        std::free(assoc_.old);
    }

    /**
     * Size this cache's orec table so total orec memory stays roughly
     * constant as shard count grows: the configured table bits minus
     * log2(shardCount), floored at 10 bits.
     */
    static std::uint32_t
    domainOrecBits(const Settings &s)
    {
        std::uint32_t bits = tm::Runtime::get().cfg().orecTableBits;
        for (std::uint32_t n = s.shardCount; n > 1 && bits > 10; n >>= 1)
            --bits;
        return bits;
    }

    Settings cfg_;
    /** This cache's private TM synchronization domain: transactions on
     *  two CacheCore instances never conflict or serialize each other. */
    tm::TxDomain domain_;
    P policy_;
    AssocState assoc_;
    LruState lru_;
    SlabState slabs_;
    GlobalStats gstats_;
    std::vector<Padded<ThreadStatsBlock>> tstats_;
    std::uint64_t casCounter_ = 0;

    // atom-protocol: relaxed-counter
    std::atomic<std::uint64_t> opTicks_{0};
    std::uint64_t currentTime_ = 1;  //!< Volatile category.

    std::uint64_t hashWorkPending_ = 0;  //!< Volatile category.
    std::uint64_t mxCanRun_ = 1;         //!< Volatile category.
    std::uint64_t hashParked_ = 0;       //!< Set by maintWaitParked.
    std::uint64_t slabParked_ = 0;       //!< Set by maintWaitParked.

    /** Mover completion generation, bumped after every pass (page
     *  moved or request refused); allocItem waits on it. */
    std::mutex rebalDoneMu_;
    std::condition_variable rebalDoneCv_;
    std::uint64_t rebalDone_ = 0;  //!< Guarded by rebalDoneMu_.

    std::thread hashThread_;
    std::thread slabThread_;
};

} // namespace tmemc::mc

#endif // TMEMC_MC_CACHE_H
