/**
 * @file
 * Critical-section site descriptors.
 *
 * A SiteInfo is the static description of one critical section in the
 * cache source: its name, the unsafe-operation categories that occur
 * on *every* path through it, and the categories that occur on *some*
 * path. This is the information the "compiler" (the Draft C++ TM
 * Specification's static checker) derives: a transaction whose every
 * path is unsafe at the current branch stage must begin in serial mode
 * (Start Serial); one with conditional unsafe paths must be relaxed
 * and switches in flight when a path is hit; one with neither can be
 * marked atomic.
 *
 * Like the compiler, a SiteInfo fixes those attributes when it is
 * built: its constructor derives one tm::TxnAttr for every TM branch
 * configuration, so a critical section finds its attributes by an
 * array index and never at run time.
 */

#ifndef TMEMC_MC_SITE_H
#define TMEMC_MC_SITE_H

#include <cstddef>
#include <cstdint>
#include <iterator>

#include "mc/branch.h"
#include "tm/attr.h"

namespace tmemc::mc
{

/** Bitmask over UnsafeCat. */
using UnsafeMask = std::uint8_t;

constexpr UnsafeMask
maskOf(UnsafeCat cat)
{
    return static_cast<UnsafeMask>(1u << static_cast<unsigned>(cat));
}

constexpr UnsafeMask kNoUnsafe = 0;
constexpr UnsafeMask kRmw = maskOf(UnsafeCat::AtomicRmw);
constexpr UnsafeMask kVolatile = maskOf(UnsafeCat::Volatile);
constexpr UnsafeMask kLib = maskOf(UnsafeCat::Lib);
constexpr UnsafeMask kIo = maskOf(UnsafeCat::Io);

/** True if any category in @p mask is still unsafe for @p cfg. */
constexpr bool
anyUnsafe(const BranchCfg &cfg, UnsafeMask mask)
{
    for (auto cat : {UnsafeCat::AtomicRmw, UnsafeCat::Volatile,
                     UnsafeCat::Lib, UnsafeCat::Io}) {
        if ((mask & maskOf(cat)) != 0 && cfg.isUnsafe(cat))
            return true;
    }
    return false;
}

/** Every TM branch configuration, in SiteInfo::attrs order. */
inline constexpr BranchCfg kTmBranches[] = {
    kIP,     kIT,     kIPCallable, kITCallable, kIPMax,   kITMax,
    kIPLib,  kITLib,  kIPOnCommit, kITOnCommit, kITFused, kITRA,
    kIPLibBare};

inline constexpr std::size_t kTmBranchCount = std::size(kTmBranches);

/** Position of @p cfg in kTmBranches; kTmBranchCount if absent. */
constexpr std::size_t
tmBranchIndex(const BranchCfg &cfg)
{
    std::size_t i = 0;
    while (i < kTmBranchCount && !(kTmBranches[i] == cfg))
        ++i;
    return i;
}

/**
 * Static description of one critical-section site. Sites have static
 * storage duration, so the address of each of their attributes is
 * stable: the TM runtime keys its per-site statistics on it.
 */
struct SiteInfo
{
    constexpr SiteInfo(const char *site_name, UnsafeMask always_unsafe,
                       UnsafeMask maybe_unsafe, bool read_only = false,
                       bool privatizes_memory = true)
        : name(site_name), alwaysUnsafe(always_unsafe),
          maybeUnsafe(maybe_unsafe), readOnly(read_only),
          privatizes(privatizes_memory)
    {
        for (std::size_t i = 0; i < kTmBranchCount; ++i) {
            const bool always = anyUnsafe(kTmBranches[i], alwaysUnsafe);
            const bool maybe = anyUnsafe(kTmBranches[i], maybeUnsafe);
            tm::TxnAttr &a = attrs[i];
            a.name = name;
            a.kind = (always || maybe) ? tm::TxnKind::Relaxed
                                       : tm::TxnKind::Atomic;
            a.startsSerial = always;
            // A section every path of which is read-only is eligible
            // for the invisible-reader fast path — unless it must
            // start serial, in which case it never runs speculatively.
            a.readOnlyHint = readOnly && !always;
            a.privatizes = privatizes;
        }
    }

    const char *name;
    /** Categories on every path (earliest-op position). */
    UnsafeMask alwaysUnsafe;
    /** Categories on some path only. */
    UnsafeMask maybeUnsafe;
    /** No path through this section writes shared state: the runtime
     *  may start it on the invisible-reader fast path. Advisory — a
     *  store would still promote to the full path at run time. */
    bool readOnly;
    /**
     * Some code accesses, outside any transaction, memory that this
     * section's commit makes private, so its writer commits must
     * quiesce (tm::TxnAttr::privatizes). Declare a section
     * non-privatizing only when every word it writes is read and
     * written solely inside transactions in every branch (counters,
     * refcounts, LRU links) and every free it does runs through a
     * nested privatizing section such as mc:slabs-free: the nested
     * section makes the enclosing commit wait, the rest needs no wait.
     * The IP branches' plain item accesses are covered by the
     * tm-boolean acquire, which stays privatizing.
     */
    bool privatizes;
    /** This site's transaction attributes under kTmBranches[i]. */
    tm::TxnAttr attrs[kTmBranchCount];
};

} // namespace tmemc::mc

#endif // TMEMC_MC_SITE_H
