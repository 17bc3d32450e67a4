/**
 * @file
 * Site attributes are fixed when a SiteInfo is built: for every TM
 * branch, each cache site's TxnAttr must follow from its unsafe masks
 * and its read-only and privatizing declarations,
 * and the policy's lookup must hand out one stable attribute per
 * (site, branch).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mc/cache.h"
#include "mc/sync_tm.h"

namespace
{

using namespace tmemc;

/** Categories still unsafe in @p cfg, spelled out from the stage
 *  flags rather than through anyUnsafe(). */
mc::UnsafeMask
unsafeIn(const mc::BranchCfg &cfg)
{
    mc::UnsafeMask m = mc::kNoUnsafe;
    if (!cfg.safeVolatiles)
        m |= mc::kRmw | mc::kVolatile;
    if (!cfg.safeLibs)
        m |= mc::kLib;
    if (!cfg.onCommitIo)
        m |= mc::kIo;
    return m;
}

const std::vector<const mc::SiteInfo *> &
cacheSites()
{
    namespace s = mc::sites;
    static const std::vector<const mc::SiteInfo *> all = {
        &s::getFind,       &s::getCopy,      &s::release,
        &s::alloc,         &s::evict,        &s::storeLink,
        &s::globalStats,   &s::expandTrigger, &s::del,
        &s::arithFind,     &s::arithApply,   &s::concatFind,
        &s::concatApply,   &s::touch,        &s::threadStats,
        &s::statsRender,   &s::slabsFreeNested, &s::expandStart,
        &s::expandStep,    &s::rebalPlan,    &s::rebalRun,
        &s::rebalFinish,   &s::getFused};
    return all;
}

/** Every site's TmPolicy<C> lookup, twice. */
template <mc::BranchCfg C>
void
collectLookups(std::vector<std::pair<const tm::TxnAttr *,
                                     const tm::TxnAttr *>> &out)
{
    for (const mc::SiteInfo *site : cacheSites())
        out.emplace_back(&mc::TmPolicy<C>::attrOf(*site),
                         &mc::TmPolicy<C>::attrOf(*site));
}

template <std::size_t... I>
std::vector<std::pair<const tm::TxnAttr *, const tm::TxnAttr *>>
lookupsForEveryBranch(std::index_sequence<I...>)
{
    std::vector<std::pair<const tm::TxnAttr *, const tm::TxnAttr *>> out;
    (collectLookups<mc::kTmBranches[I]>(out), ...);
    return out;
}

TEST(SiteAttrs, DerivedPerBranchFromMasksDistinctAndStable)
{
    const auto &sites = cacheSites();
    for (std::size_t b = 0; b < mc::kTmBranchCount; ++b) {
        const mc::BranchCfg &cfg = mc::kTmBranches[b];
        ASSERT_EQ(mc::tmBranchIndex(cfg), b);
        const mc::UnsafeMask unsafe = unsafeIn(cfg);
        for (const mc::SiteInfo *site : sites) {
            const tm::TxnAttr &a = site->attrs[b];
            const bool always = (site->alwaysUnsafe & unsafe) != 0;
            const bool maybe = (site->maybeUnsafe & unsafe) != 0;
            SCOPED_TRACE(std::string(mc::branchName(cfg)) + " " +
                         site->name);
            EXPECT_STREQ(a.name, site->name);
            EXPECT_EQ(a.kind, always || maybe ? tm::TxnKind::Relaxed
                                              : tm::TxnKind::Atomic);
            EXPECT_EQ(a.startsSerial, always);
            EXPECT_EQ(a.readOnlyHint, site->readOnly && !always);
            EXPECT_EQ(a.privatizes, site->privatizes);
        }
    }

    // Only the sites whose writes never meet a plain access skip the
    // commit-time quiescence (site.h, SiteInfo::privatizes); every
    // free they do runs through mc:slabs-free, which must privatize.
    std::set<std::string> non_privatizing;
    for (const mc::SiteInfo *site : sites)
        if (!site->privatizes)
            non_privatizing.insert(site->name);
    EXPECT_EQ(non_privatizing,
              (std::set<std::string>{"mc:get-find", "mc:item-release",
                                     "mc:stats-global",
                                     "mc:thread-stats"}));
    EXPECT_TRUE(mc::sites::slabsFreeNested.privatizes);

    // The paper's endpoints: at stage 3 get-copy's libc memcpy makes
    // it start serial; from onCommit on no site is relaxed at all.
    EXPECT_TRUE(mc::sites::getCopy.attrs[mc::tmBranchIndex(mc::kIP)]
                    .startsSerial);
    for (const mc::SiteInfo *site : sites)
        EXPECT_EQ(site->attrs[mc::tmBranchIndex(mc::kITOnCommit)].kind,
                  tm::TxnKind::Atomic)
            << site->name;

    // Each policy's lookup returns its own column, the same object
    // every time, and no two (site, branch) pairs share an attribute.
    const auto lookups = lookupsForEveryBranch(
        std::make_index_sequence<mc::kTmBranchCount>{});
    ASSERT_EQ(lookups.size(), mc::kTmBranchCount * sites.size());
    std::set<const tm::TxnAttr *> distinct;
    for (std::size_t i = 0; i < lookups.size(); ++i) {
        const std::size_t b = i / sites.size();
        const mc::SiteInfo *site = sites[i % sites.size()];
        EXPECT_EQ(lookups[i].first, &site->attrs[b]);
        EXPECT_EQ(lookups[i].second, lookups[i].first);
        distinct.insert(lookups[i].first);
    }
    EXPECT_EQ(distinct.size(), lookups.size());
}

} // namespace
