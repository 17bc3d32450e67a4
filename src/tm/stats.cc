/**
 * @file
 * Per-slot live statistics (site slots, site blocks, blame map, the
 * snapshot fold, the window subtraction) and the formatting: the
 * Tables 1-4 row renderer and the per-site profile report.
 */

#include "tm/stats.h"

#include <cstdio>
#include <mutex>
#include <sstream>

#include "common/logging.h"

namespace tmemc::tm
{

namespace
{

/** Site slot registry: slot - 1 indexes the attr that owns it. */
std::mutex g_slotMu;
std::vector<const TxnAttr *> g_slotAttrs;

/** Render "count (pct%)" in the paper's table style. */
std::string
countWithPct(std::uint64_t count, std::uint64_t denom)
{
    char buf[64];
    if (denom == 0) {
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(count));
    } else {
        std::snprintf(buf, sizeof(buf), "%llu (%.1f%%)",
                      static_cast<unsigned long long>(count),
                      100.0 * static_cast<double>(count) /
                          static_cast<double>(denom));
    }
    return buf;
}

} // namespace

bool
LiveBlock::addTo(StatBlock &out) const
{
    bool any = false;
    for (std::size_t i = 0; i < kStatCount; ++i) {
        const std::uint64_t v = n[i].load(std::memory_order_relaxed);
        out.*kStatFields[i].field += v;
        any = any || v != 0;
    }
    return any;
}

std::uint32_t
ThreadStats::assignSlot(const TxnAttr &attr)
{
    std::lock_guard<std::mutex> guard(g_slotMu);
    std::uint32_t slot = attr.statSlot.load(std::memory_order_acquire);
    if (slot != 0)
        return slot;  // Another thread assigned it first.
    if (g_slotAttrs.size() >= kMaxSites)
        panic("more than %zu transaction sites", kMaxSites);
    g_slotAttrs.push_back(&attr);
    slot = static_cast<std::uint32_t>(g_slotAttrs.size());
    attr.statSlot.store(slot, std::memory_order_release);
    return slot;
}

void
ThreadStats::blame(const TxnAttr &attr, const char *what)
{
    std::lock_guard<std::mutex> guard(blameMu_);
    blame_[&attr][what]++;
}

StatBlock
ThreadStats::foldInto(StatsSnapshot &snap) const
{
    StatBlock sum;
    {
        std::lock_guard<std::mutex> guard(g_slotMu);
        for (std::size_t i = 0; i < g_slotAttrs.size(); ++i) {
            const LiveBlock *b = sites_[i].load(std::memory_order_acquire);
            StatBlock site;
            if (b != nullptr && b->addTo(site)) {
                snap.perSite[g_slotAttrs[i]].add(site);
                sum.add(site);
            }
        }
    }
    snap.total.add(sum);
    std::lock_guard<std::mutex> blame_guard(blameMu_);
    for (const auto &[attr, causes] : blame_) {
        for (const auto &[what, count] : causes)
            snap.switchBlame[attr][what] += count;
    }
    return sum;
}

void
StatsSnapshot::subtract(const StatsSnapshot &base)
{
    const auto sub = [](StatBlock &b, const StatBlock &o) {
        for (const StatField &f : kStatFields)
            b.*f.field -= o.*f.field;
    };
    sub(total, base.total);
    for (const auto &[attr, b] : base.perSite) {
        StatBlock &mine = perSite[attr];
        sub(mine, b);
        if (mine == StatBlock{})
            perSite.erase(attr);
    }
    for (const auto &[attr, causes] : base.switchBlame) {
        auto &mine = switchBlame[attr];
        for (const auto &[what, count] : causes) {
            if ((mine[what] -= count) == 0)
                mine.erase(what);
        }
        if (mine.empty())
            switchBlame.erase(attr);
    }
    for (std::size_t i = 0; i < base.abortsPerThread.size(); ++i) {
        abortsPerThread[i] -= base.abortsPerThread[i];
        commitsPerThread[i] -= base.commitsPerThread[i];
    }
}

std::string
StatsSnapshot::formatTableRow(const std::string &branch_name) const
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%-16s %12llu %18s %18s %12llu",
                  branch_name.c_str(),
                  static_cast<unsigned long long>(total.txns),
                  countWithPct(total.inflightSwitch, total.txns).c_str(),
                  countWithPct(total.startSerial, total.txns).c_str(),
                  static_cast<unsigned long long>(total.abortSerial));
    return buf;
}

std::string
StatsSnapshot::formatBlame() const
{
    std::ostringstream os;
    os << "serialization blame (unsafe op -> in-flight switches):\n";
    bool any = false;
    for (const auto &[attr, causes] : switchBlame) {
        for (const auto &[what, count] : causes) {
            char buf[160];
            std::snprintf(buf, sizeof(buf), "  %-36s %-20s %10llu\n",
                          attr->name, what,
                          static_cast<unsigned long long>(count));
            os << buf;
            any = true;
        }
    }
    if (!any)
        os << "  (no in-flight switches)\n";
    return os.str();
}

std::string
StatsSnapshot::formatProfile() const
{
    std::ostringstream os;
    os << "per-site transaction profile (execinfo-substitute):\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  %-40s %10s %10s %10s %8s %8s %8s\n", "site", "txns",
                  "commits", "aborts", "startS", "inflight", "abortS");
    os << buf;
    for (const auto &[attr, b] : perSite) {
        std::snprintf(buf, sizeof(buf),
                      "  %-40s %10llu %10llu %10llu %8llu %8llu %8llu\n",
                      attr->name,
                      static_cast<unsigned long long>(b.txns),
                      static_cast<unsigned long long>(b.commits),
                      static_cast<unsigned long long>(b.aborts),
                      static_cast<unsigned long long>(b.startSerial),
                      static_cast<unsigned long long>(b.inflightSwitch),
                      static_cast<unsigned long long>(b.abortSerial));
        os << buf;
    }
    return os.str();
}

} // namespace tmemc::tm
