/**
 * @file
 * The paper's Tables 1-4 as executable assertions: driving the same
 * workload through the branch ladder must reproduce the serialization
 * taxonomy's shape —
 *
 *  - stage 3 (IP/IT/Callable): transactions start serial (volatile
 *    probes, refcount RMW) and switch in flight (library calls), with
 *    IT serializing a larger fraction than IP;
 *  - Max: the start-serial causes tied to volatiles/refcounts vanish,
 *    total transaction count grows (refcount and volatile transaction
 *    expressions), library-driven switches remain;
 *  - Lib: library-driven serialization disappears;
 *  - onCommit: no transaction starts serial or switches in flight,
 *    and the branch runs in the NoLock runtime (Figure 10).
 */

#include <gtest/gtest.h>

#include <string>

#include "mc/cache_iface.h"
#include "tm/api.h"
#include "workload/memslap.h"

namespace
{

using namespace tmemc;
using namespace tmemc::mc;

/** Run a small fixed workload on a branch; return TM stats. */
tm::StatsSnapshot
profileBranch(const std::string &branch, bool use_serial_lock = true)
{
    tm::RuntimeCfg rcfg;
    rcfg.useSerialLock = use_serial_lock;
    if (!use_serial_lock)
        rcfg.cm = tm::CmKind::NoCM;
    tm::Runtime::get().configure(rcfg);

    Settings s;
    s.maxBytes = 16 * 1024 * 1024;
    s.hashPowerInit = 10;
    auto cache = makeCache(branch, s, 2);
    EXPECT_NE(cache, nullptr);

    // runMemslap zeroes the TM statistics after its warm phase, so the
    // snapshot covers the 2 x 6000 measured operations only.
    workload::MemslapCfg w;
    w.concurrency = 2;
    w.executeNumber = 6000;
    w.windowSize = 1000;
    workload::runMemslap(*cache, w);
    cache.reset();  // Join maintenance threads before snapshotting.
    return tm::Runtime::get().snapshot();
}

TEST(SerializationProfile, LockBranchesRunNoTransactions)
{
    const auto snap = profileBranch("Baseline");
    EXPECT_EQ(snap.total.txns, 0u);
    const auto snap2 = profileBranch("Semaphore");
    EXPECT_EQ(snap2.total.txns, 0u);
}

TEST(SerializationProfile, Stage3SerializesHeavily)
{
    const auto ip = profileBranch("IP");
    const auto it = profileBranch("IT");
    // Both branches run plenty of transactions.
    EXPECT_GT(ip.total.txns, 10000u);
    EXPECT_GT(it.total.txns, 10000u);
    // Start-serial and in-flight switches are both present (Table 1).
    EXPECT_GT(ip.total.startSerial, 0u);
    EXPECT_GT(it.total.startSerial, 0u);
    EXPECT_GT(ip.total.inflightSwitch, 0u);
    // IT wraps item critical sections in transactions, so a larger
    // fraction of its transactions begins serial (36% vs 5.6% in the
    // paper's Table 1).
    const double ip_frac = static_cast<double>(ip.total.startSerial) /
                           static_cast<double>(ip.total.txns);
    const double it_frac = static_cast<double>(it.total.startSerial) /
                           static_cast<double>(it.total.txns);
    EXPECT_GT(it_frac, ip_frac);
    // IP issues more transactions (boolean item locks are two
    // mini-transactions per critical section).
    EXPECT_GT(ip.total.txns, it.total.txns);
}

TEST(SerializationProfile, CallableAnnotationChangesNothing)
{
    // GCC infers safety of visible bodies, so callable annotations do
    // not change serialization (the paper's Table 1 finding).
    const auto ip = profileBranch("IP");
    const auto ipc = profileBranch("IP-Callable");
    // Compare absolute serialization events: they are per-operation
    // and near-deterministic, unlike the total transaction count,
    // which trylock spin retries inflate noisily.
    const double e1 = static_cast<double>(ip.total.startSerial +
                                          ip.total.inflightSwitch);
    const double e2 = static_cast<double>(ipc.total.startSerial +
                                          ipc.total.inflightSwitch);
    EXPECT_GT(e1, 0.0);
    EXPECT_NEAR(e1 / e2, 1.0, 0.15);
}

/** Transactions from the refcount/volatile transaction expressions. */
std::uint64_t
miniTxnCount(const tm::StatsSnapshot &snap)
{
    std::uint64_t n = 0;
    for (const auto &[attr, block] : snap.perSite) {
        const std::string name = attr->name;
        if (name.find("-expr") != std::string::npos)
            n += block.txns;
    }
    return n;
}

TEST(SerializationProfile, MaxStageRemovesVolatileAndRmwSerialization)
{
    const auto cal = profileBranch("IP-Callable");
    const auto max = profileBranch("IP-Max");
    // Transaction expressions for refcounts/volatiles appear at Max
    // and inflate the transaction count (Table 2: 10.5M -> 24.1M).
    EXPECT_EQ(miniTxnCount(cal), 0u);
    EXPECT_GT(miniTxnCount(max), 1000u);
    // Start-serial causes drop dramatically (Table 2: IP-Max has 0).
    const double cal_start = static_cast<double>(cal.total.startSerial) /
                             static_cast<double>(cal.total.txns);
    const double max_start = static_cast<double>(max.total.startSerial) /
                             static_cast<double>(max.total.txns);
    EXPECT_LT(max_start, cal_start / 4);
    // Library calls still switch transactions in flight.
    EXPECT_GT(max.total.inflightSwitch, 0u);
}

TEST(SerializationProfile, LibStageRemovesLibrarySerialization)
{
    const auto max = profileBranch("IT-Max");
    const auto lib = profileBranch("IT-Lib");
    const double max_ser =
        static_cast<double>(max.total.startSerial +
                            max.total.inflightSwitch) /
        static_cast<double>(max.total.txns);
    const double lib_ser =
        static_cast<double>(lib.total.startSerial +
                            lib.total.inflightSwitch) /
        static_cast<double>(lib.total.txns);
    EXPECT_LT(lib_ser, max_ser / 4);
}

TEST(SerializationProfile, OnCommitStageEliminatesSerialization)
{
    for (const char *branch : {"IP-onCommit", "IT-onCommit"}) {
        const auto snap = profileBranch(branch);
        EXPECT_EQ(snap.total.startSerial, 0u) << branch;
        EXPECT_EQ(snap.total.inflightSwitch, 0u) << branch;
        EXPECT_EQ(snap.total.serialCommits, snap.total.abortSerial)
            << branch;  // Only progress serialization remains.
    }
}

TEST(SerializationProfile, OnCommitBranchesRunInNoLockRuntime)
{
    // Figure 10: once no transaction can serialize, the global
    // readers/writer lock can be removed entirely.
    for (const char *branch : {"IP-onCommit", "IT-onCommit"}) {
        const auto snap = profileBranch(branch, /*use_serial_lock=*/false);
        EXPECT_GT(snap.total.commits, 10000u) << branch;
        EXPECT_EQ(snap.total.startSerial, 0u) << branch;
        EXPECT_EQ(snap.total.inflightSwitch, 0u) << branch;
        EXPECT_EQ(snap.total.serialCommits, 0u) << branch;
    }
}

TEST(SerializationProfile, BlameReportNamesTheUnsafeOps)
{
    // The tool the paper's authors wished for: at stage 3, in-flight
    // switches must be attributed to the concrete unsafe operations
    // (memcmp / lock_incr / ...) at their sites.
    const auto snap = profileBranch("IT");
    std::uint64_t blamed = 0;
    bool saw_lib_or_rmw = false;
    for (const auto &[attr, causes] : snap.switchBlame) {
        for (const auto &[what, count] : causes) {
            blamed += count;
            const std::string op = what;
            if (op == "memcmp" || op == "memcpy" || op == "lock_incr" ||
                op == "volatile-read")
                saw_lib_or_rmw = true;
        }
    }
    EXPECT_EQ(blamed, snap.total.inflightSwitch);
    EXPECT_TRUE(saw_lib_or_rmw);
    const std::string report = snap.formatBlame();
    EXPECT_NE(report.find("mc:"), std::string::npos);

    // And after onCommit, the report is empty.
    const auto clean = profileBranch("IT-onCommit");
    EXPECT_NE(clean.formatBlame().find("no in-flight switches"),
              std::string::npos);
}

TEST(SerializationProfile, PerSiteProfileIdentifiesCauses)
{
    const auto snap = profileBranch("IT-Callable");
    // The execinfo-substitute must attribute serialization to sites.
    bool found_serializing_site = false;
    for (const auto &[attr, block] : snap.perSite) {
        if (block.startSerial > 0 || block.inflightSwitch > 0) {
            found_serializing_site = true;
            EXPECT_EQ(attr->kind, tm::TxnKind::Relaxed)
                << attr->name << " serialized but is atomic";
        }
    }
    EXPECT_TRUE(found_serializing_site);
    const std::string report = snap.formatProfile();
    EXPECT_NE(report.find("mc:"), std::string::npos);
}

} // namespace
