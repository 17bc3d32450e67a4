/**
 * @file
 * The experience report as a runnable demo: walk the paper's
 * transactionalization ladder branch by branch, run the same workload
 * on each, and narrate what changed and what it did to serialization
 * and running time.
 *
 * Build & run:  ./build/examples/branch_ladder
 */

#include <cstdio>
#include <string>

#include "common/timer.h"
#include "mc/cache_iface.h"
#include "tm/api.h"
#include "workload/memslap.h"

namespace
{

using namespace tmemc;

struct Rung
{
    const char *branch;
    const char *what;
};

const Rung kLadder[] = {
    {"Baseline",
     "memcached 1.4.15 as shipped: pthread locks, condition variables,\n"
     "   lock_incr refcounts, volatile maintenance flags"},
    {"Semaphore",
     "Section 3.2: condition variables replaced with semaphores so the\n"
     "   associated locks can become transactions"},
    {"IP",
     "Section 3.3: every lock replaced; item locks become transactional\n"
     "   booleans and privatize their data (Figure 1a)"},
    {"IT",
     "the other fork: item critical sections become transactions\n"
     "   (Figure 1b); the save-for-later corner cases disappear"},
    {"IP-Callable",
     "transaction_callable annotations applied (38 of them in the\n"
     "   paper); GCC already infers safety, so nothing changes"},
    {"IP-Max",
     "volatiles and refcounts rewritten as transaction expressions;\n"
     "   start-serial causes vanish, transaction counts grow"},
    {"IP-Lib",
     "Section 3.4: memcmp/memcpy/strtoull/snprintf replaced with\n"
     "   transaction-safe reimplementations and marshaling wrappers"},
    {"IP-onCommit",
     "Section 3.5: fprintf/sem_post/asserts move to onCommit handlers;\n"
     "   no transaction can serialize any more"},
};

} // namespace

int
main(int argc, char **argv)
{
    const std::uint32_t threads = argc > 1
        ? static_cast<std::uint32_t>(std::atoi(argv[1]))
        : 4;

    std::printf("Transactionalizing legacy code, one branch at a time\n");
    std::printf("(workload: %u threads x 10000 ops, 9:1 get:set)\n\n",
                threads);

    for (const Rung &rung : kLadder) {
        tm::Runtime::get().configure(tm::RuntimeCfg{});
        tm::Runtime::get().resetStats();

        mc::Settings settings;
        settings.maxBytes = 128 * 1024 * 1024;
        auto cache = mc::makeShardedCache(rung.branch, settings, threads);

        workload::MemslapCfg w;
        w.concurrency = threads;
        w.executeNumber = 10000;
        w.windowSize = 5000;
        const auto result = workload::runMemslap(*cache, w);
        cache.reset();

        const auto snap = tm::Runtime::get().snapshot();
        std::printf("%-12s %s\n", rung.branch, rung.what);
        if (snap.total.txns == 0) {
            std::printf("   -> %.3f s; no transactions (lock-based)\n\n",
                        result.seconds);
            continue;
        }
        if (snap.total.inflightSwitch > 0 &&
            std::string(rung.branch) == "IP") {
            // Show off the serialization-blame diagnostic once.
            std::printf("%s", snap.formatBlame().c_str());
        }
        std::printf("   -> %.3f s; %llu txns, start-serial %llu "
                    "(%.1f%%), in-flight %llu (%.1f%%), "
                    "abort-serial %llu\n\n",
                    result.seconds,
                    static_cast<unsigned long long>(snap.total.txns),
                    static_cast<unsigned long long>(snap.total.startSerial),
                    100.0 * snap.total.startSerial / snap.total.txns,
                    static_cast<unsigned long long>(
                        snap.total.inflightSwitch),
                    100.0 * snap.total.inflightSwitch / snap.total.txns,
                    static_cast<unsigned long long>(snap.total.abortSerial));
    }

    // The final move: remove the readers/writer lock (Figure 10).
    {
        tm::RuntimeCfg rcfg;
        rcfg.useSerialLock = false;
        rcfg.cm = tm::CmKind::NoCM;
        tm::Runtime::get().configure(rcfg);
        tm::Runtime::get().resetStats();
        mc::Settings settings;
        settings.maxBytes = 128 * 1024 * 1024;
        auto cache = mc::makeShardedCache("IP-onCommit", settings, threads);
        workload::MemslapCfg w;
        w.concurrency = threads;
        w.executeNumber = 10000;
        w.windowSize = 5000;
        const auto result = workload::runMemslap(*cache, w);
        cache.reset();
        const auto snap = tm::Runtime::get().snapshot();
        std::printf("%-12s Section 4: with zero serialization, delete "
                    "the global\n   readers/writer lock from the TM "
                    "runtime itself\n",
                    "IP-NoLock");
        std::printf("   -> %.3f s; %llu txns, %llu aborts, zero serial "
                    "transactions\n",
                    result.seconds,
                    static_cast<unsigned long long>(snap.total.txns),
                    static_cast<unsigned long long>(snap.total.aborts));
    }
    return 0;
}
