/**
 * @file
 * google-benchmark microbenchmarks of the TM runtime: the ablations
 * behind the paper's Section 4/5 claims.
 *
 *  - instrumentation cost: an uninstrumented RMW vs a transactional
 *    RMW under each algorithm ("every read and write of shared data
 *    involves a function call");
 *  - single-location transactions ("GCC currently does not optimize
 *    single-location transactions, and thus this change could have a
 *    significant impact on performance") — the cost of the Max stage's
 *    refcount/volatile transaction expressions;
 *  - the serial-lock tax: begin/commit with and without the global
 *    readers/writer lock (the Figure 10 delta, isolated);
 *  - read-set scaling: commit-time validation cost as transactions
 *    read more locations.
 */

#include <benchmark/benchmark.h>

#include "tm/api.h"

namespace
{

using namespace tmemc;

const tm::TxnAttr attr{"micro:txn", tm::TxnKind::Atomic, false};

void
configure(tm::AlgoKind algo, bool serial_lock)
{
    tm::RuntimeCfg cfg;
    cfg.algo = algo;
    cfg.cm = serial_lock ? tm::CmKind::SerialAfterN : tm::CmKind::NoCM;
    cfg.useSerialLock = serial_lock;
    tm::Runtime::get().configure(cfg);
}

std::uint64_t gCell = 0;
std::uint64_t gArray[4096] = {};

void
BM_UninstrumentedRmw(benchmark::State &state)
{
    for (auto _ : state) {
        gCell = gCell + 1;
        benchmark::DoNotOptimize(gCell);
    }
}
BENCHMARK(BM_UninstrumentedRmw);

void
BM_AtomicRmw(benchmark::State &state)
{
    // memcached's lock_incr: the reference point the Max stage's
    // transactional refcounts replaced.
    for (auto _ : state)
        __atomic_add_fetch(&gCell, 1, __ATOMIC_SEQ_CST);
}
BENCHMARK(BM_AtomicRmw);

void
BM_TxnRmw(benchmark::State &state)
{
    configure(static_cast<tm::AlgoKind>(state.range(0)), true);
    for (auto _ : state) {
        tm::run(attr, [](tm::TxDesc &tx) {
            tm::txStore<std::uint64_t>(tx, &gCell,
                                       tm::txLoad(tx, &gCell) + 1);
        });
    }
}
BENCHMARK(BM_TxnRmw)
    ->Arg(static_cast<int>(tm::AlgoKind::GccEager))
    ->Arg(static_cast<int>(tm::AlgoKind::Lazy))
    ->Arg(static_cast<int>(tm::AlgoKind::NOrec))
    ->Arg(static_cast<int>(tm::AlgoKind::Serial))
    ->Arg(static_cast<int>(tm::AlgoKind::RA));

void
BM_SingleLocationTxnExpr(benchmark::State &state)
{
    // The Max stage's transaction expression: one read, no writes.
    configure(tm::AlgoKind::GccEager, true);
    for (auto _ : state) {
        const std::uint64_t v = tm::run(attr, [](tm::TxDesc &tx) {
            return tm::txLoad(tx, &gCell);
        });
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_SingleLocationTxnExpr);

void
BM_VolatileReadBaseline(benchmark::State &state)
{
    for (auto _ : state) {
        const std::uint64_t v =
            *const_cast<const volatile std::uint64_t *>(&gCell);
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_VolatileReadBaseline);

void
BM_EmptyTxnWithSerialLock(benchmark::State &state)
{
    configure(tm::AlgoKind::GccEager, true);
    for (auto _ : state)
        tm::run(attr, [](tm::TxDesc &) {});
}
BENCHMARK(BM_EmptyTxnWithSerialLock);

void
BM_EmptyTxnNoLock(benchmark::State &state)
{
    configure(tm::AlgoKind::GccEager, false);
    for (auto _ : state)
        tm::run(attr, [](tm::TxDesc &) {});
}
BENCHMARK(BM_EmptyTxnNoLock);

/** BM_EmptyTxnWithSerialLock on 1 and 2 threads: a begin or commit
 *  that writes a shared line costs more per transaction on 2. The CPU
 *  column is one thread's cost per transaction. Named apart from
 *  perf_gate.py's single-core A/B filter. */
void
BM_ParallelEmptyTxn(benchmark::State &state)
{
    // Threads reach the timing loop together, so no transaction runs
    // while thread 0 configures.
    if (state.thread_index() == 0)
        configure(tm::AlgoKind::GccEager, true);
    for (auto _ : state)
        tm::run(attr, [](tm::TxDesc &) {});
}
BENCHMARK(BM_ParallelEmptyTxn)->Threads(1)->Threads(2)->UseRealTime();

void
BM_ReadSetScaling(benchmark::State &state)
{
    configure(tm::AlgoKind::GccEager, true);
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        const std::uint64_t v = tm::run(attr, [&](tm::TxDesc &tx) {
            std::uint64_t sum = 0;
            for (int i = 0; i < n; ++i)
                sum += tm::txLoad(tx, &gArray[i]);
            return sum;
        });
        benchmark::DoNotOptimize(v);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ReadSetScaling)->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

void
BM_WriteSetScaling(benchmark::State &state)
{
    configure(static_cast<tm::AlgoKind>(state.range(1)), true);
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        tm::run(attr, [&](tm::TxDesc &tx) {
            for (int i = 0; i < n; ++i)
                tm::txStore<std::uint64_t>(tx, &gArray[i], i);
        });
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_WriteSetScaling)
    ->Args({64, static_cast<int>(tm::AlgoKind::GccEager)})
    ->Args({64, static_cast<int>(tm::AlgoKind::Lazy)})
    ->Args({64, static_cast<int>(tm::AlgoKind::NOrec)});

} // namespace

BENCHMARK_MAIN();
