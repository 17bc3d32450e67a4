/**
 * @file
 * bench_net: the paper's measurement topology, restored — memslap
 * over loopback TCP against the served cache, side by side with the
 * in-process drive the figure harness uses.
 *
 * For each worker-thread count, the same fixed workload (memslap
 * defaults: 9:1 get:set, fixed-size keys/values, per-thread key
 * windows) runs twice against a fresh cache of the chosen branch:
 * once in-process and once through the epoll server with as many
 * event loops as client threads. The gap between the two columns is
 * the cost of the network stack — the layer the paper deliberately
 * kept on-machine so it would not hide TM latency.
 *
 * Exits nonzero if any response is lost, any acknowledged update is
 * read back stale or missing (the driver's freshness check), or the
 * server's served-count disagrees with the number of requests sent,
 * so CI can run it as a correctness gate as well as a benchmark.
 *
 * The in-process row's TM shape and tail cover the measured window
 * only (runMemslap resets both at its warm→measure edge). The
 * loopback leg cannot quiesce the server's maintenance from the
 * client side, so its row is reset before the run and includes the
 * warm phase.
 *
 * Usage: bench_net [--branch NAME] [--ops N] [--window N]
 *                  [--threads a,b,c] [--shards N] [--ascii]
 *                  [--timeout-ms N] [--trials K] [--json OUT]
 *                  [--tail] [--tail-json OUT] [--connect PORT]
 *
 * --json writes one tmemc-bench-v1 row per (topology, thread count):
 * bench "bench_net_inproc" for the in-process drive and
 * "bench_net_loopback" for the served one, so the perf gate can watch
 * the network stack's cost separately from the cache's.
 *
 * --tail arms the per-request tail tracer (obs/tail.h) for every
 * loopback leg, suffixes the loopback row's branch with "+tail" (an
 * additive row: armed cost is tracked separately, never compared
 * against the disarmed baseline), skips the inproc row (the
 * in-process drive has no conn layer, so nothing is traced), and
 * fails if any kept trace lacks its complete parse→exec→flush chain
 * — the armed-path smoke gate CI runs. --tail-json dumps the last
 * loopback leg's reservoir as tmemc-tail-v1 JSON.
 *
 * --connect drives an already-running server on 127.0.0.1:PORT
 * instead of self-hosting (the nightly tail soak's client). The
 * served/sent gate and the bench rows are skipped — the external
 * server's counters are not visible here — but lost responses and
 * lost acknowledged updates still fail the run.
 *
 * --timeout-ms bounds every connect and recv (default 10000), so a
 * wedged server fails the gate in seconds instead of hanging CI.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "figure_harness.h"
#include "mc/branch.h"
#include "mc/cache_iface.h"
#include "net/server.h"
#include "obs/hist.h"
#include "obs/metrics.h"
#include "obs/tail.h"
#include "tm/api.h"
#include "workload/memslap.h"

namespace
{

std::vector<std::uint32_t>
parseThreadList(const char *arg)
{
    std::vector<std::uint32_t> out;
    const char *p = arg;
    while (*p != '\0') {
        char *end = nullptr;
        const long v = std::strtol(p, &end, 10);
        if (end == p)
            break;
        if (v > 0)
            out.push_back(static_cast<std::uint32_t>(v));
        p = *end == ',' ? end + 1 : end;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tmemc;

    std::string branch = "IT-onCommit";
    std::uint64_t ops = 10000;
    std::uint64_t window = 2000;
    std::vector<std::uint32_t> threads{1, 4, 8};
    bool binary = true;
    std::uint32_t shards = 1;
    std::uint32_t timeout_ms = 10000;
    std::string json_path;
    std::string tail_json;
    bool tail_mode = false;
    std::uint16_t connect_port = 0;
    // Best-of-K: fixed work, so background load only adds time; the
    // minimum is the noise-robust estimate the perf gate wants.
    std::uint32_t trials = 1;
    auto usage = [&] {
        std::fprintf(stderr,
                     "usage: %s [--branch NAME] [--ops N] "
                     "[--window N] [--threads a,b,c] [--shards N] "
                     "[--ascii] "
                     "[--timeout-ms N] [--trials K] "
                     "[--json OUT] [--tail] [--tail-json OUT] "
                     "[--connect PORT]\n",
                     argv[0]);
        return 2;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (a == "--branch")
            branch = next();
        else if (a == "--ops")
            ops = std::strtoull(next(), nullptr, 10);
        else if (a == "--window")
            window = std::strtoull(next(), nullptr, 10);
        else if (a == "--threads")
            threads = parseThreadList(next());
        else if (a == "--shards")
            shards = static_cast<std::uint32_t>(std::atoi(next()));
        else if (a == "--ascii")
            binary = false;
        else if (a == "--timeout-ms")
            timeout_ms =
                static_cast<std::uint32_t>(std::atoi(next()));
        else if (a == "--json")
            json_path = next();
        else if (a == "--tail")
            tail_mode = true;
        else if (a == "--tail-json") {
            tail_json = next();
            tail_mode = true;
        } else if (a == "--connect")
            connect_port =
                static_cast<std::uint16_t>(std::atoi(next()));
        else if (a == "--trials")
            trials = static_cast<std::uint32_t>(std::atoi(next()));
        else
            return usage();
    }
    if (trials == 0)
        trials = 1;

    if (connect_port != 0) {
        // Client-only mode: the harness (scripts/tail_soak.sh) owns
        // the server process, so there is nothing to self-host and no
        // served-count to check — only lost responses can fail.
        std::printf("bench_net: connect=127.0.0.1:%u protocol=%s "
                    "ops/thread=%llu window=%llu\n",
                    static_cast<unsigned>(connect_port),
                    binary ? "binary" : "ascii",
                    static_cast<unsigned long long>(ops),
                    static_cast<unsigned long long>(window));
        bool conn_ok = true;
        for (const std::uint32_t n : threads) {
            workload::MemslapCfg cfg;
            cfg.concurrency = n;
            cfg.executeNumber = ops;
            cfg.windowSize = window;
            cfg.binaryProtocol = binary;
            cfg.connectTimeoutMs = timeout_ms;
            cfg.recvTimeoutMs = timeout_ms;
            cfg.serverPort = connect_port;
            const workload::MemslapResult lb =
                workload::runMemslapNet(cfg);
            std::printf("%8u threads %16.0f ops/s %6llu lost "
                        "%6llu lost-acked\n",
                        n, lb.opsPerSecond(),
                        static_cast<unsigned long long>(
                            lb.lostResponses),
                        static_cast<unsigned long long>(
                            lb.lostAckedUpdates));
            conn_ok = conn_ok && lb.lostResponses == 0 &&
                      lb.lostAckedUpdates == 0;
        }
        if (!conn_ok) {
            std::fprintf(stderr, "bench_net: FAILED (lost responses "
                                 "or acknowledged updates)\n");
            return 1;
        }
        std::printf("bench_net: OK (zero lost responses and "
                    "acknowledged updates)\n");
        return 0;
    }

    std::printf("bench_net: branch=%s protocol=%s ops/thread=%llu "
                "window=%llu shards=%u\n",
                branch.c_str(), binary ? "binary" : "ascii",
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(window), shards);
    std::printf("%8s %16s %16s %8s %6s\n", "threads", "inproc ops/s",
                "loopback ops/s", "net/ip", "lost");

    bool ok = true;
    for (const std::uint32_t n : threads) {
        workload::MemslapCfg cfg;
        cfg.concurrency = n;
        cfg.executeNumber = ops;
        cfg.windowSize = window;
        cfg.binaryProtocol = binary;
        cfg.connectTimeoutMs = timeout_ms;
        cfg.recvTimeoutMs = timeout_ms;

        // One tm+histogram window per topology so each JSON row's
        // tail and abort shape describe only its own run.
        auto txShape = [](bench::BenchRow &row) {
            const auto snap = tm::Runtime::get().snapshot();
            if (snap.total.commits == 0)
                return;
            const double commits =
                static_cast<double>(snap.total.commits);
            row.abortsPerCommit =
                static_cast<double>(snap.total.aborts) / commits;
            row.serialPct =
                100.0 *
                static_cast<double>(snap.total.serialCommits) /
                commits;
        };

        workload::MemslapResult inproc{};
        workload::MemslapResult net{};
        bench::BenchRow inprocRow{"bench_net_inproc", branch, n,
                                  shards, 0.0, 0.0, 0.0, 0.0, 0.0};
        bench::BenchRow netRow{"bench_net_loopback", branch, n,
                               shards, 0.0, 0.0, 0.0, 0.0, 0.0};
        bool row_ok = true;
        for (std::uint32_t trial = 0; trial < trials; ++trial) {
            // ----- In-process --------------------------------------------
            tm::Runtime::get().configure(mc::runtimeCfgFor(branch));
            mc::Settings settings;
            settings.maxBytes = 64 * 1024 * 1024;
            auto cache =
                mc::makeShardedCache(branch, settings, n, shards);
            if (cache == nullptr) {
                std::fprintf(stderr, "unknown branch '%s'\n",
                             branch.c_str());
                return 2;
            }
            const workload::MemslapResult ip =
                workload::runMemslap(*cache, cfg);
            if (ip.lostAckedUpdates != 0) {
                row_ok = false;
                std::fprintf(stderr, "  trial %u: inproc lost-acked=%llu\n",
                             trial,
                             static_cast<unsigned long long>(
                                 ip.lostAckedUpdates));
            }
            if (trial == 0 || ip.seconds < inproc.seconds) {
                inproc = ip;
                inprocRow.secs = ip.seconds;
                inprocRow.opsPerSec = ip.opsPerSecond();
                inprocRow.p99Us = obs::hist(obs::HistKind::Tx)
                                      .snapshot()
                                      .summary()
                                      .p99Us;
                txShape(inprocRow);
            }

            // ----- Over loopback, fresh cache, N event loops -------------
            // The in-process cache's maintenance thread commits
            // transactions of its own; join it (via the destructor)
            // before reconfiguring the runtime, which refuses while
            // any transaction is in flight.
            cache.reset();
            tm::Runtime::get().configure(mc::runtimeCfgFor(branch));
            tm::Runtime::get().resetStats();
            obs::MetricsRegistry::get().resetHistograms();
            cache = mc::makeShardedCache(branch, settings, n, shards);
            net::ServerCfg scfg;
            scfg.port = 0;
            scfg.workers = n;
            net::Server server(*cache, scfg);
            if (!server.start()) {
                std::fprintf(stderr, "server start failed\n");
                return 1;
            }
            // The armed-tracer row gets its own name so the gate never
            // compares armed cost against the disarmed baseline.
            netRow.branch = branch;
            if (tail_mode)
                netRow.branch += "+tail";
            if (tail_mode) {
                obs::tail::armTail();
                obs::tail::setTailLabel(
                    netRow.branch,
                    tm::algoKindName(tm::Runtime::get().cfg().algo));
            }
            cfg.serverPort = server.port();
            const workload::MemslapResult lb =
                workload::runMemslapNet(cfg);
            server.stop();
            if (tail_mode) {
                // stop() destroyed every Conn, force-finishing any
                // still-pending traces, so the reservoir is final.
                obs::tail::disarmTail();
                const auto traces = obs::tail::snapshotTail();
                bool chains_ok = !traces.empty();
                bool saw_tx = false;
                for (const auto &t : traces) {
                    bool has_exec = false;
                    for (const auto &s : t->spans) {
                        has_exec |=
                            s.kind == obs::tail::SpanKind::Exec;
                        saw_tx |= s.kind == obs::tail::SpanKind::Tx;
                    }
                    chains_ok =
                        chains_ok && t->spans.size() >= 3 &&
                        t->spans.front().kind ==
                            obs::tail::SpanKind::Parse &&
                        has_exec && t->totalNs() > 0 &&
                        (t->overflow ||
                         (t->spans.back().kind ==
                              obs::tail::SpanKind::Flush &&
                          t->spans.back().t1 >= t->spans.back().t0));
                }
                // A TM branch that committed transactions must show
                // them as tx spans; Baseline (no transactions) is
                // exempt.
                if (tm::Runtime::get().snapshot().total.commits > 0 &&
                    !saw_tx)
                    chains_ok = false;
                if (!chains_ok) {
                    row_ok = false;
                    std::fprintf(stderr,
                                 "  trial %u: tail traces missing or "
                                 "span chain incomplete\n", trial);
                }
            }
            if (trial == 0 || lb.seconds < net.seconds) {
                net = lb;
                // Over loopback the per-command histogram is live;
                // its tail is the row's p99 (request framed to reply
                // built).
                netRow.secs = lb.seconds;
                netRow.opsPerSec = lb.opsPerSecond();
                netRow.p99Us = obs::hist(obs::HistKind::Command)
                                   .snapshot()
                                   .summary()
                                   .p99Us;
                txShape(netRow);
            }

            const std::uint64_t sent =
                static_cast<std::uint64_t>(n) * (window + ops);
            const std::uint64_t served = server.requestsServed();
            // stop() folded every connection's count into the loops
            // before they were destroyed, so served is final here.
            // Every trial must be lossless, not just the best one.
            if (lb.lostResponses != 0 || lb.lostAckedUpdates != 0 ||
                served != sent) {
                row_ok = false;
                std::fprintf(stderr,
                             "  trial %u: served=%llu sent=%llu "
                             "lost=%llu lost-acked=%llu\n",
                             trial,
                             static_cast<unsigned long long>(served),
                             static_cast<unsigned long long>(sent),
                             static_cast<unsigned long long>(
                                 lb.lostResponses),
                             static_cast<unsigned long long>(
                                 lb.lostAckedUpdates));
            }
        }
        if (!json_path.empty()) {
            // The in-process drive never touches the conn layer the
            // tail tracer lives in, so a --tail run would just
            // duplicate the plain run's inproc row; emit it once,
            // from that run.
            if (!tail_mode)
                bench::addBenchRow(inprocRow);
            bench::addBenchRow(netRow);
        }
        ok = ok && row_ok;

        std::printf("%8u %16.0f %16.0f %7.2fx %6llu%s\n", n,
                    inproc.opsPerSecond(), net.opsPerSecond(),
                    net.opsPerSecond() > 0
                        ? inproc.opsPerSecond() / net.opsPerSecond()
                        : 0.0,
                    static_cast<unsigned long long>(
                        net.lostResponses),
                    row_ok ? "" : "  [MISMATCH]");
    }
    if (!json_path.empty() && !bench::writeBenchJson(json_path)) {
        std::fprintf(stderr, "bench_net: cannot write %s\n",
                     json_path.c_str());
        return 1;
    }
    // The reservoir survives disarmTail(), so this dumps the last
    // loopback leg's K slowest requests.
    if (!tail_json.empty() &&
        !obs::tail::writeTailJsonFile(tail_json)) {
        std::fprintf(stderr, "bench_net: cannot write %s\n",
                     tail_json.c_str());
        return 1;
    }
    if (!ok) {
        std::fprintf(stderr, "bench_net: FAILED (lost responses, lost "
                             "acknowledged updates or served/sent "
                             "mismatch)\n");
        return 1;
    }
    std::printf("bench_net: OK (zero lost responses and "
                "acknowledged updates)\n");
    return 0;
}
