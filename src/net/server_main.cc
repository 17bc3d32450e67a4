/**
 * @file
 * tmemc_server: run the TM cache behind the TCP front end, the
 * memcached-shaped deployment of this reproduction.
 *
 * Usage: tmemc_server [--branch NAME] [--port N] [--workers N]
 *                     [--shards N] [--mem MB] [--max-conns N]
 *                     [--idle-timeout MS] [--drain-ms MS]
 *                     [--metrics-json PATH] [--trace] [--verbose]
 *                     [--tail] [--tail-k N] [--tail-json PATH]
 *                     [--slow-shard IDX:DELAY_US[:EVERY_N]]
 *
 * Serves both protocols on one port until SIGINT/SIGTERM, then drains
 * gracefully (flushes queued replies) for --drain-ms before exiting.
 * --metrics-json writes the final obs::MetricsRegistry snapshot (the
 * same JSON the `metrics` admin command serves) to PATH after the
 * drain; --trace arms the flight recorder (the obs/probe.h event
 * rings), which are dumped to stderr on panic/fatal.
 * --tail arms the per-request tail tracer (obs/tail.h): the K slowest
 * requests (--tail-k, default 32) keep their full
 * parse→flush span chains, served live via `stats tail` or the `tail`
 * admin command and written as tmemc-tail-v1 JSON to --tail-json PATH
 * after the drain (either flag arms the tracer). --slow-shard arms
 * the mc.shard<IDX>.op fault site with a DELAY_US stall every EVERY_N
 * ops (default 1) — the injected slow shard the tail soak blames.
 * Try:
 *   ./build/src/net/tmemc_server --branch IT-onCommit --port 11211 &
 *   printf 'set k 0 0 5\r\nhello\r\nget k\r\nquit\r\n' | nc 127.0.0.1 11211
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/fault.h"
#include "mc/cache_iface.h"
#include "mc/sharded_cache.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "obs/tail.h"
#include "tm/api.h"

namespace
{

// atom-protocol: relaxed-ok(signal-to-main stop flag; the poll loop
// only needs eventual visibility, no data is published through it)
std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true, std::memory_order_relaxed);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tmemc;

    std::string branch = "IT-onCommit";
    std::uint16_t port = 11211;
    std::uint32_t workers = 4;
    std::uint32_t shards = 1;
    std::size_t mem_mb = 64;
    std::uint32_t max_conns = 0;
    std::uint32_t idle_timeout_ms = 0;
    std::uint32_t drain_ms = 2000;
    std::string metrics_json;
    bool trace = false;
    bool tail = false;
    std::size_t tail_k = 0;  // 0: obs::tail::kDefaultTailK.
    std::string tail_json;
    std::string slow_shard;
    int verbose = 0;
    auto usage = [&] {
        std::fprintf(stderr,
                     "usage: %s [--branch NAME] [--port N] "
                     "[--workers N] [--shards N] [--mem MB] "
                     "[--max-conns N] [--idle-timeout MS] "
                     "[--drain-ms MS] "
                     "[--metrics-json PATH] "
                     "[--trace] [--verbose] "
                     "[--tail] [--tail-k N] [--tail-json PATH] "
                     "[--slow-shard IDX:DELAY_US[:EVERY_N]]\n",
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
        else if (a == "--port")
            port = static_cast<std::uint16_t>(std::atoi(next()));
        else if (a == "--workers")
            workers = static_cast<std::uint32_t>(std::atoi(next()));
        else if (a == "--shards")
            shards = static_cast<std::uint32_t>(std::atoi(next()));
        else if (a == "--mem")
            mem_mb = static_cast<std::size_t>(std::atoi(next()));
        else if (a == "--max-conns")
            max_conns = static_cast<std::uint32_t>(std::atoi(next()));
        else if (a == "--idle-timeout")
            idle_timeout_ms =
                static_cast<std::uint32_t>(std::atoi(next()));
        else if (a == "--drain-ms")
            drain_ms = static_cast<std::uint32_t>(std::atoi(next()));
        else if (a == "--metrics-json")
            metrics_json = next();
        else if (a == "--trace")
            trace = true;
        else if (a == "--tail")
            tail = true;
        else if (a == "--tail-k")
            tail_k = static_cast<std::size_t>(std::atoi(next()));
        else if (a == "--tail-json") {
            tail_json = next();
            tail = true;
        } else if (a == "--slow-shard")
            slow_shard = next();
        else if (a == "--verbose")
            verbose = 1;
        else
            return usage();
    }

    // IT-RA expects the release-acquire STM; every other branch gets
    // the GCC-default configuration. Must precede cache creation.
    tm::Runtime::get().configure(mc::runtimeCfgFor(branch));
    if (trace)
        obs::probe::armRing();
    if (tail) {
        obs::tail::armTail(tail_k != 0 ? tail_k
                                       : obs::tail::kDefaultTailK);
        obs::tail::setTailLabel(
            branch,
            tm::algoKindName(tm::Runtime::get().cfg().algo));
    }
    if (!slow_shard.empty()) {
        unsigned idx = 0;
        unsigned long long delay_us = 0;
        unsigned long long every_n = 1;
        const int got = std::sscanf(slow_shard.c_str(), "%u:%llu:%llu",
                                    &idx, &delay_us, &every_n);
        if (got < 2 || delay_us == 0 || every_n == 0) {
            std::fprintf(stderr,
                         "bad --slow-shard '%s' (want "
                         "IDX:DELAY_US[:EVERY_N])\n",
                         slow_shard.c_str());
            return 2;
        }
        if (idx >= shards) {
            std::fprintf(stderr,
                         "--slow-shard index %u out of range "
                         "(--shards %u)\n",
                         idx, shards);
            return 2;
        }
        fault::Policy policy;
        policy.trigger = fault::Trigger::EveryNth;
        policy.n = every_n;
        policy.delayUs = delay_us;
        fault::arm(mc::shardFaultSite(idx), policy);
    }

    mc::Settings settings;
    settings.maxBytes = mem_mb * 1024 * 1024;
    settings.verbose = verbose;
    auto cache = mc::makeShardedCache(branch, settings, workers, shards);
    if (cache == nullptr) {
        std::fprintf(stderr, "unknown branch '%s' (or --shards 0)\n",
                     branch.c_str());
        return 1;
    }

    net::ServerCfg cfg;
    cfg.port = port;
    cfg.workers = workers;
    cfg.maxConns = max_conns;
    cfg.idleTimeoutMs = idle_timeout_ms;
    net::Server server(*cache, cfg);
    if (!server.start()) {
        std::fprintf(stderr, "failed to bind 127.0.0.1:%u\n",
                     static_cast<unsigned>(port));
        return 1;
    }
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::printf("tmemc_server: branch=%s workers=%u shards=%u "
                "listening on 127.0.0.1:%u\n",
                cache->branchName(), workers, cache->shardCount(),
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    while (!g_stop.load(std::memory_order_relaxed))
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    const bool drained = server.drain(drain_ms);
    // Written after the drain so the command/cache-op/tx histograms
    // and the net totals cover every request that was served.
    if (!metrics_json.empty() &&
        !obs::MetricsRegistry::get().writeJsonFile(metrics_json)) {
        std::fprintf(stderr, "tmemc_server: cannot write %s\n",
                     metrics_json.c_str());
    }
    if (!tail_json.empty() &&
        !obs::tail::writeTailJsonFile(tail_json)) {
        std::fprintf(stderr, "tmemc_server: cannot write %s\n",
                     tail_json.c_str());
    }
    std::printf("tmemc_server: %llu connections, %llu requests%s\n",
                static_cast<unsigned long long>(server.accepted()),
                static_cast<unsigned long long>(server.requestsServed()),
                drained ? "" : " (drain deadline hit)");
    return 0;
}
