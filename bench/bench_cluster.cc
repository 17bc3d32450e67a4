/**
 * @file
 * bench_cluster: replicated-cluster throughput harness and the
 * acked-update correctness gate behind the chaos-cluster CI job.
 *
 * Two topologies:
 *
 *   --cluster host:port,host:port,...   drive external tmemc_server
 *       processes (scripts/chaos_cluster.sh boots three and kills one
 *       mid-run); the gate is the workload's own acked-update
 *       tracking — every acknowledged set must remain readable at
 *       that sequence or newer, inline and in a final read-back pass.
 *
 *   (no --cluster)   self-host three in-process servers on ephemeral
 *       loopback ports and run the same workload against them — a
 *       fault-free smoke of the routing/replication path that needs
 *       no orchestration.
 *
 * Exits nonzero on any lost acknowledged update (or if the cluster
 * was entirely unreachable), so CI runs it as a correctness gate.
 *
 * Usage: bench_cluster [--cluster a:p,b:p,c:p] [--replicas N]
 *                      [--node-timeout-ms N] [--ops N] [--window N]
 *                      [--threads N] [--set-fraction F] [--seed N]
 *                      [--branch NAME] [--shards N]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "mc/branch.h"
#include "mc/cache_iface.h"
#include "net/server.h"
#include "tm/api.h"
#include "workload/memslap.h"

namespace
{

std::vector<std::string>
splitCommas(const char *arg)
{
    std::vector<std::string> out;
    std::string cur;
    for (const char *p = arg; *p != '\0'; ++p) {
        if (*p == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += *p;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tmemc;

    std::vector<std::string> endpoints;
    unsigned replicas = 2;
    std::uint32_t node_timeout_ms = 250;
    std::uint64_t ops = 20000;
    std::uint64_t window = 1000;
    std::uint32_t threads = 4;
    double set_fraction = 0.5;
    std::uint64_t seed = 20140301;
    std::string branch = "IP-onCommit";
    std::uint32_t shards = 4;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (a == "--cluster")
            endpoints = splitCommas(next());
        else if (a == "--replicas")
            replicas = static_cast<unsigned>(std::atoi(next()));
        else if (a == "--node-timeout-ms")
            node_timeout_ms =
                static_cast<std::uint32_t>(std::atoi(next()));
        else if (a == "--ops")
            ops = std::strtoull(next(), nullptr, 10);
        else if (a == "--window")
            window = std::strtoull(next(), nullptr, 10);
        else if (a == "--threads")
            threads = static_cast<std::uint32_t>(std::atoi(next()));
        else if (a == "--set-fraction")
            set_fraction = std::atof(next());
        else if (a == "--seed")
            seed = std::strtoull(next(), nullptr, 10);
        else if (a == "--branch")
            branch = next();
        else if (a == "--shards")
            shards = static_cast<std::uint32_t>(std::atoi(next()));
        else {
            std::fprintf(
                stderr,
                "usage: %s [--cluster a:p,b:p,c:p] [--replicas N] "
                "[--node-timeout-ms N] [--ops N] [--window N] "
                "[--threads N] [--set-fraction F] [--seed N] "
                "[--branch NAME] [--shards N]\n",
                argv[0]);
            return 2;
        }
    }

    // Self-hosted topology when no endpoints were given.
    std::vector<std::unique_ptr<mc::CacheIface>> caches;
    std::vector<std::unique_ptr<net::Server>> servers;
    if (endpoints.empty()) {
        tm::Runtime::get().configure(mc::runtimeCfgFor(branch));
        for (int n = 0; n < 3; ++n) {
            mc::Settings settings;
            settings.maxBytes = 64 * 1024 * 1024;
            auto cache =
                mc::makeShardedCache(branch, settings, threads, shards);
            if (cache == nullptr) {
                std::fprintf(stderr, "unknown branch '%s'\n",
                             branch.c_str());
                return 2;
            }
            net::ServerCfg scfg;
            scfg.port = 0;
            scfg.workers = 2;
            auto server = std::make_unique<net::Server>(*cache, scfg);
            if (!server->start()) {
                std::fprintf(stderr, "server %d start failed\n", n);
                return 1;
            }
            endpoints.push_back("127.0.0.1:" +
                                std::to_string(server->port()));
            caches.push_back(std::move(cache));
            servers.push_back(std::move(server));
        }
    }

    workload::MemslapCfg cfg;
    cfg.concurrency = threads;
    cfg.executeNumber = ops;
    cfg.windowSize = window;
    cfg.setFraction = set_fraction;
    cfg.seed = seed;
    cfg.clusterNodes = endpoints;
    cfg.clusterReplicas = replicas;
    cfg.nodeTimeoutMs = node_timeout_ms;

    std::printf("bench_cluster: nodes=%zu replicas=%u "
                "node-timeout=%ums ops/thread=%llu window=%llu "
                "threads=%u set-fraction=%.2f\n",
                endpoints.size(), replicas, node_timeout_ms,
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(window), threads,
                set_fraction);

    const workload::MemslapResult res = workload::runMemslapCluster(cfg);

    for (auto &server : servers)
        server->stop();

    std::printf("%12s %12s %12s %12s %12s %12s\n", "ops/s", "hits",
                "misses", "lost_resp", "degraded", "lost_acked");
    std::printf("%12.0f %12llu %12llu %12llu %12llu %12llu\n",
                res.opsPerSecond(),
                static_cast<unsigned long long>(res.hits),
                static_cast<unsigned long long>(res.misses),
                static_cast<unsigned long long>(res.lostResponses),
                static_cast<unsigned long long>(res.degradedWrites),
                static_cast<unsigned long long>(res.lostAckedUpdates));

    // Client-side counters: the chaos log reads failure handling
    // (ejections/failovers/read repairs) straight off this block.
    const net::ClusterStats &cs = res.clusterStats;
    std::printf("cluster: requests=%llu retries=%llu net_errors=%llu "
                "ejections=%llu probes=%llu readmissions=%llu "
                "failovers=%llu read_repairs=%llu replica_lag=%llu\n",
                static_cast<unsigned long long>(cs.requests),
                static_cast<unsigned long long>(cs.retries),
                static_cast<unsigned long long>(cs.net_errors),
                static_cast<unsigned long long>(cs.ejections),
                static_cast<unsigned long long>(cs.probes),
                static_cast<unsigned long long>(cs.readmissions),
                static_cast<unsigned long long>(cs.failovers),
                static_cast<unsigned long long>(cs.read_repairs),
                static_cast<unsigned long long>(cs.replica_lag));

    if (res.lostAckedUpdates != 0) {
        std::fprintf(stderr,
                     "bench_cluster: FAILED (%llu lost acknowledged "
                     "updates)\n",
                     static_cast<unsigned long long>(
                         res.lostAckedUpdates));
        return 1;
    }
    if (res.hits + res.misses + res.failures == 0 &&
        res.lostResponses > 0) {
        std::fprintf(stderr, "bench_cluster: FAILED (cluster "
                             "unreachable)\n");
        return 1;
    }
    std::printf("bench_cluster: OK (zero lost acknowledged updates)\n");
    return 0;
}
