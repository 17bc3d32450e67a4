/**
 * @file
 * A transactional memcached server: the full stack — the TCP server's
 * accept thread and worker event loops (libevent's role), the text
 * protocol, and a cache branch of your choice — driven by clients over
 * loopback.
 *
 * Usage: tm_kv_server [branch] [workers] [requests-per-client]
 *   branch defaults to IT-onCommit; try Baseline, IP-Callable, ...
 *
 * Build & run:  ./build/examples/tm_kv_server IT-onCommit 4 2000
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "mc/branch.h"
#include "mc/cache_iface.h"
#include "net/client.h"
#include "net/server.h"
#include "tm/api.h"

int
main(int argc, char **argv)
{
    using namespace tmemc;
    const std::string branch = argc > 1 ? argv[1] : "IT-onCommit";
    const std::uint32_t workers =
        argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 4;
    const int requests = argc > 3 ? std::atoi(argv[3]) : 2000;

    // The branch's TM runtime (IT-RA runs on the RA algorithm).
    tm::Runtime::get().configure(mc::runtimeCfgFor(branch));

    mc::Settings settings;
    settings.maxBytes = 64 * 1024 * 1024;
    auto cache = mc::makeCache(branch, settings, workers);
    if (cache == nullptr) {
        std::fprintf(stderr, "unknown branch '%s'\n", branch.c_str());
        return 1;
    }

    // The server: worker loop i runs the protocol as cache tid i.
    net::ServerCfg cfg;
    cfg.workers = workers;
    net::Server server(*cache, cfg);
    if (!server.start()) {
        std::fprintf(stderr, "server failed to start\n");
        return 1;
    }
    std::printf("tm_kv_server: branch=%s workers=%u port=%u\n",
                cache->branchName(), workers,
                static_cast<unsigned>(server.port()));

    // A version probe, like a client's first exchange.
    net::Client admin;
    if (!admin.connect(cfg.host, server.port())) {
        std::fprintf(stderr, "connect failed\n");
        return 1;
    }
    std::printf("server says: %s",
                admin.roundTripAscii("version\r\n").c_str());

    // Clients hammering the protocol, one connection each.
    WallTimer timer;
    std::atomic<std::uint64_t> stored{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> failed{0};
    std::vector<std::thread> clients;
    for (std::uint32_t c = 0; c < 3; ++c) {
        clients.emplace_back([&, c] {
            net::Client conn;
            if (!conn.connect(cfg.host, server.port())) {
                failed.fetch_add(static_cast<std::uint64_t>(requests));
                return;
            }
            XorShift128 rng(c + 1);
            for (int i = 0; i < requests; ++i) {
                const std::string key =
                    "user:" + std::to_string(rng.nextBounded(500));
                if (rng.nextDouble() < 0.2) {
                    const std::string val =
                        "profile-data-" + std::to_string(i);
                    const std::string reply = conn.roundTripAscii(
                        "set " + key + " 0 0 " +
                        std::to_string(val.size()) + "\r\n" + val +
                        "\r\n");
                    if (reply == "STORED\r\n")
                        stored.fetch_add(1);
                    else if (reply.empty())
                        failed.fetch_add(1);
                } else {
                    const std::string reply =
                        conn.roundTripAscii("get " + key + "\r\n");
                    if (reply.rfind("VALUE ", 0) == 0)
                        hits.fetch_add(1);
                    else if (reply.empty())
                        failed.fetch_add(1);
                }
            }
        });
    }
    for (auto &t : clients)
        t.join();
    const double secs = timer.elapsedSeconds();

    std::printf("%d requests in %.3f s (%.0f req/s); stored=%llu "
                "hits=%llu failed=%llu\n",
                3 * requests, secs, 3 * requests / secs,
                static_cast<unsigned long long>(stored.load()),
                static_cast<unsigned long long>(hits.load()),
                static_cast<unsigned long long>(failed.load()));

    // Ask the server for its stats the way a client would.
    std::printf("\n%s", admin.roundTripAscii("stats\r\n").c_str());
    admin.close();
    server.stop();

    const auto snap = tm::Runtime::get().snapshot();
    if (snap.total.txns > 0) {
        std::printf("\nTM: %llu txns, %llu commits, %llu aborts, "
                    "start-serial=%llu in-flight=%llu\n",
                    static_cast<unsigned long long>(snap.total.txns),
                    static_cast<unsigned long long>(snap.total.commits),
                    static_cast<unsigned long long>(snap.total.aborts),
                    static_cast<unsigned long long>(snap.total.startSerial),
                    static_cast<unsigned long long>(
                        snap.total.inflightSwitch));
    }
    return failed.load() == 0 ? 0 : 1;
}
