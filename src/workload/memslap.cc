/**
 * @file
 * memslap-like driver implementation: one warm+measure loop over a
 * per-thread Session, and one thin Session per transport.
 */

#include "workload/memslap.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <thread>

#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"
#include "mc/binary_protocol.h"
#include "net/client.h"
#include "net/cluster.h"
#include "obs/metrics.h"
#include "tm/api.h"

namespace tmemc::workload
{

void
formatKey(char *out, std::uint32_t thread, std::uint64_t index)
{
    // Fixed-width keys, zero-padded, like memslap's generated keys.
    const int n = std::snprintf(out, kKeySize + 1, "k%03u-%016llx",
                                thread,
                                static_cast<unsigned long long>(index));
    for (std::size_t i = static_cast<std::size_t>(n); i < kKeySize; ++i)
        out[i] = 'x';
    out[kKeySize] = '\0';
}

namespace
{

/** No acknowledged write yet / no stamp in the value read. */
constexpr std::uint64_t kNone = ~0ull;

/** Write stamp "s<seq-hex>-t<thread>" over the head of @p value. */
void
stampValue(std::string &value, std::uint32_t thread, std::uint64_t seq)
{
    char buf[kStampSize + 1];
    std::snprintf(buf, sizeof(buf), "s%016llx-t%03u",
                  static_cast<unsigned long long>(seq), thread % 1000);
    value.replace(0, kStampSize, buf, kStampSize);
}

/** Parse the stamp back out; kNone on a foreign value. */
std::uint64_t
parseStamp(const char *v, std::size_t n)
{
    std::uint64_t seq = kNone;
    if (n >= kStampSize && v[0] == 's')
        std::from_chars(v + 1, v + 17, seq, 16);
    return seq;
}

/** What one session call observed (Lost: no answer, effect unknown). */
enum class Outcome : std::uint8_t { Ok, Miss, Fail, Lost };

/** One thread's transport, the driver's only view of the target:
 *  set(key, value), and get(key, seq), which on Ok stores the stamp it
 *  read. Keys are kKeySize bytes. */
struct Session
{
    std::function<Outcome(const char *, const std::string &)> set;
    std::function<Outcome(const char *, std::uint64_t &)> get;
};

/**
 * memslap --binary over any carrier (mc::binaryExecute in-process,
 * net::Client over loopback): one frame builder and one reply
 * classifier for both. @p rt sends a request frame and returns the
 * reply frame, "" if none arrived.
 */
Session
binarySession(std::function<std::string(const std::string &)> rt)
{
    auto call = [rt](const std::string &frame, mc::BinResponse &r) {
        const std::string reply = rt(frame);
        if (reply.empty())
            return Outcome::Lost;
        return mc::binParseResponse(reply, r) != 0 &&
                       r.status == mc::BinStatus::Ok
                   ? Outcome::Ok
                   : Outcome::Fail;
    };
    return {
        [call](const char *key, const std::string &value) {
            mc::BinResponse r;
            return call(
                mc::binSetRequest(std::string(key, kKeySize), value), r);
        },
        [call](const char *key, std::uint64_t &seq) {
            mc::BinResponse r;
            const Outcome o = call(
                mc::binRequest(mc::BinOp::Get, std::string(key, kKeySize)),
                r);
            if (o == Outcome::Ok)
                seq = parseStamp(r.value.data(), r.value.size());
            return o == Outcome::Fail ? Outcome::Miss : o;
        }};
}

/** In-process: direct CacheIface calls, or binary frames through
 *  mc::binaryExecute (memslap --binary without the socket). */
Session
cacheSession(mc::CacheIface &cache, std::uint32_t t, const MemslapCfg &cfg)
{
    if (cfg.binaryProtocol) {
        return binarySession([&cache, t](const std::string &frame) {
            return mc::binaryExecute(cache, t, frame);
        });
    }
    auto out = std::make_shared<std::vector<char>>(cfg.valueSize);
    return {
        [&cache, t](const char *key, const std::string &value) {
            return cache.store(t, key, kKeySize, value.data(),
                               value.size()) == mc::OpStatus::Ok
                       ? Outcome::Ok
                       : Outcome::Fail;
        },
        [&cache, t, out](const char *key, std::uint64_t &seq) {
            const auto r =
                cache.get(t, key, kKeySize, out->data(), out->size());
            if (r.status != mc::OpStatus::Ok)
                return Outcome::Miss;
            seq = parseStamp(out->data(), r.vlen);
            return Outcome::Ok;
        }};
}

/** Loopback: one connection, ASCII or binary. A failed connect leaves
 *  the client closed, so every call then reports Lost. */
Session
clientSession(const MemslapCfg &cfg)
{
    auto client = std::make_shared<net::Client>();
    if (client->connect(cfg.serverHost, cfg.serverPort,
                        cfg.connectTimeoutMs))
        client->setRecvTimeout(cfg.recvTimeoutMs);
    if (cfg.binaryProtocol) {
        return binarySession([client](const std::string &frame) {
            return client->roundTripBinary(frame);
        });
    }
    return {
        [client](const char *key, const std::string &value) {
            const std::string reply = client->roundTripAscii(
                "set " + std::string(key, kKeySize) + " 0 0 " +
                std::to_string(value.size()) + "\r\n" + value + "\r\n");
            if (reply.empty())
                return Outcome::Lost;
            return reply == "STORED\r\n" ? Outcome::Ok : Outcome::Fail;
        },
        [client](const char *key, std::uint64_t &seq) {
            const std::string reply = client->roundTripAscii(
                "get " + std::string(key, kKeySize) + "\r\n");
            if (reply.empty())
                return Outcome::Lost;
            if (reply.compare(0, 6, "VALUE ") != 0)
                return Outcome::Miss;
            const std::size_t body = reply.find("\r\n") + 2;
            seq = parseStamp(reply.data() + body, reply.size() - body);
            return Outcome::Ok;
        }};
}

/** Cluster: an adapter over the shared net::Cluster. NetFail and
 *  ProtoError leave the outcome unknown, so both report Lost. */
Session
clusterSession(net::Cluster &cluster)
{
    return {
        [&cluster](const char *key, const std::string &value) {
            return cluster.set(std::string(key, kKeySize), value).status ==
                           net::ClusterStatus::Ok
                       ? Outcome::Ok
                       : Outcome::Lost;
        },
        [&cluster](const char *key, std::uint64_t &seq) {
            const net::ClusterResult res =
                cluster.get(std::string(key, kKeySize));
            if (res.status == net::ClusterStatus::Miss)
                return Outcome::Miss;
            if (res.status != net::ClusterStatus::Ok)
                return Outcome::Lost;
            seq = parseStamp(res.value.data(), res.value.size());
            return Outcome::Ok;
        }};
}

/** Count a SET of stamp @p seq; an ack makes it the key's newest. */
void
countSet(MemslapResult &r, Outcome o, std::uint64_t &ack, std::uint64_t seq)
{
    if (o == Outcome::Ok)
        ack = seq;
    else if (o == Outcome::Fail)
        ++r.failures;
    else
        ++r.lostResponses;  // Indeterminate: never counted as acked.
}

/** Count a GET that read stamp @p seen. The key's one writer sets in
 *  order, so the read must be at least as new as its newest ack. */
void
countGet(MemslapResult &r, Outcome o, std::uint64_t ack, std::uint64_t seen)
{
    if (o == Outcome::Ok) {
        ++r.hits;
        if (ack != kNone && seen < ack)
            ++r.lostAckedUpdates;
    } else if (o == Outcome::Miss) {
        ++r.misses;
        if (ack != kNone)
            ++r.lostAckedUpdates;
    } else {
        ++r.lostResponses;
    }
}

/** Newest acknowledged stamp per (thread, key index); kNone if none. */
using AckTable = std::vector<std::vector<std::uint64_t>>;

/** Run body(t) for t in [0, threads) on one thread each; join them. */
template <typename F>
void
onEachThread(std::size_t threads, F body)
{
    std::vector<std::thread> pool;
    for (std::uint32_t t = 0; t < threads; ++t)
        pool.emplace_back(body, t);
    for (auto &th : pool)
        th.join();
}

/**
 * The driver: preload every thread's window, call @p openWindow (if
 * set), then run the timed mix. Warm acks count toward the freshness
 * check too: a write the transport acknowledged must still be there.
 */
MemslapResult
drive(const MemslapCfg &cfg, const std::function<Session(std::uint32_t)> &open,
      const std::function<void()> &openWindow, AckTable &acked)
{
    if (cfg.valueSize < kStampSize)
        fatal("memslap: valueSize %zu is shorter than the %zu-byte "
              "sequence stamp every value carries",
              cfg.valueSize, kStampSize);
    const std::uint32_t threads = std::max(cfg.concurrency, 1u);
    std::vector<Session> sessions;
    for (std::uint32_t t = 0; t < threads; ++t)
        sessions.push_back(open(t));
    acked.assign(threads, std::vector<std::uint64_t>(cfg.windowSize,
                                                     kNone));
    std::vector<MemslapResult> counts(threads);

    // Warm phase (unmeasured): key i gets stamp i.
    onEachThread(threads, [&](std::uint32_t t) {
        char key[kKeySize + 1];
        std::string value(cfg.valueSize, 'y');
        MemslapResult c;
        for (std::uint64_t i = 0; i < cfg.windowSize; ++i) {
            formatKey(key, t, i);
            stampValue(value, t, i);
            countSet(c, sessions[t].set(key, value), acked[t][i], i);
        }
        counts[t] = c;
    });

    if (openWindow)
        openWindow();

    // Measured phase: op i stamps windowSize + i, so each key's stamps
    // grow in its writer's program order.
    WallTimer timer;
    onEachThread(threads, [&](std::uint32_t t) {
        XorShift128 rng(cfg.seed * 1315423911u + t);
        char key[kKeySize + 1];
        std::string value(cfg.valueSize, 'y');
        MemslapResult c = counts[t];
        for (std::uint64_t i = 0; i < cfg.executeNumber; ++i) {
            const std::uint64_t idx = rng.nextBounded(cfg.windowSize);
            formatKey(key, t, idx);
            if (rng.nextDouble() < cfg.setFraction) {
                const std::uint64_t seq = cfg.windowSize + i;
                stampValue(value, t, seq);
                countSet(c, sessions[t].set(key, value), acked[t][idx],
                         seq);
            } else {
                std::uint64_t seen = kNone;
                const Outcome o = sessions[t].get(key, seen);
                countGet(c, o, acked[t][idx], seen);
            }
        }
        counts[t] = c;
    });

    MemslapResult res;
    res.seconds = timer.elapsedSeconds();
    res.ops = static_cast<std::uint64_t>(threads) * cfg.executeNumber;
    for (const MemslapResult &c : counts) {
        res.hits += c.hits;
        res.misses += c.misses;
        res.failures += c.failures;
        res.lostResponses += c.lostResponses;
        res.lostAckedUpdates += c.lostAckedUpdates;
    }
    return res;
}

} // namespace

MemslapResult
runMemslap(mc::CacheIface &cache, const MemslapCfg &cfg)
{
    AckTable acked;
    return drive(
        cfg, [&](std::uint32_t t) { return cacheSession(cache, t, cfg); },
        [&] {
            // The warm→measure edge: let rebalances and expansions the
            // preload triggered finish, then zero what the tables and
            // tails read, so the run's snapshot is the measured window.
            cache.quiesceMaintenance();
            tm::Runtime::get().resetStats();
            obs::MetricsRegistry::get().resetHistograms();
        },
        acked);
}

MemslapResult
runMemslapNet(const MemslapCfg &cfg)
{
    AckTable acked;
    return drive(
        cfg, [&](std::uint32_t) { return clientSession(cfg); }, nullptr,
        acked);
}

MemslapResult
runMemslapCluster(const MemslapCfg &cfg)
{
    net::ClusterCfg ccfg;
    for (const std::string &ep : cfg.clusterNodes) {
        const std::size_t colon = ep.rfind(':');
        net::ClusterNode node;
        node.host = colon == std::string::npos ? ep : ep.substr(0, colon);
        node.port = colon == std::string::npos
                        ? 0
                        : static_cast<std::uint16_t>(std::strtoul(
                              ep.c_str() + colon + 1, nullptr, 10));
        ccfg.nodes.push_back(std::move(node));
    }
    ccfg.replicas = cfg.clusterReplicas;
    ccfg.nodeTimeoutMs = cfg.nodeTimeoutMs;
    // Whole-op budget: generous relative to the per-attempt bound so
    // a slow primary cannot starve the replica leg of a write fan-out
    // (a starved replica leg turns into single-copy acks, which the
    // kill-a-node gate then depends on surviving).
    ccfg.requestDeadlineMs =
        std::max<std::uint32_t>(cfg.recvTimeoutMs, 8 * cfg.nodeTimeoutMs);
    net::Cluster cluster(ccfg);
    const std::uint64_t before_lag = cluster.stats().replica_lag;

    AckTable acked;
    MemslapResult res = drive(
        cfg, [&](std::uint32_t) { return clusterSession(cluster); },
        nullptr, acked);

    // Read-back (unmeasured): every acknowledged key must still read
    // at its newest ack or later. An unanswered read is inconclusive.
    std::vector<MemslapResult> readback(acked.size());
    onEachThread(acked.size(), [&](std::uint32_t t) {
        const Session session = clusterSession(cluster);
        char key[kKeySize + 1];
        for (std::uint64_t i = 0; i < cfg.windowSize; ++i) {
            if (acked[t][i] == kNone)
                continue;
            formatKey(key, t, i);
            std::uint64_t seen = kNone;
            countGet(readback[t], session.get(key, seen), acked[t][i],
                     seen);
        }
    });
    for (const MemslapResult &c : readback)
        res.lostAckedUpdates += c.lostAckedUpdates;

    res.clusterStats = cluster.stats();
    res.degradedWrites = res.clusterStats.replica_lag - before_lag;
    return res;
}

} // namespace tmemc::workload
