/**
 * @file
 * memslap-like workload driver.
 *
 * Reproduces the paper's measurement setup: "We ran memslap with
 * parameters --concurrency=x --execute-number=625000 --binary". The
 * memslap v1.0 defaults are kept: 9:1 get:set mix, a window of keys
 * preloaded before measurement, fixed-size keys and values, and
 * per-thread deterministic request streams.
 *
 * One warm+measure loop drives three transports, one entry point each:
 * runMemslap (in-process CacheIface calls, or binary frames through
 * mc::binaryExecute; the figure harness uses it, as network costs
 * would hide TM latency), runMemslapNet (one loopback connection per
 * thread, ASCII or binary) and runMemslapCluster (a net::Cluster).
 *
 * Freshness check, on every transport: each value begins with a
 * sequence stamp, and keys are partitioned by thread (formatKey embeds
 * the thread id), so each key has one writer issuing its sets in
 * order. The driver records each key's newest acknowledged stamp; a
 * GET that returns an older stamp, or misses an acknowledged key,
 * counts in lostAckedUpdates. The check assumes the target holds every
 * window (no eviction).
 *
 * Measurement window: at the warm→measure edge runMemslap quiesces the
 * cache's maintenance threads, then zeroes the TM statistics and the
 * latency histograms, so a snapshot taken after the run covers the
 * measured operations only. The network entry points cannot quiesce a
 * server and reset nothing; a caller that resets before them also
 * counts the warm phase.
 */

#ifndef TMEMC_WORKLOAD_MEMSLAP_H
#define TMEMC_WORKLOAD_MEMSLAP_H

#include <cstdint>
#include <string>
#include <vector>

#include "mc/cache_iface.h"
#include "net/cluster.h"

namespace tmemc::workload
{

/** Key bytes (memslap's default key length). */
constexpr std::size_t kKeySize = 23;

/** Bytes of the sequence stamp every value starts with. */
constexpr std::size_t kStampSize = 22;

/** Workload knobs (memslap option names in comments). */
struct MemslapCfg
{
    std::uint32_t concurrency = 4;        //!< --concurrency
    std::uint64_t executeNumber = 10000;  //!< --execute-number (per thread)
    double setFraction = 0.1;             //!< memslap default 9:1 get:set
    std::size_t valueSize = 100;          //!< >= kStampSize (else fatal)
    std::uint64_t windowSize = 10000;     //!< distinct keys per thread
    std::uint64_t seed = 20140301;        //!< ASPLOS'14 vintage
    /**
     * memslap --binary: frame every operation in the binary protocol
     * (in-process through mc::binaryExecute). Off in the figure
     * harness: the framing cost is the same for every branch and only
     * dilutes the TM effects. The cluster always speaks ASCII.
     */
    bool binaryProtocol = false;
    /** runMemslapNet: the server each thread connects to. */
    std::string serverHost = "127.0.0.1";
    std::uint16_t serverPort = 0;
    /** Network deadlines (0 = none): a wedged or shedding server shows
     *  up as lost operations instead of a hung benchmark. */
    std::uint32_t connectTimeoutMs = 5000;
    std::uint32_t recvTimeoutMs = 10000;
    /** runMemslapCluster: "host:port" endpoints of the cluster. */
    std::vector<std::string> clusterNodes;
    unsigned clusterReplicas = 2;          //!< --replicas
    std::uint32_t nodeTimeoutMs = 250;     //!< --node-timeout-ms
};

/** Result of one driver run. */
struct MemslapResult
{
    double seconds = 0.0;       //!< Wall time for the measured phase.
    std::uint64_t ops = 0;      //!< Total operations executed.
    std::uint64_t hits = 0;     //!< Get hits.
    std::uint64_t misses = 0;   //!< Get misses.
    std::uint64_t failures = 0; //!< Stores that did not succeed.
    /** Network transports: requests whose response never arrived
     *  (connection error or timeout). Zero on a healthy run. */
    std::uint64_t lostResponses = 0;
    /** Acknowledged updates later observed lost (stale or missing on
     *  read; see the file comment). Any nonzero value is a bug. */
    std::uint64_t lostAckedUpdates = 0;
    /** Cluster only: writes acknowledged with fewer than R copies
     *  (the cluster's replica_lag, scoped to this run). */
    std::uint64_t degradedWrites = 0;
    /** Cluster only: the client's counters at the end of the run
     *  (the Cluster itself does not outlive runMemslapCluster, so its
     *  metrics source is gone by the time the caller looks). */
    net::ClusterStats clusterStats;

    double
    opsPerSecond() const
    {
        return seconds > 0 ? static_cast<double>(ops) / seconds : 0.0;
    }
};

/** In-process run against @p cache; opens the measurement window
 *  (see the file comment) between warm-up and the timed phase. */
MemslapResult runMemslap(mc::CacheIface &cache, const MemslapCfg &cfg);

/** The same run against a live server over loopback TCP. */
MemslapResult runMemslapNet(const MemslapCfg &cfg);

/** The same run over net::Cluster, then an unmeasured read-back of
 *  every acknowledged key (the node-kill gate's final check). */
MemslapResult runMemslapCluster(const MemslapCfg &cfg);

/** Write the deterministic kKeySize-byte key for (thread, index) and a
 *  terminating NUL to @p out. */
void formatKey(char *out, std::uint32_t thread, std::uint64_t index);

} // namespace tmemc::workload

#endif // TMEMC_WORKLOAD_MEMSLAP_H
