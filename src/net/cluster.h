/**
 * @file
 * Client-side cluster routing with replicated failover — the
 * horizontal-scale counterpart of the single-process server the paper
 * transactionalizes. A net::Cluster fronts N tmemc_server nodes with:
 *
 *   - a consistent-hash ring: each node contributes virtualNodes
 *     points (hash of "host:port#v" with the same multiplicative
 *     key hash the ShardedCache uses, mc/hash.h), keys route to the
 *     first point clockwise, replicas to the next distinct nodes;
 *   - per-node connection pools layered on net::Client, relying on
 *     its close-on-error + ensureConnected() contract to survive
 *     server restarts;
 *   - per-request deadlines with capped exponential backoff + jitter
 *     between retries — the cluster-level analogue of the TM
 *     contention manager: progress policy is explicit, not ad-hoc
 *     (cf. "Why TM Should Not Be Obstruction-Free");
 *   - node health: ejectAfter consecutive network failures eject a
 *     node; while ejected it only sees rate-limited probation probes
 *     (a "version" round trip at most every probeIntervalMs), and a
 *     successful probe re-admits it;
 *   - R=2 write-through replication: a set fans out to primary and
 *     ring successor and is acknowledged when at least one copy
 *     persisted (both-copy acks are the common case; single-copy
 *     acks are counted as replica_lag). Reads serve from the
 *     primary and fail over to the replica on network failure; a
 *     primary MISS is double-checked against the replica so a
 *     restarted-empty primary cannot silently lose data, and a
 *     replica hit repairs the primary.
 *
 * Read-repair deliberately uses `add` (store-if-absent), not `set`:
 * a repair racing a fresh client write must never clobber the newer
 * value — if the primary already holds something, that something is
 * at least as new as the replica's copy, and the repair must lose.
 * This makes repaired histories linearizable for set/get workloads;
 * delete introduces a resurrection window (a repair can re-add a key
 * deleted between the replica read and the repair), which is why the
 * chaos workload sticks to set/get.
 *
 * Fault injection: before every network attempt on node i the client
 * consults site "net.cluster.node.<i>" — an errno payload simulates a
 * partition to that node, a delayUs payload a slow node (the attempt
 * proceeds after the stall, but the request deadline keeps counting).
 * Connect-level faults come via net.sys.connect under net::Client.
 *
 * Counters are registered with the process MetricsRegistry under the
 * "cluster" prefix, so they appear in the JSON export and the ASCII
 * `stats cluster` render of any server sharing the process (the test
 * harness runs servers in-process and uses exactly that).
 */

#ifndef TMEMC_NET_CLUSTER_H
#define TMEMC_NET_CLUSTER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/client.h"

namespace tmemc::net
{

/** One cluster member's endpoint. */
struct ClusterNode
{
    std::string host;
    std::uint16_t port = 0;
};

/** Cluster client configuration. */
struct ClusterCfg
{
    std::vector<ClusterNode> nodes;
    unsigned replicas = 2;         //!< Copies per key (<= nodes).
    unsigned virtualNodes = 64;    //!< Ring points per node.
    std::uint32_t nodeTimeoutMs = 250;  //!< Connect + recv bound per attempt.
    std::uint32_t requestDeadlineMs = 1000;  //!< Whole-op bound incl. retries.
    unsigned maxRetries = 3;       //!< Extra attempts per node per op.
    std::uint32_t backoffBaseMs = 2;   //!< First retry sleep.
    std::uint32_t backoffCapMs = 50;   //!< Backoff ceiling.
    unsigned ejectAfter = 3;       //!< Consecutive net failures to eject.
    std::uint32_t probeIntervalMs = 100;  //!< Min gap between probes.
    std::uint64_t seed = 1;        //!< Backoff jitter seed.
};

/** Outcome of one cluster operation. */
enum class ClusterStatus : std::uint8_t
{
    Ok,         //!< Acknowledged (set/del) or hit (get).
    Miss,       //!< Key absent on every reachable owner.
    NetFail,    //!< No owner reachable within the deadline.
    ProtoError, //!< A node answered with an unexpected reply.
};

/** Result of one cluster operation. */
struct ClusterResult
{
    ClusterStatus status = ClusterStatus::NetFail;
    std::string value;        //!< get hit payload.
    bool fromReplica = false; //!< get served by a non-primary owner.
    bool degraded = false;    //!< Write acked by fewer than R copies.
};

/** Monotonic counters; see the "cluster" metrics source. */
struct ClusterStats
{
    std::uint64_t requests = 0;
    std::uint64_t retries = 0;
    std::uint64_t net_errors = 0;
    std::uint64_t ejections = 0;
    std::uint64_t probes = 0;
    std::uint64_t readmissions = 0;
    std::uint64_t failovers = 0;
    std::uint64_t read_repairs = 0;
    std::uint64_t replica_lag = 0;
};

/** Replicating, health-tracking cluster client. Thread-safe. */
class Cluster
{
  public:
    explicit Cluster(ClusterCfg cfg);
    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /** Store @p value under @p key on every reachable owner. */
    ClusterResult set(const std::string &key, const std::string &value);

    /** Fetch @p key (primary first, replica failover + read-repair). */
    ClusterResult get(const std::string &key);

    /** Delete @p key from every reachable owner. */
    ClusterResult del(const std::string &key);

    /** @name Test introspection */
    ///@{
    /** Node index owning @p key's primary copy. */
    std::size_t primaryOf(const std::string &key) const;
    /** All owner node indices for @p key, primary first. */
    std::vector<std::size_t> ownersOf(const std::string &key) const;
    /** False while node @p idx is ejected. */
    bool nodeHealthy(std::size_t idx) const;
    /** Counter snapshot. */
    ClusterStats stats() const;
    ///@}

  private:
    /** Per-attempt outcome on one node. */
    enum class NodeOp : std::uint8_t
    {
        Ok,         //!< STORED / DELETED / VALUE hit / VERSION.
        Miss,       //!< END with no VALUE / NOT_FOUND.
        NotStored,  //!< add lost to an existing value (fine).
        NetFail,    //!< Connect/send/recv failure or injected fault.
        ProtoError, //!< Unparseable or error reply.
    };

    struct Node
    {
        ClusterNode ep;
        std::string faultSite;  //!< "net.cluster.node.<idx>".
        std::mutex mu;
        std::vector<std::unique_ptr<Client>> idle;
        unsigned consecutiveFailures = 0;
        bool ejected = false;
        std::uint64_t lastProbeMs = 0;
    };

    std::unique_ptr<Client> acquire(Node &node);
    void release(Node &node, std::unique_ptr<Client> cli);

    /** One framed request/response on @p idx, no retry. */
    NodeOp nodeRoundTrip(std::size_t idx, const std::string &request,
                         std::string *valueOut);
    /** Retry loop around nodeRoundTrip: backoff, deadline, health. */
    NodeOp attemptOp(std::size_t idx, const std::string &request,
                     std::string *valueOut, std::uint64_t deadlineMs);
    /** Probe an ejected node if one is due; true if re-admitted. */
    bool maybeProbe(std::size_t idx);

    void recordSuccess(std::size_t idx);
    void recordFailure(std::size_t idx);
    std::uint64_t backoffSleepMs(unsigned attempt);

    ClusterCfg cfg_;
    std::vector<std::unique_ptr<Node>> nodes_;
    /** Sorted ring: (hash point, node index). */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ring_;
    // atom-protocol: relaxed-counter
    std::atomic<std::uint64_t> jitterSeq_{0};
    std::uint64_t metricsToken_ = 0;

    struct AtomicStats
    {
        // atom-protocol: relaxed-counter
        std::atomic<std::uint64_t> requests{0};
        // atom-protocol: relaxed-counter
        std::atomic<std::uint64_t> retries{0};
        // atom-protocol: relaxed-counter
        std::atomic<std::uint64_t> netErrors{0};
        // atom-protocol: relaxed-counter
        std::atomic<std::uint64_t> ejections{0};
        // atom-protocol: relaxed-counter
        std::atomic<std::uint64_t> probes{0};
        // atom-protocol: relaxed-counter
        std::atomic<std::uint64_t> readmissions{0};
        // atom-protocol: relaxed-counter
        std::atomic<std::uint64_t> failovers{0};
        // atom-protocol: relaxed-counter
        std::atomic<std::uint64_t> readRepairs{0};
        // atom-protocol: relaxed-counter
        std::atomic<std::uint64_t> replicaLag{0};
    };
    AtomicStats stats_;
};

} // namespace tmemc::net

#endif // TMEMC_NET_CLUSTER_H
