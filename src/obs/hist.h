/**
 * @file
 * Lock-free log-bucketed latency histogram (HDR-style).
 *
 * The paper's figures report wall-clock for fixed work; a production
 * cache also needs *distributions* — a p999 regression is invisible
 * in a mean. This histogram keeps log-linear buckets (octaves split
 * into 2^kSubBits linear sub-buckets, ~3% relative error) so the full
 * nanosecond-to-minutes range fits in a few KB per recorder.
 *
 * Hot-path cost is one relaxed fetch_add on a bucket counter plus the
 * shift/clz to find the bucket — no locks, no allocation. Recorders
 * are striped: each thread slot maps to a cache-line-padded stripe
 * so concurrent record() calls do not bounce a shared line (the same
 * padding discipline as the orec table, common/padded.h).
 *
 * Snapshots fold the stripes into a plain HistCounts value; counts
 * from different histograms/threads merge by bucket-wise addition,
 * which is associative — the property tests/obs/test_hist.cc checks —
 * so per-thread, per-shard, and per-process views all come from the
 * same merge.
 */

#ifndef TMEMC_OBS_HIST_H
#define TMEMC_OBS_HIST_H

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>

#include "common/compiler.h"
#include "common/thread_slot.h"

namespace tmemc::obs
{

/** Sub-bucket resolution: 2^5 = 32 linear buckets per octave. */
constexpr unsigned kSubBits = 5;
constexpr unsigned kSubBuckets = 1u << kSubBits;

/** Values clamp here (~137 s in ns); keeps the table small. */
constexpr std::uint64_t kMaxTrackable = (std::uint64_t{1} << 37) - 1;

/** Total buckets: one linear block for [0, 32) plus one block per
 *  octave up to the clamp. */
constexpr unsigned kNumBuckets = (37 - kSubBits + 1) * kSubBuckets;

/** Map a value to its bucket index (monotonic in the value). */
inline unsigned
bucketOf(std::uint64_t v)
{
    if (v < kSubBuckets)
        return static_cast<unsigned>(v);  // Exact below one octave.
    if (v > kMaxTrackable)
        v = kMaxTrackable;
    const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));
    const unsigned shift = msb - kSubBits;
    const unsigned sub =
        static_cast<unsigned>((v >> shift) - kSubBuckets);
    return (shift + 1) * kSubBuckets + sub;
}

/** Lowest value that maps to bucket @p idx. */
inline std::uint64_t
bucketLow(unsigned idx)
{
    if (idx < kSubBuckets)
        return idx;
    const unsigned shift = idx / kSubBuckets - 1;
    const unsigned sub = idx % kSubBuckets;
    return (std::uint64_t{kSubBuckets} + sub) << shift;
}

/** Representative (midpoint) value for bucket @p idx. */
inline std::uint64_t
bucketMid(unsigned idx)
{
    if (idx < kSubBuckets)
        return idx;
    const unsigned shift = idx / kSubBuckets - 1;
    return bucketLow(idx) + (std::uint64_t{1} << shift) / 2;
}

/** Percentile summary of one histogram (times in microseconds). */
struct HistSummary
{
    std::uint64_t count = 0;
    double p50Us = 0.0;
    double p95Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;
    double maxUs = 0.0;
};

/**
 * Plain (non-atomic) bucket counts: the snapshot/merge value type.
 * add() is bucket-wise addition, hence commutative and associative.
 */
struct HistCounts
{
    std::array<std::uint64_t, kNumBuckets> buckets{};
    std::uint64_t count = 0;

    void
    add(const HistCounts &o)
    {
        for (unsigned i = 0; i < kNumBuckets; ++i)
            buckets[i] += o.buckets[i];
        count += o.count;
    }

    /** Value (ns) at quantile @p q in [0, 1], from bucket midpoints. */
    std::uint64_t
    quantile(double q) const
    {
        if (count == 0)
            return 0;
        const double want_d = q * static_cast<double>(count);
        std::uint64_t want = static_cast<std::uint64_t>(want_d);
        if (want >= count)
            want = count - 1;
        std::uint64_t seen = 0;
        for (unsigned i = 0; i < kNumBuckets; ++i) {
            seen += buckets[i];
            if (seen > want)
                return bucketMid(i);
        }
        return bucketMid(kNumBuckets - 1);
    }

    /** Midpoint of the highest occupied bucket (ns). */
    std::uint64_t
    maxValue() const
    {
        for (unsigned i = kNumBuckets; i-- > 0;) {
            if (buckets[i] != 0)
                return bucketMid(i);
        }
        return 0;
    }

    HistSummary
    summary() const
    {
        constexpr double kNsPerUs = 1000.0;
        HistSummary s;
        s.count = count;
        s.p50Us = static_cast<double>(quantile(0.50)) / kNsPerUs;
        s.p95Us = static_cast<double>(quantile(0.95)) / kNsPerUs;
        s.p99Us = static_cast<double>(quantile(0.99)) / kNsPerUs;
        s.p999Us = static_cast<double>(quantile(0.999)) / kNsPerUs;
        s.maxUs = static_cast<double>(maxValue()) / kNsPerUs;
        return s;
    }
};

/**
 * Concurrent recorder: kStripes cache-line-padded atomic bucket
 * arrays; each thread records into the stripe its registration index
 * hashes to. snapshot() may run concurrently with record() — it folds
 * relaxed loads, so it sees some consistent-enough recent state, never
 * tearing a counter.
 */
class Histogram
{
  public:
    static constexpr unsigned kStripes = 8;

    Histogram() : stripes_(new Stripe[kStripes]) {}

    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    /** Record one sample (nanoseconds). Relaxed increment + shift. */
    TMEMC_ALWAYS_INLINE void
    record(std::uint64_t ns)
    {
        stripes_[stripeIndex()].buckets[bucketOf(ns)].fetch_add(
            1, std::memory_order_relaxed);
    }

    /** Fold all stripes into a plain value (concurrent-safe). */
    HistCounts
    snapshot() const
    {
        HistCounts out;
        for (unsigned s = 0; s < kStripes; ++s) {
            for (unsigned i = 0; i < kNumBuckets; ++i) {
                const std::uint64_t v = stripes_[s].buckets[i].load(
                    std::memory_order_relaxed);
                out.buckets[i] += v;
                out.count += v;
            }
        }
        return out;
    }

    /** Zero every bucket (between benchmark phases; not linearizable
     *  against concurrent record(), same contract as tm resetStats). */
    void
    reset()
    {
        for (unsigned s = 0; s < kStripes; ++s) {
            for (unsigned i = 0; i < kNumBuckets; ++i)
                stripes_[s].buckets[i].store(0,
                                             std::memory_order_relaxed);
        }
    }

  private:
    struct alignas(cachelineBytes) Stripe
    {
        // atom-protocol: relaxed-counter
        std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets{};
    };

    /** Slots are claimed lowest-first, so the common case is a
     *  single-writer stripe. */
    static unsigned
    stripeIndex()
    {
        return static_cast<unsigned>(thread_slot::index() % kStripes);
    }

    std::unique_ptr<Stripe[]> stripes_;
};

/** Monotonic nanosecond clock for latency measurement. */
inline std::uint64_t
nowNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace tmemc::obs

#endif // TMEMC_OBS_HIST_H
