#ifndef CXML_OBS_METRICS_H_
#define CXML_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cxml::obs {

/// Lock-cheap metrics primitives shared by every layer of the stack.
///
/// Design constraints, in order:
///  * the hot path (a counter bump on a cached query) must cost a
///    handful of nanoseconds — one relaxed atomic RMW on a shard the
///    calling thread probably owns in cache, never a mutex;
///  * reads (STAT, METRICS, bench snapshots) may be slow — they sum
///    shards and walk buckets under no particular latency budget;
///  * metric objects never move or die before their Registry, so
///    components cache raw pointers at construction and touch them
///    lock-free forever after.
///
/// All three metric kinds are safe for concurrent writers and
/// concurrent readers; totals are exact for counters/gauges and exact
/// in count (bucketed in value) for histograms.

/// Number of independently updated shards per counter. Sixteen covers
/// the worker-pool sizes the service runs with; a thread picks its
/// shard by thread-id hash, so unrelated threads rarely share a cache
/// line even under the default pool sizes.
inline constexpr size_t kCounterShards = 16;

/// A monotonically increasing counter, sharded to keep concurrent
/// writers off each other's cache lines. Value() sums the shards —
/// exact, since every Add lands wholly in one shard.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    shards_[ShardIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  static size_t ShardIndex();

  std::array<Shard, kCounterShards> shards_;
};

/// A point-in-time signed value (pool sizes, open connections).
/// Unsharded: gauges are updated at connection/document cadence, not
/// per request, so a single relaxed atomic is contention-free.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n = 1) { value_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket log-scale latency histogram.
///
/// Bucket i covers [LowerBound(i), UpperBound(i)) with boundaries at
/// 2^(i/8 - 2): eight buckets per octave from 0.25 up past 2^29
/// (~9% relative width per bucket), sized for microsecond latencies
/// from sub-µs cache hits to minutes-long batch jobs. Observations are
/// clamped into the edge buckets, so Count()/Sum() stay exact even for
/// out-of-range values; only the bucketing is lossy.
///
/// Percentile() finds the bucket holding the requested rank and
/// log-interpolates inside it, so the result is within one bucket
/// width (~9% relative) of the exact order statistic — tight enough
/// that p50/p99 comparisons across runs are meaningful, loose enough
/// that Observe stays a single relaxed fetch_add.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 256;
  static constexpr int kBucketsPerOctave = 8;
  /// log2 of the first bucket's lower bound (2^-2 = 0.25).
  static constexpr int kMinExponent = -2;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records one observation (typically microseconds; the histogram is
  /// unit-agnostic). Values <= 0 land in the first bucket.
  void Observe(double value);

  uint64_t Count() const;
  /// Sum of observed values (accumulated in nanounits, so sub-unit
  /// observations don't vanish; exact to 1e-3 of the unit).
  double Sum() const;

  /// The interpolated value at quantile `p` in [0, 1]; 0 when empty.
  double Percentile(double p) const;

  /// Inclusive lower / exclusive upper value boundary of bucket `i`.
  static double LowerBound(size_t i);
  static double UpperBound(size_t i);
  /// The bucket `value` falls into (clamped to the edge buckets).
  static size_t BucketFor(double value);

  /// Snapshot of all bucket counts (index-aligned with *Bound).
  std::vector<uint64_t> BucketCounts() const;

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  /// Value sum scaled by 1000 to keep sub-unit precision in integers.
  std::atomic<uint64_t> sum_milli_{0};
};

/// Named-metric registry: the process-wide lookup table behind STAT,
/// the METRICS wire verb, and the bench JSON snapshots.
///
/// GetCounter/GetGauge/GetHistogram create on first use and return a
/// stable pointer that lives as long as the registry — components call
/// them once at construction and keep the raw pointer, paying the map
/// lookup never again. Each kind has its own namespace; asking for an
/// existing name with a different kind returns a distinct metric (the
/// renderer suffixes nothing — keep names unique across kinds).
///
/// Components that need instance-local stats (two QueryServices in one
/// test) simply use separate Registry instances; a process that wants
/// one exposition surface passes one registry around (see
/// QueryServiceOptions::registry).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Prometheus-style text exposition:
  ///
  ///   # TYPE <name> counter
  ///   <name> <value>
  ///   # TYPE <name> gauge
  ///   <name> <value>
  ///   # TYPE <name> histogram
  ///   <name>_bucket{le="<upper>"} <cumulative count>   (empty buckets
  ///   <name>_bucket{le="+Inf"} <count>                  elided)
  ///   <name>_sum <sum>
  ///   <name>_count <count>
  ///   <name>_p50 / _p90 / _p99 <value>   (interpolated quantiles)
  ///
  /// Output is sorted by metric name, so repeated renders of the same
  /// state are byte-identical (pinned by obs_test).
  std::string RenderText() const;

  /// The same snapshot as one JSON object: counters/gauges as numbers,
  /// histograms as {"count":..,"sum":..,"p50":..,"p90":..,"p99":..}.
  std::string RenderJson() const;

  /// The process-wide default instance (never destroyed).
  static Registry* Global();

 private:
  mutable std::mutex mu_;
  /// node-based maps: pointers stay valid across inserts.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace cxml::obs

#endif  // CXML_OBS_METRICS_H_
