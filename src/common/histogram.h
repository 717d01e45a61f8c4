// LatencyHistogram: a fixed-bucket HDR-style histogram for microsecond
// latencies. Recording is a single relaxed atomic increment (safe from any
// thread, no locks); percentile queries walk the bucket array. The bucket
// layout follows hdrhistogram: values below kSubBucketCount are exact, then
// each power-of-two range is split into kSubBucketCount/2 sub-buckets, so
// the relative quantization error is bounded by 2/kSubBucketCount (~6%).

#ifndef HYBRIDJOIN_COMMON_HISTOGRAM_H_
#define HYBRIDJOIN_COMMON_HISTOGRAM_H_

#include <atomic>
#include <cstdint>
#include <vector>

namespace hybridjoin {

/// Point-in-time percentile summary of one histogram (all times seconds).
struct HistogramSummary {
  int64_t count = 0;
  double total_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
};

class LatencyHistogram {
 public:
  /// 32 exact unit buckets, then 16 sub-buckets per power of two; covers
  /// [0, 2^36) microseconds (~19 hours) before clamping to the top bucket.
  static constexpr int kSubBucketBits = 5;
  static constexpr int kSubBucketCount = 1 << kSubBucketBits;       // 32
  static constexpr int kSubBucketHalfCount = kSubBucketCount / 2;   // 16
  static constexpr int kBucketGroups = 32;
  static constexpr int kNumCounts =
      (kBucketGroups + 1) * kSubBucketHalfCount;

  LatencyHistogram() : counts_(kNumCounts) {}

  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one latency observation. Thread-safe, lock-free.
  void RecordMicros(int64_t micros) {
    if (micros < 0) micros = 0;
    counts_[CountsIndex(micros)].fetch_add(1, std::memory_order_relaxed);
    total_micros_.fetch_add(micros, std::memory_order_relaxed);
    UpdateMin(micros);
    UpdateMax(micros);
  }

  /// Adds every observation of `other` into this histogram.
  void Merge(const LatencyHistogram& other) {
    for (int i = 0; i < kNumCounts; ++i) {
      const int64_t c = other.counts_[i].load(std::memory_order_relaxed);
      if (c != 0) counts_[i].fetch_add(c, std::memory_order_relaxed);
    }
    total_micros_.fetch_add(
        other.total_micros_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    UpdateMin(other.min_micros_.load(std::memory_order_relaxed));
    UpdateMax(other.max_micros_.load(std::memory_order_relaxed));
  }

  /// One copy of the bucket counts, taken with a single pass over the
  /// atomics. Every figure a reader reports (count, percentiles, cumulative
  /// buckets) must come from one copy: re-reading the live buckets per
  /// figure lets concurrent RecordMicros calls land in between, so e.g. a
  /// rendered `_count` would disagree with its `+Inf` bucket.
  struct Counts {
    std::vector<int64_t> buckets;  ///< kNumCounts slots
    int64_t total_micros = 0;
    int64_t min_micros = 0;
    int64_t max_micros = 0;

    int64_t Count() const {
      int64_t total = 0;
      for (const int64_t c : buckets) total += c;
      return total;
    }

    /// Value (µs) at or below which `percentile` [0,100] of observations
    /// fall; returns the highest value equivalent to the containing bucket.
    int64_t PercentileMicros(double percentile) const {
      const int64_t total = Count();
      if (total == 0) return 0;
      int64_t target = static_cast<int64_t>(percentile / 100.0 *
                                                static_cast<double>(total) +
                                            0.5);
      if (target < 1) target = 1;
      if (target > total) target = total;
      int64_t seen = 0;
      for (int i = 0; i < kNumCounts; ++i) {
        seen += buckets[i];
        if (seen >= target) return HighestEquivalent(i);
      }
      return HighestEquivalent(kNumCounts - 1);
    }

    /// Number of observations with value <= `micros` (cumulative bucket
    /// count; the containing bucket is counted whole, consistent with the
    /// bucket quantization of PercentileMicros). Feeds Prometheus-style
    /// cumulative `le` histogram rendering (obs/promtext.h).
    int64_t CountAtOrBelowMicros(int64_t micros) const {
      if (micros < 0) return 0;
      const int limit = CountsIndex(micros);
      int64_t seen = 0;
      for (int i = 0; i <= limit && i < kNumCounts; ++i) seen += buckets[i];
      return seen;
    }

    HistogramSummary Summarize() const {
      HistogramSummary s;
      s.count = Count();
      if (s.count == 0) return s;
      constexpr double kUs = 1e-6;
      s.total_seconds = static_cast<double>(total_micros) * kUs;
      s.min_seconds = static_cast<double>(min_micros) * kUs;
      s.max_seconds = static_cast<double>(max_micros) * kUs;
      s.p50_seconds = static_cast<double>(PercentileMicros(50)) * kUs;
      s.p95_seconds = static_cast<double>(PercentileMicros(95)) * kUs;
      s.p99_seconds = static_cast<double>(PercentileMicros(99)) * kUs;
      return s;
    }
  };

  Counts Load() const {
    Counts c;
    c.buckets.resize(kNumCounts);
    for (int i = 0; i < kNumCounts; ++i) {
      c.buckets[i] = counts_[i].load(std::memory_order_relaxed);
    }
    c.total_micros = total_micros_.load(std::memory_order_relaxed);
    c.min_micros = min_micros_.load(std::memory_order_relaxed);
    c.max_micros = max_micros_.load(std::memory_order_relaxed);
    return c;
  }

  int64_t Count() const { return Load().Count(); }

  int64_t TotalMicros() const {
    return total_micros_.load(std::memory_order_relaxed);
  }

  int64_t PercentileMicros(double percentile) const {
    return Load().PercentileMicros(percentile);
  }

  int64_t CountAtOrBelowMicros(int64_t micros) const {
    return Load().CountAtOrBelowMicros(micros);
  }

  HistogramSummary Summarize() const { return Load().Summarize(); }

  void Reset() {
    for (int i = 0; i < kNumCounts; ++i) {
      counts_[i].store(0, std::memory_order_relaxed);
    }
    total_micros_.store(0, std::memory_order_relaxed);
    min_micros_.store(INT64_MAX, std::memory_order_relaxed);
    max_micros_.store(0, std::memory_order_relaxed);
  }

 private:
  // hdrhistogram indexing with unit magnitude 0: the group is the position
  // of the value's highest bit beyond the linear range, the sub-bucket the
  // top kSubBucketBits bits of the value.
  static int CountsIndex(int64_t value) {
    const uint64_t v = static_cast<uint64_t>(value);
    const int pow2ceiling =
        64 - __builtin_clzll(v | (kSubBucketCount - 1));
    int group = pow2ceiling - kSubBucketBits;  // 0 for the linear range
    if (group > kBucketGroups) group = kBucketGroups;
    const int sub = static_cast<int>(
        group > kBucketGroups - 1 ? kSubBucketCount - 1
                                  : (v >> group) & (kSubBucketCount - 1));
    const int index =
        (group + 1) * kSubBucketHalfCount + (sub - kSubBucketHalfCount);
    return index < kNumCounts ? index : kNumCounts - 1;
  }

  /// Largest value mapping to counts slot `index`.
  static int64_t HighestEquivalent(int index) {
    const int group_base = index / kSubBucketHalfCount;
    int group = group_base - 1;
    int sub = index % kSubBucketHalfCount + kSubBucketHalfCount;
    if (group < 0) {  // linear range: slots 0..kSubBucketCount-1
      group = 0;
      sub = index;
    }
    const int64_t lowest = static_cast<int64_t>(sub) << group;
    return lowest + ((INT64_C(1) << group) - 1);
  }

  void UpdateMin(int64_t v) {
    int64_t cur = min_micros_.load(std::memory_order_relaxed);
    while (v < cur && !min_micros_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  void UpdateMax(int64_t v) {
    int64_t cur = max_micros_.load(std::memory_order_relaxed);
    while (v > cur && !max_micros_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

  std::vector<std::atomic<int64_t>> counts_;
  std::atomic<int64_t> total_micros_{0};
  std::atomic<int64_t> min_micros_{INT64_MAX};
  std::atomic<int64_t> max_micros_{0};
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_COMMON_HISTOGRAM_H_
