// Metrics: thread-safe named counters and latency histograms collected
// during query executions. Every join driver's ExecutionReport carries its
// own query's share of them (the scoped store below). Histograms are fed by
// the tracing subsystem (src/trace/): every finished span's duration is
// recorded under the span's name.
//
// Besides the global namespace, every write is mirrored into a *scoped*
// per-node store when the calling thread carries node attribution
// (Metrics::NodeScope, installed automatically by trace::ThreadScope) —
// optionally refined with a query phase (Metrics::PhaseScope). The global
// counters are never reset between queries: they are process-lifetime
// totals for scrapes.
//
// The scoped store is additionally keyed by the calling thread's QueryScope
// id, so N concurrent queries write into disjoint slices and their profiles
// never cross-contaminate. A query's slices are its one record: they
// accumulate over all of its rounds, the live process list sums them while
// it runs (ScopedQueryTotals), its report reads each node's slice once when
// it is built (ScopedSnapshot) into the per-node profile tree of
// ExecutionReport::profile (see src/obs/), and ClearScoped(query_id) drops
// them when the query ends. Query id 0 ("no query") is the slice of writes
// made outside any query.

#ifndef HYBRIDJOIN_COMMON_METRICS_H_
#define HYBRIDJOIN_COMMON_METRICS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/histogram.h"
#include "common/query_scope.h"

namespace hybridjoin {

/// One scoped counter value: gauges (recorded with Metrics::Max) aggregate
/// across nodes by maximum, everything else by sum.
struct ScopedCounter {
  int64_t value = 0;
  bool gauge = false;
};

/// One node's slice of the scoped store: (phase, name) -> value. Phase is
/// "" when the write carried no PhaseScope; the profile assembler maps
/// those names onto canonical phases (obs::PhaseForMetric).
struct ScopedMetricsSnapshot {
  std::map<std::pair<std::string, std::string>, ScopedCounter> counters;
  std::map<std::pair<std::string, std::string>, HistogramSummary> histograms;

  bool empty() const { return counters.empty() && histograms.empty(); }
};

/// A registry of monotonically increasing counters. Counter handles are
/// stable for the lifetime of the registry; Add() on a handle is a single
/// relaxed atomic increment. Writes through the named convenience calls
/// (Add/Max/Record) are additionally attributed to the calling thread's
/// {node, phase} scope; writes through raw handles are global-only.
class Metrics {
 public:
  using Counter = std::atomic<int64_t>;

  /// Node key meaning "no attribution" (see NodeScope / net MetricNodeKey).
  static constexpr int32_t kNoNode = -1;

  Metrics() = default;
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// RAII: attributes every named Metrics write on the calling thread to
  /// the node encoded by `node_key` (MetricNodeKey in net/network.h) until
  /// destruction. Nests; the destructor restores the previous attribution.
  /// trace::ThreadScope installs one automatically, so worker threads get
  /// per-node attribution for free.
  class NodeScope {
   public:
    explicit NodeScope(int32_t node_key) : saved_(tls_node_key_) {
      tls_node_key_ = node_key;
    }
    ~NodeScope() { tls_node_key_ = saved_; }
    NodeScope(const NodeScope&) = delete;
    NodeScope& operator=(const NodeScope&) = delete;

   private:
    int32_t saved_;
  };

  /// RAII: tags every named Metrics write on the calling thread with a
  /// query phase ("scan", "build", ...). `phase` must outlive the scope
  /// (string literals in practice — same contract as span names).
  class PhaseScope {
   public:
    explicit PhaseScope(const char* phase) : saved_(tls_phase_) {
      tls_phase_ = phase;
    }
    ~PhaseScope() { tls_phase_ = saved_; }
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;

   private:
    const char* saved_;
  };

  /// The calling thread's current attribution (kNoNode / "" outside any
  /// scope).
  static int32_t CurrentNodeKey() { return tls_node_key_; }
  static const char* CurrentPhase() {
    return tls_phase_ == nullptr ? "" : tls_phase_;
  }

  /// Returns (creating if needed) the counter with this name.
  Counter* GetCounter(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = counters_[name];
    if (!slot) slot = std::make_unique<Counter>(0);
    return slot.get();
  }

  /// Convenience: one-shot add by name (takes the registry lock), mirrored
  /// into the calling thread's node scope.
  void Add(const std::string& name, int64_t delta) {
    GetCounter(name)->fetch_add(delta, std::memory_order_relaxed);
    ScopedWrite(name, delta, /*gauge=*/false);
  }

  /// Raises the counter to `value` if it is below it (gauge-style maximum,
  /// e.g. the worst hash-table chain length across workers). Scoped slices
  /// keep the per-node maximum.
  void Max(const std::string& name, int64_t value) {
    Counter* c = GetCounter(name);
    int64_t cur = c->load(std::memory_order_relaxed);
    while (cur < value &&
           !c->compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
    ScopedWrite(name, value, /*gauge=*/true);
  }

  /// Stores an absolute value (last-write-wins gauge, e.g. the number of
  /// open sessions). Global-only: gauges of this kind describe
  /// whole-process state, not one node's contribution, so there is no
  /// scoped mirror.
  void Set(const std::string& name, int64_t value) {
    GetCounter(name)->store(value, std::memory_order_relaxed);
  }

  int64_t Get(const std::string& name) {
    return GetCounter(name)->load(std::memory_order_relaxed);
  }

  /// Point-in-time snapshot of every counter.
  std::map<std::string, int64_t> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, int64_t> out;
    for (const auto& [name, counter] : counters_) {
      out[name] = counter->load(std::memory_order_relaxed);
    }
    return out;
  }

  /// Returns (creating if needed) the latency histogram with this name.
  /// Handles are stable for the registry's lifetime; RecordMicros on a
  /// handle is lock-free (and global-only — see Record for the scoped
  /// path).
  LatencyHistogram* GetHistogram(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = histograms_[name];
    if (!slot) slot = std::make_unique<LatencyHistogram>();
    return slot.get();
  }

  /// Records one observation into the named histogram, globally and into
  /// the calling thread's node scope. Values are microseconds for latency
  /// series and plain magnitudes otherwise (e.g. join.build_shard_rows).
  void Record(const std::string& name, int64_t value) {
    RecordForNode(name, value, tls_node_key_);
  }

  /// Record with an explicit node key: the tracer attributes a span's
  /// duration to the span's node, not the recording thread.
  void RecordForNode(const std::string& name, int64_t value,
                     int32_t node_key) {
    GetHistogram(name)->RecordMicros(value);
    if (node_key == kNoNode) return;
    const std::pair<std::string, std::string> key(CurrentPhase(), name);
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot =
        scoped_[{QueryScope::Current(), node_key}].histograms[key];
    if (!slot) slot = std::make_unique<LatencyHistogram>();
    slot->RecordMicros(value);
  }

  /// Point-in-time percentile summaries of every non-empty histogram.
  std::map<std::string, HistogramSummary> HistogramSnapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, HistogramSummary> out;
    for (const auto& [name, histogram] : histograms_) {
      HistogramSummary s = histogram->Summarize();
      if (s.count > 0) out[name] = s;
    }
    return out;
  }

  /// One node's scoped counters/histograms for the calling thread's current
  /// query (id 0 outside any QueryScope).
  ScopedMetricsSnapshot ScopedSnapshot(int32_t node_key) const {
    return ScopedSnapshot(QueryScope::Current(), node_key);
  }

  /// One node's scoped slice for an explicit query id.
  ScopedMetricsSnapshot ScopedSnapshot(uint64_t query_id,
                                       int32_t node_key) const {
    std::lock_guard<std::mutex> lock(mu_);
    ScopedMetricsSnapshot out;
    auto it = scoped_.find({query_id, node_key});
    if (it == scoped_.end()) return out;
    out.counters = it->second.counters;
    for (const auto& [key, histogram] : it->second.histograms) {
      HistogramSummary s = histogram->Summarize();
      if (s.count > 0) out.histograms[key] = s;
    }
    return out;
  }

  /// One query's scoped counters summed across all of its node slices, the
  /// (phase, name) keys collapsed to the metric name (gauges aggregate by
  /// maximum, everything else by sum — same rule as profile assembly).
  /// Powers the live process list: rows scanned/produced and spill bytes of
  /// an *in-flight* query come from here without waiting for end-of-query
  /// profile assembly.
  std::map<std::string, int64_t> ScopedQueryTotals(uint64_t query_id) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, int64_t> out;
    auto it =
        scoped_.lower_bound({query_id, std::numeric_limits<int32_t>::min()});
    for (; it != scoped_.end() && it->first.first == query_id; ++it) {
      for (const auto& [key, counter] : it->second.counters) {
        int64_t& slot = out[key.second];
        if (counter.gauge) {
          slot = std::max(slot, counter.value);
        } else {
          slot += counter.value;
        }
      }
    }
    return out;
  }

  /// Drops one query's scoped slices (end-of-query under concurrency);
  /// other in-flight queries' slices and the globals are left untouched.
  void ClearScoped(uint64_t query_id) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it =
        scoped_.lower_bound({query_id, std::numeric_limits<int32_t>::min()});
    while (it != scoped_.end() && it->first.first == query_id) {
      it = scoped_.erase(it);
    }
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, counter] : counters_) {
      counter->store(0, std::memory_order_relaxed);
    }
    for (auto& [name, histogram] : histograms_) {
      histogram->Reset();
    }
    scoped_.clear();
  }

 private:
  struct ScopedSlot {
    std::map<std::pair<std::string, std::string>, ScopedCounter> counters;
    std::map<std::pair<std::string, std::string>,
             std::unique_ptr<LatencyHistogram>>
        histograms;
  };

  void ScopedWrite(const std::string& name, int64_t value, bool gauge) {
    const int32_t node = tls_node_key_;
    if (node == kNoNode) return;
    const std::pair<std::string, std::string> key(CurrentPhase(), name);
    std::lock_guard<std::mutex> lock(mu_);
    ScopedCounter& c = scoped_[{QueryScope::Current(), node}].counters[key];
    if (gauge) {
      c.gauge = true;
      if (value > c.value) c.value = value;
    } else {
      c.value += value;
    }
  }

  static inline thread_local int32_t tls_node_key_ = kNoNode;
  static inline thread_local const char* tls_phase_ = nullptr;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
  /// Keyed by (query id, node key): concurrent queries write disjoint
  /// slices; id 0 is the legacy "no query" slice.
  std::map<std::pair<uint64_t, int32_t>, ScopedSlot> scoped_;
};

// Canonical counter names used by the engine. Kept as constants so benches,
// tests and drivers agree on spelling.
namespace metric {
inline constexpr const char kHdfsTuplesShuffled[] = "jen.tuples_shuffled";
inline constexpr const char kDbTuplesSent[] = "edw.tuples_sent_to_hdfs";
inline constexpr const char kHdfsTuplesSentToDb[] = "jen.tuples_sent_to_db";
inline constexpr const char kHdfsTuplesScanned[] = "jen.tuples_scanned";
inline constexpr const char kHdfsTuplesAfterFilter[] =
    "jen.tuples_after_filter";
inline constexpr const char kDbTuplesScanned[] = "edw.tuples_scanned";
inline constexpr const char kDbTuplesAfterFilter[] = "edw.tuples_after_filter";
inline constexpr const char kDbTuplesShuffledInternal[] =
    "edw.tuples_shuffled_internal";
inline constexpr const char kJoinOutputTuples[] = "join.output_tuples";
inline constexpr const char kBloomFiltersSent[] = "bloom.filters_sent";
inline constexpr const char kBloomBytesSent[] = "bloom.bytes_sent";
inline constexpr const char kHdfsBytesRead[] = "hdfs.bytes_read";
inline constexpr const char kHdfsBytesReadRemote[] = "hdfs.bytes_read_remote";
inline constexpr const char kHdfsBlocksLocal[] = "hdfs.blocks_local";
inline constexpr const char kHdfsBlocksRemote[] = "hdfs.blocks_remote";
// Join hash-table build shape (sums across workers; the *_max/_pct ones are
// gauge-style maxima recorded with Metrics::Max).
inline constexpr const char kJoinHtRows[] = "join.ht_rows";
inline constexpr const char kJoinHtMaxChain[] = "join.ht_max_chain";
inline constexpr const char kJoinHtLoadFactorPct[] = "join.ht_load_factor_pct";
// Shard-skew visibility for the parallel partitioned build: every shard's
// row count goes into the Metrics histogram of this name, and the worst
// shard across the execution is kept as a gauge maximum under the _max
// counter (a max far above rows/shards flags key skew that serializes the
// parallel build on one shard).
inline constexpr const char kJoinBuildShardRows[] = "join.build_shard_rows";
inline constexpr const char kJoinBuildShardRowsMax[] =
    "join.build_shard_rows_max";
// Bloom filter health after build/combine: fill fraction and the
// realized-FPR estimate fill^k, both in parts per the unit noted in the
// name (maxima across the filters of one execution).
inline constexpr const char kBloomFillPct[] = "bloom.fill_pct";
inline constexpr const char kBloomEstFprPpm[] = "bloom.est_fpr_ppm";
// Per-worker straggler visibility: each JEN worker thread records its
// end-of-query wall time (µs) here, so the histogram's max/p50 ratio reads
// directly as the straggler factor of the slowest worker.
inline constexpr const char kJenWorkerWallUs[] = "jen.worker_wall_us";
// Skew-aware shuffle (src/exec/heavy_hitters.h). "Build" is the broadcast
// side of the hybrid route — the DB-scanned T' rows whose key is hot, each
// replicated to every worker of the exchange — and "probe" is the skewed
// side whose hot rows never enter the shuffle (they stay on the worker
// that scanned them). hot_keys is a gauge (the picked hot-set size);
// broadcast_bytes counts the replicated payload bytes across all copies.
inline constexpr const char kShuffleHotKeys[] = "shuffle.hot_keys";
inline constexpr const char kShuffleBroadcastBytes[] =
    "shuffle.broadcast_bytes";
inline constexpr const char kShuffleHotRowsBuild[] = "shuffle.hot_rows_build";
inline constexpr const char kShuffleHotRowsProbe[] = "shuffle.hot_rows_probe";
// Adaptive join location (src/hybrid/adaptive_join.cc). Gauges recorded by
// the decision-point coordinator (DB worker 0): the advisor's estimated
// per-side filtered bytes next to the values observed after the shared
// prefix, and whether the stay-or-pivot decision actually pivoted (1 only
// when it did — absent otherwise, so profiles diff cleanly).
inline constexpr const char kAdvisorEstimatedDbBytes[] =
    "advisor.estimated_db_bytes";
inline constexpr const char kAdvisorObservedDbBytes[] =
    "advisor.observed_db_bytes";
inline constexpr const char kAdvisorEstimatedHdfsBytes[] =
    "advisor.estimated_hdfs_bytes";
inline constexpr const char kAdvisorObservedHdfsBytes[] =
    "advisor.observed_hdfs_bytes";
inline constexpr const char kAdvisorPivoted[] = "advisor.pivoted";
// Warehouse-server lifetime counters (src/server/warehouse_server.cc
// mirrors its ServerStats atomics here, so the scrape endpoint and the
// time-series sampler pick them up automatically; the ServerStats struct
// stays the point-in-time snapshot view). open_sessions and
// queries_in_flight are last-value gauges written with Metrics::Set.
inline constexpr const char kServerQueriesExecuted[] =
    "server.queries_executed";
inline constexpr const char kServerQueriesRateLimited[] =
    "server.queries_rate_limited";
inline constexpr const char kServerQueriesQuotaRejected[] =
    "server.queries_quota_rejected";
inline constexpr const char kServerQueriesShed[] = "server.queries_shed";
inline constexpr const char kServerQueriesKilled[] = "server.queries_killed";
inline constexpr const char kServerOpenSessions[] = "server.open_sessions";
inline constexpr const char kServerQueriesInFlight[] =
    "server.queries_in_flight";
// Raised above zero when a query's memory governor still holds live
// reservations at end-of-query (a leak — KILL paths must release
// everything). Asserted zero in server_test.
inline constexpr const char kServerGovernorLeakedBytes[] =
    "server.governor_leaked_bytes";
}  // namespace metric

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_COMMON_METRICS_H_
