// Metrics: thread-safe named counters and latency histograms collected
// during query executions. Every join driver's ExecutionReport carries its
// own query's share of them. Histograms are fed by the tracing subsystem
// (src/trace/): every finished span's duration is recorded under the span's
// name.
//
// There is one record. Every named write (Add/Max/Record) updates exactly
// one cell, under one lock acquisition: the cell of that name in the slice
// of the calling thread's (QueryScope id, node key) — the node key set by
// Metrics::NodeScope, which trace::ThreadScope installs. Query id 0 ("no
// query") and kNoNode are ordinary slices. Network bytes are cells like any
// other: Network charges each message to net.<flow class>_bytes in the
// slice of the thread that moves it (net/network.h).
//
// A query's slices accumulate over all of its rounds; the live process list
// sums them while it runs (ScopedQueryTotals), its report reads each node's
// slice once when it is built (ScopedSnapshot) into the per-node profile
// tree of ExecutionReport::profile (see src/obs/, which derives each
// metric's phase from its name), and ClearScoped(query_id) folds them into
// the retired record when the query ends. The process-wide reads (Get,
// Snapshot, HistogramCounts) fold the retired record and every live slice
// under the same lock, so scrapes see in-flight queries too, from one
// consistent copy; Snapshot also says which of its values are gauges, so
// exporters type a series by how it was written, not by its name. Set is
// the one exception to the slices: a process-level last-value gauge.

#ifndef HYBRIDJOIN_COMMON_METRICS_H_
#define HYBRIDJOIN_COMMON_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>

#include "common/histogram.h"
#include "common/query_scope.h"

namespace hybridjoin {

/// One counter cell: gauges (recorded with Metrics::Max) fold across cells
/// by maximum, everything else by sum.
struct ScopedCounter {
  int64_t value = 0;
  bool gauge = false;

  void Fold(const ScopedCounter& other) {
    if (other.gauge) {
      gauge = true;
      value = std::max(value, other.value);
    } else {
      value += other.value;
    }
  }
};

/// One node's slice of the store, keyed by metric name.
struct ScopedMetricsSnapshot {
  std::map<std::string, ScopedCounter> counters;
  std::map<std::string, HistogramSummary> histograms;

  bool empty() const { return counters.empty() && histograms.empty(); }
};

/// The registry: one slice per (query id, node key) plus the retired fold
/// of every finished query's slices.
class Metrics {
 public:
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

  /// The calling thread's current node attribution (kNoNode outside any
  /// scope).
  static int32_t CurrentNodeKey() { return tls_node_key_; }

  /// Adds `delta` to the named counter of the calling thread's slice.
  void Add(const std::string& name, int64_t delta) {
    Write(name, {delta, /*gauge=*/false});
  }

  /// Raises the named gauge of the calling thread's slice to `value` if it
  /// is below it (e.g. the longest hash-table bucket run). Folds by maximum.
  void Max(const std::string& name, int64_t value) {
    Write(name, {value, /*gauge=*/true});
  }

  /// Stores an absolute value (last-write-wins gauge, e.g. the number of
  /// open sessions). Process-level: gauges of this kind describe
  /// whole-process state, not one node's contribution, so they live
  /// outside the slices.
  void Set(const std::string& name, int64_t value) {
    std::lock_guard<std::mutex> lock(mu_);
    set_gauges_[name] = value;
  }

  /// The process-wide value of one counter (0 if never written).
  int64_t Get(const std::string& name) const {
    const auto snapshot = Snapshot();
    auto it = snapshot.find(name);
    return it == snapshot.end() ? 0 : it->second;
  }

  /// Point-in-time process-wide value of every counter: the retired record
  /// folded with every live slice, plus the Set gauges. When `gauges` is
  /// given it receives, from the same copy, the names whose value is a
  /// gauge (written with Max or Set) rather than a sum.
  std::map<std::string, int64_t> Snapshot(
      std::set<std::string>* gauges = nullptr) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, ScopedCounter> folded = retired_.counters;
    for (const auto& [key, slot] : scoped_) FoldCounters(slot, &folded);
    std::map<std::string, int64_t> out;
    for (const auto& [name, counter] : folded) {
      out[name] = counter.value;
      if (gauges != nullptr && counter.gauge) gauges->insert(name);
    }
    for (const auto& [name, value] : set_gauges_) {
      out[name] = value;
      if (gauges != nullptr) gauges->insert(name);
    }
    return out;
  }

  /// Records one observation into the named histogram of the calling
  /// thread's slice. Values are microseconds for latency series and plain
  /// magnitudes otherwise (e.g. join.build_shard_rows).
  void Record(const std::string& name, int64_t value) {
    RecordForNode(name, value, tls_node_key_);
  }

  /// Record with an explicit node key: the tracer attributes a span's
  /// duration to the span's node, not the recording thread.
  void RecordForNode(const std::string& name, int64_t value,
                     int32_t node_key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = scoped_[{QueryScope::Current(), node_key}].histograms[name];
    if (!slot) slot = std::make_unique<LatencyHistogram>();
    slot->RecordMicros(value);
  }

  /// Process-wide bucket counts of every histogram, the retired record
  /// folded with every live slice. Every figure a reader reports about one
  /// histogram must come from its one Counts copy.
  std::map<std::string, LatencyHistogram::Counts> HistogramCounts() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, LatencyHistogram> folded;
    const auto fold = [&folded](const Slot& slot) {
      for (const auto& [name, histogram] : slot.histograms) {
        folded[name].Merge(*histogram);
      }
    };
    fold(retired_);
    for (const auto& [key, slot] : scoped_) fold(slot);
    std::map<std::string, LatencyHistogram::Counts> out;
    for (const auto& [name, histogram] : folded) out[name] = histogram.Load();
    return out;
  }

  /// One node's slice for the calling thread's current query (id 0 outside
  /// any QueryScope).
  ScopedMetricsSnapshot ScopedSnapshot(int32_t node_key) const {
    return ScopedSnapshot(QueryScope::Current(), node_key);
  }

  /// One node's slice for an explicit query id.
  ScopedMetricsSnapshot ScopedSnapshot(uint64_t query_id,
                                       int32_t node_key) const {
    std::lock_guard<std::mutex> lock(mu_);
    ScopedMetricsSnapshot out;
    auto it = scoped_.find({query_id, node_key});
    if (it == scoped_.end()) return out;
    out.counters = it->second.counters;
    for (const auto& [name, histogram] : it->second.histograms) {
      out.histograms[name] = histogram->Summarize();
    }
    return out;
  }

  /// One query's counters folded across all of its slices (gauges by
  /// maximum, everything else by sum — same rule as profile assembly).
  /// Powers the live process list: rows scanned/produced and spill bytes of
  /// an *in-flight* query come from here without waiting for end-of-query
  /// profile assembly.
  std::map<std::string, int64_t> ScopedQueryTotals(uint64_t query_id) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, ScopedCounter> folded;
    for (auto it = FirstSlotOf(query_id);
         it != scoped_.end() && it->first.first == query_id; ++it) {
      FoldCounters(it->second, &folded);
    }
    std::map<std::string, int64_t> out;
    for (const auto& [name, counter] : folded) out[name] = counter.value;
    return out;
  }

  /// Retires one query (end-of-query under concurrency): folds its slices
  /// into the retired record and drops them, so every process-wide read is
  /// unchanged while the query's own slices read empty. Other in-flight
  /// queries' slices are left untouched.
  void ClearScoped(uint64_t query_id) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = FirstSlotOf(query_id);
    while (it != scoped_.end() && it->first.first == query_id) {
      FoldCounters(it->second, &retired_.counters);
      for (const auto& [name, histogram] : it->second.histograms) {
        auto& into = retired_.histograms[name];
        if (!into) into = std::make_unique<LatencyHistogram>();
        into->Merge(*histogram);
      }
      it = scoped_.erase(it);
    }
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    scoped_.clear();
    retired_ = Slot();
    set_gauges_.clear();
  }

 private:
  struct Slot {
    std::map<std::string, ScopedCounter> counters;
    std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms;
  };
  using SlotMap = std::map<std::pair<uint64_t, int32_t>, Slot>;

  void Write(const std::string& name, const ScopedCounter& value) {
    std::lock_guard<std::mutex> lock(mu_);
    scoped_[{QueryScope::Current(), tls_node_key_}].counters[name].Fold(value);
  }

  static void FoldCounters(const Slot& slot,
                           std::map<std::string, ScopedCounter>* into) {
    for (const auto& [name, counter] : slot.counters) {
      (*into)[name].Fold(counter);
    }
  }

  SlotMap::const_iterator FirstSlotOf(uint64_t query_id) const {
    return scoped_.lower_bound(
        {query_id, std::numeric_limits<int32_t>::min()});
  }

  static inline thread_local int32_t tls_node_key_ = kNoNode;

  mutable std::mutex mu_;
  /// Keyed by (query id, node key): concurrent queries write disjoint
  /// slices; id 0 is the "no query" slice.
  SlotMap scoped_;
  /// Every retired query's slices, folded into one record.
  Slot retired_;
  std::map<std::string, int64_t> set_gauges_;
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
// Build rows the band walk read (JoinHashTable::ProbeBand): the rows inside
// each probe row's band plus the one that ended each walk. Beside
// join.output_tuples it shows how much of the equi-join the band skipped.
inline constexpr const char kJoinBandVisited[] = "join.band_visited";
inline constexpr const char kBloomFiltersSent[] = "bloom.filters_sent";
inline constexpr const char kBloomBytesSent[] = "bloom.bytes_sent";
// Bytes of the join-key lists the exact semijoin sends from the DB workers
// to the JEN workers (SemijoinFilter), its counterpart of bloom.bytes_sent.
inline constexpr const char kSemijoinKeyBytesSent[] = "semijoin.key_bytes_sent";
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
// that scanned them). hot_keys is a gauge: the agreed hot-set size,
// recorded by each sender that routes a hot row, so it stays 0 when the set
// shaped no exchange; broadcast_bytes counts the replicated payload bytes
// across all copies.
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
// metrics_out file pick them up automatically; the ServerStats struct
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
