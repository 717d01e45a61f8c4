// JoinAlgorithm / ExecutionReport / QueryResult: what a join run returns —
// the aggregated rows plus everything the paper's evaluation section
// measures (wall time, tuples shuffled and sent, bytes per network class,
// per-phase timings).

#ifndef HYBRIDJOIN_HYBRID_REPORT_H_
#define HYBRIDJOIN_HYBRID_REPORT_H_

#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "obs/profile.h"
#include "types/record_batch.h"

namespace hybridjoin {

/// The five algorithms of §3 (Bloom variants split out, as in the figures).
enum class JoinAlgorithm {
  kDbSide = 0,           ///< §3.1 without Bloom filter ("db")
  kDbSideBloom = 1,      ///< §3.1 with Bloom filter   ("db(BF)")
  kBroadcast = 2,        ///< §3.2                      ("broadcast")
  kRepartition = 3,      ///< §3.3 without Bloom filter ("repartition")
  kRepartitionBloom = 4, ///< §3.3 with Bloom filter    ("repartition(BF)")
  kZigzag = 5,           ///< §3.4                      ("zigzag")
};

const char* JoinAlgorithmName(JoinAlgorithm algorithm);

/// True for the algorithms whose final join runs on the HDFS side.
bool IsHdfsSide(JoinAlgorithm algorithm);

/// Everything measured during one execution.
struct ExecutionReport {
  JoinAlgorithm algorithm = JoinAlgorithm::kDbSide;
  double wall_seconds = 0.0;
  /// Ordered coarse phases with durations (driver-level).
  std::vector<std::pair<std::string, double>> phases;
  /// Engine counters (metric::k* names) of this query alone: the
  /// per-metric totals of `profile` (sum for counters, max for gauges).
  std::map<std::string, int64_t> counters;
  /// Bytes this query moved per network flow class (FlowClassName ->
  /// bytes): a view of its net.<class>_bytes cells in `counters`.
  std::map<std::string, int64_t> network_bytes;
  /// Latency percentiles per span name (trace::span::k*), built from this
  /// query's own spans. Empty when tracing is disabled.
  std::map<std::string, HistogramSummary> histograms;
  /// Chrome trace JSON written for this execution ("" when not requested).
  std::string trace_file;
  /// The distributed per-node profile tree assembled from each worker
  /// node's metric slice (obs/profile.h). profile.ToText() is the
  /// EXPLAIN-ANALYZE rendering; profile.WriteJson() the stable export.
  obs::QueryProfile profile;

  int64_t Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }

  const HistogramSummary* Histogram(const std::string& name) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? nullptr : &it->second;
  }

  std::string ToString() const;
};

/// Final rows ([group, aggregates...], sorted by group) plus the report.
struct QueryResult {
  RecordBatch rows;
  ExecutionReport report;
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_HYBRID_REPORT_H_
