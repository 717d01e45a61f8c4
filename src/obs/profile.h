// QueryProfile: the per-algorithm distributed profile tree of one query,
// assembled from each worker node's slice of the scoped metric store
// (common/metrics.h). driver::Execution reads every node's slice in place,
// once, when it builds the report. The tree is phase -> metric -> per-node
// values, with min/median/max/mean and a skew factor (max/mean) per node
// group, so "which node made this query slow?" is answered by reading one
// report.
//
// Two renderings:
//   - ToText(): a human-readable EXPLAIN-ANALYZE-style tree (surfaced as
//     `EXPLAIN ANALYZE <query>` in examples/sql_shell and `--profile` in
//     the drivers);
//   - ToJson()/WriteJson(): a stable schema (schema_version 1) embedding
//     the Chrome-trace file reference and the per-span latency histograms,
//     the input format of tools/perfcheck.
//
// ExecutionReport::counters is this tree's per-metric totals, so it holds
// only the query's own values, whatever else runs. Invariant (asserted in
// tests/obs_test.cc): for every non-gauge counter, the sum of the per-node
// values equals the report's counter; for gauges (Metrics::Max) the maximum
// across nodes equals it.

#ifndef HYBRIDJOIN_OBS_PROFILE_H_
#define HYBRIDJOIN_OBS_PROFILE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"
#include "common/result.h"
#include "obs/json.h"

namespace hybridjoin {
namespace obs {

/// One worker node's contribution to its query's profile: its slice of the
/// scoped metric store plus its worker threads' wall time, summed over the
/// query's rounds.
struct NodeProfileSnapshot {
  std::string node;     ///< NodeId::ToString() form ("db:0", "hdfs:3")
  int64_t wall_us = 0;  ///< the node's worker wall time for the query
  ScopedMetricsSnapshot metrics;
};

/// One counter within one phase: the per-node breakdown plus the node-group
/// statistics computed over the nodes that reported it.
struct ProfileCounterRow {
  std::string name;
  bool gauge = false;  ///< aggregate across nodes by max, not sum
  std::map<std::string, int64_t> per_node;
  int64_t total = 0;   ///< sum across nodes (max for gauges)
  int64_t min = 0;
  int64_t max = 0;
  double mean = 0.0;
  double median = 0.0;
  double skew = 0.0;   ///< max / mean; 1.0 = perfectly balanced
};

/// One latency histogram within one phase, per node.
struct ProfileHistogramRow {
  std::string name;
  std::map<std::string, HistogramSummary> per_node;
};

struct ProfilePhase {
  std::string name;
  std::vector<ProfileCounterRow> counters;      ///< sorted by name
  std::vector<ProfileHistogramRow> histograms;  ///< sorted by name
};

/// The assembled distributed profile of one query execution.
struct QueryProfile {
  uint64_t query_id = 0;
  std::string algorithm;
  double wall_seconds = 0.0;
  /// Phase tree in canonical order (CanonicalPhases); empty phases omitted.
  std::vector<ProfilePhase> phases;
  /// Per-worker wall time (node -> µs) and its straggler factor max/mean.
  std::map<std::string, int64_t> worker_wall_us;
  double worker_wall_skew = 0.0;
  /// Chrome trace JSON written for this execution ("" when not requested).
  std::string trace_file;
  /// Per-metric totals over every phase and node (sum; max for gauges;
  /// zero totals omitted): the query's ExecutionReport::counters.
  std::map<std::string, int64_t> global_counters;
  /// This query's bytes per network flow class (a view of its
  /// net.<class>_bytes cells, which sit per node in the transfer phase) and
  /// span histograms, mirrored from the ExecutionReport.
  std::map<std::string, int64_t> network_bytes;
  std::map<std::string, HistogramSummary> span_histograms;

  bool empty() const { return phases.empty() && worker_wall_us.empty(); }

  /// Row lookup; nullptr when the phase or counter is absent.
  const ProfileCounterRow* FindCounter(const std::string& phase,
                                       const std::string& name) const;

  /// EXPLAIN-ANALYZE-style text tree.
  std::string ToText() const;

  /// Stable JSON export (schema_version 1), pretty-printed.
  std::string ToJson() const;
  Status WriteJson(const std::string& path) const;
};

/// Canonical phase order of the tree.
const std::vector<std::string>& CanonicalPhases();

/// One latency summary as the profile JSON renders it: count and
/// total/min/max/p50/p95/p99 seconds.
JsonValue SummaryToJson(const HistogramSummary& s);

/// Deterministic phase of a metric, keyed off the metric-name conventions
/// ("jen.tuples_scanned" -> "scan", "join.ht_rows" -> "build", ...).
/// Unknown names map to "other". Stable across releases: the profile JSON
/// schema depends on it.
const char* PhaseForMetric(const std::string& name);

/// Builds the phase -> metric -> node tree from one snapshot per node.
QueryProfile AssembleProfile(uint64_t query_id, const std::string& algorithm,
                             double wall_seconds,
                             const std::vector<NodeProfileSnapshot>& nodes,
                             const std::string& trace_file);

}  // namespace obs
}  // namespace hybridjoin

#endif  // HYBRIDJOIN_OBS_PROFILE_H_
