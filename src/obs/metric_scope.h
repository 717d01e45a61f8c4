// MetricScope: the per-{node, phase} attribution layer over
// common/metrics.h, plus the wire format workers use to ship their scoped
// snapshot to the coordinator node at end-of-query.
//
// How attribution flows end to end:
//   1. Every worker thread installs a trace::ThreadScope, which installs a
//      Metrics::NodeScope — all named metric writes on the thread land in
//      the node's scoped slice. Call sites that know the query phase wrap
//      themselves in a Metrics::PhaseScope (or this file's MetricScope to
//      set both at once); untagged writes are phase-mapped at assembly
//      time by obs::PhaseForMetric.
//   2. As its last action, each worker thread snapshots its node's slice
//      (SnapshotNodeProfile), serializes it (SerializeNodeProfile) and
//      SendControl()s it to DB worker 0 on the query's profile tag — the
//      same unthrottled, fault-exempt control plane the plan decisions use
//      (driver::Execution::RunWorkers does this for every worker).
//   3. After joining the worker threads the driver drains one message per
//      worker and hands the snapshots to obs::AssembleProfile.

#ifndef HYBRIDJOIN_OBS_METRIC_SCOPE_H_
#define HYBRIDJOIN_OBS_METRIC_SCOPE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "net/network.h"

namespace hybridjoin {
namespace obs {

/// RAII: attributes every named Metrics write on this thread to
/// {node, phase} until destruction. trace::ThreadScope already covers the
/// node half for worker threads; MetricScope is for call sites that want
/// both in one statement. `phase` must outlive the scope (string literal).
class MetricScope {
 public:
  MetricScope(NodeId node, const char* phase)
      : node_(MetricNodeKey(node)), phase_(phase) {}

  MetricScope(const MetricScope&) = delete;
  MetricScope& operator=(const MetricScope&) = delete;

 private:
  Metrics::NodeScope node_;
  Metrics::PhaseScope phase_;
};

/// One node's end-of-query profile contribution: its scoped metric slice
/// plus the worker thread's wall time for the query.
struct NodeProfileSnapshot {
  std::string node;      ///< NodeId::ToString() form ("db:0", "hdfs:3")
  int64_t wall_us = 0;   ///< the worker thread's wall time for the query
  ScopedMetricsSnapshot metrics;
};

/// Reads `node`'s scoped slice out of the registry (wall time is measured
/// by the caller — the registry does not know when the worker started).
NodeProfileSnapshot SnapshotNodeProfile(Metrics* metrics, NodeId node,
                                        int64_t wall_us);

/// Version-tagged wire format for shipping a snapshot over the control
/// plane; DeserializeNodeProfile rejects unknown versions and truncated
/// payloads with a non-OK Status.
std::vector<uint8_t> SerializeNodeProfile(const NodeProfileSnapshot& snapshot);
Result<NodeProfileSnapshot> DeserializeNodeProfile(
    const std::vector<uint8_t>& bytes);

}  // namespace obs
}  // namespace hybridjoin

#endif  // HYBRIDJOIN_OBS_METRIC_SCOPE_H_
