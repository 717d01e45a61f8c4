// Chrome trace-event JSON export: renders recorded spans as complete ("X")
// events loadable in chrome://tracing or https://ui.perfetto.dev. Each
// simulated node becomes one "process" (named db:<i> / hdfs:<i> via
// process_name metadata) and each worker thread one track within it, so
// the viewer shows the paper's per-node, per-thread phase breakdown.

#ifndef HYBRIDJOIN_TRACE_CHROME_TRACE_H_
#define HYBRIDJOIN_TRACE_CHROME_TRACE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "trace/tracer.h"

namespace hybridjoin {
namespace trace {

/// Stable pid for a node in the exported trace: 1.. for DB nodes,
/// 1001.. for HDFS nodes; 0 is the engine-level "driver" process.
uint32_t ChromePid(const TraceEvent& event);

/// The full trace JSON document ({"traceEvents": [...], ...}).
std::string ChromeTraceJson(const std::vector<TraceEvent>& events);

/// Writes ChromeTraceJson(events) to a temporary file of its own and renames
/// it over `path`, so concurrent writers of one path leave one writer's
/// whole trace there, never an interleaving.
Status WriteChromeTrace(const std::vector<TraceEvent>& events,
                        const std::string& path);

}  // namespace trace
}  // namespace hybridjoin

#endif  // HYBRIDJOIN_TRACE_CHROME_TRACE_H_
