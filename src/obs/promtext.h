// Prometheus text exposition (format 0.0.4) of a Metrics registry, plus a
// strict validator used by tests and the CI scrape job. Engine metric
// names ("join.spill_bytes") map to Prometheus names by replacing '.' with
// '_' and prefixing "hj_"; cells written with Metrics::Add gain the
// conventional "_total" suffix and TYPE counter, cells written with Max or
// Set render as TYPE gauge (the registry records which), and every
// LatencyHistogram renders as a TYPE histogram
// with cumulative `le` buckets (from one LatencyHistogram::Counts copy
// at fixed bounds), the mandatory +Inf bucket, and _sum/_count in seconds.

#ifndef HYBRIDJOIN_OBS_PROMTEXT_H_
#define HYBRIDJOIN_OBS_PROMTEXT_H_

#include <string>

#include "common/metrics.h"
#include "common/status.h"

namespace hybridjoin {
namespace obs {

/// Prometheus metric name for an engine series (sanitized, "hj_" prefix,
/// no "_total" suffix — the renderer appends that for counters).
std::string PrometheusName(const std::string& engine_name);

/// Renders the full exposition: every counter and histogram currently in
/// `metrics`, with HELP/TYPE headers.
std::string RenderPrometheus(Metrics& metrics);

/// Validates Prometheus text exposition rules: metric-name and label
/// charset, HELP/TYPE preceding their samples, TYPE-consistent suffixes,
/// parseable sample values, histogram bucket monotonicity (cumulative `le`
/// counts never decrease), a +Inf bucket present and equal to _count.
Status ValidatePrometheus(const std::string& text);

}  // namespace obs
}  // namespace hybridjoin

#endif  // HYBRIDJOIN_OBS_PROMTEXT_H_
