// Perf-regression gate: diffs two JSON reports (profile JSONs from
// --profile_out, or the BENCH_*.json files the bench binaries write) and
// flags regressions on the wall-time / bytes-moved / skew metric families.
//
// The comparison is schema-agnostic: both documents are flattened to
// dotted-path -> number maps (arrays of objects are keyed by their "name"
// member when present, by position otherwise), so one tool gates every
// report shape the repo emits. Two leaves on one path are an error rather
// than one silently replacing the other. A bench row that keeps every
// measured run in runs_s has its wall_seconds judged on the median run of
// each document instead of on the best.
// tools/perfcheck.cc is the CLI; CI runs it non-blocking against the
// committed baselines.

#ifndef HYBRIDJOIN_OBS_PERFCHECK_H_
#define HYBRIDJOIN_OBS_PERFCHECK_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/json.h"

namespace hybridjoin {
namespace obs {

struct PerfcheckOptions {
  /// Max allowed wall-time increase, percent of baseline ("wall" /
  /// "*_seconds" / "*_us" leaves; the median of runs_s for a row's
  /// wall_seconds).
  double max_wall_pct = 20.0;
  /// Max allowed increase on byte-counter leaves ("*bytes*"), percent.
  double max_bytes_pct = 25.0;
  /// Max allowed absolute increase on skew leaves ("*skew*").
  double max_skew_increase = 0.5;
  /// Absolute ceiling (not relative to baseline) on "*overhead_pct*"
  /// leaves — the observability-overhead cell in BENCH_concurrency.json
  /// must stay under this percentage regardless of what the baseline
  /// measured.
  double max_overhead_pct = 2.0;
  /// Wall leaves whose baseline is below this (seconds) are noise and are
  /// never flagged.
  double min_wall_seconds = 0.005;
};

struct PerfcheckFinding {
  std::string path;      ///< dotted path into the document
  std::string family;    ///< "wall", "bytes", "skew" or "overhead"
  double baseline = 0.0;
  double current = 0.0;
  std::string message;   ///< one-line human rendering
};

struct PerfcheckResult {
  std::vector<PerfcheckFinding> regressions;
  size_t leaves_compared = 0;  ///< gated leaves present in both documents
};

/// Flattens every numeric leaf of `doc` into a dotted-path -> value map.
/// Two leaves on one path (e.g. two array elements with the same key
/// member) are an InvalidArgument error: one would hide the other.
Result<std::map<std::string, double>> FlattenNumericLeaves(
    const JsonValue& doc);

/// Compares `current` against `baseline`; only leaves present in both
/// documents and belonging to a gated family (wall / bytes / skew /
/// overhead) are checked. Leaves only on one side are ignored (schemas may
/// grow). Fails when either document has a duplicate path.
Result<PerfcheckResult> ComparePerf(const JsonValue& baseline,
                                    const JsonValue& current,
                                    const PerfcheckOptions& options);

}  // namespace obs
}  // namespace hybridjoin

#endif  // HYBRIDJOIN_OBS_PERFCHECK_H_
