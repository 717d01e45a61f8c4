// Report counters with the timing-derived ones removed, for tests that
// compare two runs of the same query (obs_test, trace_test).

#ifndef HYBRIDJOIN_TESTS_DATA_COUNTERS_H_
#define HYBRIDJOIN_TESTS_DATA_COUNTERS_H_

#include <cstdint>
#include <map>
#include <string>

#include "exec/spill.h"

namespace hybridjoin {

/// Counters that depend on the data, not on thread timing: drops the
/// governor's high-water mark, which moves with how far producers run
/// ahead of consumers.
inline std::map<std::string, int64_t> DataCounters(
    std::map<std::string, int64_t> counters) {
  counters.erase(metric::kJoinMemPeakBytes);
  return counters;
}

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_TESTS_DATA_COUNTERS_H_
