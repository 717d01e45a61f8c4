// The benchmark's own metric arithmetic: percentiles with a tail-support
// rule, phase durations from a query's ordered marks, and window totals of
// the interconnect's byte counters. Kept apart from the runner so the rules
// are unit-tested on tiny inputs (stats_test.cc).

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/network.h"

namespace perfbench {

/// One reported metric: name, unit and value.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Nearest-rank percentile: the smallest sample with at least q*n samples
/// at or below it (q in (0, 1]). 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

/// Median (mean of the two middle samples for an even count); 0 when empty.
double Median(std::vector<double> values);

/// Samples strictly above the nearest-rank q-percentile of n samples.
size_t SamplesBeyond(size_t n, double q);

/// Smallest sample count whose q-percentile has at least `beyond` samples
/// above it (100 for p90 with ten samples beyond).
size_t MinSamplesForTail(double q, size_t beyond = 10);

/// A query's phase marks: (name, seconds since the query started), in
/// arrival order (ExecutionReport::phases).
using Phases = std::vector<std::pair<std::string, double>>;

/// Time of the first of `marks` the query reached (in mark order of
/// arrival), or nullopt when it reached none of them.
std::optional<double> MarkTime(const Phases& phases,
                               std::initializer_list<std::string_view> marks);

/// Duration of the phase that ends at the first of `marks` reached: its
/// time minus the latest mark strictly before it (the query start when
/// there is none). nullopt when the query reached none of `marks`.
std::optional<double> PhaseEndingAt(
    const Phases& phases, std::initializer_list<std::string_view> marks);

/// Seconds from the last mark to the end of the query (the whole wall time
/// when there are no marks).
double TailAfterLastMark(const Phases& phases, double wall_seconds);

/// Bytes the interconnect moved per flow class over a measurement window:
/// Begin() and End() read Network::BytesMoved, so the totals include every
/// query that ran in the window however their executions overlapped.
class ByteWindow {
 public:
  void Begin(const hybridjoin::Network& net) { Read(net, &begin_); }
  void End(const hybridjoin::Network& net) { Read(net, &end_); }

  int64_t Bytes(hybridjoin::FlowClass fc) const {
    const auto i = static_cast<size_t>(fc);
    return end_[i] - begin_[i];
  }
  /// Megabytes (2^20 bytes) per query; 0 when no query completed.
  double MbPerQuery(hybridjoin::FlowClass fc, int64_t queries) const;

 private:
  static constexpr size_t kClasses = 4;
  static void Read(const hybridjoin::Network& net,
                   std::array<int64_t, kClasses>* out);

  std::array<int64_t, kClasses> begin_{};
  std::array<int64_t, kClasses> end_{};
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
