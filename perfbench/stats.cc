#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

size_t SamplesBeyond(size_t n, double q) {
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(rank, n);
}

size_t MinSamplesForTail(double q, size_t beyond) {
  size_t n = 1;
  while (SamplesBeyond(n, q) < beyond) ++n;
  return n;
}

std::optional<double> MarkTime(const Phases& phases,
                               std::initializer_list<std::string_view> marks) {
  std::optional<double> t;
  for (const auto& [name, seconds] : phases) {
    for (std::string_view mark : marks) {
      if (name == mark && (!t || seconds < *t)) t = seconds;
    }
  }
  return t;
}

std::optional<double> PhaseEndingAt(
    const Phases& phases, std::initializer_list<std::string_view> marks) {
  const std::optional<double> end = MarkTime(phases, marks);
  if (!end) return std::nullopt;
  double start = 0.0;
  for (const auto& [name, seconds] : phases) {
    if (seconds < *end) start = std::max(start, seconds);
  }
  return *end - start;
}

double TailAfterLastMark(const Phases& phases, double wall_seconds) {
  double last = 0.0;
  for (const auto& [name, seconds] : phases) last = std::max(last, seconds);
  return wall_seconds - last;
}

double ByteWindow::MbPerQuery(hybridjoin::FlowClass fc,
                              int64_t queries) const {
  if (queries <= 0) return 0.0;
  return static_cast<double>(Bytes(fc)) / (1024.0 * 1024.0) /
         static_cast<double>(queries);
}

void ByteWindow::Read(const hybridjoin::Network& net,
                      std::array<int64_t, kClasses>* out) {
  for (size_t i = 0; i < kClasses; ++i) {
    (*out)[i] = net.BytesMoved(static_cast<hybridjoin::FlowClass>(i));
  }
}

}  // namespace perfbench
