#include "hybrid/report.h"

#include <sstream>

#include "net/network.h"

namespace hybridjoin {

const char* JoinAlgorithmName(JoinAlgorithm algorithm) {
  switch (algorithm) {
    case JoinAlgorithm::kDbSide:
      return "db";
    case JoinAlgorithm::kDbSideBloom:
      return "db(BF)";
    case JoinAlgorithm::kBroadcast:
      return "broadcast";
    case JoinAlgorithm::kRepartition:
      return "repartition";
    case JoinAlgorithm::kRepartitionBloom:
      return "repartition(BF)";
    case JoinAlgorithm::kZigzag:
      return "zigzag";
  }
  return "unknown";
}

bool IsHdfsSide(JoinAlgorithm algorithm) {
  switch (algorithm) {
    case JoinAlgorithm::kDbSide:
    case JoinAlgorithm::kDbSideBloom:
      return false;
    case JoinAlgorithm::kBroadcast:
    case JoinAlgorithm::kRepartition:
    case JoinAlgorithm::kRepartitionBloom:
    case JoinAlgorithm::kZigzag:
      return true;
  }
  return false;
}

std::string ExecutionReport::ToString() const {
  std::ostringstream os;
  os << JoinAlgorithmName(algorithm) << ": "
     << wall_seconds * 1e3 << " ms\n";
  if (!phases.empty()) {
    os << "  phases:\n";
    for (const auto& [name, secs] : phases) {
      os << "    " << name << ": " << secs * 1e3 << " ms\n";
    }
  }
  if (!counters.empty()) {
    os << "  counters:\n";
    for (const auto& [name, value] : counters) {
      // The net.<class>_bytes cells print once, under "network bytes".
      if (!NetworkBytesOf({{name, value}}).empty()) continue;
      os << "    " << name << " = " << value << "\n";
    }
  }
  if (!network_bytes.empty()) {
    os << "  network bytes:\n";
    for (const auto& [name, value] : network_bytes) {
      os << "    " << name << " = " << value << "\n";
    }
  }
  if (!histograms.empty()) {
    os << "  latencies (count / p50 / p95 / p99 ms):\n";
    for (const auto& [name, h] : histograms) {
      os << "    " << name << ": " << h.count << " / "
         << h.p50_seconds * 1e3 << " / " << h.p95_seconds * 1e3 << " / "
         << h.p99_seconds * 1e3 << "\n";
    }
  }
  if (!trace_file.empty()) {
    os << "  trace: " << trace_file << "\n";
  }
  return os.str();
}

}  // namespace hybridjoin
