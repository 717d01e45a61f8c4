// The traced pass's direct calls into each layer. The benchmark wraps every
// call in its own span (SpanLog), keeps the spans in memory, derives the
// per-layer metrics from them and writes them out once at the end.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "hybrid/warehouse.h"
#include "stats.h"

namespace perfbench {

/// Single-threaded span recorder: spans nest by scope on the calling
/// thread, and each one remembers its parent.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;  ///< index into spans(), -1 for a root
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  };

  /// Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(SpanLog* log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// Self time of span `index`: its duration minus the part of it its
  /// child spans cover (children of one thread never overlap).
  double SelfSeconds(size_t index) const;

  /// Writes the spans as Chrome trace-event JSON (one complete event per
  /// span, with its self time in args).
  hybridjoin::Status WriteChromeJson(const std::string& path) const;

 private:
  int64_t NowNs() const;

  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// What the traced pass calls the layers with.
struct LayerInputs {
  hybridjoin::HybridWarehouse* warehouse = nullptr;
  /// Every query shape of the workload, as SQL and as built queries; the
  /// first is the paper's query over the main T/L pair.
  std::vector<std::string> sql;
  std::vector<hybridjoin::HybridQuery> queries;
  /// Resident-build budget for the grace join (shape (c)'s quota).
  uint64_t grace_budget_bytes = 0;
};

/// Times each layer's public calls, appending the per-layer metrics to
/// `out` and the spans to `log`.
hybridjoin::Status MeasureLayers(const LayerInputs& in, SpanLog* log,
                                 std::vector<Metric>* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
