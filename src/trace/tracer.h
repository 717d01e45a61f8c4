// Structured tracing for the hybrid warehouse: RAII Span scopes record
// (name, category, node, thread, start, duration) events into mutex-sharded
// per-thread buffers. Two sinks consume the events:
//   - trace::WriteChromeTrace (chrome_trace.h) renders them as a Chrome
//     trace-event JSON loadable in chrome://tracing or Perfetto, one
//     "process" per simulated node and one track per worker thread;
//   - the Metrics histogram registry (common/metrics.h) accumulates every
//     span duration into an HDR-style latency histogram keyed by span name,
//     which ReportBuilder rolls into ExecutionReport::histograms.
//
// Span names and categories must be string literals (or otherwise outlive
// the tracer): events store raw pointers so a disabled tracer costs two
// loads and a branch per span.
//
// Worker threads announce which simulated node they act for with a
// trace::ThreadScope; spans on that thread inherit the attribution unless
// they name a node explicitly (the network layer attributes sends to the
// sending node regardless of which thread performs them).

#ifndef HYBRIDJOIN_TRACE_TRACER_H_
#define HYBRIDJOIN_TRACE_TRACER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/metrics.h"
#include "net/network.h"

namespace hybridjoin {
namespace trace {

/// One finished span.
struct TraceEvent {
  const char* name = "";      ///< phase name, e.g. "jen.probe"
  const char* category = "";  ///< coarse grouping, e.g. "exchange"
  NodeId node;                ///< attributed simulated node
  bool has_node = false;      ///< false: engine-level work (pid 0)
  const char* role = nullptr; ///< emitting thread's role (track name)
  uint32_t tid = 0;           ///< process-wide worker-thread id
  int32_t depth = 0;          ///< nesting depth on its thread (0 = top)
  int64_t start_us = 0;       ///< µs since the tracer's epoch
  int64_t dur_us = 0;
  int64_t bytes = 0;          ///< payload bytes for network spans, else 0
};

class Tracer {
 public:
  explicit Tracer(bool enabled = false, Metrics* metrics = nullptr)
      : enabled_(enabled), metrics_(metrics) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Microseconds since this tracer's epoch (construction time).
  int64_t NowMicros() const;

  /// Appends a finished span (called by ~Span) and feeds its duration to
  /// the metrics histogram registry.
  void Record(const TraceEvent& event);

  /// Copy of every recorded event, ordered by start time.
  std::vector<TraceEvent> Snapshot() const;

  /// Drops all recorded events (start of a new query execution).
  void Clear();

  /// Stable small id for the calling thread (assigned on first use,
  /// process-wide so ids stay unique across tracer instances).
  static uint32_t CurrentThreadId();

 private:
  static constexpr int kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::vector<TraceEvent> events;
  };

  std::atomic<bool> enabled_;
  Metrics* metrics_;
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  Shard shards_[kShards];
};

/// Returns a stable "<base>/<index>" C string with process lifetime, for
/// ThreadScope roles of dynamically numbered worker threads ("jen_proc/2",
/// "build/0"): TraceEvent stores raw pointers, so role strings must outlive
/// every tracer, which a stack-built std::string cannot. Repeated calls
/// with the same arguments return the same pointer.
const char* InternedRole(const char* base, size_t index);

/// Declares that the calling thread acts for `node` (e.g. "this thread is
/// DB worker 3") until the scope dies; nested scopes restore the previous
/// attribution. `role` becomes the thread's track name in the Chrome trace.
/// Also installs the matching Metrics::NodeScope, so every named metric
/// write on the thread lands in the node's scoped slice (src/obs/).
class ThreadScope {
 public:
  ThreadScope(NodeId node, const char* role);
  ~ThreadScope();

  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

  /// Current thread's attribution; returns false when no scope is active.
  static bool Current(NodeId* node, const char** role);

 private:
  Metrics::NodeScope metrics_scope_;
  NodeId saved_node_;
  const char* saved_role_;
  bool saved_has_;
};

/// RAII span. Construction on a disabled tracer is two loads and a branch.
class Span {
 public:
  Span(Tracer* tracer, const char* name, const char* category = "exec");
  /// Explicit node attribution (overrides the thread's scope).
  Span(Tracer* tracer, const char* name, const char* category, NodeId node);
  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a byte count (network spans); shown as args.bytes.
  void set_bytes(int64_t bytes) { bytes_ = bytes; }

  /// Ends the span early (idempotent; the destructor is then a no-op).
  void End();

  bool active() const { return tracer_ != nullptr; }

 private:
  void Init(Tracer* tracer, const char* name, const char* category);

  Tracer* tracer_ = nullptr;
  const char* name_ = "";
  const char* category_ = "";
  NodeId node_;
  bool has_node_ = false;
  int64_t start_us_ = 0;
  int64_t bytes_ = 0;
};

// Canonical span names and categories, so drivers, tests and benches agree
// on spelling (mirrors metric::k* in common/metrics.h). Histograms in
// ExecutionReport are keyed by these.
namespace span {
// Network layer (category = flow class name).
inline constexpr char kNetSend[] = "net.send";
inline constexpr char kNetSendControl[] = "net.send_control";
inline constexpr char kNetRecv[] = "net.recv";
inline constexpr char kNetTransfer[] = "net.transfer";
// JEN side.
inline constexpr char kJenScan[] = "jen.scan";
inline constexpr char kJenReadBlock[] = "jen.read_block";
/// Time a process thread spends blocked on the read queue waiting for the
/// next decoded block (Figure 7 backpressure visibility; one span per Pop).
inline constexpr char kJenQueueWait[] = "jen.queue_wait";
inline constexpr char kJenShuffle[] = "jen.shuffle";
inline constexpr char kJenBuild[] = "jen.build";
inline constexpr char kJenProbe[] = "jen.probe";
inline constexpr char kHtFinalize[] = "join.ht_finalize";
inline constexpr char kJenAggregate[] = "jen.aggregate";
// EDW side.
inline constexpr char kDbScan[] = "edw.scan";
inline constexpr char kDbBloomBuild[] = "edw.bloom_build";
inline constexpr char kDbJoin[] = "edw.join";
inline constexpr char kDbIngest[] = "edw.ingest";
// Whole-thread driver spans (the "top-level" coverage spans).
inline constexpr char kDriverDbWorker[] = "driver.db_worker";
inline constexpr char kDriverJenWorker[] = "driver.jen_worker";
// Categories.
inline constexpr char kCatDriver[] = "driver";
inline constexpr char kCatScan[] = "scan";
inline constexpr char kCatJoin[] = "join";
inline constexpr char kCatExchange[] = "exchange";
}  // namespace span

}  // namespace trace
}  // namespace hybridjoin

#endif  // HYBRIDJOIN_TRACE_TRACER_H_
