#include "trace/tracer.h"

#include <algorithm>
#include <string>
#include <unordered_set>

namespace hybridjoin {
namespace trace {

namespace {

/// Thread-attribution slot (set by ThreadScope, read by Span).
struct ThreadState {
  NodeId node;
  const char* role = nullptr;
  bool has_node = false;
  int32_t depth = 0;
};

thread_local ThreadState tls_state;

std::atomic<uint32_t> next_thread_id{1};
thread_local uint32_t tls_thread_id = 0;

// Depth breaks start-time ties so a parent span precedes children opened in
// the same microsecond.
void SortByStart(std::vector<TraceEvent>* events) {
  std::sort(events->begin(), events->end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.depth < b.depth;
            });
}

}  // namespace

const char* InternedRole(const char* base, size_t index) {
  static std::mutex mu;
  // Leaked on purpose: role pointers live inside TraceEvents that may be
  // snapshotted after static destruction begins.
  static auto* interned = new std::unordered_set<std::string>();
  std::string role = std::string(base) + "/" + std::to_string(index);
  std::lock_guard<std::mutex> lock(mu);
  return interned->insert(std::move(role)).first->c_str();
}

uint32_t Tracer::CurrentThreadId() {
  if (tls_thread_id == 0) {
    tls_thread_id = next_thread_id.fetch_add(1, std::memory_order_relaxed);
  }
  return tls_thread_id;
}

int64_t Tracer::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::Record(const TraceEvent& event) {
  const uint32_t shard = event.tid % kShards;
  {
    std::lock_guard<std::mutex> lock(shards_[shard].mu);
    shards_[shard].events.push_back(event);
  }
  if (metrics_ != nullptr) {
    // Attribute the span's duration to the span's node (a network span is
    // the sender's work no matter which thread performed it), falling back
    // to no attribution for engine-level spans.
    metrics_->RecordForNode(
        event.name, event.dur_us,
        event.has_node ? MetricNodeKey(event.node) : Metrics::kNoNode);
  }
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::vector<TraceEvent> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.insert(out.end(), shard.events.begin(), shard.events.end());
  }
  SortByStart(&out);
  return out;
}

std::vector<TraceEvent> Tracer::Take(uint64_t query_id) {
  std::vector<TraceEvent> out;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto taken = std::partition(
        shard.events.begin(), shard.events.end(),
        [query_id](const TraceEvent& e) { return e.query_id != query_id; });
    out.insert(out.end(), taken, shard.events.end());
    shard.events.erase(taken, shard.events.end());
  }
  SortByStart(&out);
  return out;
}

void Tracer::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.events.clear();
  }
}

ThreadScope::ThreadScope(NodeId node, const char* role)
    : metrics_scope_(MetricNodeKey(node)),
      saved_node_(tls_state.node),
      saved_role_(tls_state.role),
      saved_has_(tls_state.has_node) {
  tls_state.node = node;
  tls_state.role = role;
  tls_state.has_node = true;
}

ThreadScope::~ThreadScope() {
  tls_state.node = saved_node_;
  tls_state.role = saved_role_;
  tls_state.has_node = saved_has_;
}

bool ThreadScope::Current(NodeId* node, const char** role) {
  if (!tls_state.has_node) return false;
  if (node != nullptr) *node = tls_state.node;
  if (role != nullptr) *role = tls_state.role;
  return true;
}

void Span::Init(Tracer* tracer, const char* name, const char* category) {
  if (tracer == nullptr || !tracer->enabled()) return;
  tracer_ = tracer;
  name_ = name;
  category_ = category;
  start_us_ = tracer->NowMicros();
  ++tls_state.depth;
}

Span::Span(Tracer* tracer, const char* name, const char* category) {
  Init(tracer, name, category);
  if (tracer_ != nullptr && tls_state.has_node) {
    node_ = tls_state.node;
    has_node_ = true;
  }
}

Span::Span(Tracer* tracer, const char* name, const char* category,
           NodeId node) {
  Init(tracer, name, category);
  node_ = node;
  has_node_ = tracer_ != nullptr;
}

void Span::End() {
  if (tracer_ == nullptr) return;
  TraceEvent event;
  event.name = name_;
  event.category = category_;
  event.node = node_;
  event.has_node = has_node_;
  event.role = tls_state.role;
  event.tid = Tracer::CurrentThreadId();
  event.depth = --tls_state.depth;
  event.start_us = start_us_;
  event.dur_us = tracer_->NowMicros() - start_us_;
  event.bytes = bytes_;
  event.query_id = QueryScope::Current();
  tracer_->Record(event);
  tracer_ = nullptr;
}

}  // namespace trace
}  // namespace hybridjoin
