#include "hybrid/driver_common.h"

#include <memory>

#include "exec/spill.h"
#include "hybrid/algorithms.h"
#include "jen/worker.h"
#include "obs/event_log.h"
#include "obs/query_registry.h"
#include "trace/chrome_trace.h"

namespace hybridjoin {
namespace driver {

Tags Tags::Allocate(Network* network) {
  const uint64_t base = network->AllocateTagBlock(21);
  Tags t;
  t.bloom_local = base + 0;
  t.bloom_global = base + 1;
  t.bloom_to_jen = base + 2;
  t.shuffle = base + 3;
  t.db_data = base + 4;
  t.bloom_h_local = base + 5;
  t.bloom_h_global = base + 6;
  t.agg = base + 7;
  t.result = base + 8;
  t.l_data = base + 9;
  t.control = base + 10;
  t.counts = base + 11;
  t.strategy = base + 12;
  t.db_shuffle_t = base + 13;
  t.db_shuffle_l = base + 14;
  t.profile = base + 15;
  t.sketch_local = base + 16;
  t.hot_global = base + 17;
  t.hot_to_jen = base + 18;
  t.adapt_stats = base + 19;
  t.adapt_decision = base + 20;
  return t;
}

NodeProfileScope::~NodeProfileScope() {
  const int64_t wall_us = stopwatch_.ElapsedMicros();
  Metrics& m = ctx_->metrics();
  if (node_.cluster == ClusterId::kHdfs) {
    // Feeds the jen.worker_wall_us histogram even with tracing disabled.
    m.Record(metric::kJenWorkerWallUs, wall_us);
  }
  // The query-wide memory high-water mark, recorded into this node's slice
  // (and the global store) before the snapshot below captures it. Max, not
  // Add: every worker reports the same per-query governor. Skipped at zero
  // so governor-less runs don't grow a dead gauge.
  if (MemoryGovernor* governor = MemoryGovernor::Current()) {
    const auto peak = static_cast<int64_t>(governor->peak());
    if (peak > 0) m.Max(metric::kJoinMemPeakBytes, peak);
  }
  const obs::NodeProfileSnapshot snap =
      obs::SnapshotNodeProfile(&m, node_, wall_us);
  ctx_->network().SendControl(node_, NodeId::Db(0), tag_,
                              obs::SerializeNodeProfile(snap));
}

ReportBuilder::ReportBuilder(EngineContext* ctx, JoinAlgorithm algorithm,
                             uint64_t memory_budget_bytes)
    : ctx_(ctx),
      algorithm_(algorithm),
      query_id_(ctx->NextQueryId()),
      scope_(query_id_),
      governor_(std::make_unique<MemoryGovernor>(
          memory_budget_bytes != 0
              ? memory_budget_bytes
              : ctx->config().query_memory_budget_bytes)),
      governor_scope_(governor_.get()),
      exclusive_(ctx->BeginExecution() == 1) {
  if (exclusive_) {
    // Running alone: drop whatever scoped slices and spans a previous
    // execution left behind, exactly as the single-query path always did.
    ctx_->metrics().ClearScoped();
    if (ctx_->tracer().enabled()) ctx_->tracer().Clear();
  }
  counters_before_ = ctx_->metrics().Snapshot();
  for (int i = 0; i < 4; ++i) {
    net_before_[i] =
        ctx_->network().BytesMoved(static_cast<FlowClass>(i));
  }
  // Visible to SHOW PROCESSLIST / KILL from here on. Registration happens
  // before any worker spawns, so a worker's first cancellation check can
  // always resolve the flag.
  obs::QueryRegistry::Global().Register(query_id_, &ctx_->metrics(),
                                        governor_.get(),
                                        JoinAlgorithmName(algorithm_));
  if (obs::EventLog::Global().enabled()) {
    auto fields = obs::JsonValue::Object();
    fields.Set("algorithm",
               obs::JsonValue::Str(JoinAlgorithmName(algorithm_)));
    if (const obs::SubmissionScope::Info* info =
            obs::SubmissionScope::Current()) {
      fields.Set("session_id",
                 obs::JsonValue::Int(static_cast<int64_t>(info->session_id)));
      fields.Set("ticket_id",
                 obs::JsonValue::Int(static_cast<int64_t>(info->ticket_id)));
    }
    obs::EventLog::Global().Emit("start", query_id_, std::move(fields));
  }
}

ReportBuilder::~ReportBuilder() {
  // Leave the process list first; Unregister reports reservations the
  // governor still holds, which must be zero on every exit path (KILL
  // included) — the server test asserts the gauge below stays flat.
  const uint64_t leaked = obs::QueryRegistry::Global().Unregister(query_id_);
  if (leaked > 0) {
    ctx_->metrics().Add(metric::kServerGovernorLeakedBytes,
                        static_cast<int64_t>(leaked));
  }
  // This query's scoped slices were consumed by the NodeProfileScope
  // snapshots; drop them without touching other in-flight queries' slices.
  ctx_->metrics().ClearScoped(query_id_);
  ctx_->EndExecution();
}

void ReportBuilder::Mark(const std::string& name) {
  const double t = stopwatch_.ElapsedSeconds();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [existing, unused] : marks_) {
      if (existing == name) return;  // first caller wins
    }
    marks_.emplace_back(name, t);
  }
  // First arrival at a mark is a phase transition: reflect it in the live
  // process list and the event log.
  obs::QueryRegistry::Global().SetPhase(query_id_, name);
  if (obs::EventLog::Global().enabled()) {
    auto fields = obs::JsonValue::Object();
    fields.Set("phase", obs::JsonValue::Str(name));
    fields.Set("t_seconds", obs::JsonValue::Number(t));
    obs::EventLog::Global().Emit("phase", query_id_, std::move(fields));
  }
}

void ReportBuilder::CollectProfiles(const Tags& tags, uint32_t expected) {
  Network& net = ctx_->network();
  for (uint32_t i = 0; i < expected; ++i) {
    Result<Message> msg = net.Recv(NodeId::Db(0), tags.profile);
    if (!msg.ok() || msg.value().payload == nullptr) continue;
    Result<obs::NodeProfileSnapshot> snap =
        obs::DeserializeNodeProfile(*msg.value().payload);
    if (!snap.ok()) continue;
    node_profiles_.push_back(std::move(snap).value());
  }
}

ExecutionReport ReportBuilder::Finish() {
  ExecutionReport report;
  report.algorithm = algorithm_;
  report.wall_seconds = stopwatch_.ElapsedSeconds();
  {
    std::lock_guard<std::mutex> lock(mu_);
    report.phases = marks_;
  }
  for (const auto& [name, value] : ctx_->metrics().Snapshot()) {
    auto it = counters_before_.find(name);
    const int64_t before = it == counters_before_.end() ? 0 : it->second;
    if (value - before != 0) report.counters[name] = value - before;
  }
  for (int i = 0; i < 4; ++i) {
    const auto fc = static_cast<FlowClass>(i);
    const int64_t delta = ctx_->network().BytesMoved(fc) - net_before_[i];
    if (delta != 0) report.network_bytes[FlowClassName(fc)] = delta;
  }
  // Span histograms and trace files aggregate the whole tracer buffer, so
  // they are only attributable when this query ran alone.
  if (exclusive_ && ctx_->tracer().enabled()) {
    const std::vector<trace::TraceEvent> events = ctx_->tracer().Snapshot();
    std::map<std::string, std::unique_ptr<LatencyHistogram>> per_name;
    for (const trace::TraceEvent& e : events) {
      auto& hist = per_name[e.name];
      if (hist == nullptr) hist = std::make_unique<LatencyHistogram>();
      hist->RecordMicros(e.dur_us);
    }
    for (const auto& [name, hist] : per_name) {
      report.histograms[name] = hist->Summarize();
    }
    const std::string& out = ctx_->config().trace.chrome_out;
    if (!out.empty()) {
      const Status written = trace::WriteChromeTrace(events, out);
      if (written.ok()) report.trace_file = out;
    }
  }
  report.profile =
      obs::AssembleProfile(query_id_, JoinAlgorithmName(algorithm_),
                           report.wall_seconds, node_profiles_,
                           report.trace_file);
  report.profile.global_counters = report.counters;
  report.profile.network_bytes = report.network_bytes;
  report.profile.span_histograms = report.histograms;
  return report;
}

Result<BloomFilter> CombineBloomAtDbWorker0(EngineContext* ctx,
                                            uint32_t worker,
                                            const BloomFilter& local,
                                            const Tags& tags) {
  Network& net = ctx->network();
  const NodeId self = NodeId::Db(worker);
  SendBloom(&net, self, NodeId::Db(0), tags.bloom_local, local,
            &ctx->metrics());
  if (worker == 0) {
    BloomFilter global(local.params());
    for (uint32_t i = 0; i < ctx->num_db_workers(); ++i) {
      HJ_ASSIGN_OR_RETURN(BloomFilter received,
                          RecvBloom(&net, self, tags.bloom_local));
      HJ_RETURN_IF_ERROR(global.UnionWith(received));
    }
    for (uint32_t i = 0; i < ctx->num_db_workers(); ++i) {
      SendBloom(&net, self, NodeId::Db(i), tags.bloom_global, global,
                &ctx->metrics());
    }
  }
  return RecvBloom(&net, self, tags.bloom_global);
}

Result<HotKeySet> CombineHotKeysAtDbWorker0(EngineContext* ctx,
                                            uint32_t worker,
                                            const HeavyHitterSketch& local,
                                            uint32_t route_workers,
                                            const Tags& tags) {
  Network& net = ctx->network();
  const NodeId self = NodeId::Db(worker);
  SendSketch(&net, self, NodeId::Db(0), tags.sketch_local, local);
  if (worker == 0) {
    const SkewConfig& skew = ctx->config().skew;
    HeavyHitterSketch merged(local.capacity());
    for (uint32_t i = 0; i < ctx->num_db_workers(); ++i) {
      HJ_ASSIGN_OR_RETURN(HeavyHitterSketch received,
                          RecvSketch(&net, self, tags.sketch_local));
      merged.Merge(received);
    }
    const HotKeySet hot = PickHotKeys(merged, route_workers,
                                      skew.hot_multiplier, skew.max_hot_keys);
    if (!hot.empty()) {
      Metrics::PhaseScope phase_scope("shuffle");
      ctx->metrics().Max(metric::kShuffleHotKeys,
                         static_cast<int64_t>(hot.size()));
      if (obs::EventLog::Global().enabled()) {
        auto fields = obs::JsonValue::Object();
        fields.Set("hot_keys",
                   obs::JsonValue::Int(static_cast<int64_t>(hot.size())));
        fields.Set("route_workers",
                   obs::JsonValue::Int(static_cast<int64_t>(route_workers)));
        obs::EventLog::Global().Emit("hot_keys", QueryScope::Current(),
                                     std::move(fields));
      }
    }
    for (uint32_t i = 0; i < ctx->num_db_workers(); ++i) {
      SendHotKeys(&net, self, NodeId::Db(i), tags.hot_global, hot);
    }
  }
  return RecvHotKeys(&net, self, tags.hot_global);
}

Status JenAggregateAndReturn(EngineContext* ctx, uint32_t jen_worker,
                             HashAggregator* partial, const Tags& tags) {
  Network& net = ctx->network();
  const NodeId self = NodeId::Hdfs(jen_worker);
  const uint32_t designated = ctx->coordinator().designated_worker();
  const SchemaPtr partial_schema = partial->spec().ResultSchema();

  net.SendControl(self, NodeId::Hdfs(designated), tags.agg,
                  partial->Partial().Serialize());
  if (jen_worker != designated) return Status::OK();

  HashAggregator final_agg(partial->spec());
  for (uint32_t i = 0; i < ctx->num_jen_workers(); ++i) {
    HJ_ASSIGN_OR_RETURN(Message msg, net.Recv(self, tags.agg));
    if (msg.eos || msg.payload == nullptr) {
      return Status::Internal("expected partial aggregate, got EOS");
    }
    HJ_ASSIGN_OR_RETURN(
        RecordBatch batch,
        RecordBatch::Deserialize(*msg.payload, partial_schema));
    HJ_RETURN_IF_ERROR(final_agg.Merge(batch));
  }
  net.SendControl(self, NodeId::Db(0), tags.result,
                  final_agg.Finish().Serialize());
  return Status::OK();
}

Result<RecordBatch> DbReceiveResult(EngineContext* ctx, const AggSpec& agg,
                                    const Tags& tags) {
  HJ_ASSIGN_OR_RETURN(Message msg,
                      ctx->network().Recv(NodeId::Db(0), tags.result));
  if (msg.eos || msg.payload == nullptr) {
    return Status::Internal("expected final result, got EOS");
  }
  return RecordBatch::Deserialize(*msg.payload, agg.ResultSchema());
}

std::vector<uint32_t> OwnerOfJenWorkers(EngineContext* ctx) {
  const auto groups =
      ctx->coordinator().GroupWorkersForDb(ctx->num_db_workers());
  std::vector<uint32_t> owner(ctx->num_jen_workers(), 0);
  for (uint32_t g = 0; g < groups.size(); ++g) {
    for (uint32_t w : groups[g]) owner[w] = g;
  }
  return owner;
}

std::vector<NodeId> AllJenNodes(EngineContext* ctx) {
  std::vector<NodeId> nodes;
  nodes.reserve(ctx->num_jen_workers());
  for (uint32_t i = 0; i < ctx->num_jen_workers(); ++i) {
    nodes.push_back(NodeId::Hdfs(i));
  }
  return nodes;
}

std::vector<NodeId> AllDbNodes(EngineContext* ctx) {
  std::vector<NodeId> nodes;
  nodes.reserve(ctx->num_db_workers());
  for (uint32_t i = 0; i < ctx->num_db_workers(); ++i) {
    nodes.push_back(NodeId::Db(i));
  }
  return nodes;
}

std::vector<uint32_t> AllRows(size_t n) {
  std::vector<uint32_t> sel(n);
  for (uint32_t i = 0; i < n; ++i) sel[i] = i;
  return sel;
}

Result<std::vector<RecordBatch>> FilterBatchesByBloom(
    const std::vector<RecordBatch>& batches, const std::string& column,
    const BloomFilter& bloom) {
  std::vector<RecordBatch> out;
  out.reserve(batches.size());
  for (const RecordBatch& batch : batches) {
    std::vector<uint32_t> sel = AllRows(batch.num_rows());
    HJ_RETURN_IF_ERROR(FilterByBloom(batch, column, bloom, &sel));
    if (!sel.empty()) out.push_back(batch.Gather(sel));
  }
  return out;
}

uint32_t HashTableShards(EngineContext* ctx) {
  const uint32_t threads = ctx->exec_threads();
  return threads == 1 ? 1 : 2 * threads;
}

JoinSide DbJoinSide(const PreparedQuery& prepared) {
  return {prepared.db_proj_schema, prepared.query.db.alias,
          prepared.db_key_idx};
}

JoinSide HdfsJoinSide(const PreparedQuery& prepared) {
  return {prepared.hdfs_out_schema, prepared.query.hdfs.alias,
          prepared.hdfs_key_idx};
}

Status FinishJoinBuild(EngineContext* ctx, GraceHashJoin* join) {
  trace::Span span(&ctx->tracer(), trace::span::kHtFinalize,
                   trace::span::kCatJoin);
  return join->FinishBuild(ctx->exec_pool());
}

ParallelProbe::ParallelProbe(EngineContext* ctx, NodeId node,
                             GraceHashJoin* join, HashAggregator* agg,
                             const char* probe_span)
    : ctx_(ctx), node_(node), join_(join), agg_(agg), probe_span_(probe_span) {
  const uint32_t threads = ctx->exec_threads();
  for (uint32_t t = 0; t < threads; ++t) {
    // Single-threaded: the one probe thread aggregates straight into agg.
    HashAggregator* sink = agg;
    if (threads > 1) {
      partials_.push_back(std::make_unique<HashAggregator>(agg->spec()));
      sink = partials_.back().get();
    }
    threads_.push_back(join->MakeProbeThread(sink));
  }
}

Status ParallelProbe::Feed(RecordBatch&& batch) {
  if (pipe_ == nullptr) {
    pipe_ = std::make_unique<BatchMorselPipe>(
        static_cast<uint32_t>(threads_.size()),
        [this](uint32_t t, RecordBatch&& b) { return Probe(t, b); }, node_,
        "probe");
  }
  return pipe_->Feed(std::move(batch));
}

Status ParallelProbe::Probe(uint32_t thread, const RecordBatch& batch) {
  if (probe_span_ == nullptr) return threads_[thread]->Probe(batch);
  trace::Span span(&ctx_->tracer(), probe_span_, trace::span::kCatJoin, node_);
  span.set_bytes(static_cast<int64_t>(batch.num_rows()));
  return threads_[thread]->Probe(batch);
}

Status ParallelProbe::Finish() {
  if (pipe_ != nullptr) HJ_RETURN_IF_ERROR(pipe_->Finish());
  // Workers are joined: the probe threads and partials are ours now.
  for (auto& thread : threads_) HJ_RETURN_IF_ERROR(thread->Flush());
  for (auto& partial : partials_) HJ_RETURN_IF_ERROR(agg_->Merge(*partial));
  return join_->Finish();
}

void RecordBloomStats(EngineContext* ctx, const BloomFilter& bloom) {
  Metrics& m = ctx->metrics();
  m.Max(metric::kBloomFillPct,
        static_cast<int64_t>(bloom.FillRatio() * 100.0));
  m.Max(metric::kBloomEstFprPpm,
        static_cast<int64_t>(bloom.EstimatedFpr() * 1e6));
}

}  // namespace driver
}  // namespace hybridjoin
