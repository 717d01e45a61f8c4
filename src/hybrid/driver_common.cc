#include "hybrid/driver_common.h"

#include <memory>

#include "jen/worker.h"
#include "obs/event_log.h"
#include "obs/query_registry.h"
#include "trace/chrome_trace.h"

namespace hybridjoin {
namespace driver {

WorkerThread::WorkerThread(NodeId node, const char* role,
                           std::function<void()> fn)
    : thread_([node, role, fn = std::move(fn),
               query_id = QueryScope::Current(),
               governor = MemoryGovernor::Current()] {
        QueryScope query_scope(query_id);
        MemoryGovernor::Scope governor_scope(governor);
        trace::ThreadScope thread_scope(node, role);
        fn();
      }) {}

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
  // This query's scoped slices were consumed by the workers' profile
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

Execution::Execution(EngineContext* ctx, JoinAlgorithm algorithm,
                     uint64_t memory_budget_bytes)
    : ctx_(ctx),
      tags_(Tags::Allocate(&ctx->network())),
      report_(ctx, algorithm, memory_budget_bytes) {}

Execution::~Execution() {
  ctx_->network().ReleaseTagBlock(tags_.base, Tags::kWidth);
}

Status Execution::RunWorkers(const WorkerFn& db_worker,
                             const WorkerFn& jen_worker) {
  const uint32_t m = ctx_->num_db_workers();
  const uint32_t n = ctx_->num_jen_workers();
  {
    std::vector<WorkerThread> threads;
    threads.reserve(m + n);
    auto spawn = [&](NodeId node, const char* role, const char* span,
                     const WorkerFn& fn) {
      threads.emplace_back(node, role, [this, node, span, &fn] {
        Stopwatch wall;
        {
          trace::Span driver_span(&ctx_->tracer(), span,
                                  trace::span::kCatDriver);
          const Status st = fn(node.index);
          std::lock_guard<std::mutex> lock(mu_);
          first_error_.Update(st);
        }
        SendProfile(node, wall.ElapsedMicros());
      });
    };
    for (uint32_t i = 0; i < m; ++i) {
      spawn(NodeId::Db(i), "db_worker", trace::span::kDriverDbWorker,
            db_worker);
    }
    for (uint32_t w = 0; w < n; ++w) {
      spawn(NodeId::Hdfs(w), "jen_worker", trace::span::kDriverJenWorker,
            jen_worker);
    }
  }  // joins every worker
  report_.CollectProfiles(tags_, m + n);
  // The snapshots above captured this query's scoped slices cumulatively;
  // drop them so a later round's snapshots are pure deltas and
  // AssembleProfile's per-node sums stay exact (no worker is live here).
  ctx_->metrics().ClearScoped(report_.query_id());
  std::lock_guard<std::mutex> lock(mu_);
  return first_error_;
}

void Execution::SendProfile(NodeId node, int64_t wall_us) {
  Metrics& m = ctx_->metrics();
  if (node.cluster == ClusterId::kHdfs) {
    // Feeds the jen.worker_wall_us histogram even with tracing disabled.
    m.Record(metric::kJenWorkerWallUs, wall_us);
  }
  // The query-wide memory high-water mark, recorded into this node's slice
  // (and the global store) before the snapshot below captures it. Max, not
  // Add: every worker reports the same per-query governor. Skipped at zero
  // so runs that never charged the governor don't grow a dead gauge.
  const auto peak = static_cast<int64_t>(report_.governor()->peak());
  if (peak > 0) m.Max(metric::kJoinMemPeakBytes, peak);
  const obs::NodeProfileSnapshot snap =
      obs::SnapshotNodeProfile(&m, node, wall_us);
  ctx_->network().SendControl(node, NodeId::Db(0), tags_.profile,
                              obs::SerializeNodeProfile(snap));
}

Result<QueryResult> Execution::Finish(Result<RecordBatch> rows) {
  HJ_RETURN_IF_ERROR(rows.status());
  QueryResult result;
  result.rows = std::move(rows).value();
  result.report = report_.Finish();
  return result;
}

Status CombineBloom(EngineContext* ctx, NodeId self, NodeId coordinator,
                    uint32_t senders, const BloomFilter& local,
                    uint64_t local_tag, const std::vector<NodeId>& targets,
                    uint64_t global_tag) {
  Network& net = ctx->network();
  SendBloom(&net, self, coordinator, local_tag, local, &ctx->metrics());
  if (!(self == coordinator)) return Status::OK();
  Status st;
  BloomFilter global(local.params());
  for (uint32_t i = 0; i < senders && st.ok(); ++i) {
    Result<BloomFilter> received = RecvBloom(&net, self, local_tag);
    st = received.ok() ? global.UnionWith(received.value())
                       : received.status();
  }
  // The union's fill and realized-FPR estimate, as bloom.* gauges.
  ctx->metrics().Max(metric::kBloomFillPct,
                     static_cast<int64_t>(global.FillRatio() * 100.0));
  ctx->metrics().Max(metric::kBloomEstFprPpm,
                     static_cast<int64_t>(global.EstimatedFpr() * 1e6));
  for (NodeId target : targets) {
    SendBloom(&net, self, target, global_tag, global, &ctx->metrics());
  }
  return st;
}

Result<BloomFilter> CombineBloomAtDbWorker0(EngineContext* ctx,
                                            uint32_t worker,
                                            const BloomFilter& local,
                                            const Tags& tags) {
  const NodeId self = NodeId::Db(worker);
  HJ_RETURN_IF_ERROR(CombineBloom(
      ctx, self, NodeId::Db(0), ctx->num_db_workers(), local, tags.bloom_local,
      AllNodes(ctx, ClusterId::kDb), tags.bloom_global));
  return RecvBloom(&ctx->network(), self, tags.bloom_global);
}


namespace {

/// The skew-aware shuffle's coordinator step, mirroring the Bloom combine:
/// every DB worker ships its local heavy-hitter sketch to worker 0, which
/// merges them, picks the hot set for an exchange over `route_workers`
/// destinations (PickHotKeys with the SkewConfig knobs, recording the
/// shuffle.hot_keys gauge) and redistributes it; every caller returns with
/// the same global hot set. The single coordinator decision is what makes
/// the hybrid route safe: all senders agree on exactly which keys are hot,
/// so every (build, probe) row pair meets on exactly one worker.
Result<HotKeySet> CombineHotKeysAtDbWorker0(EngineContext* ctx,
                                            uint32_t worker,
                                            const HeavyHitterSketch& local,
                                            uint32_t route_workers,
                                            const Tags& tags) {
  Network& net = ctx->network();
  const NodeId self = NodeId::Db(worker);
  SendSketch(&net, self, NodeId::Db(0), tags.sketch_local, local);
  Status st;
  if (worker == 0) {
    const SkewConfig& skew = ctx->config().skew;
    HeavyHitterSketch merged(local.capacity());
    for (uint32_t i = 0; i < ctx->num_db_workers() && st.ok(); ++i) {
      Result<HeavyHitterSketch> received =
          RecvSketch(&net, self, tags.sketch_local);
      if (received.ok()) merged.Merge(received.value());
      st = received.status();
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
  Result<HotKeySet> hot = RecvHotKeys(&net, self, tags.hot_global);
  HJ_RETURN_IF_ERROR(st);
  return hot;
}

}  // namespace

BloomPrefix RunDbBloomPrefix(Execution* exec, const PreparedQuery& prepared,
                             uint32_t worker, const PrefixState* carried,
                             const BloomPrefixOptions& options,
                             Status* status) {
  EngineContext* ctx = exec->ctx();
  Network& net = ctx->network();
  const Tags& tags = exec->tags();
  const HybridQuery& query = prepared.query;
  const NodeId self = NodeId::Db(worker);
  BloomPrefix out{BloomFilter(),
                  HeavyHitterSketch(ctx->config().skew.sketch_capacity),
                  HotKeySet(), 0};
  const char* mark = options.built_mark;
  if (carried != nullptr) {
    out.bloom = carried->global_bloom;
    out.sketch = carried->sketches[worker];
    mark = "bf_db_carried";
  } else {
    bool used_index = false;
    HeavyHitterSketch* sketch = options.feed_sketch ? &out.sketch : nullptr;
    Result<BloomFilter> local = ctx->db().worker(worker)->BuildLocalBloom(
        query.db.table, query.db.predicate, query.db.join_key,
        prepared.bloom_params, &used_index, sketch, &out.qualifying_rows);
    status->Update(local.status());
    out.bloom = local.ok() ? std::move(local).value()
                           : BloomFilter(prepared.bloom_params);
    Result<BloomFilter> global =
        CombineBloomAtDbWorker0(ctx, worker, out.bloom, tags);
    out.bloom = std::move(global).ValueOr(status, std::move(out.bloom));
  }
  for (uint32_t w : options.forward_to) {
    SendBloom(&net, self, NodeId::Hdfs(w), tags.bloom_to_jen, out.bloom,
              &ctx->metrics());
  }
  if (worker == 0) exec->report().Mark(mark);
  if (options.route_workers > 0) {
    // The route width is the caller's exchange's, which a carried prefix
    // could not know, so the hot set is agreed here even when resuming.
    out.hot = CombineHotKeysAtDbWorker0(ctx, worker, out.sketch,
                                        options.route_workers, tags)
                  .ValueOr(status);
    for (uint32_t w : options.forward_to) {
      SendHotKeys(&net, self, NodeId::Hdfs(w), tags.hot_to_jen, out.hot);
    }
    if (worker == 0 && !out.hot.empty()) exec->report().Mark("hot_set_sent");
  }
  return out;
}

Status MergeAggregates(EngineContext* ctx, NodeId self, NodeId coordinator,
                       uint32_t senders, const HashAggregator& partial,
                       uint64_t tag, RecordBatch* final_rows) {
  Network& net = ctx->network();
  net.SendControl(self, coordinator, tag, partial.Partial().Serialize());
  if (!(self == coordinator)) return Status::OK();
  Status st;
  HashAggregator final_agg(partial.spec());
  const SchemaPtr partial_schema = partial.spec().ResultSchema();
  for (uint32_t i = 0; i < senders; ++i) {
    Result<Message> msg = net.Recv(self, tag);
    if (!msg.ok()) {
      st.Update(msg.status());
      break;
    }
    if (msg->eos || msg->payload == nullptr) {
      st.Update(Status::Internal("expected partial aggregate, got EOS"));
      continue;
    }
    Result<RecordBatch> batch =
        RecordBatch::Deserialize(*msg->payload, partial_schema);
    st.Update(batch.ok() ? final_agg.Merge(batch.value()) : batch.status());
  }
  *final_rows = final_agg.Finish();
  return st;
}

Status JenAggregateAndReturn(EngineContext* ctx, uint32_t jen_worker,
                             const HashAggregator& partial,
                             const Tags& tags) {
  const NodeId self = NodeId::Hdfs(jen_worker);
  const NodeId designated =
      NodeId::Hdfs(ctx->coordinator().designated_worker());
  RecordBatch rows;
  const Status st = MergeAggregates(ctx, self, designated,
                                    ctx->num_jen_workers(), partial,
                                    tags.agg, &rows);
  if (self == designated) {
    ctx->network().SendControl(self, NodeId::Db(0), tags.result,
                               rows.Serialize());
  }
  return st;
}

Status DbReceiveResult(EngineContext* ctx, const AggSpec& agg,
                       const Tags& tags, RecordBatch* rows) {
  HJ_ASSIGN_OR_RETURN(Message msg,
                      ctx->network().Recv(NodeId::Db(0), tags.result));
  if (msg.eos || msg.payload == nullptr) {
    return Status::Internal("expected final result, got EOS");
  }
  HJ_ASSIGN_OR_RETURN(*rows,
                      RecordBatch::Deserialize(*msg.payload,
                                               agg.ResultSchema()));
  return Status::OK();
}

std::vector<NodeId> AllNodes(EngineContext* ctx, ClusterId cluster) {
  const uint32_t count = cluster == ClusterId::kDb ? ctx->num_db_workers()
                                                   : ctx->num_jen_workers();
  std::vector<NodeId> nodes;
  for (uint32_t i = 0; i < count; ++i) nodes.push_back({cluster, i});
  return nodes;
}

std::vector<uint32_t> AllRows(size_t n) {
  std::vector<uint32_t> sel(n);
  for (uint32_t i = 0; i < n; ++i) sel[i] = i;
  return sel;
}

std::vector<RecordBatch> ScanDbTable(EngineContext* ctx,
                                     const HybridQuery& query,
                                     uint32_t worker, Status* status) {
  return ctx->db()
      .worker(worker)
      ->ScanFilterProject(query.db.table, query.db.predicate,
                          query.db.projection, &ctx->metrics())
      .ValueOr(status);
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

struct LocalJoin::Side {
  SchemaPtr schema;
  std::string alias;
  size_t key;

  /// T' (`db`) or L' as prepared.
  static Side Of(const PreparedQuery& prepared, bool db) {
    if (db) {
      return {prepared.db_proj_schema, prepared.query.db.alias,
              prepared.db_key_idx};
    }
    return {prepared.hdfs_out_schema, prepared.query.hdfs.alias,
            prepared.hdfs_key_idx};
  }
};

LocalJoin::LocalJoin(EngineContext* ctx, const PreparedQuery& prepared,
                     bool build_db)
    : LocalJoin(ctx, prepared.query, Side::Of(prepared, build_db),
                Side::Of(prepared, !build_db)) {}

LocalJoin::LocalJoin(EngineContext* ctx, const HybridQuery& query,
                     const Side& build, const Side& probe)
    : agg(query.agg),
      spill(ctx->config().jen.spill_write_bps,
            ctx->config().jen.spill_read_bps, &ctx->metrics()),
      join(build.schema, build.alias, build.key, probe.schema, probe.alias,
           probe.key, query.post_join_predicate, &agg, &ctx->metrics(),
           &spill) {}

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

}  // namespace driver
}  // namespace hybridjoin
