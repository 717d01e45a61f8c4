#include "hybrid/driver_common.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/hash.h"
#include "jen/worker.h"
#include "obs/event_log.h"
#include "obs/query_registry.h"
#include "trace/chrome_trace.h"

namespace hybridjoin {
namespace driver {

Execution::Execution(EngineContext* ctx, JoinAlgorithm algorithm,
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
      own_since_us_(ctx->tracer().NowMicros()),
      tag_base_(ctx->network().AllocateTagBlock(kTagBlock)) {
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

Execution::~Execution() {
  // Leave the process list first; Unregister reports reservations the
  // governor still holds, which must be zero on every exit path (KILL
  // included) — the server test asserts the gauge below stays flat.
  const uint64_t leaked = obs::QueryRegistry::Global().Unregister(query_id_);
  if (leaked > 0) {
    ctx_->metrics().Add(metric::kServerGovernorLeakedBytes,
                        static_cast<int64_t>(leaked));
  }
  // Drop this query's metric slices (a report reads them in place) and
  // whatever spans no report took (a failed query never builds one),
  // without touching other in-flight queries'.
  ctx_->metrics().ClearScoped(query_id_);
  ctx_->tracer().Take(query_id_);
  ctx_->network().ReleaseTagBlock(tag_base_, kTagBlock);
}

void Execution::Mark(const std::string& name) {
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

ExecutionReport Execution::BuildReport() {
  ExecutionReport report;
  report.algorithm = algorithm_;
  report.wall_seconds = stopwatch_.ElapsedSeconds();
  std::map<NodeId, int64_t> wall_us;
  {
    std::lock_guard<std::mutex> lock(mu_);
    report.phases = marks_;
    wall_us = wall_us_;
  }
  // Scoped metric slices (network bytes among them) and spans are keyed by
  // this query's id, so every field below is this query's own even while
  // others run.
  std::vector<obs::NodeProfileSnapshot> nodes;
  for (const auto& [node, wall] : wall_us) {
    nodes.push_back({node.ToString(), wall,
                     ctx_->metrics().ScopedSnapshot(query_id_,
                                                    MetricNodeKey(node))});
  }
  RecordOwnSpan(trace::span::kDriverFinish);
  const std::vector<trace::TraceEvent> events = ctx_->tracer().Take(query_id_);
  std::map<std::string, LatencyHistogram> per_name;
  for (const trace::TraceEvent& e : events) {
    per_name[e.name].RecordMicros(e.dur_us);
  }
  for (const auto& [name, hist] : per_name) {
    report.histograms[name] = hist.Summarize();
  }
  const std::string& out = ctx_->config().trace.chrome_out;
  if (!out.empty() && !events.empty() &&
      trace::WriteChromeTrace(events, out).ok()) {
    report.trace_file = out;
  }
  report.profile =
      obs::AssembleProfile(query_id_, JoinAlgorithmName(algorithm_),
                           report.wall_seconds, nodes, report.trace_file);
  report.counters = report.profile.global_counters;
  report.network_bytes = NetworkBytesOf(report.counters);
  report.profile.network_bytes = report.network_bytes;
  report.profile.span_histograms = report.histograms;
  return report;
}

void Execution::RecordOwnSpan(const char* name) {
  trace::Tracer& tracer = ctx_->tracer();
  const int64_t now = tracer.NowMicros();
  if (tracer.enabled()) {
    trace::TraceEvent event;
    event.name = name;
    event.category = trace::span::kCatDriver;
    event.role = "driver";
    event.tid = trace::Tracer::CurrentThreadId();
    event.start_us = own_since_us_;
    event.dur_us = now - own_since_us_;
    event.query_id = query_id_;
    tracer.Record(event);
  }
  own_since_us_ = now;
}

uint64_t Execution::NewTag() {
  HJ_CHECK_LT(tags_used_, kTagBlock) << "execution ran out of stage tags";
  return tag_base_ + tags_used_++;
}

Status Execution::RunWorkers(const WorkerFn& db_worker,
                             const WorkerFn& jen_worker) {
  RecordOwnSpan(trace::span::kDriverSetup);
  std::vector<WorkerThread> threads;
  threads.reserve(ctx_->num_db_workers() + ctx_->num_jen_workers());
  auto spawn = [&](NodeId node, const char* role, const char* span,
                   const WorkerFn& fn) {
    threads.emplace_back(node, role, [this, node, span, &fn] {
      Stopwatch wall;
      Status st;
      {
        trace::Span driver_span(&ctx_->tracer(), span,
                                trace::span::kCatDriver);
        st = fn(node.index);
      }
      const int64_t wall_us = wall.ElapsedMicros();
      Metrics& metrics = ctx_->metrics();
      if (node.cluster == ClusterId::kHdfs) {
        // Feeds the jen.worker_wall_us histogram even with tracing disabled.
        metrics.Record(metric::kJenWorkerWallUs, wall_us);
      }
      // The query-wide memory high-water mark. Max, not Add: every worker
      // reports the same per-query governor. Skipped at zero so runs that
      // never charged the governor don't grow a dead gauge.
      const auto peak = static_cast<int64_t>(governor_->peak());
      if (peak > 0) metrics.Max(metric::kJoinMemPeakBytes, peak);
      std::lock_guard<std::mutex> lock(mu_);
      wall_us_[node] += wall_us;
      // First error wins, except that a worker that only saw a peer
      // abandon a round (kAborted) yields to that peer's own error.
      if (!st.ok() && (first_error_.ok() ||
                       first_error_.code() == StatusCode::kAborted)) {
        first_error_ = st;
      }
    });
  };
  for (uint32_t i = 0; i < ctx_->num_db_workers(); ++i) {
    spawn(NodeId::Db(i), "db_worker", trace::span::kDriverDbWorker,
          db_worker);
  }
  for (uint32_t w = 0; w < ctx_->num_jen_workers(); ++w) {
    spawn(NodeId::Hdfs(w), "jen_worker", trace::span::kDriverJenWorker,
          jen_worker);
  }
  for (WorkerThread& thread : threads) thread.Join();
  own_since_us_ = ctx_->tracer().NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  return first_error_;
}

Result<QueryResult> Execution::Finish(Result<RecordBatch> rows) {
  HJ_RETURN_IF_ERROR(rows.status());
  QueryResult result;
  result.rows = std::move(rows).value();
  result.report = BuildReport();
  return result;
}

namespace {

// DB-internal repartition hash; deliberately unrelated to both the table
// distribution hash and the JEN agreed hash.
constexpr uint64_t kDbRepartitionSeed = 0x0dbdbULL;

uint32_t DbPartition(int64_t key, uint32_t workers) {
  return static_cast<uint32_t>(
      HashInt64(static_cast<uint64_t>(key), kDbRepartitionSeed) % workers);
}

/// The hot-key agreement's fold result: the hot set for an exchange over
/// `route_workers` destinations (PickHotKeys with the SkewConfig constants),
/// recorded in the event log. One coordinator decides, so every sender
/// agrees on exactly which keys are hot and every (build, probe) row pair
/// meets on exactly one worker.
HotKeySet AgreeHotKeys(const HeavyHitterSketch& merged,
                       uint32_t route_workers) {
  HotKeySet hot = PickHotKeys(merged, route_workers,
                              SkewConfig::kHotMultiplier,
                              SkewConfig::kMaxHotKeys);
  if (hot.empty()) return hot;
  if (obs::EventLog::Global().enabled()) {
    auto fields = obs::JsonValue::Object();
    fields.Set("hot_keys",
               obs::JsonValue::Int(static_cast<int64_t>(hot.size())));
    fields.Set("route_workers",
               obs::JsonValue::Int(static_cast<int64_t>(route_workers)));
    obs::EventLog::Global().Emit("hot_keys", QueryScope::Current(),
                                 std::move(fields));
  }
  return hot;
}

}  // namespace

Exchange::Exchange(Execution* exec, Spec spec)
    : ctx_(exec->ctx()),
      governor_(exec->governor()),
      tag_(exec->NewTag()),
      spec_(std::move(spec)),
      kept_(spec_.receivers.size()),
      received_(spec_.receivers.size(), false) {}

Exchange::~Exchange() {
  for (const std::vector<RecordBatch>& rows : kept_) {
    for (const RecordBatch& batch : rows) governor_->Release(batch.ByteSize());
  }
}

size_t Exchange::ReceiverIndex(NodeId node) const {
  return std::find(spec_.receivers.begin(), spec_.receivers.end(), node) -
         spec_.receivers.begin();
}

Exchange::Sender::Sender(Exchange* exchange, NodeId self,
                         const HotKeySet* hot, uint32_t threads)
    : exchange_(exchange),
      spec_(exchange->spec_),
      self_(self),
      hot_(hot != nullptr && !hot->empty() && spec_.route != Route::kBroadcast
               ? hot
               : nullptr),
      tracer_(spec_.send_span != nullptr ? &exchange->ctx_->tracer()
                                         : nullptr),
      reach_(spec_.receivers),
      local_(exchange->ReceiverIndex(self)),
      pool_(BufferPool::Create()) {
  if (spec_.route == Route::kOwner) {
    const auto sender =
        std::find(spec_.senders.begin(), spec_.senders.end(), self) -
        spec_.senders.begin();
    reach_ = {spec_.receivers[spec_.owner[sender]]};
  }
  if (spec_.route == Route::kAgreedHash || spec_.route == Route::kDbHash) {
    for (uint32_t t = 0; t < threads; ++t) {
      scatters_.emplace_back(spec_.schema, spec_.receivers.size() + 1,
                             spec_.flush_rows,
                             [this, t](size_t slot, RecordBatch& rows) {
                               Emit(t, slot, rows);
                               return Status::OK();
                             });
    }
    kept_.resize(threads);
  }
  HJ_CHECK_GT(spec_.send_threads, 0u);
  send_threads_.reserve(spec_.send_threads);
  for (uint32_t i = 0; i < spec_.send_threads; ++i) {
    send_threads_.emplace_back(self, "sender", [this] {
      while (std::optional<Item> item = queue_.Pop()) {
        Deliver(std::move(*item));
      }
    });
  }
}

Exchange::Sender::~Sender() {
  if (!finished_) (void)Finish();
}

void Exchange::Sender::Deliver(Item item) {
  exchange_->governor_->Release(item.payload->size());
  // After a permanent failure or a KILL the payload is dropped unsent (the
  // stream is broken and the error sticky), but the queue keeps draining
  // so producers never block and Finish still sends EOS.
  if (failed_.load(std::memory_order_acquire)) return;
  Status st = obs::QueryRegistry::CheckCancelled();
  if (st.ok()) {
    st = SendWithRetry(&exchange_->ctx_->network(), self_, item.dest,
                       exchange_->tag_, std::move(item.payload));
  }
  if (st.ok()) return;
  std::lock_guard<std::mutex> lock(error_mu_);
  if (first_error_.ok()) first_error_ = st;
  failed_.store(true, std::memory_order_release);
}

void Exchange::Sender::Queue(std::span<const NodeId> dests,
                             std::vector<uint8_t> payload) {
  const auto shared = pool_->Share(std::move(payload));
  for (NodeId dest : dests) {
    exchange_->governor_->Reserve(shared->size());
    queue_.Push(Item{dest, shared});
  }
}

void Exchange::Sender::Ship(std::span<const NodeId> dests,
                            const RecordBatch& batch) {
  if (spec_.tuple_counter != nullptr) {
    exchange_->ctx_->metrics().Add(
        spec_.tuple_counter,
        static_cast<int64_t>(batch.num_rows() * dests.size()));
  }
  BinaryWriter w(pool_->Acquire());
  batch.SerializeTo(&w);
  Queue(dests, w.Release());
}

void Exchange::Sender::Append(uint32_t thread, const RecordBatch& batch) {
  if (spec_.route == Route::kBroadcast || spec_.route == Route::kOwner) {
    Ship(reach_, batch);
    return;
  }
  const auto parts = static_cast<uint32_t>(spec_.receivers.size());
  // Emit cannot fail.
  (void)scatters_[thread].Append(batch, spec_.key_column, [&](int64_t key) {
    if (hot_ != nullptr && hot_->Contains(key)) return parts;
    return spec_.route == Route::kAgreedHash ? AgreedPartition(key, parts)
                                             : DbPartition(key, parts);
  });
}

void Exchange::Sender::Emit(uint32_t thread, size_t slot, RecordBatch& batch) {
  if (slot < spec_.receivers.size()) {
    trace::Span span(tracer_, spec_.send_span, trace::span::kCatExchange);
    SendTo(static_cast<uint32_t>(slot), batch);
    return;
  }
  // A hot row took the hybrid route: the hot set shaped this exchange.
  Metrics& metrics = exchange_->ctx_->metrics();
  metrics.Max(metric::kShuffleHotKeys, static_cast<int64_t>(hot_->size()));
  if (spec_.hot_mode == HotMode::kBroadcast) {
    metrics.Add(metric::kShuffleHotRowsBuild,
                static_cast<int64_t>(batch.num_rows()));
    metrics.Add(metric::kShuffleBroadcastBytes,
                static_cast<int64_t>(batch.ByteSize() *
                                     spec_.receivers.size()));
    Ship(spec_.receivers, batch);
  } else {
    exchange_->governor_->Reserve(batch.ByteSize());
    kept_[thread].push_back(std::move(batch));
  }
}

void Exchange::Sender::SendTo(uint32_t receiver, const RecordBatch& batch) {
  Ship({&spec_.receivers[receiver], 1}, batch);
}

void Exchange::Sender::SendPayload(uint32_t receiver,
                                   std::vector<uint8_t> payload) {
  Queue({&spec_.receivers[receiver], 1}, std::move(payload));
}

Status Exchange::Sender::Finish() {
  HJ_CHECK(!finished_) << "Exchange::Sender::Finish called twice";
  finished_ = true;
  for (uint32_t t = 0; t < scatters_.size(); ++t) {
    (void)scatters_[t].FlushAll();
    if (!kept_[t].empty()) exchange_->Keep(local_, std::move(kept_[t]));
  }
  // The send threads drain the closed queue before they exit.
  queue_.Close();
  for (WorkerThread& thread : send_threads_) thread.Join();
  // EOS is a protocol obligation: it goes out even on a broken stream so
  // receivers unblock and observe the error through their own channels.
  for (NodeId dest : reach_) {
    exchange_->ctx_->network().SendEos(self_, dest, exchange_->tag_);
  }
  std::lock_guard<std::mutex> lock(error_mu_);
  return first_error_;
}

void Exchange::Keep(size_t receiver, std::vector<RecordBatch> rows) {
  std::lock_guard<std::mutex> lock(kept_mu_);
  for (RecordBatch& batch : rows) {
    if (received_[receiver]) {
      governor_->Release(batch.ByteSize());
    } else {
      kept_[receiver].push_back(std::move(batch));
    }
  }
}

Exchange::Sender Exchange::Open(NodeId self, const HotKeySet* hot,
                                uint32_t threads) {
  return Sender(this, self, hot, threads);
}

Status Exchange::Send(NodeId self, const std::vector<RecordBatch>& batches,
                      const HotKeySet* hot) {
  Sender sender = Open(self, hot, 1);
  for (const RecordBatch& batch : batches) sender.Append(0, batch);
  return sender.Finish();
}

Status Exchange::ReceivePayloads(NodeId self, const PayloadFn& fn) {
  auto streams = static_cast<uint32_t>(spec_.senders.size());
  if (spec_.route == Route::kOwner) {
    streams = static_cast<uint32_t>(std::count(
        spec_.owner.begin(), spec_.owner.end(), ReceiverIndex(self)));
  }
  StreamReceiver receiver(&ctx_->network(), self, tag_, streams);
  Status st;
  while (std::optional<Message> msg = receiver.Next()) {
    if (st.ok()) st = fn(msg->from, *msg->payload);
  }
  return st.ok() ? receiver.status() : st;
}

Status Exchange::Receive(NodeId self,
                         const std::function<Status(RecordBatch&&)>& fn) {
  Status st = ReceivePayloads(
      self, [&](NodeId, const std::vector<uint8_t>& payload) {
        HJ_ASSIGN_OR_RETURN(RecordBatch batch,
                            RecordBatch::Deserialize(payload, spec_.schema));
        return fn(std::move(batch));
      });
  // Hot rows this node kept. After a full drain its own sender handed them
  // over before its EOS; after a receive error that sender may still be
  // running, and Keep releases whatever it hands over from now on.
  const size_t local = ReceiverIndex(self);
  std::vector<RecordBatch> kept;
  {
    std::lock_guard<std::mutex> lock(kept_mu_);
    received_[local] = true;
    kept.swap(kept_[local]);
  }
  int64_t rows = 0;
  uint64_t bytes = 0;
  for (RecordBatch& batch : kept) {
    rows += static_cast<int64_t>(batch.num_rows());
    bytes += batch.ByteSize();
    if (st.ok()) st = fn(std::move(batch));
  }
  if (bytes > 0) governor_->Release(bytes);
  if (rows > 0) ctx_->metrics().Add(metric::kShuffleHotRowsProbe, rows);
  return st;
}

Result<std::vector<RecordBatch>> Exchange::ReceiveAll(NodeId self) {
  std::vector<RecordBatch> out;
  HJ_RETURN_IF_ERROR(Receive(self, [&](RecordBatch&& batch) {
    out.push_back(std::move(batch));
    return Status::OK();
  }));
  return out;
}

Coordinate::Coordinate(Execution* exec, std::vector<NodeId> participants,
                       NodeId coordinator)
    : net_(&exec->ctx()->network()),
      metrics_(&exec->ctx()->metrics()),
      tag_(exec->NewTag()),
      participants_(std::move(participants)),
      coordinator_(coordinator) {}

Coordinate::Coordinate(Execution* exec, std::vector<NodeId> participants,
                       NodeId coordinator, std::vector<NodeId> targets)
    : Coordinate(exec, std::move(participants), coordinator) {
  for (NodeId target : targets) targets_.emplace_back(target, coordinator);
}

Coordinate Coordinate::Multicast(
    Execution* exec, const std::vector<std::vector<uint32_t>>& groups) {
  Coordinate round(exec, {}, NodeId::Db(0));
  for (uint32_t g = 0; g < groups.size(); ++g) {
    for (uint32_t w : groups[g]) {
      round.targets_.emplace_back(NodeId::Hdfs(w), NodeId::Db(g));
    }
  }
  return round;
}

bool Coordinate::IsTarget(NodeId node) const {
  return std::any_of(targets_.begin(), targets_.end(),
                     [node](const auto& entry) { return entry.first == node; });
}

std::vector<NodeId> Coordinate::TargetsOf(NodeId self) const {
  std::vector<NodeId> out;
  for (const auto& [target, from] : targets_) {
    if (from == self) out.push_back(target);
  }
  return out;
}

void Coordinate::ScatterFailure(NodeId self) const {
  for (NodeId target : TargetsOf(self)) net_->SendEos(self, target, tag_);
}

Result<BloomFilter> UnionBlooms(EngineContext* ctx, const Coordinate& round,
                                NodeId self, const BloomFilter* local,
                                const BloomParams& params) {
  std::optional<BloomFilter> global;  // built on the coordinator only
  auto accumulator = [&]() -> BloomFilter& {
    if (!global) global.emplace(params);
    return *global;
  };
  return round.Round(
      self, local,
      [&](BloomFilter&& filter) { return accumulator().UnionWith(filter); },
      [&] {
        BloomFilter& merged = accumulator();
        ctx->metrics().Max(metric::kBloomFillPct,
                           static_cast<int64_t>(merged.FillRatio() * 100.0));
        ctx->metrics().Max(metric::kBloomEstFprPpm,
                           static_cast<int64_t>(merged.EstimatedFpr() * 1e6));
        return std::move(merged);
      });
}

Result<RecordBatch> FinalAggregate(const Coordinate& round, NodeId self,
                                   const AggSpec& spec,
                                   const HashAggregator* partial) {
  HashAggregator merged(spec);
  const RecordBatch rows =
      partial != nullptr ? partial->Partial() : RecordBatch();
  return round.Round(
      self, partial != nullptr ? &rows : nullptr,
      [&](RecordBatch&& batch) { return merged.Merge(batch); },
      [&] { return merged.Finish(); }, spec.ResultSchema());
}

DbBloomPrefix::DbBloomPrefix(Execution* exec, const PreparedQuery& prepared,
                             const PrefixState* carried,
                             const BloomPrefixOptions& options)
    : exec_(exec),
      prepared_(prepared),
      carried_(carried),
      options_(options),
      combine_(exec, AllNodes(exec->ctx(), ClusterId::kDb), NodeId::Db(0),
               AllNodes(exec->ctx(), ClusterId::kDb)),
      hot_(exec, AllNodes(exec->ctx(), ClusterId::kDb), NodeId::Db(0),
           AllNodes(exec->ctx(), ClusterId::kDb)),
      to_jen_(Coordinate::Multicast(
          exec, exec->ctx()->coordinator().GroupWorkersForDb(
                    exec->ctx()->num_db_workers()))) {}

BloomPrefix DbBloomPrefix::Run(uint32_t worker, Status* status) const {
  EngineContext* ctx = exec_->ctx();
  const HybridQuery& query = prepared_.query;
  const NodeId self = NodeId::Db(worker);
  BloomPrefix out{BloomFilter(),
                  HeavyHitterSketch(SkewConfig::kSketchCapacity),
                  HotKeySet(), 0};
  const char* mark = options_.built_mark;
  if (carried_ != nullptr) {
    out.bloom = carried_->global_bloom;
    out.sketch = carried_->sketches[worker];
    mark = "bf_db_carried";
  } else {
    bool used_index = false;
    HeavyHitterSketch* sketch = options_.feed_sketch ? &out.sketch : nullptr;
    Result<BloomFilter> local = ctx->db().worker(worker)->BuildLocalBloom(
        query.db.table, query.db.predicate, query.db.join_key,
        prepared_.bloom_params, &used_index, sketch, &out.qualifying_rows);
    status->Update(local.status());
    out.bloom = local.ok() ? std::move(local).value()
                           : BloomFilter(prepared_.bloom_params);
    Result<BloomFilter> global = UnionBlooms(ctx, combine_, self, &out.bloom,
                                             prepared_.bloom_params);
    out.bloom = std::move(global).ValueOr(status, std::move(out.bloom));
  }
  if (options_.to_jen) to_jen_.Scatter(self, out.bloom);
  if (worker == 0) exec_->Mark(mark);
  if (options_.route_workers > 0) {
    // The route width is the caller's exchange's, which a carried prefix
    // could not know, so the hot set is agreed here even when resuming.
    HeavyHitterSketch merged(out.sketch.capacity());
    out.hot = hot_.Round(
                      self, &out.sketch,
                      [&](HeavyHitterSketch&& sketch) {
                        merged.Merge(sketch);
                        return Status::OK();
                      },
                      [&] {
                        return AgreeHotKeys(merged, options_.route_workers);
                      })
                  .ValueOr(status);
    if (options_.to_jen) to_jen_.Scatter(self, out.hot);
    if (worker == 0 && !out.hot.empty()) exec_->Mark("hot_set_sent");
  }
  return out;
}

void DbBloomPrefix::Receive(uint32_t worker, BloomFilter* bloom,
                            HotKeySet* hot, Status* status) const {
  const NodeId self = NodeId::Hdfs(worker);
  *bloom = to_jen_.Receive<BloomFilter>(self).ValueOr(status);
  if (options_.route_workers > 0) {
    *hot = to_jen_.Receive<HotKeySet>(self).ValueOr(status);
  }
}

SemijoinFilter::SemijoinFilter(Execution* exec, const PreparedQuery& prepared)
    : exec_(exec),
      prepared_(prepared),
      keys_(exec, {.senders = AllNodes(exec->ctx(), ClusterId::kDb),
                   .receivers = AllNodes(exec->ctx(), ClusterId::kHdfs)}),
      bitmaps_(exec, {.senders = AllNodes(exec->ctx(), ClusterId::kHdfs),
                      .receivers = AllNodes(exec->ctx(), ClusterId::kDb)}) {}

void SemijoinFilter::Ship(uint32_t worker, std::vector<RecordBatch> t_prime,
                          Exchange* out, Status* status) {
  EngineContext* ctx = exec_->ctx();
  const NodeId self = NodeId::Db(worker);
  const uint32_t n = ctx->num_jen_workers();
  const size_t key_idx = prepared_.db_key_idx;
  Status& st = *status;
  if (!st.ok()) t_prime.clear();
  // Whole parts: nothing is emitted before the bitmaps come back.
  BatchScatter parts(prepared_.db_proj_schema, n, BatchScatter::kNoFlush,
                     nullptr);
  for (const RecordBatch& batch : t_prime) {
    (void)parts.Append(batch, key_idx,
                       [n](int64_t key) { return AgreedPartition(key, n); });
  }
  Exchange::Sender key_lists = keys_.Open(self);
  for (uint32_t p = 0; p < n && st.ok(); ++p) {
    BinaryWriter keys;
    keys.PutVarint(parts.pending(p).num_rows());
    ForEachIntKey(parts.pending(p).column(key_idx),
                  [&keys](size_t, int64_t key) { keys.PutI64(key); });
    ctx->metrics().Add(metric::kSemijoinKeyBytesSent,
                       static_cast<int64_t>(keys.size()));
    key_lists.SendPayload(p, keys.Release());
  }
  st.Update(key_lists.Finish());
  // A bitmap from every JEN worker that got this worker's key list.
  std::vector<std::vector<uint8_t>> bitmaps(n);
  st.Update(bitmaps_.ReceivePayloads(
      self, [&](NodeId from, const std::vector<uint8_t>& bitmap) {
        bitmaps[from.index] = bitmap;
        return Status::OK();
      }));
  Exchange::Sender sender = out->Open(self);
  for (uint32_t p = 0; p < n && st.ok(); ++p) {
    std::vector<uint32_t> keep;
    for (uint32_t r = 0; r < parts.pending(p).num_rows(); ++r) {
      if (r / 8 < bitmaps[p].size() && (bitmaps[p][r / 8] >> (r % 8)) & 1) {
        keep.push_back(r);
      }
    }
    if (!keep.empty()) sender.SendTo(p, parts.pending(p).Gather(keep));
  }
  if (worker == 0) exec_->Mark("semijoin_applied");
  st.Update(sender.Finish());
}

Status SemijoinFilter::Answer(uint32_t worker, const GraceHashJoin* join) {
  const NodeId self = NodeId::Hdfs(worker);
  Exchange::Sender answers = bitmaps_.Open(self);
  Status st = keys_.ReceivePayloads(
      self, [&](NodeId from, const std::vector<uint8_t>& keys) {
        Status parsed;
        BinaryReader r(keys);
        const uint64_t count = r.GetVarint().ValueOr(&parsed);
        std::vector<uint8_t> bitmap((count + 7) / 8, 0);
        for (uint64_t k = 0; k < count && parsed.ok(); ++k) {
          const int64_t key = r.GetI64().ValueOr(&parsed);
          if (parsed.ok() && join != nullptr && join->Contains(key)) {
            bitmap[k / 8] |= static_cast<uint8_t>(1u << (k % 8));
          }
        }
        answers.SendPayload(from.index, std::move(bitmap));
        return parsed;
      });
  st.Update(answers.Finish());
  return st;
}

std::vector<NodeId> AllNodes(EngineContext* ctx, ClusterId cluster) {
  const uint32_t count = cluster == ClusterId::kDb ? ctx->num_db_workers()
                                                   : ctx->num_jen_workers();
  std::vector<NodeId> nodes;
  for (uint32_t i = 0; i < count; ++i) nodes.push_back({cluster, i});
  return nodes;
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
    std::vector<uint32_t> sel(batch.num_rows());
    std::iota(sel.begin(), sel.end(), 0u);
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
