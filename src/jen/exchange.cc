#include "jen/exchange.h"

#include <chrono>

#include "common/query_scope.h"
#include "obs/query_registry.h"
#include "trace/tracer.h"

namespace hybridjoin {

Status SendWithRetry(Network* network, NodeId from, NodeId to, uint64_t tag,
                     std::shared_ptr<const std::vector<uint8_t>> payload,
                     uint32_t max_attempts, uint64_t backoff_us) {
  HJ_CHECK_GT(max_attempts, 0u);
  const uint64_t seq = network->ReserveSeq(from, to, tag);
  Status last;
  for (uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0 && backoff_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(backoff_us << (attempt - 1)));
    }
    last = network->Send(from, to, tag, payload, attempt, seq);
    if (last.ok() || !last.IsUnavailable()) return last;
  }
  return last;
}

BatchSender::BatchSender(Network* network, NodeId self, uint64_t tag,
                         uint32_t num_threads, Metrics* metrics,
                         const char* tuple_counter)
    : network_(network),
      self_(self),
      tag_(tag),
      metrics_(metrics),
      tuple_counter_(tuple_counter),
      governor_(MemoryGovernor::Current()),
      pool_(BufferPool::Create()) {
  HJ_CHECK_GT(num_threads, 0u);
  threads_.reserve(num_threads);
  const uint64_t query_id = QueryScope::Current();
  for (uint32_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, query_id] {
      QueryScope query_scope(query_id);
      MemoryGovernor::Scope governor_scope(governor_);
      trace::ThreadScope thread_scope(self_, "sender");
      while (auto item = queue_.Pop()) {
        if (governor_ != nullptr) governor_->Release(item->payload->size());
        // After a permanent failure further batches are dropped (not sent):
        // the stream is already broken and the error is sticky, but the
        // queue must keep draining so producers don't block.
        if (failed_.load(std::memory_order_acquire)) continue;
        // Exchange boundaries are cancellation points: a KILLed query
        // stops sending (the error is sticky) while the queue keeps
        // draining, and EOS still goes out in Finish so receivers unblock.
        if (obs::QueryRegistry::IsCancelled()) {
          RecordError(obs::QueryRegistry::CheckCancelled());
          continue;
        }
        Status s = SendWithRetry(network_, self_, item->dest, tag_,
                                 std::move(item->payload));
        if (!s.ok()) RecordError(s);
      }
    });
  }
}

void BatchSender::RecordError(const Status& s) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (first_error_.ok()) first_error_ = s;
  failed_.store(true, std::memory_order_release);
}

BatchSender::~BatchSender() {
  if (!finished_) {
    queue_.Close();
    for (auto& t : threads_) t.join();
    // Abandoned (never Finished) senders drop queued items without sending;
    // their governor charges still have to come back.
    while (auto item = queue_.TryPop()) {
      if (governor_ != nullptr) governor_->Release(item->payload->size());
    }
  }
}

void BatchSender::Send(NodeId dest, const RecordBatch& batch) {
  const int64_t rows = static_cast<int64_t>(batch.num_rows());
  tuples_sent_.fetch_add(rows, std::memory_order_relaxed);
  if (metrics_ != nullptr && tuple_counter_ != nullptr) {
    metrics_->Add(tuple_counter_, rows);
  }
  BinaryWriter w(pool_->Acquire());
  batch.SerializeTo(&w);
  auto payload = pool_->Share(w.Release());
  if (governor_ != nullptr) governor_->Reserve(payload->size());
  queue_.Push(Item{dest, std::move(payload)});
}

void BatchSender::SendToAll(const std::vector<NodeId>& dests,
                            const RecordBatch& batch) {
  BinaryWriter w(pool_->Acquire());
  batch.SerializeTo(&w);
  SendSerialized(dests, pool_->Share(w.Release()),
                 static_cast<int64_t>(batch.num_rows()));
}

void BatchSender::SendSerialized(
    const std::vector<NodeId>& dests,
    std::shared_ptr<const std::vector<uint8_t>> payload,
    int64_t tuple_count) {
  for (NodeId dest : dests) {
    tuples_sent_.fetch_add(tuple_count, std::memory_order_relaxed);
    if (metrics_ != nullptr && tuple_counter_ != nullptr) {
      metrics_->Add(tuple_counter_, tuple_count);
    }
    if (governor_ != nullptr) governor_->Reserve(payload->size());
    queue_.Push(Item{dest, payload});
  }
}

Status BatchSender::Finish(const std::vector<NodeId>& dests) {
  HJ_CHECK(!finished_) << "BatchSender::Finish called twice";
  finished_ = true;
  queue_.Close();
  for (auto& t : threads_) t.join();
  // Drain anything the closed queue still holds (Close lets Pop continue
  // to drain, but the threads may have exited on the closed signal first).
  while (auto item = queue_.TryPop()) {
    if (governor_ != nullptr) governor_->Release(item->payload->size());
    if (failed_.load(std::memory_order_acquire)) continue;
    Status s = SendWithRetry(network_, self_, item->dest, tag_,
                             std::move(item->payload));
    if (!s.ok()) RecordError(s);
  }
  // EOS is a protocol obligation: it goes out even on a broken stream so
  // receivers unblock and observe the error through their own channels.
  for (NodeId dest : dests) {
    network_->SendEos(self_, dest, tag_);
  }
  return status();
}

Status ReceiveEach(Network* network, NodeId self, uint64_t tag,
                   uint32_t expected_senders, const SchemaPtr& schema,
                   const std::function<Status(RecordBatch&&)>& fn) {
  Status st;
  StreamReceiver receiver(network, self, tag, expected_senders);
  while (auto msg = receiver.Next()) {
    if (!st.ok()) continue;  // keep draining to honor the protocol
    auto batch = RecordBatch::Deserialize(*msg->payload, schema);
    st = batch.ok() ? fn(std::move(batch).value()) : batch.status();
  }
  return st.ok() ? receiver.status() : st;
}

Result<std::vector<RecordBatch>> ReceiveAllBatches(Network* network,
                                                   NodeId self, uint64_t tag,
                                                   uint32_t expected_senders,
                                                   const SchemaPtr& schema) {
  std::vector<RecordBatch> out;
  HJ_RETURN_IF_ERROR(ReceiveEach(network, self, tag, expected_senders, schema,
                                 [&](RecordBatch&& batch) {
                                   out.push_back(std::move(batch));
                                   return Status::OK();
                                 }));
  return out;
}

void SendBloom(Network* network, NodeId from, NodeId to, uint64_t tag,
               const BloomFilter& bloom, Metrics* metrics) {
  auto payload =
      std::make_shared<const std::vector<uint8_t>>(bloom.Serialize());
  if (metrics != nullptr) {
    metrics->Add(metric::kBloomFiltersSent, 1);
    metrics->Add(metric::kBloomBytesSent,
                 static_cast<int64_t>(payload->size()));
  }
  network->SendControl(from, to, tag, std::move(payload));
}

Result<BloomFilter> RecvBloom(Network* network, NodeId self, uint64_t tag) {
  HJ_ASSIGN_OR_RETURN(Message msg, network->Recv(self, tag));
  if (msg.eos || msg.payload == nullptr) {
    return Status::Internal("expected Bloom filter, got EOS");
  }
  return BloomFilter::Deserialize(*msg.payload);
}

void SendHotKeys(Network* network, NodeId from, NodeId to, uint64_t tag,
                 const HotKeySet& hot) {
  network->SendControl(
      from, to, tag,
      std::make_shared<const std::vector<uint8_t>>(hot.Serialize()));
}

Result<HotKeySet> RecvHotKeys(Network* network, NodeId self, uint64_t tag) {
  HJ_ASSIGN_OR_RETURN(Message msg, network->Recv(self, tag));
  if (msg.eos || msg.payload == nullptr) {
    return Status::Internal("expected hot-key set, got EOS");
  }
  return HotKeySet::Deserialize(*msg.payload);
}

void SendSketch(Network* network, NodeId from, NodeId to, uint64_t tag,
                const HeavyHitterSketch& sketch) {
  network->SendControl(
      from, to, tag,
      std::make_shared<const std::vector<uint8_t>>(sketch.Serialize()));
}

Result<HeavyHitterSketch> RecvSketch(Network* network, NodeId self,
                                     uint64_t tag) {
  HJ_ASSIGN_OR_RETURN(Message msg, network->Recv(self, tag));
  if (msg.eos || msg.payload == nullptr) {
    return Status::Internal("expected heavy-hitter sketch, got EOS");
  }
  return HeavyHitterSketch::Deserialize(*msg.payload);
}

Status SkewRouter::Append(const RecordBatch& batch,
                          const std::vector<uint32_t>& sel) {
  if (hot_ == nullptr) return cold_.Append(batch, sel);
  const ColumnVector& key_col = batch.column(key_column_);
  cold_sel_.clear();
  for (uint32_t r : sel) {
    const int64_t key = key_col.physical_type() == PhysicalType::kInt32
                            ? key_col.i32()[r]
                            : key_col.i64()[r];
    if (!hot_->Contains(key)) {
      cold_sel_.push_back(r);
      continue;
    }
    hot_pending_.AppendRowFrom(batch, r);
    ++hot_rows_;
    if (hot_pending_.num_rows() >= flush_rows_) {
      HJ_RETURN_IF_ERROR(hot_sink_(std::move(hot_pending_)));
      hot_pending_ = RecordBatch(schema_);
    }
  }
  return cold_.Append(batch, cold_sel_);
}

Status SkewRouter::FlushAll() {
  if (hot_ != nullptr && hot_pending_.num_rows() > 0) {
    HJ_RETURN_IF_ERROR(hot_sink_(std::move(hot_pending_)));
    hot_pending_ = RecordBatch(schema_);
  }
  return cold_.FlushAll();
}

std::vector<uint8_t> ScanRequest::Serialize() const {
  BinaryWriter w;
  if (predicate != nullptr) {
    w.PutU8(1);
    predicate->SerializeTo(&w);
  } else {
    w.PutU8(0);
  }
  w.PutVarint(projection.size());
  for (const auto& name : projection) w.PutString(name);
  if (bloom.has_value()) {
    w.PutU8(1);
    w.PutString(bloom_column);
    bloom->SerializeTo(&w);
  } else {
    w.PutU8(0);
  }
  return w.Release();
}

Result<ScanRequest> ScanRequest::Deserialize(
    const std::vector<uint8_t>& buf) {
  ScanRequest req;
  BinaryReader r(buf);
  HJ_ASSIGN_OR_RETURN(uint8_t has_pred, r.GetU8());
  if (has_pred != 0) {
    HJ_ASSIGN_OR_RETURN(req.predicate, Predicate::Deserialize(&r));
  }
  HJ_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  if (n > 4096) return Status::IOError("scan request projection too large");
  req.projection.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    HJ_ASSIGN_OR_RETURN(std::string name, r.GetString());
    req.projection.push_back(std::move(name));
  }
  HJ_ASSIGN_OR_RETURN(uint8_t has_bloom, r.GetU8());
  if (has_bloom != 0) {
    HJ_ASSIGN_OR_RETURN(req.bloom_column, r.GetString());
    HJ_ASSIGN_OR_RETURN(BloomFilter bloom, BloomFilter::Deserialize(&r));
    req.bloom = std::move(bloom);
  }
  if (!r.AtEnd()) return Status::IOError("scan request trailing bytes");
  return req;
}

}  // namespace hybridjoin
