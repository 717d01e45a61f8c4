#include "exec/grace_join.h"

#include "common/hash.h"
#include "common/query_scope.h"
#include "obs/event_log.h"

namespace hybridjoin {

namespace {
constexpr size_t kPendingFlushRows = 4096;
/// Recursive-repartition bounds: past kMaxRepartitionDepth an oversized
/// partition is joined by block-nested loop instead (all-duplicate keys
/// cannot be split by any re-salting).
constexpr uint32_t kMaxRepartitionDepth = 3;
constexpr uint32_t kRepartitionFanout = 4;

/// Recursive-repartition hash seed: every recursion level re-salts, so a
/// split that failed at depth d gets an independent chance at depth d+1.
/// (Depth 0 partitions by the hash table's own shard function instead.)
uint64_t SaltedSeed(uint32_t depth) {
  return 0x9eaceULL + static_cast<uint64_t>(depth) * 0x9e3779b97f4a7c15ULL;
}

/// What a one-shard JoinHashTable holds for `rows` rows of `batch_bytes`.
uint64_t TableBytes(uint64_t batch_bytes, size_t rows) {
  return batch_bytes + JoinHashTable::EntryBytes(rows) +
         JoinHashTable::BucketBytes(rows);
}

int64_t KeyAt(const ColumnVector& key, uint32_t row) {
  return key.physical_type() == PhysicalType::kInt32 ? key.i32()[row]
                                                     : key.i64()[row];
}

/// Splits a batch's rows into per-partition selections: by the resident
/// table's shard function at depth 0, by the depth-salted hash below it.
std::vector<std::vector<uint32_t>> RouteRows(const RecordBatch& batch,
                                             size_t key_column,
                                             uint32_t num_partitions,
                                             uint32_t depth) {
  std::vector<std::vector<uint32_t>> routed(num_partitions);
  const ColumnVector& key = batch.column(key_column);
  for (uint32_t r = 0; r < batch.num_rows(); ++r) {
    const int64_t k = KeyAt(key, r);
    const uint32_t p =
        depth == 0
            ? JoinHashTable::ShardOfKey(k, num_partitions)
            : static_cast<uint32_t>(
                  HashInt64(static_cast<uint64_t>(k), SaltedSeed(depth)) %
                  num_partitions);
    routed[p].push_back(r);
  }
  return routed;
}

}  // namespace

GraceHashJoin::GraceHashJoin(SchemaPtr build_schema, std::string build_alias,
                             size_t build_key, SchemaPtr probe_schema,
                             std::string probe_alias, size_t probe_key,
                             PredicatePtr post_join_predicate,
                             HashAggregator* aggregator, Metrics* metrics,
                             SpillArea* spill, GraceJoinOptions options)
    : build_schema_(std::move(build_schema)),
      build_alias_(std::move(build_alias)),
      build_key_(build_key),
      probe_schema_(std::move(probe_schema)),
      probe_alias_(std::move(probe_alias)),
      probe_key_(probe_key),
      post_join_predicate_(std::move(post_join_predicate)),
      aggregator_(aggregator),
      metrics_(metrics),
      spill_(spill),
      options_(options),
      governor_(MemoryGovernor::Current()),
      effective_budget_(options.memory_budget_bytes != 0
                            ? options.memory_budget_bytes
                            : (governor_ != nullptr ? governor_->budget()
                                                    : 0)) {
  HJ_CHECK_GT(options_.num_partitions, 0u);
  HJ_CHECK(spill_ != nullptr);
  partitions_.resize(options_.num_partitions);
  for (auto& p : partitions_) p.build_pending = RecordBatch(build_schema_);
  if (governor_ != nullptr && governor_->budget() != 0) {
    spiller_token_ = governor_->RegisterSpiller(
        [this]() -> uint64_t {
          std::lock_guard<std::mutex> lock(mu_);
          return build_finished_ ? 0 : resident_bytes_;
        },
        [this](uint64_t want) { return SpillForGovernor(want); });
  }
}

GraceHashJoin::~GraceHashJoin() {
  if (governor_ != nullptr && spiller_token_ != 0) {
    governor_->UnregisterSpiller(spiller_token_);
  }
  if (governor_ != nullptr && resident_bytes_ > 0) {
    governor_->Release(resident_bytes_);
  }
}

uint32_t GraceHashJoin::PartitionOf(int64_t key) const {
  return JoinHashTable::ShardOfKey(key, options_.num_partitions);
}

bool GraceHashJoin::TryCharge(uint64_t bytes) {
  if (bytes == 0) return true;
  if (effective_budget_ != 0 && resident_bytes_ + bytes > effective_budget_) {
    return false;
  }
  if (governor_ != nullptr && !governor_->TryReserve(bytes)) return false;
  resident_bytes_ += bytes;
  return true;
}

void GraceHashJoin::ForceCharge(uint64_t bytes) {
  if (governor_ != nullptr) governor_->ForceReserve(bytes);
  resident_bytes_ += bytes;
}

void GraceHashJoin::Uncharge(uint64_t bytes) {
  if (governor_ != nullptr) governor_->Release(bytes);
  resident_bytes_ -= bytes;
}

Status GraceHashJoin::FlushBuildPending(Partition* p) {
  if (p->build_pending.num_rows() == 0) return Status::OK();
  HJ_RETURN_IF_ERROR(spill_->Append(p->build_file, p->build_pending));
  p->build_pending = RecordBatch(build_schema_);
  return Status::OK();
}

Status GraceHashJoin::SpillLocked(Partition* victim) {
  victim->spilled = true;
  victim->build_file = spill_->Create();
  victim->probe_file = spill_->Create();
  ++spilled_count_;
  if (metrics_ != nullptr) {
    metrics_->Add(metric::kSpilledPartitions, 1);
  }
  for (const RecordBatch& batch : victim->build_batches) {
    HJ_RETURN_IF_ERROR(spill_->Append(victim->build_file, batch));
  }
  victim->build_batches.clear();
  const uint64_t freed = victim->resident_bytes;
  Uncharge(freed);
  victim->resident_bytes = 0;
  if (obs::EventLog::Global().enabled()) {
    auto fields = obs::JsonValue::Object();
    fields.Set("freed_bytes",
               obs::JsonValue::Int(static_cast<int64_t>(freed)));
    fields.Set("spilled_partitions",
               obs::JsonValue::Int(static_cast<int64_t>(spilled_count_)));
    obs::EventLog::Global().Emit("spill", QueryScope::Current(),
                                 std::move(fields));
  }
  return Status::OK();
}

uint64_t GraceHashJoin::SpillLargestResidentLocked(Status* status) {
  *status = Status::OK();
  Partition* victim = nullptr;
  for (auto& p : partitions_) {
    if (p.spilled) continue;
    if (victim == nullptr || p.resident_bytes > victim->resident_bytes) {
      victim = &p;
    }
  }
  if (victim == nullptr || victim->resident_bytes == 0) return 0;
  const uint64_t freed = victim->resident_bytes;
  *status = SpillLocked(victim);
  return status->ok() ? freed : 0;
}

uint64_t GraceHashJoin::SpillForGovernor(uint64_t want) {
  std::lock_guard<std::mutex> lock(mu_);
  if (build_finished_) return 0;
  uint64_t freed = 0;
  while (freed < want) {
    Status st;
    const uint64_t f = SpillLargestResidentLocked(&st);
    if (!st.ok()) {
      if (callback_status_.ok()) callback_status_ = st;
      break;
    }
    if (f == 0) break;
    freed += f;
  }
  return freed;
}

Status GraceHashJoin::AddBuild(RecordBatch&& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (build_finished_) return Status::Internal("AddBuild after FinishBuild");
  build_rows_ += static_cast<int64_t>(batch.num_rows());
  auto routed = RouteRows(batch, build_key_, options_.num_partitions, 0);
  for (uint32_t pi = 0; pi < options_.num_partitions; ++pi) {
    if (routed[pi].empty()) continue;
    Partition& p = partitions_[pi];
    RecordBatch rows = batch.Gather(routed[pi]);
    const uint64_t bytes =
        rows.ByteSize() + JoinHashTable::EntryBytes(rows.num_rows());
    build_bytes_ += bytes;
    p.rows += rows.num_rows();
    // Charge before admitting the piece as resident. On refusal, evict the
    // largest resident partition (possibly this one) and retry; when this
    // join has nothing left to evict, the piece's own partition goes to
    // disk — what holds the budget then is someone else's.
    while (!p.spilled && !TryCharge(bytes)) {
      Status st;
      const uint64_t freed = SpillLargestResidentLocked(&st);
      HJ_RETURN_IF_ERROR(st);
      if (freed == 0) HJ_RETURN_IF_ERROR(SpillLocked(&p));
    }
    if (!p.spilled) {
      p.build_batches.push_back(std::move(rows));
      p.resident_bytes += bytes;
      continue;
    }
    // The partition is spilled (maybe just now, by the loop above): the
    // piece belongs on its spill file, uncharged.
    for (size_t r = 0; r < rows.num_rows(); ++r) {
      p.build_pending.AppendRowFrom(rows, r);
    }
    if (p.build_pending.num_rows() >= kPendingFlushRows) {
      HJ_RETURN_IF_ERROR(FlushBuildPending(&p));
    }
  }
  return Status::OK();
}

Status GraceHashJoin::FinishBuild(ThreadPool* pool) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (build_finished_) return Status::OK();
    build_finished_ = true;
  }
  // Unregister outside mu_: a concurrent Reserve holds the governor's
  // spiller lock while waiting on mu_ in our callback, so taking them in
  // the other order here would deadlock.
  if (governor_ != nullptr && spiller_token_ != 0) {
    governor_->UnregisterSpiller(spiller_token_);
    spiller_token_ = 0;
  }
  HJ_RETURN_IF_ERROR(callback_status_);
  std::vector<RecordBatch> resident;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Partition& p : partitions_) {
      build_bytes_ += JoinHashTable::BucketBytes(p.rows);
    }
    // The bucket directories are charged before they exist, like every
    // other byte; a refusal spills the largest resident partition, whose
    // directory is then no longer needed.
    while (true) {
      uint64_t buckets = 0;
      for (const Partition& p : partitions_) {
        if (!p.spilled) buckets += JoinHashTable::BucketBytes(p.rows);
      }
      if (TryCharge(buckets)) break;
      Status st;
      const uint64_t freed = SpillLargestResidentLocked(&st);
      HJ_RETURN_IF_ERROR(st);
      if (freed == 0) break;  // nothing resident, so no buckets either
    }
    for (Partition& p : partitions_) {
      if (p.spilled) {
        HJ_RETURN_IF_ERROR(FlushBuildPending(&p));
        continue;
      }
      p.resident_bytes += JoinHashTable::BucketBytes(p.rows);
      for (RecordBatch& batch : p.build_batches) {
        resident.push_back(std::move(batch));
      }
      p.build_batches.clear();
    }
  }
  // Every byte the table will hold is charged above, so it charges nobody.
  table_ = std::make_unique<JoinHashTable>(build_key_, options_.num_partitions,
                                           /*governor=*/nullptr);
  HJ_RETURN_IF_ERROR(table_->AddBatchesParallel(std::move(resident), pool));
  HJ_RETURN_IF_ERROR(table_->FinalizeParallel(pool));
  RecordTableShape();
  inline_probe_ = MakeProbeThread(aggregator_);
  return Status::OK();
}

void GraceHashJoin::RecordTableShape() const {
  if (metrics_ == nullptr) return;
  metrics_->Add(metric::kJoinHtRows, static_cast<int64_t>(table_->num_rows()));
  metrics_->Max(metric::kJoinHtMaxChain,
                static_cast<int64_t>(table_->max_chain_length()));
  metrics_->Max(metric::kJoinHtLoadFactorPct,
                static_cast<int64_t>(table_->load_factor() * 100.0));
  if (table_->num_shards() > 1) {
    // Shard-skew visibility: histogram values are row counts, not micros.
    // Record() (vs GetHistogram()->RecordMicros()) also lands the values in
    // the calling node's scoped slice for the query profile.
    for (uint32_t s = 0; s < table_->num_shards(); ++s) {
      const auto rows = static_cast<int64_t>(table_->shard_rows(s));
      metrics_->Record(metric::kJoinBuildShardRows, rows);
      metrics_->Max(metric::kJoinBuildShardRowsMax, rows);
    }
  }
}

bool GraceHashJoin::Contains(int64_t key) const {
  return partitions_[PartitionOf(key)].spilled || table_->Contains(key);
}

Status GraceHashJoin::AddProbe(const RecordBatch& batch) {
  if (inline_probe_ == nullptr) {
    return Status::Internal("AddProbe before FinishBuild");
  }
  return inline_probe_->Probe(batch);
}

// ------------------------------ ProbeThread -------------------------------

GraceHashJoin::ProbeThread::ProbeThread(GraceHashJoin* parent,
                                        HashAggregator* partial)
    : parent_(parent),
      prober_(parent->table_.get(), parent->build_schema_,
              parent->build_alias_, parent->probe_schema_,
              parent->probe_alias_, parent->probe_key_,
              parent->post_join_predicate_, partial, parent->metrics_) {
  if (parent_->spilled_count_ > 0) {
    spill_pending_.assign(parent_->partitions_.size(),
                          RecordBatch(parent_->probe_schema_));
  }
}

Status GraceHashJoin::ProbeThread::Probe(const RecordBatch& batch) {
  // Nothing spilled: the whole batch probes the resident table, unrouted.
  if (spill_pending_.empty()) return prober_.ProbeBatch(batch);
  // Rows of spilled partitions divert to their spill files; the rest probe
  // as one batch.
  const ColumnVector& key = batch.column(parent_->probe_key_);
  std::vector<uint32_t> resident;
  resident.reserve(batch.num_rows());
  for (uint32_t r = 0; r < batch.num_rows(); ++r) {
    const uint32_t pi = parent_->PartitionOf(KeyAt(key, r));
    const Partition& p = parent_->partitions_[pi];
    if (!p.spilled) {
      resident.push_back(r);
      continue;
    }
    RecordBatch& pending = spill_pending_[pi];
    pending.AppendRowFrom(batch, r);
    if (pending.num_rows() >= kPendingFlushRows) {
      HJ_RETURN_IF_ERROR(parent_->spill_->Append(p.probe_file, pending));
      pending = RecordBatch(parent_->probe_schema_);
    }
  }
  if (resident.size() == batch.num_rows()) return prober_.ProbeBatch(batch);
  if (resident.empty()) return Status::OK();
  return prober_.ProbeBatch(batch.Gather(resident));
}

Status GraceHashJoin::ProbeThread::Flush() {
  for (size_t pi = 0; pi < spill_pending_.size(); ++pi) {
    if (spill_pending_[pi].num_rows() == 0) continue;
    HJ_RETURN_IF_ERROR(parent_->spill_->Append(
        parent_->partitions_[pi].probe_file, spill_pending_[pi]));
    spill_pending_[pi] = RecordBatch(parent_->probe_schema_);
  }
  return prober_.Flush();
}

std::unique_ptr<GraceHashJoin::ProbeThread> GraceHashJoin::MakeProbeThread(
    HashAggregator* partial) {
  HJ_CHECK(table_ != nullptr);
  return std::unique_ptr<ProbeThread>(new ProbeThread(this, partial));
}

// --------------------------- Spilled-pair joins ---------------------------

Status GraceHashJoin::Repartition(SpillArea::FileId src,
                                  const SchemaPtr& schema, size_t key_column,
                                  uint32_t depth,
                                  const std::vector<SpillArea::FileId>& dst) {
  std::vector<RecordBatch> pending(dst.size(), RecordBatch(schema));
  HJ_RETURN_IF_ERROR(spill_->ForEach(
      src, schema, [&](RecordBatch&& batch) -> Status {
        auto routed = RouteRows(batch, key_column,
                                static_cast<uint32_t>(dst.size()), depth);
        for (size_t i = 0; i < dst.size(); ++i) {
          if (routed[i].empty()) continue;
          RecordBatch rows = batch.Gather(routed[i]);
          for (size_t r = 0; r < rows.num_rows(); ++r) {
            pending[i].AppendRowFrom(rows, r);
          }
          if (pending[i].num_rows() >= kPendingFlushRows) {
            HJ_RETURN_IF_ERROR(spill_->Append(dst[i], pending[i]));
            pending[i] = RecordBatch(schema);
          }
        }
        return Status::OK();
      }));
  for (size_t i = 0; i < dst.size(); ++i) {
    if (pending[i].num_rows() == 0) continue;
    HJ_RETURN_IF_ERROR(spill_->Append(dst[i], pending[i]));
  }
  spill_->Drop(src);
  return Status::OK();
}

Status GraceHashJoin::BlockNestedJoin(SpillArea::FileId build_file,
                                      SpillArea::FileId probe_file) {
  // Chunks of the build file as large as the budget admits — at least one
  // batch, so every pass makes progress — and one full probe pass per chunk.
  // Sort-free and distribution-free: this terminates even when every build
  // row carries the same join key. Aggregation commutes, so chunk order does
  // not matter.
  size_t start = 0;
  while (true) {
    JoinHashTable table(build_key_, 1, /*governor=*/nullptr);
    uint64_t chunk_bytes = 0;
    size_t chunk_rows = 0;
    uint64_t charged = 0;
    size_t idx = 0;
    size_t next_start = start;
    bool overflow = false;
    HJ_RETURN_IF_ERROR(spill_->ForEach(
        build_file, build_schema_, [&](RecordBatch&& batch) -> Status {
          const size_t i = idx++;
          if (i < start || overflow) return Status::OK();
          const uint64_t grown = TableBytes(chunk_bytes + batch.ByteSize(),
                                            chunk_rows + batch.num_rows());
          if (i == start) {
            ForceCharge(grown);
          } else if (!TryCharge(grown - charged)) {
            overflow = true;  // chunk full; another pass picks this one up
            return Status::OK();
          }
          charged = grown;
          chunk_bytes += batch.ByteSize();
          chunk_rows += batch.num_rows();
          next_start = i + 1;
          return table.AddBatch(std::move(batch));
        }));
    if (next_start == start) break;  // build file exhausted
    table.Finalize();
    JoinProber prober(&table, build_schema_, build_alias_, probe_schema_,
                      probe_alias_, probe_key_, post_join_predicate_,
                      aggregator_, metrics_);
    HJ_RETURN_IF_ERROR(spill_->ForEach(
        probe_file, probe_schema_,
        [&](RecordBatch&& batch) { return prober.ProbeBatch(batch); }));
    HJ_RETURN_IF_ERROR(prober.Flush());
    Uncharge(charged);
    start = next_start;
    if (!overflow) break;  // consumed through the end of the file
  }
  spill_->Drop(build_file);
  spill_->Drop(probe_file);
  return Status::OK();
}

Status GraceHashJoin::JoinSpilledPair(SpillArea::FileId build_file,
                                      SpillArea::FileId probe_file,
                                      uint32_t depth) {
  // The pair's table is charged like the resident one; when the budget
  // refuses it, the pair splits (or, past the depth bound, goes in chunks).
  const SpillArea::FileSize size = spill_->SizeOf(build_file);
  const uint64_t table_bytes = TableBytes(size.batch_bytes, size.rows);
  if (!TryCharge(table_bytes)) {
    if (depth >= kMaxRepartitionDepth) {
      return BlockNestedJoin(build_file, probe_file);
    }
    if (metrics_ != nullptr) {
      metrics_->Max(metric::kJoinRepartitionDepth,
                    static_cast<int64_t>(depth) + 1);
    }
    std::vector<SpillArea::FileId> sub_build(kRepartitionFanout);
    std::vector<SpillArea::FileId> sub_probe(kRepartitionFanout);
    for (auto& f : sub_build) f = spill_->Create();
    for (auto& f : sub_probe) f = spill_->Create();
    HJ_RETURN_IF_ERROR(
        Repartition(build_file, build_schema_, build_key_, depth + 1,
                    sub_build));
    HJ_RETURN_IF_ERROR(
        Repartition(probe_file, probe_schema_, probe_key_, depth + 1,
                    sub_probe));
    for (uint32_t i = 0; i < kRepartitionFanout; ++i) {
      HJ_RETURN_IF_ERROR(
          JoinSpilledPair(sub_build[i], sub_probe[i], depth + 1));
    }
    return Status::OK();
  }
  JoinHashTable table(build_key_, 1, /*governor=*/nullptr);
  HJ_RETURN_IF_ERROR(spill_->ForEach(
      build_file, build_schema_, [&](RecordBatch&& batch) {
        return table.AddBatch(std::move(batch));
      }));
  table.Finalize();
  JoinProber prober(&table, build_schema_, build_alias_, probe_schema_,
                    probe_alias_, probe_key_, post_join_predicate_,
                    aggregator_, metrics_);
  HJ_RETURN_IF_ERROR(spill_->ForEach(
      probe_file, probe_schema_,
      [&](RecordBatch&& batch) { return prober.ProbeBatch(batch); }));
  HJ_RETURN_IF_ERROR(prober.Flush());
  Uncharge(table_bytes);
  spill_->Drop(build_file);
  spill_->Drop(probe_file);
  return Status::OK();
}

Status GraceHashJoin::Finish() {
  if (finished_) return Status::OK();
  if (!build_finished_) {
    return Status::Internal("Finish before FinishBuild");
  }
  finished_ = true;
  if (inline_probe_ != nullptr) HJ_RETURN_IF_ERROR(inline_probe_->Flush());
  // Probing is over: hand the resident table's memory back before the
  // spilled pairs build theirs.
  inline_probe_.reset();
  table_.reset();
  Uncharge(resident_bytes_);
  for (auto& p : partitions_) {
    if (!p.spilled) continue;
    HJ_RETURN_IF_ERROR(JoinSpilledPair(p.build_file, p.probe_file, 0));
  }
  return Status::OK();
}

}  // namespace hybridjoin
