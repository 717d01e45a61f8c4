#include "exec/join_hash_table.h"

#include <algorithm>

namespace hybridjoin {

namespace {
// Probe pipeline depth: how many keys are hashed and prefetched before the
// first chain walk. Matches the Bloom kernels' window.
constexpr size_t kProbeWindow = 32;
}  // namespace

uint64_t JoinHashTable::EntryBytes(size_t rows) {
  return rows * sizeof(Entry);
}

size_t JoinHashTable::BucketCount(size_t entries) {
  if (entries == 0) return 0;
  size_t num_buckets = 16;
  while (num_buckets < entries * 2) num_buckets <<= 1;
  return num_buckets;
}

uint64_t JoinHashTable::BucketBytes(size_t entries) {
  return BucketCount(entries) * sizeof(uint32_t);
}

Status JoinHashTable::ExtractEntries(
    const RecordBatch& batch, uint32_t batch_index,
    std::vector<std::vector<Entry>>* out) const {
  if (key_column_ >= batch.num_columns()) {
    return Status::InvalidArgument("join key column out of range");
  }
  const ColumnVector& key = batch.column(key_column_);
  const size_t n = batch.num_rows();
  switch (key.physical_type()) {
    case PhysicalType::kInt32: {
      const auto& keys = key.i32();
      for (uint32_t r = 0; r < n; ++r) {
        const int64_t k = keys[r];
        const uint64_t h = HashInt64(static_cast<uint64_t>(k), kProbeSeed);
        (*out)[ShardOf(h)].push_back({k, batch_index, r, kNil});
      }
      break;
    }
    case PhysicalType::kInt64: {
      const auto& keys = key.i64();
      for (uint32_t r = 0; r < n; ++r) {
        const int64_t k = keys[r];
        const uint64_t h = HashInt64(static_cast<uint64_t>(k), kProbeSeed);
        (*out)[ShardOf(h)].push_back({k, batch_index, r, kNil});
      }
      break;
    }
    default:
      return Status::InvalidArgument("join key must be integer-typed");
  }
  return Status::OK();
}

Status JoinHashTable::AddBatch(RecordBatch batch) {
  if (finalized_) return Status::Internal("AddBatch after Finalize");
  if (batch.num_rows() == 0) return Status::OK();
  reservation_.Grow(batch.ByteSize() + EntryBytes(batch.num_rows()));
  const uint32_t batch_index = static_cast<uint32_t>(batches_.size());
  if (shards_.size() == 1) {
    // Streaming fast path: append straight into the single shard.
    if (key_column_ >= batch.num_columns()) {
      return Status::InvalidArgument("join key column out of range");
    }
    const ColumnVector& key = batch.column(key_column_);
    auto& entries = shards_[0].entries;
    const size_t n = batch.num_rows();
    entries.reserve(entries.size() + n);
    switch (key.physical_type()) {
      case PhysicalType::kInt32: {
        const auto& keys = key.i32();
        for (uint32_t r = 0; r < n; ++r) {
          entries.push_back({keys[r], batch_index, r, kNil});
        }
        break;
      }
      case PhysicalType::kInt64: {
        const auto& keys = key.i64();
        for (uint32_t r = 0; r < n; ++r) {
          entries.push_back({keys[r], batch_index, r, kNil});
        }
        break;
      }
      default:
        return Status::InvalidArgument("join key must be integer-typed");
    }
    batches_.push_back(std::move(batch));
    return Status::OK();
  }
  std::vector<std::vector<Entry>> per_shard(shards_.size());
  HJ_RETURN_IF_ERROR(ExtractEntries(batch, batch_index, &per_shard));
  for (size_t s = 0; s < shards_.size(); ++s) {
    auto& entries = shards_[s].entries;
    entries.insert(entries.end(), per_shard[s].begin(), per_shard[s].end());
  }
  batches_.push_back(std::move(batch));
  return Status::OK();
}

Status JoinHashTable::AddBatchesParallel(std::vector<RecordBatch> batches,
                                         ThreadPool* pool) {
  if (finalized_) return Status::Internal("AddBatch after Finalize");
  const uint32_t base = static_cast<uint32_t>(batches_.size());
  size_t added = 0;
  for (RecordBatch& b : batches) {
    if (b.num_rows() == 0) continue;
    reservation_.Grow(b.ByteSize() + EntryBytes(b.num_rows()));
    batches_.push_back(std::move(b));
    ++added;
  }
  if (added == 0) return Status::OK();
  if (pool == nullptr || pool->num_threads() <= 1 || added == 1) {
    std::vector<std::vector<Entry>> per_shard(shards_.size());
    for (uint32_t b = 0; b < added; ++b) {
      for (auto& v : per_shard) v.clear();
      HJ_RETURN_IF_ERROR(
          ExtractEntries(batches_[base + b], base + b, &per_shard));
      for (size_t s = 0; s < shards_.size(); ++s) {
        auto& entries = shards_[s].entries;
        entries.insert(entries.end(), per_shard[s].begin(),
                       per_shard[s].end());
      }
    }
    return Status::OK();
  }

  // Phase 1: contiguous batch ranges extract per-shard entry runs in
  // parallel. Range boundaries — not interleaving — decide which run a row
  // lands in, so the result is deterministic.
  const size_t ranges =
      std::min(added, std::max<size_t>(pool->num_threads() * 2, 1));
  const size_t per_range = (added + ranges - 1) / ranges;
  // runs[r][s]: range r's entries for shard s, in batch order.
  std::vector<std::vector<std::vector<Entry>>> runs(
      ranges, std::vector<std::vector<Entry>>(shards_.size()));
  HJ_RETURN_IF_ERROR(pool->ParallelFor(
      0, ranges, 1, [&](size_t r) -> Status {
        const size_t lo = r * per_range;
        const size_t hi = std::min<size_t>(added, lo + per_range);
        for (size_t b = lo; b < hi; ++b) {
          HJ_RETURN_IF_ERROR(ExtractEntries(
              batches_[base + b], static_cast<uint32_t>(base + b), &runs[r]));
        }
        return Status::OK();
      }));

  // Phase 2: splice every shard's runs in range order, one task per shard,
  // reproducing the serial AddBatch entry order exactly.
  return pool->ParallelFor(0, shards_.size(), 1, [&](size_t s) -> Status {
    size_t total = shards_[s].entries.size();
    for (size_t r = 0; r < ranges; ++r) total += runs[r][s].size();
    shards_[s].entries.reserve(total);
    for (size_t r = 0; r < ranges; ++r) {
      auto& entries = shards_[s].entries;
      entries.insert(entries.end(), runs[r][s].begin(), runs[r][s].end());
    }
    return Status::OK();
  });
}

void JoinHashTable::FinalizeShard(uint32_t shard) {
  Shard& s = shards_[shard];
  if (s.entries.empty()) {
    s.buckets.clear();
    s.bucket_mask = 0;
    s.max_chain_length = 0;
    return;
  }
  const size_t num_buckets = BucketCount(s.entries.size());
  s.buckets.assign(num_buckets, kNil);
  s.bucket_mask = num_buckets - 1;
  for (uint32_t e = 0; e < s.entries.size(); ++e) {
    const uint64_t h =
        HashInt64(static_cast<uint64_t>(s.entries[e].key), kProbeSeed);
    uint32_t& head = s.buckets[h & s.bucket_mask];
    s.entries[e].next = head;
    head = e;
  }
  s.max_chain_length = 0;
  std::vector<uint32_t> chain_len(num_buckets, 0);
  for (uint32_t e = 0; e < s.entries.size(); ++e) {
    const uint64_t h =
        HashInt64(static_cast<uint64_t>(s.entries[e].key), kProbeSeed);
    const uint32_t len = ++chain_len[h & s.bucket_mask];
    if (len > s.max_chain_length) s.max_chain_length = len;
  }
}

void JoinHashTable::MarkFinalized() {
  if (!finalized_) {
    // Bucket directories exist now; charge them from the (single) finalizing
    // thread — FinalizeShard itself runs shard-parallel.
    reservation_.Grow(num_buckets() * sizeof(uint32_t));
  }
  finalized_ = true;
}

void JoinHashTable::Finalize() {
  if (finalized_) return;
  for (uint32_t s = 0; s < shards_.size(); ++s) FinalizeShard(s);
  MarkFinalized();
}

Status JoinHashTable::FinalizeParallel(ThreadPool* pool) {
  if (finalized_) return Status::OK();
  if (pool == nullptr || pool->num_threads() <= 1 || shards_.size() <= 1) {
    Finalize();
    return Status::OK();
  }
  HJ_RETURN_IF_ERROR(pool->ParallelFor(0, shards_.size(), 1, [&](size_t s) {
    FinalizeShard(static_cast<uint32_t>(s));
    return Status::OK();
  }));
  MarkFinalized();
  return Status::OK();
}

template <typename Key>
void JoinHashTable::ProbeBatchImpl(const Key* keys, size_t n,
                                   std::vector<JoinMatch>* out) const {
  const Shard* shard[kProbeWindow];
  uint64_t bucket_idx[kProbeWindow];
  uint32_t heads[kProbeWindow];
  for (size_t start = 0; start < n; start += kProbeWindow) {
    const size_t cnt = std::min(kProbeWindow, n - start);
    // Pass 1: hash every key in the window, prefetch its bucket-head slot.
    for (size_t j = 0; j < cnt; ++j) {
      const auto key = static_cast<int64_t>(keys[start + j]);
      const uint64_t h = HashInt64(static_cast<uint64_t>(key), kProbeSeed);
      const Shard& s = shards_[ShardOf(h)];
      shard[j] = &s;
      if (s.buckets.empty()) {
        heads[j] = kNil;
        continue;
      }
      bucket_idx[j] = h & s.bucket_mask;
      __builtin_prefetch(&s.buckets[bucket_idx[j]], 0, 1);
      heads[j] = 0;  // resolved in pass 2
    }
    // Pass 2: read the heads (now resident), prefetch the first entry of
    // each non-empty chain.
    for (size_t j = 0; j < cnt; ++j) {
      if (heads[j] == kNil) continue;
      heads[j] = shard[j]->buckets[bucket_idx[j]];
      if (heads[j] != kNil) {
        __builtin_prefetch(&shard[j]->entries[heads[j]], 0, 1);
      }
    }
    // Pass 3: walk the chains, emitting matches in scalar order.
    for (size_t j = 0; j < cnt; ++j) {
      const auto key = static_cast<int64_t>(keys[start + j]);
      const uint32_t probe_row = static_cast<uint32_t>(start + j);
      uint32_t e = heads[j];
      while (e != kNil) {
        const Entry& entry = shard[j]->entries[e];
        if (entry.key == key) out->push_back({probe_row, entry.batch, entry.row});
        e = entry.next;
      }
    }
  }
}

void JoinHashTable::ProbeBatch(std::span<const int64_t> keys,
                               std::vector<JoinMatch>* out) const {
  ProbeBatchImpl(keys.data(), keys.size(), out);
}

void JoinHashTable::ProbeBatch(std::span<const int32_t> keys,
                               std::vector<JoinMatch>* out) const {
  ProbeBatchImpl(keys.data(), keys.size(), out);
}

}  // namespace hybridjoin
