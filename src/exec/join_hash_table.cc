#include "exec/join_hash_table.h"

#include <algorithm>
#include <limits>
#include <tuple>
#include <utility>

namespace hybridjoin {

namespace {
// Probe pipeline depth: how many keys are hashed and prefetched before the
// first run walk. Matches the Bloom kernels' window.
constexpr size_t kProbeWindow = 32;

/// Finalize's band scatters take this many bits of the band per pass.
constexpr int kBandDigitBits = 8;
constexpr uint32_t kBandDigits = 1u << kBandDigitBits;

/// Runs at most this long are sorted by insertion; longer ones merge.
constexpr size_t kInsertionRun = 16;

/// Stable sort of `a[0, n)` by key, with `buf[0, n)` as scratch: insertion
/// sort of kInsertionRun-entry blocks, then bottom-up merge passes that
/// alternate between the two arrays. Allocates nothing.
void StableSortByKey(JoinHashTable::Entry* a, size_t n,
                     JoinHashTable::Entry* buf) {
  using Entry = JoinHashTable::Entry;
  auto by_key = [](const Entry& x, const Entry& y) { return x.key < y.key; };
  for (size_t lo = 0; lo < n; lo += kInsertionRun) {
    const size_t hi = std::min(n, lo + kInsertionRun);
    for (size_t i = lo + 1; i < hi; ++i) {
      const Entry e = a[i];
      size_t j = i;
      for (; j > lo && by_key(e, a[j - 1]); --j) a[j] = a[j - 1];
      a[j] = e;
    }
  }
  Entry* from = a;
  Entry* to = buf;
  for (size_t width = kInsertionRun; width < n; width *= 2) {
    for (size_t lo = 0; lo < n; lo += 2 * width) {
      const size_t mid = std::min(n, lo + width);
      const size_t hi = std::min(n, lo + 2 * width);
      std::merge(from + lo, from + mid, from + mid, from + hi, to + lo,
                 by_key);
    }
    std::swap(from, to);
  }
  if (from != a) std::copy(from, from + n, a);
}

/// p + offset, saturating at the int64 range.
int64_t SatAdd(int64_t p, int64_t offset) {
  int64_t out;
  if (__builtin_add_overflow(p, offset, &out)) {
    return offset > 0 ? std::numeric_limits<int64_t>::max()
                      : std::numeric_limits<int64_t>::min();
  }
  return out;
}
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
  const size_t buckets = BucketCount(entries);
  return buckets == 0 ? 0 : (buckets + 1) * sizeof(uint32_t);
}

template <typename ShardOut>
Status JoinHashTable::ExtractEntries(const RecordBatch& batch,
                                     uint32_t batch_index,
                                     ShardOut&& shard_out) const {
  if (key_column_ >= batch.num_columns()) {
    return Status::InvalidArgument("join key column out of range");
  }
  const int32_t* band = nullptr;
  if (band_column_.has_value()) {
    if (*band_column_ >= batch.num_columns() ||
        batch.column(*band_column_).physical_type() != PhysicalType::kInt32) {
      return Status::InvalidArgument("join band column must be int32");
    }
    band = batch.column(*band_column_).i32().data();
  }
  const uint32_t n = static_cast<uint32_t>(batch.num_rows());
  auto append = [&](const auto* keys) {
    for (uint32_t r = 0; r < n; ++r) {
      const int64_t k = keys[r];
      const uint32_t shard =
          shards_.size() == 1
              ? 0
              : ShardOf(HashInt64(static_cast<uint64_t>(k), kProbeSeed));
      shard_out(shard).push_back(
          {k, batch_index, r, band != nullptr ? band[r] : 0});
    }
  };
  const ColumnVector& key = batch.column(key_column_);
  switch (key.physical_type()) {
    case PhysicalType::kInt32:
      append(key.i32().data());
      return Status::OK();
    case PhysicalType::kInt64:
      append(key.i64().data());
      return Status::OK();
    default:
      return Status::InvalidArgument("join key must be integer-typed");
  }
}

Status JoinHashTable::AddBatch(RecordBatch batch) {
  if (finalized_) return Status::Internal("AddBatch after Finalize");
  if (batch.num_rows() == 0) return Status::OK();
  const uint32_t batch_index = static_cast<uint32_t>(batches_.size());
  if (shards_.size() == 1) {
    shards_[0].entries.reserve(shards_[0].entries.size() + batch.num_rows());
  }
  HJ_RETURN_IF_ERROR(ExtractEntries(
      batch, batch_index,
      [this](uint32_t s) -> EntryVector& { return shards_[s].entries; }));
  reservation_.Grow(batch.ByteSize() + EntryBytes(batch.num_rows()));
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
  auto shard_entries = [this](uint32_t s) -> EntryVector& {
    return shards_[s].entries;
  };
  if (pool == nullptr || pool->num_threads() <= 1 || added == 1) {
    for (uint32_t b = 0; b < added; ++b) {
      HJ_RETURN_IF_ERROR(
          ExtractEntries(batches_[base + b], base + b, shard_entries));
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
  std::vector<std::vector<EntryVector>> runs(
      ranges, std::vector<EntryVector>(shards_.size()));
  HJ_RETURN_IF_ERROR(pool->ParallelFor(
      0, ranges, 1, [&](size_t r) -> Status {
        const size_t lo = r * per_range;
        const size_t hi = std::min<size_t>(added, lo + per_range);
        for (size_t b = lo; b < hi; ++b) {
          HJ_RETURN_IF_ERROR(ExtractEntries(
              batches_[base + b], static_cast<uint32_t>(base + b),
              [&](uint32_t s) -> EntryVector& { return runs[r][s]; }));
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
  const size_t n = s.entries.size();
  s.offsets.clear();
  s.bucket_mask = 0;
  s.max_run = 0;
  if (n == 0) return;
  const size_t num_buckets = BucketCount(n);
  s.bucket_mask = num_buckets - 1;
  EntryVector scratch(n);
  Entry* src = s.entries.data();
  Entry* dst = scratch.data();

  // Band digits, least significant first: each stable scatter orders the
  // entries by one more digit of band - min, ties in their prior order.
  if (band_column_.has_value()) {
    int32_t lo = src[0].band;
    int32_t hi = src[0].band;
    for (size_t i = 1; i < n; ++i) {
      lo = std::min(lo, src[i].band);
      hi = std::max(hi, src[i].band);
    }
    const auto range = static_cast<uint32_t>(int64_t{hi} - lo);
    for (int shift = 0; shift < 32 && (range >> shift) != 0;
         shift += kBandDigitBits) {
      auto digit = [lo, shift](const Entry& e) {
        return (static_cast<uint32_t>(int64_t{e.band} - lo) >> shift) &
               (kBandDigits - 1);
      };
      uint32_t cursor[kBandDigits] = {};
      for (size_t i = 0; i < n; ++i) ++cursor[digit(src[i])];
      uint32_t start = 0;
      for (uint32_t& c : cursor) start += std::exchange(c, start);
      for (size_t i = 0; i < n; ++i) dst[cursor[digit(src[i])]++] = src[i];
      std::swap(src, dst);
    }
  }

  // Then one stable scatter by bucket. offsets[b + 1] counts bucket b, the
  // prefix sum turns offsets[b] into bucket b's start, the scatter advances
  // it to the run's end, and shifting the array up one restores the starts.
  auto bucket_of = [&s](const Entry& e) {
    return HashInt64(static_cast<uint64_t>(e.key), kProbeSeed) & s.bucket_mask;
  };
  s.offsets.assign(num_buckets + 1, 0);
  for (size_t i = 0; i < n; ++i) ++s.offsets[bucket_of(src[i]) + 1];
  for (size_t b = 1; b < num_buckets; ++b) s.offsets[b] += s.offsets[b - 1];
  for (size_t i = 0; i < n; ++i) dst[s.offsets[bucket_of(src[i])]++] = src[i];
  std::copy_backward(s.offsets.begin(), s.offsets.end() - 1,
                     s.offsets.end());
  s.offsets[0] = 0;
  std::swap(src, dst);

  // Runs are in (band, batch, row) order; one shared by several keys is
  // stably sorted by key, through the other array's part at its place.
  for (size_t b = 0; b < num_buckets; ++b) {
    const uint32_t first = s.offsets[b];
    const uint32_t last = s.offsets[b + 1];
    const size_t len = last - first;
    s.max_run = std::max(s.max_run, len);
    if (len > 1 && std::any_of(src + first + 1, src + last,
                               [k = src[first].key](const Entry& e) {
                                 return e.key != k;
                               })) {
      StableSortByKey(src + first, len, dst + first);
    }
  }
  if (src != s.entries.data()) s.entries.swap(scratch);
}

void JoinHashTable::MarkFinalized() {
  if (!finalized_) {
    // Run offsets exist now; charge them from the (single) finalizing
    // thread — FinalizeShard itself runs shard-parallel.
    uint64_t bytes = 0;
    for (const Shard& s : shards_) bytes += s.offsets.size() * sizeof(uint32_t);
    reservation_.Grow(bytes);
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

template <typename Key, typename Visit>
void JoinHashTable::ForEachBucketRun(const Key* keys, size_t n,
                                     Visit&& visit) const {
  const Shard* shard[kProbeWindow];
  uint64_t bucket[kProbeWindow];
  uint32_t begin[kProbeWindow];
  uint32_t end[kProbeWindow];
  for (size_t start = 0; start < n; start += kProbeWindow) {
    const size_t cnt = std::min(kProbeWindow, n - start);
    // Pass 1: hash every key in the window, prefetch its run offsets.
    for (size_t j = 0; j < cnt; ++j) {
      const auto key = static_cast<int64_t>(keys[start + j]);
      const uint64_t h = HashInt64(static_cast<uint64_t>(key), kProbeSeed);
      const Shard& s = shards_[ShardOf(h)];
      shard[j] = &s;
      bucket[j] = h & s.bucket_mask;
      if (!s.offsets.empty()) __builtin_prefetch(&s.offsets[bucket[j]], 0, 1);
    }
    // Pass 2: read the run bounds (now resident), prefetch each non-empty
    // run's first entry.
    for (size_t j = 0; j < cnt; ++j) {
      const Shard& s = *shard[j];
      if (s.offsets.empty()) {
        begin[j] = end[j] = 0;
        continue;
      }
      begin[j] = s.offsets[bucket[j]];
      end[j] = s.offsets[bucket[j] + 1];
      if (begin[j] != end[j]) __builtin_prefetch(&s.entries[begin[j]], 0, 1);
    }
    // Pass 3: visit the runs in probe-row order.
    for (size_t j = 0; j < cnt; ++j) {
      if (begin[j] == end[j]) continue;
      const Entry* entries = shard[j]->entries.data();
      visit(start + j, static_cast<int64_t>(keys[start + j]),
            entries + begin[j], entries + end[j]);
    }
  }
}

template <typename Key>
void JoinHashTable::ProbeBatchImpl(const Key* keys, size_t n,
                                   std::vector<JoinMatch>* out) const {
  ForEachBucketRun(keys, n, [out](size_t j, int64_t key, const Entry* first,
                                  const Entry* last) {
    const auto probe_row = static_cast<uint32_t>(j);
    for (const Entry* e = first; e != last; ++e) {
      if (e->key == key) out->push_back({probe_row, e->batch, e->row});
    }
  });
}

template <typename Key>
void JoinHashTable::ProbeBandImpl(const Key* keys, const int32_t* bands,
                                  size_t n, int64_t lo_offset,
                                  int64_t hi_offset,
                                  std::vector<JoinMatch>* out,
                                  BandStats* stats) const {
  struct KeyLess {
    bool operator()(const Entry& e, int64_t k) const { return e.key < k; }
    bool operator()(int64_t k, const Entry& e) const { return k < e.key; }
  };
  ForEachBucketRun(keys, n, [&](size_t j, int64_t key, const Entry* first,
                                const Entry* last) {
    // The key's run: most buckets hold one key, so check that first.
    if (first->key != key || (last - 1)->key != key) {
      std::tie(first, last) = std::equal_range(first, last, key, KeyLess{});
    }
    stats->equi_matches += last - first;
    if (first == last) return;
    const int64_t lo = SatAdd(bands[j], lo_offset);
    const int64_t hi = SatAdd(bands[j], hi_offset);
    const Entry* e = std::lower_bound(
        first, last, lo,
        [](const Entry& x, int64_t v) { return x.band < v; });
    const Entry* walk_start = e;
    const auto probe_row = static_cast<uint32_t>(j);
    for (; e != last && e->band <= hi; ++e) {
      out->push_back({probe_row, e->batch, e->row});
    }
    // The walk read every emitted row and the one that ended it.
    stats->visited += (e - walk_start) + (e != last ? 1 : 0);
  });
}

void JoinHashTable::ProbeBatch(std::span<const int64_t> keys,
                               std::vector<JoinMatch>* out) const {
  ProbeBatchImpl(keys.data(), keys.size(), out);
}

void JoinHashTable::ProbeBatch(std::span<const int32_t> keys,
                               std::vector<JoinMatch>* out) const {
  ProbeBatchImpl(keys.data(), keys.size(), out);
}

void JoinHashTable::ProbeBand(std::span<const int64_t> keys,
                              std::span<const int32_t> bands,
                              int64_t lo_offset, int64_t hi_offset,
                              std::vector<JoinMatch>* out,
                              BandStats* stats) const {
  ProbeBandImpl(keys.data(), bands.data(), keys.size(), lo_offset, hi_offset,
                out, stats);
}

void JoinHashTable::ProbeBand(std::span<const int32_t> keys,
                              std::span<const int32_t> bands,
                              int64_t lo_offset, int64_t hi_offset,
                              std::vector<JoinMatch>* out,
                              BandStats* stats) const {
  ProbeBandImpl(keys.data(), bands.data(), keys.size(), lo_offset, hi_offset,
                out, stats);
}

}  // namespace hybridjoin
