// JoinHashTable: the chained hash table every join variant builds on one
// side and probes with the other. Single-writer build, then frozen and
// probed concurrently. The table can be key-space partitioned into shards
// (high hash bits pick the shard, low bits the bucket) so the build and the
// bucket-directory finalize parallelize across threads; a one-shard table
// is bit-compatible with the historical unsharded layout.
//
// Probe determinism under sharding: equal keys hash equally, so they land
// in one shard, and within a shard entries keep global insertion order.
// ForEachMatch/ProbeBatch therefore emit matches for any key in exactly the
// order the unsharded table would — the join output is byte-identical for
// every shard count.

#ifndef HYBRIDJOIN_EXEC_JOIN_HASH_TABLE_H_
#define HYBRIDJOIN_EXEC_JOIN_HASH_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "exec/memory_governor.h"
#include "types/record_batch.h"

namespace hybridjoin {

/// One probe hit: probe-side row index within the probed batch plus the
/// (batch, row) coordinates of the matching build-side row.
struct JoinMatch {
  uint32_t probe_row;
  uint32_t batch;
  uint32_t row;
};

/// Hash table over an integer join key. Stores whole record batches and
/// indexes rows, so probe matches can copy any payload column.
class JoinHashTable {
 public:
  /// `key_column` is the index of the join key (int32/int64 physical) in
  /// every added batch. `num_shards` key-space partitions the entry and
  /// bucket storage (1 = the classic single-partition table); shard choice
  /// never changes probe results, only which internal arrays hold them.
  /// `governor` is charged for what the table holds (null: nobody, for
  /// owners that charge the table's footprint themselves).
  explicit JoinHashTable(size_t key_column, uint32_t num_shards = 1,
                         MemoryGovernor* governor = MemoryGovernor::Current())
      : key_column_(key_column),
        shards_(num_shards == 0 ? 1 : num_shards),
        reservation_(governor) {}

  /// Adds a batch (takes ownership). Must not be called after Finalize.
  Status AddBatch(RecordBatch batch);

  /// Adds a whole batch list, extracting entries on `pool` (nullptr runs
  /// serially). Contiguous batch ranges go to the workers and their
  /// per-shard entry runs are spliced back in range order, so the entry
  /// order — and with it every probe's match order — is identical to
  /// calling AddBatch in sequence. Must not be called after Finalize or
  /// concurrently with other mutations.
  Status AddBatchesParallel(std::vector<RecordBatch> batches,
                            ThreadPool* pool);

  /// Builds every shard's bucket directory serially. Idempotent.
  void Finalize();

  /// Parallel Finalize: one task per shard on `pool` (nullptr falls back to
  /// the serial path). Idempotent.
  Status FinalizeParallel(ThreadPool* pool);

  /// Parallel-finalize building blocks, for callers that want their own
  /// per-shard attribution (tracing spans) around each shard's build:
  /// FinalizeShard is thread-safe across distinct shards; call it for every
  /// shard exactly once, then MarkFinalized.
  void FinalizeShard(uint32_t shard);
  void MarkFinalized();

  /// The shard a key lands in for a `num_shards`-shard table. Exposed so a
  /// partitioned operator (GraceHashJoin) can route rows to exactly the
  /// shard the table will put them in.
  static uint32_t ShardOfKey(int64_t key, uint32_t num_shards) {
    return ShardFor(HashInt64(static_cast<uint64_t>(key), kProbeSeed),
                    num_shards);
  }

  /// Bytes the table holds for `rows` entries beyond the batches themselves.
  static uint64_t EntryBytes(size_t rows);
  /// Bytes of the bucket directory Finalize builds over `entries` entries of
  /// one shard.
  static uint64_t BucketBytes(size_t entries);

  bool finalized() const { return finalized_; }
  size_t num_rows() const {
    size_t n = 0;
    for (const Shard& s : shards_) n += s.entries.size();
    return n;
  }
  const std::vector<RecordBatch>& batches() const { return batches_; }
  size_t key_column() const { return key_column_; }

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  size_t shard_rows(uint32_t shard) const {
    return shards_[shard].entries.size();
  }

  // Build-shape diagnostics, valid after Finalize (surfaced as metrics by
  // the drivers; a max chain far above the ~2x-slack load factor flags key
  // skew that chain walks will pay for on every probe).
  size_t num_buckets() const {
    size_t n = 0;
    for (const Shard& s : shards_) n += s.buckets.size();
    return n;
  }
  double load_factor() const {
    const size_t buckets = num_buckets();
    return buckets == 0 ? 0.0
                        : static_cast<double>(num_rows()) /
                              static_cast<double>(buckets);
  }
  size_t max_chain_length() const {
    size_t n = 0;
    for (const Shard& s : shards_) n = std::max(n, s.max_chain_length);
    return n;
  }

  /// Invokes fn(batch_index, row_index) for every row whose key equals
  /// `key`. Must be finalized.
  template <typename Fn>
  void ForEachMatch(int64_t key, Fn&& fn) const {
    const uint64_t h = HashInt64(static_cast<uint64_t>(key), kProbeSeed);
    const Shard& s = shards_[ShardOf(h)];
    if (s.buckets.empty()) return;
    uint32_t e = s.buckets[h & s.bucket_mask];
    while (e != kNil) {
      const Entry& entry = s.entries[e];
      if (entry.key == key) fn(entry.batch, entry.row);
      e = entry.next;
    }
  }

  /// True if any row has this key (early-out point lookup: stops at the
  /// first hit instead of walking the rest of the chain).
  bool Contains(int64_t key) const {
    const uint64_t h = HashInt64(static_cast<uint64_t>(key), kProbeSeed);
    const Shard& s = shards_[ShardOf(h)];
    if (s.buckets.empty()) return false;
    uint32_t e = s.buckets[h & s.bucket_mask];
    while (e != kNil) {
      const Entry& entry = s.entries[e];
      if (entry.key == key) return true;
      e = entry.next;
    }
    return false;
  }

  /// Batched probe kernel: appends one JoinMatch per hit for every key of
  /// the span (probe_row = index within the span), in exactly the order
  /// the scalar ForEachMatch loop would produce — ascending probe row,
  /// chain order within a row. Hashes the whole window first, prefetches
  /// bucket heads, then entries, then walks the chains, so the dependent
  /// loads overlap instead of serializing on cache misses.
  void ProbeBatch(std::span<const int64_t> keys,
                  std::vector<JoinMatch>* out) const;
  void ProbeBatch(std::span<const int32_t> keys,
                  std::vector<JoinMatch>* out) const;

 private:
  static constexpr uint32_t kNil = 0xffffffffu;
  static constexpr uint64_t kProbeSeed = 0x7ab1eULL;

  struct Entry {
    int64_t key;
    uint32_t batch;
    uint32_t row;
    uint32_t next;
  };

  /// One key-space partition: its entries (global insertion order
  /// restricted to the shard) and its bucket directory.
  struct Shard {
    std::vector<Entry> entries;
    std::vector<uint32_t> buckets;
    uint64_t bucket_mask = 0;
    size_t max_chain_length = 0;
  };

  /// Shard selection from the hash's high 32 bits (the bucket index uses
  /// the low bits, so the two choices stay independent); the multiply-shift
  /// maps [0, 2^32) uniformly onto [0, num_shards) without a division.
  static uint32_t ShardFor(uint64_t h, size_t num_shards) {
    return static_cast<uint32_t>(((h >> 32) * num_shards) >> 32);
  }
  uint32_t ShardOf(uint64_t h) const { return ShardFor(h, shards_.size()); }

  /// Bucket-directory size for one shard: the power of two >= 2x its
  /// entries, at least 16; none for an empty shard.
  static size_t BucketCount(size_t entries);

  /// Appends one batch's entries to the per-shard vectors of `out` (sized
  /// num_shards); `batch_index` is the batch's index in batches_.
  Status ExtractEntries(const RecordBatch& batch, uint32_t batch_index,
                        std::vector<std::vector<Entry>>* out) const;

  template <typename Key>
  void ProbeBatchImpl(const Key* keys, size_t n,
                      std::vector<JoinMatch>* out) const;

  size_t key_column_;
  std::vector<RecordBatch> batches_;
  std::vector<Shard> shards_;
  bool finalized_ = false;
  /// Charges retained batches + entries (and, at finalize, the bucket
  /// directories) against the governor given at construction; released
  /// wholesale on destruction. Grown only from the single-writer build path,
  /// never from shard-parallel workers.
  MemoryReservation reservation_;
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_EXEC_JOIN_HASH_TABLE_H_
