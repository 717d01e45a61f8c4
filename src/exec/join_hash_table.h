// JoinHashTable: the hash table every join variant builds on one side and
// probes with the other. Single-writer build, then frozen and probed
// concurrently. The table can be key-space partitioned into shards (high
// hash bits pick the shard, low bits the bucket) so the build and the
// finalize parallelize across threads; a one-shard table is bit-compatible
// with the historical unsharded layout.
//
// Layout: bucket-contiguous (CSR). Finalize permutes each shard's entries
// in place so every bucket's entries are one run, ordered by
// (key, band, batch, row), and `offsets` holds num_buckets + 1 run
// boundaries. A key's build rows are therefore one contiguous run.
//
// Band: a table built with a band column stores that int32 column's value
// in every entry, so each key's run is ordered by it and ProbeBand can
// binary-search a probe row's band [p + lo, p + hi] and walk only the rows
// inside it. Without a band column every band value is 0.
//
// Order contract: (batch, row) is insertion order, so ForEachMatch and
// ProbeBatch emit a key's matches in ascending band value, ties in
// insertion order — plain insertion order without a band column. Equal
// keys hash equally, so they land in one shard, where (batch, row) is still
// global insertion order: the join output is byte-identical for every shard
// count.

#ifndef HYBRIDJOIN_EXEC_JOIN_HASH_TABLE_H_
#define HYBRIDJOIN_EXEC_JOIN_HASH_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
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
  /// owners that charge the table's footprint themselves). `band_column`,
  /// when set, is an int32-physical column of every added batch that orders
  /// each key's rows for ProbeBand.
  explicit JoinHashTable(size_t key_column, uint32_t num_shards = 1,
                         MemoryGovernor* governor = MemoryGovernor::Current(),
                         std::optional<size_t> band_column = std::nullopt)
      : key_column_(key_column),
        band_column_(band_column),
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

  /// Lays out every shard's bucket runs serially. Idempotent.
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
  /// Bytes of the run offsets Finalize builds over `entries` entries of one
  /// shard. Finalize needs no other scratch: it permutes in place.
  static uint64_t BucketBytes(size_t entries);

  bool finalized() const { return finalized_; }
  size_t num_rows() const {
    size_t n = 0;
    for (const Shard& s : shards_) n += s.entries.size();
    return n;
  }
  const std::vector<RecordBatch>& batches() const { return batches_; }
  size_t key_column() const { return key_column_; }
  std::optional<size_t> band_column() const { return band_column_; }

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  size_t shard_rows(uint32_t shard) const {
    return shards_[shard].entries.size();
  }

  // Build-shape diagnostics, valid after Finalize (surfaced as metrics by
  // the drivers; a longest bucket run far above the ~2x-slack load factor
  // flags key skew that every probe of that key pays for).
  size_t num_buckets() const {
    size_t n = 0;
    for (const Shard& s : shards_) n += s.num_buckets();
    return n;
  }
  double load_factor() const {
    const size_t buckets = num_buckets();
    return buckets == 0 ? 0.0
                        : static_cast<double>(num_rows()) /
                              static_cast<double>(buckets);
  }
  /// The longest bucket run.
  size_t max_chain_length() const {
    size_t n = 0;
    for (const Shard& s : shards_) n = std::max(n, s.max_run);
    return n;
  }

  /// Invokes fn(batch_index, row_index) for every row whose key equals
  /// `key`, in the order of the contract above. Must be finalized.
  template <typename Fn>
  void ForEachMatch(int64_t key, Fn&& fn) const {
    const uint64_t h = HashInt64(static_cast<uint64_t>(key), kProbeSeed);
    const Shard& s = shards_[ShardOf(h)];
    if (s.offsets.empty()) return;
    const uint64_t b = h & s.bucket_mask;
    for (uint32_t e = s.offsets[b]; e < s.offsets[b + 1]; ++e) {
      const Entry& entry = s.entries[e];
      if (entry.key == key) fn(entry.batch, entry.row);
    }
  }

  /// True if any row has this key (stops at the first hit).
  bool Contains(int64_t key) const {
    const uint64_t h = HashInt64(static_cast<uint64_t>(key), kProbeSeed);
    const Shard& s = shards_[ShardOf(h)];
    if (s.offsets.empty()) return false;
    const uint64_t b = h & s.bucket_mask;
    for (uint32_t e = s.offsets[b]; e < s.offsets[b + 1]; ++e) {
      if (s.entries[e].key == key) return true;
    }
    return false;
  }

  /// Batched probe kernel: appends one JoinMatch per hit for every key of
  /// the span (probe_row = index within the span), in exactly the order
  /// the scalar ForEachMatch loop would produce — ascending probe row,
  /// contract order within a row. Hashes the whole window first, prefetches
  /// the run offsets, then the runs, then walks them, so the dependent
  /// loads overlap instead of serializing on cache misses.
  void ProbeBatch(std::span<const int64_t> keys,
                  std::vector<JoinMatch>* out) const;
  void ProbeBatch(std::span<const int32_t> keys,
                  std::vector<JoinMatch>* out) const;

  /// What a ProbeBand call saw, added to by every call.
  struct BandStats {
    int64_t equi_matches = 0;  ///< rows with the probe key, in or out of band
    int64_t visited = 0;       ///< rows the band walks read
  };

  /// Band probe: like ProbeBatch, but for probe row i appends only the
  /// matches whose band value lies in [bands[i] + lo_offset,
  /// bands[i] + hi_offset] (int64, saturating), by binary search for the
  /// lower bound in the key's run and a walk to the upper bound. Emits
  /// exactly ProbeBatch's matches that pass that test, in the same order.
  /// Meaningful only on a table built with a band column.
  void ProbeBand(std::span<const int64_t> keys, std::span<const int32_t> bands,
                 int64_t lo_offset, int64_t hi_offset,
                 std::vector<JoinMatch>* out, BandStats* stats) const;
  void ProbeBand(std::span<const int32_t> keys, std::span<const int32_t> bands,
                 int64_t lo_offset, int64_t hi_offset,
                 std::vector<JoinMatch>* out, BandStats* stats) const;

 private:
  static constexpr uint64_t kProbeSeed = 0x7ab1eULL;

  struct Entry {
    int64_t key;
    uint32_t batch;
    uint32_t row;
    int32_t band;  ///< the band column's value; 0 without one
  };
  static_assert(sizeof(Entry) == 24, "entries must not grow");

  /// One key-space partition: its entries (global insertion order
  /// restricted to the shard until Finalize lays them out in bucket runs)
  /// and the runs' boundaries: bucket b is entries[offsets[b], offsets[b+1]).
  struct Shard {
    std::vector<Entry> entries;
    std::vector<uint32_t> offsets;
    uint64_t bucket_mask = 0;
    size_t max_run = 0;
    size_t num_buckets() const {
      return offsets.empty() ? 0 : offsets.size() - 1;
    }
  };

  /// Shard selection from the hash's high 32 bits (the bucket index uses
  /// the low bits, so the two choices stay independent); the multiply-shift
  /// maps [0, 2^32) uniformly onto [0, num_shards) without a division.
  static uint32_t ShardFor(uint64_t h, size_t num_shards) {
    return static_cast<uint32_t>(((h >> 32) * num_shards) >> 32);
  }
  uint32_t ShardOf(uint64_t h) const { return ShardFor(h, shards_.size()); }

  /// Bucket count for one shard: the power of two >= 2x its entries, at
  /// least 16; none for an empty shard.
  static size_t BucketCount(size_t entries);

  /// Appends one batch's entries, in row order, to `shard_out(shard)` (a
  /// std::vector<Entry>&); `batch_index` is the batch's index in batches_.
  /// Appends nothing on error.
  template <typename ShardOut>
  Status ExtractEntries(const RecordBatch& batch, uint32_t batch_index,
                        ShardOut&& shard_out) const;

  /// Walks the bucket run of every key in windows, prefetching as
  /// ProbeBatch describes, and calls visit(j, key, first, last) with [first,
  /// last) the entries of key j's bucket.
  template <typename Key, typename Visit>
  void ForEachBucketRun(const Key* keys, size_t n, Visit&& visit) const;

  template <typename Key>
  void ProbeBatchImpl(const Key* keys, size_t n,
                      std::vector<JoinMatch>* out) const;
  template <typename Key>
  void ProbeBandImpl(const Key* keys, const int32_t* bands, size_t n,
                     int64_t lo_offset, int64_t hi_offset,
                     std::vector<JoinMatch>* out, BandStats* stats) const;

  size_t key_column_;
  std::optional<size_t> band_column_;
  std::vector<RecordBatch> batches_;
  std::vector<Shard> shards_;
  bool finalized_ = false;
  /// Charges retained batches + entries (and, at finalize, the run
  /// offsets) against the governor given at construction; released
  /// wholesale on destruction. Grown only from the single-writer build path,
  /// never from shard-parallel workers.
  MemoryReservation reservation_;
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_EXEC_JOIN_HASH_TABLE_H_
