// SpillArea: simulated local spill storage for joins that exceed memory
// (the paper's JEN "requires that all data fit in memory for the local
// hash-based join ... in the future, we plan to support spilling to disk",
// §4.4 — this is that future work). Batches are serialized on write and
// deserialized on read; both directions can be bandwidth-throttled to
// model spill disks.

#ifndef HYBRIDJOIN_EXEC_SPILL_H_
#define HYBRIDJOIN_EXEC_SPILL_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "common/metrics.h"
#include "common/token_bucket.h"
#include "types/record_batch.h"

namespace hybridjoin {

namespace metric {
// Spill counters live under the join.* namespace like the rest of the join
// metrics. (They briefly drifted as jen.spill_*; the legacy names were
// dual-emitted for one release and have since been removed.)
inline constexpr const char kSpillBytesWritten[] = "join.spill_bytes";
inline constexpr const char kSpillBytesRead[] = "join.spill_bytes_read";
inline constexpr const char kSpilledPartitions[] = "join.spill_partitions";
/// Deepest recursive-repartition level reached by any spilled partition
/// (gauge maximum; 0 = no recursion was needed).
inline constexpr const char kJoinRepartitionDepth[] = "join.repartition_depth";
/// Query-wide MemoryGovernor peak reservation (gauge maximum, bytes).
inline constexpr const char kJoinMemPeakBytes[] = "join.mem_peak_bytes";
}  // namespace metric

/// One worker's spill storage. Thread-compatible: each file is written by
/// one thread at a time; the area-level bookkeeping is locked.
class SpillArea {
 public:
  using FileId = size_t;

  /// Rates in bytes/sec; 0 = unthrottled.
  SpillArea(uint64_t write_bps, uint64_t read_bps, Metrics* metrics)
      : write_bucket_(write_bps), read_bucket_(read_bps), metrics_(metrics) {}

  /// Opens a new, empty spill file.
  FileId Create() {
    std::lock_guard<std::mutex> lock(mu_);
    files_.emplace_back();
    return files_.size() - 1;
  }

  /// Appends a batch (serialized through the write throttle).
  Status Append(FileId id, const RecordBatch& batch) {
    std::vector<uint8_t> bytes = batch.Serialize();
    const uint64_t batch_bytes = batch.ByteSize();
    write_bucket_.Acquire(bytes.size());
    if (metrics_ != nullptr) {
      metrics_->Add(metric::kSpillBytesWritten,
                    static_cast<int64_t>(bytes.size()));
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (id >= files_.size()) {
      return Status::InvalidArgument("bad spill file id");
    }
    File& file = files_[id];
    file.chunks.push_back(std::move(bytes));
    file.size.rows += batch.num_rows();
    file.size.batch_bytes += batch_bytes;
    return Status::OK();
  }

  /// Streams every batch of a file back through the read throttle.
  Status ForEach(FileId id, const SchemaPtr& schema,
                 const std::function<Status(RecordBatch&&)>& fn) {
    size_t num_chunks = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (id >= files_.size()) {
        return Status::InvalidArgument("bad spill file id");
      }
      num_chunks = files_[id].chunks.size();
    }
    for (size_t c = 0; c < num_chunks; ++c) {
      const std::vector<uint8_t>* bytes = nullptr;
      {
        std::lock_guard<std::mutex> lock(mu_);
        bytes = &files_[id].chunks[c];
      }
      read_bucket_.Acquire(bytes->size());
      if (metrics_ != nullptr) {
        metrics_->Add(metric::kSpillBytesRead,
                      static_cast<int64_t>(bytes->size()));
      }
      HJ_ASSIGN_OR_RETURN(RecordBatch batch,
                          RecordBatch::Deserialize(*bytes, schema));
      HJ_RETURN_IF_ERROR(fn(std::move(batch)));
    }
    return Status::OK();
  }

  /// Releases a file's storage.
  void Drop(FileId id) {
    std::lock_guard<std::mutex> lock(mu_);
    if (id < files_.size()) files_[id] = File{};
  }

  /// What a file holds once read back: its rows and their in-memory batch
  /// bytes (RecordBatch::ByteSize). The grace join sizes the hash table a
  /// spilled partition needs from this.
  struct FileSize {
    size_t rows = 0;
    uint64_t batch_bytes = 0;
  };
  FileSize SizeOf(FileId id) const {
    std::lock_guard<std::mutex> lock(mu_);
    return id < files_.size() ? files_[id].size : FileSize{};
  }

  int64_t bytes_on_disk() const {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t total = 0;
    for (const auto& f : files_) {
      for (const auto& c : f.chunks) total += static_cast<int64_t>(c.size());
    }
    return total;
  }

 private:
  struct File {
    std::vector<std::vector<uint8_t>> chunks;
    FileSize size;
  };

  TokenBucket write_bucket_;
  TokenBucket read_bucket_;
  Metrics* metrics_;
  mutable std::mutex mu_;
  std::vector<File> files_;
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_EXEC_SPILL_H_
