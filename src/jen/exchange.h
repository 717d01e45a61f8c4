// Exchange helpers shared by the join drivers: a pooled batch sender (the
// paper's send-buffer + send-thread scheme, Figure 7), stream receivers that
// collect batches or feed a hash table, and small wire helpers for Bloom
// filters and the DB->JEN scan-request control message.

#ifndef HYBRIDJOIN_JEN_EXCHANGE_H_
#define HYBRIDJOIN_JEN_EXCHANGE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/blocking_queue.h"
#include "exec/heavy_hitters.h"
#include "exec/memory_governor.h"
#include "exec/partitioned_appender.h"
#include "expr/predicate.h"
#include "net/network.h"

namespace hybridjoin {

/// Sends one logical message with bounded retry: a fresh sequence number is
/// reserved once so every attempt draws the same fault decisions, transient
/// kUnavailable failures back off (exponentially from `backoff_us`) and
/// retry up to `max_attempts` times total. Returns the last attempt's error
/// when they are all exhausted — hard (injected) message loss surfaces here.
Status SendWithRetry(Network* network, NodeId from, NodeId to, uint64_t tag,
                     std::shared_ptr<const std::vector<uint8_t>> payload,
                     uint32_t max_attempts = 5, uint64_t backoff_us = 100);

inline Status SendWithRetry(Network* network, NodeId from, NodeId to,
                            uint64_t tag, std::vector<uint8_t> payload,
                            uint32_t max_attempts = 5,
                            uint64_t backoff_us = 100) {
  return SendWithRetry(
      network, from, to, tag,
      std::make_shared<const std::vector<uint8_t>>(std::move(payload)),
      max_attempts, backoff_us);
}

/// Recycles serialization buffers so steady-state batch sends stop paying
/// one heap allocation (and its page faults) per batch. Acquire() hands out
/// an empty vector with whatever capacity its previous life grew; Share()
/// wraps a filled buffer as the shared payload the network queues hold, and
/// its deleter returns the storage here once the last queue drops it. The
/// deleter keeps the pool alive, so payloads may outlive the BatchSender.
class BufferPool : public std::enable_shared_from_this<BufferPool> {
 public:
  static std::shared_ptr<BufferPool> Create(size_t max_buffers = 64) {
    return std::shared_ptr<BufferPool>(new BufferPool(max_buffers));
  }

  /// An empty buffer, reusing a recycled allocation when one is available.
  std::vector<uint8_t> Acquire() {
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) return {};
    std::vector<uint8_t> buf = std::move(free_.back());
    free_.pop_back();
    return buf;
  }

  /// Wraps a filled buffer as a shared payload that recycles its storage
  /// into this pool when released.
  std::shared_ptr<const std::vector<uint8_t>> Share(std::vector<uint8_t> buf) {
    auto* heap = new std::vector<uint8_t>(std::move(buf));
    auto self = shared_from_this();
    return std::shared_ptr<const std::vector<uint8_t>>(
        heap, [self](const std::vector<uint8_t>* p) {
          self->Recycle(std::move(*const_cast<std::vector<uint8_t>*>(p)));
          delete p;
        });
  }

  size_t free_buffers() const {
    std::lock_guard<std::mutex> lock(mu_);
    return free_.size();
  }

 private:
  explicit BufferPool(size_t max_buffers) : max_buffers_(max_buffers) {}

  void Recycle(std::vector<uint8_t> buf) {
    buf.clear();
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.size() < max_buffers_) free_.push_back(std::move(buf));
  }

  mutable std::mutex mu_;
  std::vector<std::vector<uint8_t>> free_;
  const size_t max_buffers_;
};

/// Serializes batches on the caller's thread (the "process thread" filling
/// send buffers) and ships them from a small pool of send threads, so
/// network waits overlap with scanning/processing.
///
/// Send/SendToAll/SendSerialized are safe to call from several process
/// threads concurrently (the morsel-parallel scan shares one sender): the
/// buffer pool and the send queue are internally synchronized and the
/// counters are atomic. Finish must be called once, after every producer
/// has stopped.
class BatchSender {
 public:
  BatchSender(Network* network, NodeId self, uint64_t tag,
              uint32_t num_threads, Metrics* metrics = nullptr,
              const char* tuple_counter = nullptr);
  ~BatchSender();

  BatchSender(const BatchSender&) = delete;
  BatchSender& operator=(const BatchSender&) = delete;

  /// Serializes and enqueues a batch for `dest`. The serialization buffer
  /// comes from the sender's BufferPool and is recycled after the send.
  void Send(NodeId dest, const RecordBatch& batch);

  /// Serializes once and enqueues for every destination (broadcast; the
  /// payload is shared, not copied).
  void SendToAll(const std::vector<NodeId>& dests, const RecordBatch& batch);

  /// Enqueues an already-serialized payload for several destinations
  /// (broadcast; the payload is shared, not copied).
  void SendSerialized(const std::vector<NodeId>& dests,
                      std::shared_ptr<const std::vector<uint8_t>> payload,
                      int64_t tuple_count);

  /// Drains the queue, then emits EOS to every node in `dests` (EOS goes
  /// out even after send failures, so receivers never hang waiting for a
  /// stream that died). Returns the first permanent send error, if any; the
  /// sender is unusable afterwards.
  Status Finish(const std::vector<NodeId>& dests);

  int64_t tuples_sent() const { return tuples_sent_; }

  /// First permanent send error across the send threads (OK if none yet).
  Status status() const {
    std::lock_guard<std::mutex> lock(error_mu_);
    return first_error_;
  }

 private:
  struct Item {
    NodeId dest;
    std::shared_ptr<const std::vector<uint8_t>> payload;
  };

  void RecordError(const Status& s);

  Network* network_;
  NodeId self_;
  uint64_t tag_;
  Metrics* metrics_;
  const char* tuple_counter_;
  /// Queued-but-unsent payload bytes are in-flight memory of the query:
  /// charged per enqueued Item (a broadcast charges once per destination —
  /// each Item pins the payload) and released by the send thread that pops
  /// it. Charged through the never-failing Reserve path; the bounded send
  /// queue is the real backpressure. Captured at construction so the send
  /// threads never touch thread-local state. The shared BufferPool is left
  /// uncharged: recycled payloads can outlive the query's governor.
  MemoryGovernor* governor_;
  std::shared_ptr<BufferPool> pool_;
  BlockingQueue<Item> queue_;
  std::vector<std::thread> threads_;
  std::atomic<int64_t> tuples_sent_{0};
  bool finished_ = false;
  mutable std::mutex error_mu_;
  Status first_error_;
  std::atomic<bool> failed_{false};
};

/// Drains the `expected_senders` streams on (self, tag), handing every
/// batch to `fn` as it arrives — the paper's receive threads that build the
/// join as shuffled data arrives. After the first error (a bad payload or a
/// failing `fn`) the rest of the stream is still drained, so no message is
/// left behind, but `fn` is no longer called. Returns that first error, or
/// the stream's own status.
Status ReceiveEach(Network* network, NodeId self, uint64_t tag,
                   uint32_t expected_senders, const SchemaPtr& schema,
                   const std::function<Status(RecordBatch&&)>& fn);

/// Receives every batch from `expected_senders` streams on (self, tag).
Result<std::vector<RecordBatch>> ReceiveAllBatches(Network* network,
                                                   NodeId self, uint64_t tag,
                                                   uint32_t expected_senders,
                                                   const SchemaPtr& schema);

/// Bloom filter transfer (metered under the bloom.* counters).
void SendBloom(Network* network, NodeId from, NodeId to, uint64_t tag,
               const BloomFilter& bloom, Metrics* metrics);
Result<BloomFilter> RecvBloom(Network* network, NodeId self, uint64_t tag);

/// Hot-key-set transfer for the skew-aware shuffle. Control-plane messages
/// like the Bloom filters: sent on the fault-exempt control channel so a
/// routing decision is never lost (losing it on one worker would break the
/// exactly-once pairing of the hybrid route).
void SendHotKeys(Network* network, NodeId from, NodeId to, uint64_t tag,
                 const HotKeySet& hot);
Result<HotKeySet> RecvHotKeys(Network* network, NodeId self, uint64_t tag);

/// Serialized heavy-hitter sketch transfer (local sketches -> coordinator).
void SendSketch(Network* network, NodeId from, NodeId to, uint64_t tag,
                const HeavyHitterSketch& sketch);
Result<HeavyHitterSketch> RecvSketch(Network* network, NodeId self,
                                     uint64_t tag);

/// The hybrid route of the skew-aware shuffle: cold keys flow through a
/// PartitionedAppender exactly as before, rows whose key is in the hot set
/// are batched separately and handed to `hot_sink` whenever a full batch
/// accumulates (and at FlushAll). The two sinks define the route:
///
///   - DB side (the broadcast/"build" side): hot_sink does
///     BatchSender::SendToAll, replicating each hot batch to every worker
///     with the serialize-once pooled-buffer path;
///   - JEN side (the skewed/"probe" side): hot_sink keeps the batch on the
///     scanning worker — hot probe rows never enter the shuffle.
///
/// With a null/empty hot set every row takes the cold path, byte-identical
/// to the pre-skew shuffle. Not thread-safe; one per producer thread, like
/// PartitionedAppender.
class SkewRouter {
 public:
  using HotSink = std::function<Status(RecordBatch&& batch)>;

  SkewRouter(SchemaPtr schema, uint32_t num_partitions, size_t key_column,
             PartitionedAppender::PartitionFn cold_fn, size_t flush_rows,
             PartitionedAppender::Sink cold_sink, const HotKeySet* hot,
             HotSink hot_sink)
      : cold_(std::move(schema), num_partitions, key_column,
              std::move(cold_fn), flush_rows, std::move(cold_sink)),
        schema_(cold_.schema()),
        key_column_(key_column),
        flush_rows_(flush_rows),
        hot_(hot != nullptr && !hot->empty() ? hot : nullptr),
        hot_sink_(std::move(hot_sink)),
        hot_pending_(schema_) {}

  /// Routes the selected rows of `batch`.
  Status Append(const RecordBatch& batch, const std::vector<uint32_t>& sel);

  /// Flushes the pending cold batches and the pending hot batch.
  Status FlushAll();

  int64_t hot_rows() const { return hot_rows_; }
  int64_t cold_rows() const { return cold_.routed_rows(); }

 private:
  PartitionedAppender cold_;
  SchemaPtr schema_;
  size_t key_column_;
  size_t flush_rows_;
  const HotKeySet* hot_;  ///< null = pure cold routing
  HotSink hot_sink_;
  RecordBatch hot_pending_;
  std::vector<uint32_t> cold_sel_;  ///< scratch, reused across Appends
  int64_t hot_rows_ = 0;
};

/// The DB->JEN scan request of the DB-side join (paper Figure 5): local
/// predicates on the HDFS table, required columns, optional Bloom filter
/// and its key column.
struct ScanRequest {
  PredicatePtr predicate;  // may be null
  std::vector<std::string> projection;
  std::optional<BloomFilter> bloom;
  std::string bloom_column;

  std::vector<uint8_t> Serialize() const;
  static Result<ScanRequest> Deserialize(const std::vector<uint8_t>& buf);
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_JEN_EXCHANGE_H_
