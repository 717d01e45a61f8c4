// JenWorker: one JEN worker process (paper §4.1/§4.4). Implements the
// multi-threaded scan pipeline of Figure 7: one read thread per disk feeds
// raw blocks through a bounded queue to N process threads, which parse /
// decode, apply local predicates, the database Bloom filter and the
// projection, and hand filtered batches to per-thread consumers (shuffle
// sender, probe pipeline, or DB upload) — all overlapped. The queue is the
// morsel dispenser: process threads pull whole decoded blocks, so the work
// split adapts to per-block selectivity without any static assignment.

#ifndef HYBRIDJOIN_JEN_WORKER_H_
#define HYBRIDJOIN_JEN_WORKER_H_

#include <functional>
#include <memory>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/metrics.h"
#include "expr/predicate.h"
#include "hdfs/datanode.h"
#include "jen/coordinator.h"
#include "net/network.h"
#include "trace/tracer.h"

namespace hybridjoin {

/// Everything a worker needs to scan its share of one table.
struct ScanTask {
  HdfsTableMeta meta;
  std::vector<BlockAssignment> blocks;
  /// Local predicates on the HDFS table (nullable).
  PredicatePtr predicate;
  /// Output columns, in output order.
  std::vector<std::string> projection;
  /// Optional database Bloom filter applied to `bloom_column` (the paper's
  /// BF_DB pruning of non-joinable HDFS records).
  const BloomFilter* bloom = nullptr;
  std::string bloom_column;
};

/// Per-scan statistics (also mirrored into Metrics).
struct ScanStats {
  int64_t blocks_read = 0;
  int64_t blocks_skipped = 0;  ///< pruned by columnar min/max stats
  int64_t bytes_read = 0;
  int64_t rows_scanned = 0;
  int64_t rows_after_filter = 0;
  int64_t rows_dropped_by_bloom = 0;
};

/// Receives filtered, projected batches from the scan. May block (e.g. on
/// network throttles) — that is the intended backpressure.
using ScanConsumer = std::function<Status(RecordBatch&&)>;

/// Builds the consumer for process thread `t` (0 <= t < process_threads).
/// Called serially on the scanning thread before any process thread starts,
/// so the factory itself needs no synchronization. Each returned consumer is
/// invoked only from its own thread; consumers must be mutually thread-safe
/// only where they share state (e.g. one Exchange sender, which they feed
/// as separate producers and whose send queue is synchronized).
using ScanConsumerFactory = std::function<ScanConsumer(uint32_t)>;

class JenWorker {
 public:
  /// `datanodes` indexes every DataNode in the cluster; the worker's own
  /// node is `datanodes[index]` (JEN runs one worker per DataNode).
  JenWorker(uint32_t index, std::vector<DataNode*> datanodes,
            Network* network, Metrics* metrics, JenConfig config,
            trace::Tracer* tracer = nullptr)
      : index_(index),
        datanodes_(std::move(datanodes)),
        network_(network),
        metrics_(metrics),
        config_(config),
        tracer_(tracer) {}

  uint32_t index() const { return index_; }
  NodeId node() const { return NodeId::Hdfs(index_); }
  Network* network() const { return network_; }
  Metrics* metrics() const { return metrics_; }
  const JenConfig& config() const { return config_; }

  /// The schema of the batches the consumer receives (task projection).
  static Result<SchemaPtr> OutputSchema(const ScanTask& task);

  /// Runs the Figure-7 scan pipeline with a single process thread (the
  /// calling thread), regardless of config().process_threads. Kept for
  /// callers whose consumer is not thread-safe; equivalent to
  /// ScanBlocksParallel with process_threads == 1.
  Status ScanBlocks(const ScanTask& task, const ScanConsumer& consumer,
                    ScanStats* stats = nullptr);

  /// Runs the Figure-7 scan pipeline with config().process_threads process
  /// threads pulling decoded blocks off the shared read queue
  /// (morsel-driven). With one process thread the loop runs inline on the
  /// calling thread — identical behavior and trace attribution to
  /// ScanBlocks; with more, worker threads are traced as "jen_proc/<t>".
  /// Returns after all assigned blocks are processed; the first failing
  /// process thread aborts the scan (process errors take priority over
  /// reader errors in the returned Status).
  Status ScanBlocksParallel(const ScanTask& task,
                            const ScanConsumerFactory& factory,
                            ScanStats* stats = nullptr);

 private:
  Status ScanImpl(const ScanTask& task, const ScanConsumerFactory& factory,
                  ScanStats* stats, uint32_t process_threads);

  uint32_t index_;
  std::vector<DataNode*> datanodes_;
  Network* network_;
  Metrics* metrics_;
  JenConfig config_;
  trace::Tracer* tracer_ = nullptr;
};

/// Narrows `sel` to rows of `batch` whose `column` value may be in `bloom`.
Status FilterByBloom(const RecordBatch& batch, const std::string& column,
                     const BloomFilter& bloom, std::vector<uint32_t>* sel);

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_JEN_WORKER_H_
