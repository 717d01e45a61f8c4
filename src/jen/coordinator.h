// JenCoordinator: the single coordinator of the JEN execution engine
// (paper §4.1). It resolves HDFS tables through HCatalog, asks the NameNode
// for block locations, builds balanced locality-aware block assignments for
// the workers, brokers the connections between DB workers and JEN workers
// (Figure 5), and publishes the agreed shuffle hash function.

#ifndef HYBRIDJOIN_JEN_COORDINATOR_H_
#define HYBRIDJOIN_JEN_COORDINATOR_H_

#include <vector>

#include "common/result.h"
#include "hdfs/hcatalog.h"
#include "hdfs/namenode.h"

namespace hybridjoin {

/// Engine-level tuning knobs for JEN.
struct JenConfig {
  uint32_t send_threads = 2;        ///< per-worker shuffle send pool
  /// Process threads per worker for the Figure-7 scan pipeline (decode,
  /// predicate, Bloom, project, serialize run morsel-parallel off the read
  /// queue). 0 inherits SimulationConfig::exec_threads; 1 reproduces the
  /// historical single-process-thread pipeline exactly. EngineContext
  /// resolves this to >= 1 before constructing workers.
  uint32_t process_threads = 0;
  uint32_t shuffle_batch_rows = 4096;
  size_t read_queue_capacity = 8;   ///< blocks buffered between read/process
  bool locality_aware = true;       ///< block assignment respects replicas
  bool chunk_skipping = true;       ///< columnar min/max pruning
  /// Bytes charged for looking at a block footer when the block is skipped.
  uint64_t footer_read_bytes = 256;
  /// Spill disk bandwidths (bytes/sec; 0 = unthrottled).
  uint64_t spill_write_bps = 0;
  uint64_t spill_read_bps = 0;
};

/// One block assigned to one worker, with the replica it should read.
struct BlockAssignment {
  BlockInfo info;
  ReplicaLocation replica;
  bool local = false;  ///< replica lives on the worker's own DataNode
};

/// The scan work for the whole cluster: per_worker[w] lists worker w's
/// blocks.
struct ScanPlan {
  HdfsTableMeta meta;
  std::vector<std::vector<BlockAssignment>> per_worker;

  /// Fraction of blocks read from a local replica (diagnostic).
  double LocalityFraction() const;
};

class JenCoordinator {
 public:
  JenCoordinator(HCatalog* hcatalog, NameNode* namenode, uint32_t num_workers,
                 JenConfig config)
      : hcatalog_(hcatalog),
        namenode_(namenode),
        num_workers_(num_workers),
        config_(config) {}

  uint32_t num_workers() const { return num_workers_; }
  const JenConfig& config() const { return config_; }

  /// The worker that performs global Bloom-filter / aggregate combination
  /// and talks to the database for final results.
  uint32_t designated_worker() const { return 0; }

  /// Resolves the table and assigns its blocks to workers, balanced and
  /// (when configured) locality-aware: each block goes to a worker holding
  /// a replica when that does not skew the load beyond +/-1 block.
  Result<ScanPlan> PlanScan(const std::string& table) const;

  /// Connection brokering for DB-side data exchange (Figure 5): splits the
  /// n JEN workers into m groups, one group per DB worker. Worker w talks to
  /// DB worker GroupOf(w).
  std::vector<std::vector<uint32_t>> GroupWorkersForDb(
      uint32_t num_db_workers) const;

 private:
  HCatalog* hcatalog_;
  NameNode* namenode_;
  uint32_t num_workers_;
  JenConfig config_;
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_JEN_COORDINATOR_H_
