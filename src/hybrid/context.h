// EngineContext: the assembled hybrid warehouse — both clusters, the
// interconnect, metadata services and metrics. Join drivers operate on a
// context; HybridWarehouse (the public facade) owns one.

#ifndef HYBRIDJOIN_HYBRID_CONTEXT_H_
#define HYBRIDJOIN_HYBRID_CONTEXT_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "edw/db_cluster.h"
#include "hdfs/hcatalog.h"
#include "hdfs/namenode.h"
#include "hybrid/config.h"
#include "jen/coordinator.h"
#include "jen/worker.h"
#include "net/network.h"
#include "trace/tracer.h"

namespace hybridjoin {

/// Owns every component. N queries may run concurrently over one context
/// (src/server/ pushes them through admission control): scoped metric
/// slices, trace events and network byte charges are keyed per query id,
/// catalogs take reader-writer locks, and the exec pool fair-shares across
/// query lanes. The process-wide metric reads (a fold of every query's
/// slices), the tracer buffer and the per-class byte totals are
/// whole-context views across every query.
class EngineContext {
 public:
  explicit EngineContext(const SimulationConfig& config);

  EngineContext(const EngineContext&) = delete;
  EngineContext& operator=(const EngineContext&) = delete;

  const SimulationConfig& config() const { return config_; }
  Metrics& metrics() { return metrics_; }
  trace::Tracer& tracer() { return tracer_; }
  Network& network() { return network_; }
  NameNode& namenode() { return namenode_; }
  HCatalog& hcatalog() { return hcatalog_; }
  DbCluster& db() { return db_; }
  JenCoordinator& coordinator() { return coordinator_; }
  JenWorker* jen_worker(uint32_t i) { return jen_workers_[i].get(); }
  DataNode* datanode(uint32_t i) { return datanodes_[i].get(); }

  uint32_t num_db_workers() const { return config_.db.num_workers; }
  uint32_t num_jen_workers() const { return config_.jen_workers; }

  /// Resolved intra-node morsel parallelism (>= 1; see
  /// SimulationConfig::exec_threads). config().jen.process_threads is
  /// resolved against this before workers are constructed.
  uint32_t exec_threads() const { return exec_threads_; }

  /// Shared pool for CPU-only morsel work (partitioned hash-table build,
  /// parallel finalize). nullptr when exec_threads() == 1 — callers fall
  /// back to their serial paths. Tasks must never block on queues or the
  /// network; several driver threads ParallelFor on it concurrently.
  ThreadPool* exec_pool() { return exec_pool_.get(); }

  /// Bloom parameters per the configured sizing policy.
  BloomParams bloom_params() const {
    return BloomParams::ForKeys(config_.bloom.expected_keys,
                                config_.bloom.bits_per_key,
                                config_.bloom.num_hashes,
                                config_.bloom.layout);
  }

  /// Drops every DataNode's page cache (for cold-run benchmarking).
  void DropHdfsCaches();

  /// Monotonic *process-global* query id, stamped into each QueryProfile
  /// and used as the key of the live-query registry (obs/query_registry.h).
  /// Process-global rather than per-context so ids never collide across
  /// warehouses in one process — the registry and the per-thread
  /// cancellation caches depend on ids being unique for the process
  /// lifetime.
  uint64_t NextQueryId() { return g_query_seq_.fetch_add(1) + 1; }

 private:
  SimulationConfig config_;
  Metrics metrics_;
  trace::Tracer tracer_;
  std::unique_ptr<FaultInjector> fault_injector_;
  Network network_;
  std::vector<std::unique_ptr<DataNode>> datanodes_;
  std::vector<DataNode*> datanode_ptrs_;
  NameNode namenode_;
  HCatalog hcatalog_;
  DbCluster db_;
  JenCoordinator coordinator_;
  std::vector<std::unique_ptr<JenWorker>> jen_workers_;
  uint32_t exec_threads_ = 1;
  std::unique_ptr<ThreadPool> exec_pool_;
  static inline std::atomic<uint64_t> g_query_seq_{0};
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_HYBRID_CONTEXT_H_
