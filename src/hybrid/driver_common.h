// Shared plumbing for the join drivers: per-query channel tags, cross-thread
// status collection, the Bloom combine patterns of §3 (local filters OR-ed
// into a global one at a designated node), and the report builder.

#ifndef HYBRIDJOIN_HYBRID_DRIVER_COMMON_H_
#define HYBRIDJOIN_HYBRID_DRIVER_COMMON_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/query_scope.h"
#include "common/stopwatch.h"
#include "exec/aggregator.h"
#include "exec/grace_join.h"
#include "exec/memory_governor.h"
#include "exec/morsel.h"
#include "hybrid/context.h"
#include "hybrid/query.h"
#include "hybrid/report.h"
#include "jen/exchange.h"
#include "obs/metric_scope.h"

namespace hybridjoin {

struct PreparedQuery;

namespace driver {

class ReportBuilder;

/// Channel tags for one query execution, carved out of the network's tag
/// space so concurrent executions can never collide.
struct Tags {
  uint64_t bloom_local;    ///< DB worker -> DB worker 0 (local BF_DB)
  uint64_t bloom_global;   ///< DB worker 0 -> DB workers (global BF_DB)
  uint64_t bloom_to_jen;   ///< DB worker -> its JEN group (global BF_DB)
  uint64_t shuffle;        ///< JEN <-> JEN (L' repartition)
  uint64_t db_data;        ///< DB -> JEN (T' / T'')
  uint64_t bloom_h_local;  ///< JEN worker -> designated (local BF_H)
  uint64_t bloom_h_global; ///< designated JEN -> DB workers (global BF_H)
  uint64_t agg;            ///< partial aggregates -> designated node
  uint64_t result;         ///< final rows -> DB worker 0
  uint64_t l_data;         ///< JEN -> DB (L'' for the DB-side join)
  uint64_t control;        ///< DB -> JEN scan requests
  uint64_t counts;         ///< DB stats -> DB worker 0 (optimizer input)
  uint64_t strategy;       ///< DB worker 0 -> DB workers (plan decision)
  uint64_t db_shuffle_t;   ///< intra-DB exchange of T'
  uint64_t db_shuffle_l;   ///< intra-DB exchange of L''
  uint64_t profile;        ///< worker metric snapshots -> DB worker 0
  uint64_t sketch_local;   ///< DB worker -> DB worker 0 (heavy-hitter sketch)
  uint64_t hot_global;     ///< DB worker 0 -> DB workers (hot-key set)
  uint64_t hot_to_jen;     ///< DB worker -> its JEN group (hot-key set)
  uint64_t adapt_stats;    ///< all workers -> DB worker 0 (observed stats)
  uint64_t adapt_decision; ///< DB worker 0 -> all (stay-or-pivot decision)

  static Tags Allocate(Network* network);
};

/// Prefix state handed from the adaptive layer (hybrid/adaptive_join.cc) to
/// whichever driver the stay-or-pivot decision selects. When `report` is
/// non-null the driver reuses it instead of opening its own execution (no
/// second query id, no Finish — the adaptive layer finishes), and when
/// `global_bloom` is non-null the DB workers skip the Bloom build/combine
/// and start from the carried global filter (`sketches[i]` likewise replaces
/// DB worker i's piggybacked heavy-hitter sketch). The JEN side of every
/// driver is unchanged: carried state is re-sent on the normal data-plane
/// tags, so the cross-cluster Bloom transfer keeps its network charge.
struct AdaptiveCarry {
  ReportBuilder* report = nullptr;
  const BloomFilter* global_bloom = nullptr;
  const std::vector<HeavyHitterSketch>* sketches = nullptr;  // per DB worker
};

/// First-error-wins status aggregation across worker threads.
class StatusCollector {
 public:
  void Record(const Status& status) {
    if (status.ok()) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (first_.ok()) first_ = status;
  }
  Status First() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_;
  }

 private:
  mutable std::mutex mu_;
  Status first_;
};

/// RAII: construct right after the worker lambda's trace::ThreadScope; the
/// destructor — the lambda's last action — measures the worker's wall time,
/// snapshots the node's scoped metric slice and SendControl()s it to DB
/// worker 0 on tags.profile, where ReportBuilder::CollectProfiles drains it.
/// JEN workers additionally record metric::kJenWorkerWallUs.
class NodeProfileScope {
 public:
  NodeProfileScope(EngineContext* ctx, NodeId node, const Tags& tags)
      : ctx_(ctx), node_(node), tag_(tags.profile) {}
  ~NodeProfileScope();

  NodeProfileScope(const NodeProfileScope&) = delete;
  NodeProfileScope& operator=(const NodeProfileScope&) = delete;

 private:
  EngineContext* ctx_;
  NodeId node_;
  uint64_t tag_;
  Stopwatch stopwatch_;
};

/// Builds the ExecutionReport: snapshots metrics and per-class network
/// bytes at construction, takes deltas at Finish. Mark() records named
/// timestamps from any thread (first caller wins per name).
///
/// Construction allocates this execution's query id, installs a QueryScope
/// for it on the driver thread (worker threads re-install it from
/// query_id()), and registers the execution with the context. When the
/// query runs *alone* it additionally clears the tracer buffer and stale
/// scoped slices, exactly as the historical single-query path did; under
/// concurrency those whole-context facilities are left to their owners and
/// only this query's scoped slices are used (and dropped again at
/// destruction), so concurrent profiles never cross-contaminate. Global
/// counter / network-byte deltas still aggregate whole-context activity —
/// per-query truth under concurrency lives in ExecutionReport::profile.
class ReportBuilder {
 public:
  /// `memory_budget_bytes` seeds this execution's MemoryGovernor; 0 falls
  /// back to SimulationConfig::query_memory_budget_bytes (and 0 there means
  /// unlimited — the governor still tracks the peak).
  ReportBuilder(EngineContext* ctx, JoinAlgorithm algorithm,
                uint64_t memory_budget_bytes = 0);
  ~ReportBuilder();

  ReportBuilder(const ReportBuilder&) = delete;
  ReportBuilder& operator=(const ReportBuilder&) = delete;

  /// This execution's query id; worker threads install QueryScope(query_id())
  /// so their scoped metric writes land in this query's slices.
  uint64_t query_id() const { return query_id_; }

  /// This execution's memory governor; worker threads install
  /// MemoryGovernor::Scope(report.governor()) right after their QueryScope
  /// so per-thread operator state charges the right query.
  MemoryGovernor* governor() const { return governor_.get(); }

  /// True when this execution had the context to itself at construction.
  bool exclusive() const { return exclusive_; }

  /// Thread-safe named timestamp (seconds since start).
  void Mark(const std::string& name);

  /// Re-labels the execution after a mid-query pivot: Finish() reports the
  /// algorithm that actually ran, not the one construction guessed. Call
  /// from the driver thread before dispatching the chosen driver.
  void SetAlgorithm(JoinAlgorithm algorithm) { algorithm_ = algorithm; }

  /// Drains `expected` NodeProfileScope snapshots from tags.profile on DB
  /// worker 0. Call from the driver thread after joining the worker
  /// threads — every snapshot is already queued then, so this never
  /// blocks. Collection is best-effort: undecodable payloads are skipped.
  void CollectProfiles(const Tags& tags, uint32_t expected);

  ExecutionReport Finish();

 private:
  EngineContext* ctx_;
  JoinAlgorithm algorithm_;
  uint64_t query_id_;
  QueryScope scope_;  ///< driver-thread attribution for query_id_
  std::unique_ptr<MemoryGovernor> governor_;
  MemoryGovernor::Scope governor_scope_;  ///< driver-thread installation
  bool exclusive_;
  Stopwatch stopwatch_;
  std::map<std::string, int64_t> counters_before_;
  int64_t net_before_[4];
  std::vector<obs::NodeProfileSnapshot> node_profiles_;
  std::mutex mu_;
  std::vector<std::pair<std::string, double>> marks_;
};

/// The DB side's get_filter/combine_filter pattern: every DB worker calls
/// this with its local filter; worker 0 receives all of them, ORs them and
/// redistributes the global filter; every caller returns with the global
/// filter. (Paper §3.1 / §4.1.1.)
Result<BloomFilter> CombineBloomAtDbWorker0(EngineContext* ctx,
                                            uint32_t worker,
                                            const BloomFilter& local,
                                            const Tags& tags);

/// The skew-aware shuffle's coordinator step, mirroring the Bloom combine:
/// every DB worker ships its local heavy-hitter sketch to worker 0, which
/// merges them, picks the hot set for an exchange over `route_workers`
/// destinations (PickHotKeys with the SkewConfig knobs, recording the
/// shuffle.hot_keys gauge) and redistributes it; every caller returns with
/// the same global hot set. The single coordinator decision is what makes
/// the hybrid route safe: all senders agree on exactly which keys are hot,
/// so every (build, probe) row pair meets on exactly one worker.
Result<HotKeySet> CombineHotKeysAtDbWorker0(EngineContext* ctx,
                                            uint32_t worker,
                                            const HeavyHitterSketch& local,
                                            uint32_t route_workers,
                                            const Tags& tags);

/// Serializes this worker's partial aggregate to the designated JEN worker;
/// the designated worker merges all partials, sends the final rows to DB
/// worker 0, and every JEN caller returns. (Steps "partial aggregation /
/// final aggregation / send result" of Figures 2-4.)
Status JenAggregateAndReturn(EngineContext* ctx, uint32_t jen_worker,
                             HashAggregator* partial, const Tags& tags);

/// DB worker 0 blocks for the final rows sent by the designated JEN worker.
Result<RecordBatch> DbReceiveResult(EngineContext* ctx, const AggSpec& agg,
                                    const Tags& tags);

/// Owner DB worker of each JEN worker under the coordinator's grouping.
std::vector<uint32_t> OwnerOfJenWorkers(EngineContext* ctx);

/// All JEN node ids.
std::vector<NodeId> AllJenNodes(EngineContext* ctx);
/// All DB node ids.
std::vector<NodeId> AllDbNodes(EngineContext* ctx);

/// The identity selection [0, n).
std::vector<uint32_t> AllRows(size_t n);

/// Filters a materialized batch list by a Bloom filter on `column`,
/// returning the surviving rows (used for T'' = BF_H(T') in the zigzag
/// join).
Result<std::vector<RecordBatch>> FilterBatchesByBloom(
    const std::vector<RecordBatch>& batches, const std::string& column,
    const BloomFilter& bloom);

/// Shard count for a morsel-parallel hash-table build: 1 when the context
/// runs single-threaded, else 2x the exec threads so the shard ParallelFor
/// load-balances around key skew. Probe results are byte-identical for any
/// shard count (see exec/join_hash_table.h). The join drivers do not use it:
/// their GraceHashJoin shards by its partition count.
uint32_t HashTableShards(EngineContext* ctx);

/// One input of a hash join: its schema, alias and join-key column.
struct JoinSide {
  SchemaPtr schema;
  std::string alias;
  size_t key = 0;
};
/// T' as prepared (DB side) and L' as prepared (HDFS side).
JoinSide DbJoinSide(const PreparedQuery& prepared);
JoinSide HdfsJoinSide(const PreparedQuery& prepared);

/// Freezes the join's build inside a join.ht_finalize span, extracting and
/// finalizing its resident table on the context's exec pool.
Status FinishJoinBuild(EngineContext* ctx, GraceHashJoin* join);

/// Morsel-parallel probe + partial aggregation over a built GraceHashJoin.
/// ctx->exec_threads() probe threads each own a GraceHashJoin::ProbeThread
/// feeding a thread-local HashAggregator partial. Batches reach them two
/// ways: Feed() hands one producer's batches through a bounded queue to pipe
/// threads (traced "probe/<t>"), and Probe(t, batch) probes inline on a
/// caller-owned thread t (the JEN scan's process threads). Finish() merges
/// the partials into the target aggregator — every aggregate op is
/// commutative and partials are sorted by group key, so the result is
/// independent of which thread probed which batch — and then joins the
/// spilled partitions. With exec_threads() == 1 there are no extra threads:
/// the one probe thread aggregates straight into the target, reproducing the
/// single-threaded pipeline exactly.
class ParallelProbe {
 public:
  /// `join` must be built; `agg` is the aggregator it was constructed with.
  /// When `probe_span` is non-null every probe call is wrapped in a span of
  /// that name (e.g. trace::span::kJenProbe) under the kCatJoin category.
  ParallelProbe(EngineContext* ctx, NodeId node, GraceHashJoin* join,
                HashAggregator* agg, const char* probe_span = nullptr);

  /// Routes one probe batch to a probe thread (inline when exec_threads==1).
  /// Single producer.
  Status Feed(RecordBatch&& batch);

  /// Probes on the calling thread as probe thread `thread`; one caller
  /// thread per index.
  Status Probe(uint32_t thread, const RecordBatch& batch);

  /// Joins the probe threads, flushes them, merges the partials, then
  /// finishes the join (its spilled partition pairs). Call exactly once.
  Status Finish();

 private:
  EngineContext* ctx_;
  NodeId node_;
  GraceHashJoin* join_;
  HashAggregator* agg_;
  const char* probe_span_;
  std::vector<std::unique_ptr<HashAggregator>> partials_;
  std::vector<std::unique_ptr<GraceHashJoin::ProbeThread>> threads_;
  std::unique_ptr<BatchMorselPipe> pipe_;  ///< created by the first Feed
};

/// Records a combined/global Bloom filter's fill fraction and realized-FPR
/// estimate under the bloom.* gauge counters.
void RecordBloomStats(EngineContext* ctx, const BloomFilter& bloom);

}  // namespace driver
}  // namespace hybridjoin

#endif  // HYBRIDJOIN_HYBRID_DRIVER_COMMON_H_
