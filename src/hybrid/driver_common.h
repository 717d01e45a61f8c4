// The execution runtime every join driver runs on, plus the stages the
// algorithms of §3 share. An Execution owns one query's report, channel
// tags and first-error status, and runs the m DB + n JEN worker threads
// with their query, governor, trace and profile scopes installed; the
// adaptive path runs its prefix and the chosen driver as two rounds of one
// Execution. The shared stages are the DB-side Bloom prefix (BF_DB build,
// combine and hot-key agreement, or resumption from a PrefixState), the
// Bloom combine, the local hash join and the partial-aggregate merge.

#ifndef HYBRIDJOIN_HYBRID_DRIVER_COMMON_H_
#define HYBRIDJOIN_HYBRID_DRIVER_COMMON_H_

#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/query_scope.h"
#include "common/stopwatch.h"
#include "exec/aggregator.h"
#include "exec/grace_join.h"
#include "exec/memory_governor.h"
#include "exec/morsel.h"
#include "exec/spill.h"
#include "hybrid/algorithms.h"
#include "hybrid/context.h"
#include "hybrid/query.h"
#include "hybrid/report.h"
#include "jen/exchange.h"
#include "obs/metric_scope.h"

namespace hybridjoin {
namespace driver {

/// Channel tags for one query execution: one block carved out of the
/// network's tag space, so concurrent executions can never collide.
struct Tags {
  static constexpr uint64_t kWidth = 21;  ///< tags per block

  static Tags Allocate(Network* network) {
    return Tags(network->AllocateTagBlock(kWidth));
  }
  explicit Tags(uint64_t first) : base(first) {}

  uint64_t base;                      ///< first tag of the block
  uint64_t bloom_local = base + 0;    ///< DB worker -> DB worker 0 (BF_DB)
  uint64_t bloom_global = base + 1;   ///< DB worker 0 -> DB workers (BF_DB)
  uint64_t bloom_to_jen = base + 2;   ///< DB worker -> its JEN group (BF_DB)
  uint64_t shuffle = base + 3;        ///< JEN <-> JEN (L' repartition)
  uint64_t db_data = base + 4;        ///< DB -> JEN (T' / T'')
  uint64_t bloom_h_local = base + 5;  ///< JEN worker -> designated (BF_H)
  uint64_t bloom_h_global = base + 6; ///< designated JEN -> DB (BF_H)
  uint64_t agg = base + 7;            ///< partial aggregates -> designated
  uint64_t result = base + 8;         ///< final rows -> DB worker 0
  uint64_t l_data = base + 9;         ///< JEN -> DB (L'' of the DB-side join)
  uint64_t control = base + 10;       ///< DB -> JEN scan requests
  uint64_t counts = base + 11;        ///< DB stats -> DB worker 0
  uint64_t strategy = base + 12;      ///< DB worker 0 -> DB (plan decision)
  uint64_t db_shuffle_t = base + 13;  ///< intra-DB exchange of T'
  uint64_t db_shuffle_l = base + 14;  ///< intra-DB exchange of L''
  uint64_t profile = base + 15;       ///< worker snapshots -> DB worker 0
  uint64_t sketch_local = base + 16;  ///< DB -> DB worker 0 (sketch)
  uint64_t hot_global = base + 17;    ///< DB worker 0 -> DB (hot-key set)
  uint64_t hot_to_jen = base + 18;    ///< DB -> its JEN group (hot-key set)
  uint64_t adapt_stats = base + 19;   ///< all -> DB worker 0 (observed stats)
  uint64_t adapt_decision = base + 20;  ///< DB worker 0 -> all (pivot)
};

/// A thread acting for `node` in the spawning thread's query: it re-installs
/// the spawner's QueryScope and MemoryGovernor::Scope, then a
/// trace::ThreadScope(node, role), around `fn`. Joined by Join() or at
/// destruction. Used for the worker threads of Execution::RunWorkers and for
/// a worker's own helpers (the JEN receive thread).
class WorkerThread {
 public:
  WorkerThread(NodeId node, const char* role, std::function<void()> fn);
  ~WorkerThread() { Join(); }

  WorkerThread(WorkerThread&&) = default;
  WorkerThread& operator=(WorkerThread&&) = delete;

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::thread thread_;
};

/// Builds the ExecutionReport: snapshots metrics and per-class network
/// bytes at construction, takes deltas at Finish. Mark() records named
/// timestamps from any thread (first caller wins per name).
///
/// Construction allocates this execution's query id, installs a QueryScope
/// for it on the driver thread (WorkerThread carries it into the worker
/// threads), and registers the execution with the context. When the
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

  /// This execution's query id; worker threads run under its QueryScope so
  /// their scoped metric writes land in this query's slices.
  uint64_t query_id() const { return query_id_; }

  /// This execution's memory governor; worker threads run under its
  /// MemoryGovernor::Scope so per-thread operator state charges the right
  /// query.
  MemoryGovernor* governor() const { return governor_.get(); }

  /// Thread-safe named timestamp (seconds since start).
  void Mark(const std::string& name);

  /// Re-labels the execution after a mid-query pivot: Finish() reports the
  /// algorithm that actually ran, not the one construction guessed. Call
  /// from the driver thread before dispatching the chosen driver.
  void SetAlgorithm(JoinAlgorithm algorithm) { algorithm_ = algorithm; }

  /// Drains `expected` worker profile snapshots from tags.profile on DB
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

/// One query's execution runtime. It owns the ReportBuilder (query id,
/// memory governor), one block of channel tags and the first-error-wins
/// status of the workers. RunWorkers runs one round of worker threads;
/// the adaptive path runs two rounds (its prefix, then the chosen driver)
/// on one Execution, so the query keeps one id, one governor and one tag
/// block. Destruction releases the tag block's channels: every sender and
/// receiver of the query has been joined by then.
class Execution {
 public:
  /// `memory_budget_bytes` seeds the governor as in ReportBuilder.
  Execution(EngineContext* ctx, JoinAlgorithm algorithm,
            uint64_t memory_budget_bytes);
  ~Execution();

  Execution(const Execution&) = delete;
  Execution& operator=(const Execution&) = delete;

  EngineContext* ctx() const { return ctx_; }
  const Tags& tags() const { return tags_; }
  ReportBuilder& report() { return report_; }

  /// Runs db_worker(i) for every DB worker i and jen_worker(w) for every
  /// JEN worker w, each on its own WorkerThread inside the driver span. A
  /// worker's last act ships its node's profile snapshot (wall time, scoped
  /// metrics, the governor's peak) to DB worker 0; after joining the
  /// workers this drains the snapshots and clears the query's scoped
  /// metric slices, so a later round's snapshots are deltas. Returns the
  /// first error of any round.
  using WorkerFn = std::function<Status(uint32_t)>;
  Status RunWorkers(const WorkerFn& db_worker, const WorkerFn& jen_worker);

  /// The query's result: `rows` with the finished report, or its error.
  Result<QueryResult> Finish(Result<RecordBatch> rows);

 private:
  void SendProfile(NodeId node, int64_t wall_us);

  EngineContext* ctx_;
  Tags tags_;
  ReportBuilder report_;
  std::mutex mu_;
  Status first_error_;  ///< guarded by mu_
};

/// Gather-OR-scatter (§3's get_filter/combine_filter): the caller `self`
/// sends `local` to `coordinator` on `local_tag`; the coordinator ORs the
/// `senders` filters it receives, records the union's bloom.* stats and
/// sends it to every node of `targets` on `global_tag`. The coordinator
/// scatters even after a receive error, so no target is left blocking, and
/// returns that error.
Status CombineBloom(EngineContext* ctx, NodeId self, NodeId coordinator,
                    uint32_t senders, const BloomFilter& local,
                    uint64_t local_tag, const std::vector<NodeId>& targets,
                    uint64_t global_tag);

/// BF_DB through CombineBloom at DB worker 0: every DB worker calls this
/// with its local filter and returns with the global one. (Paper §3.1 /
/// §4.1.1.)
Result<BloomFilter> CombineBloomAtDbWorker0(EngineContext* ctx,
                                            uint32_t worker,
                                            const BloomFilter& local,
                                            const Tags& tags);

/// What the shared prefix hands to the driver that resumes from it (the
/// adaptive path): the global BF_DB and each DB worker's heavy-hitter
/// sketch, fed by the same Bloom-build scan.
struct PrefixState {
  BloomFilter global_bloom;
  std::vector<HeavyHitterSketch> sketches;  ///< one per DB worker
};

/// One DB worker's output of the Bloom prefix.
struct BloomPrefix {
  BloomFilter bloom;         ///< global BF_DB (the local one on error)
  HeavyHitterSketch sketch;  ///< this worker's sketch (empty unless fed)
  HotKeySet hot;             ///< the agreed hot set (empty without a route)
  uint64_t qualifying_rows = 0;  ///< T rows past the predicate (when built)
};

struct BloomPrefixOptions {
  /// Feed the heavy-hitter sketch from the Bloom-build scan.
  bool feed_sketch = false;
  /// Route width of the hot-key combine; 0 skips the combine.
  uint32_t route_workers = 0;
  /// JEN workers that receive BF_DB and then the hot set (this DB worker's
  /// group, Figure 5); empty sends nothing to the JEN side.
  std::span<const uint32_t> forward_to = {};
  /// Phase mark DB worker 0 sets once BF_DB is built and forwarded.
  const char* built_mark = "bf_db_sent";
};

/// The DB-side Bloom prefix (steps 1-2 of Figures 1, 3 and 4) on DB worker
/// `worker`. Without `carried` it builds the local BF_DB (counting the
/// qualifying rows, feeding the sketch if asked) and combines it at DB
/// worker 0; with it, it resumes from the carried filter and sketch and
/// marks "bf_db_carried". BF_DB then goes to `forward_to`; when a route
/// width is given, the hot-key combine runs and the hot set follows BF_DB.
/// Every step runs even after an error, which lands in `*status`: every
/// combine partner and every JEN receiver gets its message.
BloomPrefix RunDbBloomPrefix(Execution* exec, const PreparedQuery& prepared,
                             uint32_t worker, const PrefixState* carried,
                             const BloomPrefixOptions& options,
                             Status* status);

/// Final aggregation (Figures 1-4): every caller sends its partial
/// aggregate to `coordinator` on `tag`; the coordinator merges the
/// `senders` partials into `*final_rows`. A bad partial becomes the
/// returned error, yet the coordinator still drains the rest and still
/// produces rows, so a downstream result hand-off never blocks.
Status MergeAggregates(EngineContext* ctx, NodeId self, NodeId coordinator,
                       uint32_t senders, const HashAggregator& partial,
                       uint64_t tag, RecordBatch* final_rows);

/// The HDFS-side tail: the JEN workers merge their partials at the
/// designated worker, which sends the final rows to DB worker 0.
Status JenAggregateAndReturn(EngineContext* ctx, uint32_t jen_worker,
                             const HashAggregator& partial, const Tags& tags);

/// DB worker 0 blocks for the final rows sent by the designated JEN worker.
Status DbReceiveResult(EngineContext* ctx, const AggSpec& agg,
                       const Tags& tags, RecordBatch* rows);

/// The node ids of every worker of `cluster`.
std::vector<NodeId> AllNodes(EngineContext* ctx, ClusterId cluster);

/// The identity selection [0, n).
std::vector<uint32_t> AllRows(size_t n);

/// T' on DB worker `worker`: its slice of the DB table after the query's
/// local predicates and projection; empty on error (kept in `*status`).
std::vector<RecordBatch> ScanDbTable(EngineContext* ctx,
                                     const HybridQuery& query,
                                     uint32_t worker, Status* status);

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

/// One worker's local hash join + aggregation: the one join operator
/// building on T' (`build_db`) or L' and probing with the other, under the
/// query's post-join predicate, aggregating into `agg` and spilling to its
/// own SpillArea when the query's memory budget refuses a charge.
struct LocalJoin {
  LocalJoin(EngineContext* ctx, const PreparedQuery& prepared, bool build_db);

  HashAggregator agg;
  SpillArea spill;
  GraceHashJoin join;

 private:
  struct Side;  ///< one input: schema, alias, join-key column
  LocalJoin(EngineContext* ctx, const HybridQuery& query, const Side& build,
            const Side& probe);
};

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

/// The driver bodies behind the public Run*Join entry points
/// (hybrid/algorithms.h), run on a caller-owned Execution and returning the
/// final rows. A non-null `prefix` resumes from the adaptive layer's shared
/// prefix instead of building BF_DB; the broadcast join has no use for it.
Result<RecordBatch> RunBroadcastOn(Execution* exec,
                                   const PreparedQuery& prepared);
Result<RecordBatch> RunRepartitionFamilyOn(Execution* exec,
                                           const PreparedQuery& prepared,
                                           bool use_db_bloom, bool zigzag,
                                           const JoinDriverOptions& options,
                                           const PrefixState* prefix);
Result<RecordBatch> RunDbSideOn(Execution* exec,
                                const PreparedQuery& prepared, bool use_bloom,
                                const PrefixState* prefix);

}  // namespace driver
}  // namespace hybridjoin

#endif  // HYBRIDJOIN_HYBRID_DRIVER_COMMON_H_
