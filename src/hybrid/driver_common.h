// The execution runtime every join driver runs on, plus the stages the
// algorithms of §3 are composed of. An Execution owns one query's report,
// channel tags and first-error status, and runs the m DB + n JEN worker
// threads with their query, governor and trace scopes installed; the
// adaptive path runs its prefix and the chosen driver as two rounds of
// one Execution. Every message between workers moves through one of two
// stage types built on the driver thread before a round: an Exchange (the
// data plane: shuffles, and the exact semijoin's key lists and bitmaps,
// sent by the stage's own send threads and drained to EOS) or a Coordinate
// (a control-plane gather/fold/scatter round). On top of them sit the
// DB-side Bloom prefix (BF_DB build, combine and hot-key agreement, or
// resumption from a PrefixState), the exact-semijoin round, the final
// aggregation, the local hash join and the parallel probe.

#ifndef HYBRIDJOIN_HYBRID_DRIVER_COMMON_H_
#define HYBRIDJOIN_HYBRID_DRIVER_COMMON_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/blocking_queue.h"
#include "common/query_scope.h"
#include "common/stopwatch.h"
#include "exec/aggregator.h"
#include "exec/grace_join.h"
#include "exec/heavy_hitters.h"
#include "exec/memory_governor.h"
#include "exec/morsel.h"
#include "exec/spill.h"
#include "exec/worker_thread.h"
#include "hybrid/algorithms.h"
#include "hybrid/context.h"
#include "hybrid/query.h"
#include "hybrid/report.h"
#include "jen/exchange.h"
#include "types/batch_scatter.h"

namespace hybridjoin {
namespace driver {

/// One query's execution runtime: its query id and memory governor, its
/// report, one block of channel tags that its stages draw from (NewTag)
/// and the first-error-wins status of its workers. RunWorkers runs one
/// round of worker threads; the adaptive path runs two rounds (its prefix,
/// then the chosen driver) on one Execution, so the query keeps one id, one
/// governor and one tag block.
///
/// Construction allocates the query id and installs a QueryScope for it on
/// the driver thread; WorkerThread carries it into the worker threads. Every
/// record the report is built from is keyed by that id: each node's slice
/// of the scoped metric store, the tracer's spans and the network's
/// per-query byte charges. The slices accumulate over every round, and
/// Finish reads each node's slice in place, once, so a report reads the
/// same whether the query ran alone or beside others. Destruction is the
/// one place that drops the query's records (whatever no report took) and
/// releases the tag block's channels: every sender and receiver of the
/// query has been joined by then.
class Execution {
 public:
  /// `memory_budget_bytes` seeds this execution's MemoryGovernor; 0 falls
  /// back to SimulationConfig::query_memory_budget_bytes (and 0 there means
  /// unlimited — the governor still tracks the peak).
  Execution(EngineContext* ctx, JoinAlgorithm algorithm,
            uint64_t memory_budget_bytes);
  ~Execution();

  Execution(const Execution&) = delete;
  Execution& operator=(const Execution&) = delete;

  EngineContext* ctx() const { return ctx_; }

  /// This execution's query id; worker threads run under its QueryScope so
  /// their scoped metric writes land in this query's slices.
  uint64_t query_id() const { return query_id_; }

  /// This execution's memory governor; worker threads run under its
  /// MemoryGovernor::Scope so per-thread operator state charges the right
  /// query.
  MemoryGovernor* governor() const { return governor_.get(); }

  /// Thread-safe named timestamp (seconds since start); the first caller
  /// wins per name.
  void Mark(const std::string& name);

  /// Re-labels the execution after a mid-query pivot: Finish() reports the
  /// algorithm that actually ran, not the one construction guessed. Call
  /// from the driver thread before dispatching the chosen driver.
  void SetAlgorithm(JoinAlgorithm algorithm) { algorithm_ = algorithm; }

  /// A fresh channel tag from this execution's block, for one stage. Call
  /// from the driver thread, before the round that uses it, so every
  /// worker sees the same tag. Concurrent executions draw from disjoint
  /// blocks.
  uint64_t NewTag();

  /// Runs db_worker(i) for every DB worker i and jen_worker(w) for every
  /// JEN worker w, each on its own WorkerThread inside the driver span, and
  /// joins them. A worker's last act records its wall time (a JEN worker's
  /// also into jen.worker_wall_us) and the governor's peak into its node's
  /// slice; a second round adds to the same slices. Returns the first
  /// error of any round; a kAborted one (a worker that saw a peer abandon
  /// a round) only when no worker reports its own.
  using WorkerFn = std::function<Status(uint32_t)>;
  Status RunWorkers(const WorkerFn& db_worker, const WorkerFn& jen_worker);

  /// The query's result: `rows` with the finished report, or its error.
  Result<QueryResult> Finish(Result<RecordBatch> rows);

 private:
  ExecutionReport BuildReport();

  /// Records the driver thread's own time since `own_since_us_` as a
  /// driver-category span `name` of this query (when tracing), and
  /// restarts that clock.
  void RecordOwnSpan(const char* name);

  /// Tags per execution; the adaptive path's two rounds use at most 14.
  static constexpr uint64_t kTagBlock = 64;

  EngineContext* ctx_;
  JoinAlgorithm algorithm_;
  uint64_t query_id_;
  QueryScope scope_;  ///< driver-thread attribution for query_id_
  std::unique_ptr<MemoryGovernor> governor_;
  MemoryGovernor::Scope governor_scope_;  ///< driver-thread installation
  Stopwatch stopwatch_;
  /// Tracer clock at construction, then at each round's join: the start
  /// of the driver thread's next span (driver.setup, driver.finish).
  int64_t own_since_us_;
  uint64_t tag_base_;
  uint64_t tags_used_ = 0;
  std::mutex mu_;
  std::vector<std::pair<std::string, double>> marks_;  ///< guarded by mu_
  Status first_error_;                                 ///< guarded by mu_
  /// Each worker node's wall time, summed over rounds; guarded by mu_.
  std::map<NodeId, int64_t> wall_us_;
};

/// A data-plane stage: the shuffles of Figures 1-4 and the exact
/// semijoin's key lists and bitmaps. Payloads flow from every sender node
/// to the receivers its route picks, as one stream per (sender, receiver)
/// pair on this stage's tag, each ending in EOS. A sending node opens a
/// Sender on its worker thread: its producers serialize batches into
/// pooled buffers (the paper's send buffers, Figure 7) and its send threads
/// ship them, so network waits overlap the scan. A receiving node drains
/// with Receive, or ReceivePayloads for raw payloads.
class Exchange {
 public:
  enum class Route : uint8_t {
    kBroadcast,   ///< every batch to every receiver
    kAgreedHash,  ///< rows by AgreedPartition over the receivers
    kDbHash,      ///< rows by the DB-internal repartition hash
    kOwner,       ///< sender s's batches to receiver owner[s] only
  };
  /// Where a hot key's rows go when a sender opens with a hot set (the
  /// skew-aware hybrid route of a hash exchange): replicated to every
  /// receiver (the build side) or kept on the sending node, which must be
  /// a receiver too (the probe side). One side of a join broadcasts and
  /// the other keeps local, so each hot match forms on exactly one node.
  enum class HotMode : uint8_t { kBroadcast, kKeepLocal };

  struct Spec {
    std::vector<NodeId> senders = {};
    std::vector<NodeId> receivers = {};
    Route route = Route::kBroadcast;
    HotMode hot_mode = HotMode::kBroadcast;
    SchemaPtr schema = nullptr;
    size_t key_column = 0;                ///< hash routes
    std::vector<uint32_t> owner = {};     ///< kOwner: receiver per sender
    uint32_t send_threads = 1;            ///< each Sender's send threads
    size_t flush_rows = 4096;             ///< hash routes' batch size
    const char* tuple_counter = nullptr;  ///< rows sent, per destination
    const char* send_span = nullptr;      ///< span around each routed send
  };

  Exchange(Execution* exec, Spec spec);
  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;

  /// One sending node's side. Append, SendTo and SendPayload only queue a
  /// payload; the send threads ship it with retry. The first permanent send
  /// error is sticky: later payloads are dropped unsent, as they are once
  /// the query is KILLed, and Finish returns that error. Finish (or
  /// destruction) sends EOS to every receiver this node's route reaches,
  /// even after an error, so no receiver is left waiting.
  class Sender {
   public:
    ~Sender();
    Sender(const Sender&) = delete;
    Sender& operator=(const Sender&) = delete;

    /// Routes the whole `batch` as producer thread `thread`; one caller
    /// per thread index, so the scan's process threads never share state.
    void Append(uint32_t thread, const RecordBatch& batch);

    /// Sends `batch` as is to receiver index `receiver` (a partition the
    /// caller already routed).
    void SendTo(uint32_t receiver, const RecordBatch& batch);

    /// Sends an already-serialized payload to receiver index `receiver`.
    void SendPayload(uint32_t receiver, std::vector<uint8_t> payload);

    /// Flushes the producers, waits for the send threads to empty the
    /// queue, then sends EOS. Returns the first error.
    Status Finish();

   private:
    friend class Exchange;
    struct Item {
      NodeId dest;
      std::shared_ptr<const std::vector<uint8_t>> payload;
    };

    Sender(Exchange* exchange, NodeId self, const HotKeySet* hot,
           uint32_t threads);
    /// Ships producer `thread`'s full `batch` of `slot`: receiver `slot`'s
    /// partition, or past the last receiver the hot rows.
    void Emit(uint32_t thread, size_t slot, RecordBatch& batch);
    /// Serializes `batch` once and queues it for every node of `dests`.
    void Ship(std::span<const NodeId> dests, const RecordBatch& batch);
    /// Queues `payload` for every node of `dests` (shared, not copied).
    void Queue(std::span<const NodeId> dests, std::vector<uint8_t> payload);
    /// A send thread's handling of one queued payload.
    void Deliver(Item item);

    Exchange* exchange_;
    const Spec& spec_;
    NodeId self_;
    const HotKeySet* hot_;       ///< null unless the hot route is on
    trace::Tracer* tracer_;      ///< for spec_.send_span
    std::vector<NodeId> reach_;  ///< the receivers this sender streams to
    size_t local_;               ///< self's receiver index, if any
    /// Hash routes, per producer thread: a scatter with a slot per
    /// receiver, then one of hot rows; and the hot rows kept local.
    std::vector<BatchScatter> scatters_;
    std::vector<std::vector<RecordBatch>> kept_;
    std::shared_ptr<BufferPool> pool_;
    /// Queued payloads are in-flight memory of the query, charged to its
    /// governor per destination (each Item pins the payload) and released
    /// by the send thread that pops the Item. The queue is unbounded and
    /// the charge goes through the never-failing Reserve, so nothing bounds
    /// the bytes in flight but the producers' pace against the send
    /// threads'. The shared BufferPool is left uncharged: recycled buffers
    /// can outlive the query's governor.
    BlockingQueue<Item> queue_;
    std::mutex error_mu_;
    Status first_error_;  ///< guarded by error_mu_
    std::atomic<bool> failed_{false};
    std::vector<WorkerThread> send_threads_;
    bool finished_ = false;
  };

  /// Releases the governor charge of kept hot rows no Receive took.
  ~Exchange();

  /// Opens `self`'s sender with `threads` producers. A non-empty `hot` set
  /// engages the spec's hot mode on a hash route.
  Sender Open(NodeId self, const HotKeySet* hot = nullptr,
              uint32_t threads = 1);

  /// Open + Append(0, ...) every batch + Finish.
  Status Send(NodeId self, const std::vector<RecordBatch>& batches,
              const HotKeySet* hot = nullptr);

  /// Drains one stream per sender that reaches `self`, handing each
  /// payload and the node that sent it to `fn` as it arrives. After the
  /// first error `fn` is no longer called but the streams are still
  /// drained through their EOS. A receive error (a timeout, a KILL) ends
  /// the drain early.
  using PayloadFn =
      std::function<Status(NodeId from, const std::vector<uint8_t>& payload)>;
  Status ReceivePayloads(NodeId self, const PayloadFn& fn);

  /// ReceivePayloads decoding each payload as a batch for `fn`, then the
  /// rows `self`'s own sender kept local. After a receive error `self`'s
  /// own sender may still be running on another thread, and releases the
  /// rows it keeps when it finishes.
  Status Receive(NodeId self, const std::function<Status(RecordBatch&&)>& fn);

  /// Receive into a vector.
  Result<std::vector<RecordBatch>> ReceiveAll(NodeId self);

 private:
  size_t ReceiverIndex(NodeId node) const;

  /// Sender::Finish's hand-over of `self`'s kept hot rows: queued for
  /// Receive, or released at once when Receive has already returned.
  void Keep(size_t receiver, std::vector<RecordBatch> rows);

  EngineContext* ctx_;
  MemoryGovernor* governor_;
  uint64_t tag_;
  Spec spec_;
  /// Hot rows kept local, per receiver node, charged to the governor until
  /// Receive hands them on (or drops them after an error). A node's sender
  /// and its Receive may run on different threads (the L' shuffle).
  std::mutex kept_mu_;
  std::vector<std::vector<RecordBatch>> kept_;  ///< guarded by kept_mu_
  std::vector<bool> received_;                  ///< guarded by kept_mu_
};

/// A control-plane stage: one gather, fold and scatter round on its own
/// tag (§3's get_filter/combine_filter, the hot-key agreement, the final
/// aggregation, plan decisions). Participants send a value to the
/// coordinator, which folds them and scatters the result to every target;
/// a Multicast round has no gather and each DB worker scatters to its own
/// JEN group (Figure 5) with Scatter, and its targets take the value with
/// Receive. Values travel as SendControlValue / RecvControlValue payloads.
class Coordinate {
 public:
  Coordinate(Execution* exec, std::vector<NodeId> participants,
             NodeId coordinator, std::vector<NodeId> targets);

  /// DB worker g scatters to the JEN workers of groups[g].
  static Coordinate Multicast(Execution* exec,
                              const std::vector<std::vector<uint32_t>>& groups);

  /// `self`'s part of the round. A participant sends `*local` (pass null
  /// on nodes that only receive). The coordinator folds each contribution
  /// in arrival order with `fold` and scatters `finish()` to every target.
  /// The first error (a receive timeout, a bad value, a failing fold) ends
  /// the gather, and the coordinator then scatters EOS instead, so every
  /// target still returns at once, with kAborted (RunWorkers reports the
  /// coordinator's own error over it). A target returns the
  /// scattered value, the coordinator otherwise finish()'s value, anyone
  /// else an empty value. `decode` goes to Deserialize for both the
  /// contributions and the result.
  template <typename In, typename Fold, typename Finish, typename... Decode>
  Result<std::invoke_result_t<Finish&>> Round(NodeId self, const In* local,
                                              Fold&& fold, Finish&& finish,
                                              const Decode&... decode) const {
    using Out = std::invoke_result_t<Finish&>;
    if (local != nullptr) {
      SendControlValue(net_, self, {coordinator_}, tag_, *local, metrics_);
    }
    if (self == coordinator_) {
      Status st;
      for (size_t i = 0; i < participants_.size() && st.ok(); ++i) {
        Result<In> value = RecvControlValue<In>(net_, self, tag_, decode...);
        st = value.ok() ? fold(std::move(value).value()) : value.status();
      }
      if (!st.ok()) {
        ScatterFailure(self);
        return st;
      }
      Out out = finish();
      Scatter(self, out);
      if (!IsTarget(self)) return out;
    }
    if (!IsTarget(self)) return Out{};
    return Receive<Out>(self, decode...);
  }

  /// Sends `value` to every target `self` scatters to.
  template <typename T>
  void Scatter(NodeId self, const T& value) const {
    SendControlValue(net_, self, TargetsOf(self), tag_, value, metrics_);
  }

  /// A target's receive of the scattered value.
  template <typename T, typename... Decode>
  Result<T> Receive(NodeId self, const Decode&... decode) const {
    return RecvControlValue<T>(net_, self, tag_, decode...);
  }

 private:
  Coordinate(Execution* exec, std::vector<NodeId> participants,
             NodeId coordinator);
  bool IsTarget(NodeId node) const;
  std::vector<NodeId> TargetsOf(NodeId self) const;
  void ScatterFailure(NodeId self) const;

  Network* net_;
  Metrics* metrics_;
  uint64_t tag_;
  std::vector<NodeId> participants_;
  NodeId coordinator_;
  std::vector<std::pair<NodeId, NodeId>> targets_;  ///< (target, scatterer)
};

/// The Bloom union round (§3's combine_filter): the coordinator ORs every
/// participant's filter into one with `params`, records the union's
/// bloom.* gauges and scatters it.
Result<BloomFilter> UnionBlooms(EngineContext* ctx, const Coordinate& round,
                                NodeId self, const BloomFilter* local,
                                const BloomParams& params);

/// The final aggregation round (Figures 1-4): the coordinator merges every
/// participant's partial aggregate and scatters the final rows. `partial`
/// is null on nodes that only receive.
Result<RecordBatch> FinalAggregate(const Coordinate& round, NodeId self,
                                   const AggSpec& spec,
                                   const HashAggregator* partial);

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
  /// Multicast BF_DB, then the hot set, from each DB worker to its JEN
  /// group (Figure 5); the JEN workers take them with Receive.
  bool to_jen = false;
  /// Phase mark DB worker 0 sets once BF_DB is built and forwarded.
  const char* built_mark = "bf_db_sent";
};

/// The DB-side Bloom prefix (steps 1-2 of Figures 1, 3 and 4) as three
/// Coordinate rounds: the BF_DB union at DB worker 0, the hot-key
/// agreement at DB worker 0, and the multicast to the JEN groups.
class DbBloomPrefix {
 public:
  /// A non-null `carried` resumes from the adaptive prefix instead of
  /// building BF_DB.
  DbBloomPrefix(Execution* exec, const PreparedQuery& prepared,
                const PrefixState* carried, const BloomPrefixOptions& options);

  /// DB worker `worker`'s part. Without a carried prefix it builds the
  /// local BF_DB (counting the qualifying rows, feeding the sketch if
  /// asked) and unions it at DB worker 0; with one it resumes from the
  /// carried filter and sketch and marks "bf_db_carried". When a route
  /// width is given the hot-key round runs too. Every step runs even after
  /// an error, which lands in `*status`: every round partner and every JEN
  /// receiver gets its message.
  BloomPrefix Run(uint32_t worker, Status* status) const;

  /// JEN worker `worker`'s receive of BF_DB and, with a route width, the
  /// hot set (to_jen prefixes only).
  void Receive(uint32_t worker, BloomFilter* bloom, HotKeySet* hot,
               Status* status) const;

 private:
  Execution* exec_;
  const PreparedQuery& prepared_;
  const PrefixState* carried_;
  BloomPrefixOptions options_;
  Coordinate combine_;  ///< local BF_DB -> DB worker 0 -> every DB worker
  Coordinate hot_;      ///< sketches -> DB worker 0 -> every DB worker
  Coordinate to_jen_;   ///< DB worker -> its JEN group
};

/// The exact-semijoin second filter of the zigzag join (§6's alternative
/// to BF_H). DB worker i partitions T' by the agreed hash and sends JEN
/// worker p the join keys of part p; p answers with a membership bitmap
/// over those keys, and i ships only the marked rows. Key lists and
/// bitmaps travel as raw payloads on two Exchanges of this stage's own
/// (DB -> JEN, JEN -> DB); each side's drain ends on its peers' EOS.
class SemijoinFilter {
 public:
  SemijoinFilter(Execution* exec, const PreparedQuery& prepared);

  /// DB worker `worker`: the key/bitmap round over `t_prime`, then the
  /// survivors of each part, one batch per JEN worker, through `out`,
  /// whose EOS follows. After an error, whether already in `*status` or
  /// the round's own, which lands there, only the EOS of each stream goes
  /// out.
  void Ship(uint32_t worker, std::vector<RecordBatch> t_prime, Exchange* out,
            Status* status);

  /// JEN worker `worker`: answers every key list it receives by probing
  /// the built `join` — exact for resident partitions, "present" for
  /// spilled ones, whose extra T'' rows the join drops. A null `join` (its
  /// build failed) answers with all-zero bitmaps.
  Status Answer(uint32_t worker, const GraceHashJoin* join);

 private:
  Execution* exec_;
  const PreparedQuery& prepared_;
  Exchange keys_;     ///< DB -> JEN key lists
  Exchange bitmaps_;  ///< JEN -> DB membership bitmaps
};

/// The node ids of every worker of `cluster`.
std::vector<NodeId> AllNodes(EngineContext* ctx, ClusterId cluster);

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
/// shard count (see exec/join_hash_table.h). The join drivers do not use it
/// (their GraceHashJoin shards by its partition count); perfbench's direct
/// build calls (perfbench/layers.cc) do.
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
