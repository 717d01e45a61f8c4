// GraceHashJoin: the engine's one hash-join operator — a dynamic hybrid
// (Grace) hash join under the query's memory budget. The paper's JEN join
// keeps all data in memory and leaves spilling to future work (§4.4); this
// operator is that in-memory join while the budget allows, and spills
// partition by partition when it does not, without switching modes.
//
// Build rows are hash-partitioned, and a key's partition is the shard the
// resident JoinHashTable will put it in (one hash, one shard function).
// Every byte the operator holds is charged to its budget: batch bytes and
// hash-table entries as build rows arrive, and each bucket directory at
// FinishBuild, before it is built. A refused charge spills the largest
// resident partition and retries. With no budget nothing is ever refused and
// the operator is a resident, sharded in-memory join.
//
// FinishBuild adds every resident partition to one sharded JoinHashTable,
// extracted and finalized in parallel on the given pool. Probe rows of
// resident partitions join immediately (pipelined); when nothing spilled, a
// probe runs one JoinProber over that table with no routing at all. Probe
// rows of spilled partitions spill too, and the spilled pairs are joined
// partition by partition in Finish().
//
// Finish() first releases the resident table, then joins the spilled pairs,
// charging each pair's table before loading it. It is robust to skew: a
// pair whose table the budget still refuses is recursively repartitioned
// with a re-salted hash (bounded depth), and if re-salting cannot split it
// (all-duplicate join keys), the pair falls back to a sort-free
// block-nested-loop join — the build file is consumed in budget-sized
// chunks, the probe file streamed once per chunk — so correctness never
// depends on the data distribution.
//
// The budget is GraceJoinOptions::memory_budget_bytes when set, else the
// budget of the MemoryGovernor installed at construction. With a governor the
// join charges it and registers a spill callback, so *other* consumers'
// reservations can evict this join's partitions during the build phase (the
// callback goes inert at FinishBuild, when the resident table freezes).
//
// Equivalent output to JoinHashTable + JoinProber; every surviving joined
// row feeds the same HashAggregator. For morsel-parallel probing use
// MakeProbeThread: each probe thread gets its own prober over the shared
// frozen table and its own thread-local aggregator partial, while rows of
// spilled partitions divert to the (thread-safe) spill writer. Contains()
// answers exact-semijoin membership from the resident table and "present"
// for a spilled partition; the extra probe rows that admits are joined, and
// dropped when they do not match, in Finish().

#ifndef HYBRIDJOIN_EXEC_GRACE_JOIN_H_
#define HYBRIDJOIN_EXEC_GRACE_JOIN_H_

#include <memory>
#include <mutex>
#include <vector>

#include "exec/join_prober.h"
#include "exec/memory_governor.h"
#include "exec/spill.h"

namespace hybridjoin {

struct GraceJoinOptions {
  /// Resident budget in bytes; 0 falls back to the installed
  /// MemoryGovernor's budget, and to unlimited (never spills) without one.
  uint64_t memory_budget_bytes = 0;
  /// Spill granularity and the resident table's shard count.
  uint32_t num_partitions = 16;
};

class GraceHashJoin {
 public:
  /// Same collaborators as JoinProber, plus the spill area. Captures
  /// MemoryGovernor::Current() (may be null) at construction.
  GraceHashJoin(SchemaPtr build_schema, std::string build_alias,
                size_t build_key, SchemaPtr probe_schema,
                std::string probe_alias, size_t probe_key,
                PredicatePtr post_join_predicate, HashAggregator* aggregator,
                Metrics* metrics, SpillArea* spill,
                GraceJoinOptions options = {});
  ~GraceHashJoin();

  // Phase 1: add every build batch, then freeze. FinishBuild charges the
  // bucket directories (spilling on refusal) and builds the resident table,
  // on `pool` when given; it records the table's join.ht_* shape metrics.
  Status AddBuild(RecordBatch&& batch);
  Status FinishBuild(ThreadPool* pool = nullptr);

  /// Semijoin membership, valid after FinishBuild: exact for keys of
  /// resident partitions, always true for keys of spilled ones.
  bool Contains(int64_t key) const;

  // Phase 2: stream probe batches (single-threaded convenience path; the
  // surviving joined rows feed the constructor's aggregator).
  Status AddProbe(const RecordBatch& batch);

  /// One probe thread's view of the frozen join: resident rows probe
  /// through a private JoinProber into `partial` (a thread-local aggregator
  /// the caller merges later); rows of spilled partitions buffer locally and
  /// flush through the thread-safe spill writer. Not itself thread-safe —
  /// one instance per thread. Flush() must run before GraceHashJoin::Finish(),
  /// which releases the table the probe thread reads.
  class ProbeThread {
   public:
    Status Probe(const RecordBatch& batch);
    Status Flush();

   private:
    friend class GraceHashJoin;
    ProbeThread(GraceHashJoin* parent, HashAggregator* partial);

    GraceHashJoin* parent_;
    JoinProber prober_;
    std::vector<RecordBatch> spill_pending_;  // per partition
  };

  /// Valid only after FinishBuild().
  std::unique_ptr<ProbeThread> MakeProbeThread(HashAggregator* partial);

  // Phase 3: join the spilled partition pairs and flush.
  Status Finish();

  uint32_t spilled_partitions() const { return spilled_count_; }
  int64_t build_rows() const { return build_rows_; }
  /// The budget the build needs to stay fully resident: every routed build
  /// byte and entry plus the bucket directories of all partitions. Complete
  /// after FinishBuild.
  uint64_t build_bytes() const { return build_bytes_; }

 private:
  struct Partition {
    // Resident state.
    std::vector<RecordBatch> build_batches;
    /// Charged bytes: batches + entries, plus buckets after FinishBuild.
    uint64_t resident_bytes = 0;
    size_t rows = 0;  ///< every build row routed here, resident or spilled
    // Spilled state.
    bool spilled = false;
    SpillArea::FileId build_file = 0;
    SpillArea::FileId probe_file = 0;
    RecordBatch build_pending;  // buffered rows before flush to spill
  };

  uint32_t PartitionOf(int64_t key) const;
  // Charges for held state, against the join's own budget and the
  // governor's; mu_ must be held while the build phase is open.
  /// False (charging nothing) when either budget refuses.
  bool TryCharge(uint64_t bytes);
  /// Charges whatever the budgets say — for the one build batch a
  /// block-nested-loop pass must hold to make progress.
  void ForceCharge(uint64_t bytes);
  void Uncharge(uint64_t bytes);
  /// Requires mu_ held. Moves a resident partition to disk, freeing its
  /// charge.
  Status SpillLocked(Partition* victim);
  /// Requires mu_ held. Returns the bytes freed (0 = nothing evictable).
  uint64_t SpillLargestResidentLocked(Status* status);
  /// The governor spill callback: evicts resident partitions (largest
  /// first) until `want` bytes are freed or nothing evictable remains.
  /// Inert once the build phase is frozen.
  uint64_t SpillForGovernor(uint64_t want);
  Status FlushBuildPending(Partition* p);
  /// Records the resident table's shape under the join.ht_* metrics.
  void RecordTableShape() const;
  /// Joins one spilled (build, probe) file pair, recursively repartitioning
  /// a pair whose table the budget refuses up to kMaxRepartitionDepth, then
  /// falling back to the block-nested loop. Drops both files.
  Status JoinSpilledPair(SpillArea::FileId build_file,
                         SpillArea::FileId probe_file, uint32_t depth);
  /// Splits `src` into `dst.size()` files by the depth-salted hash; drops
  /// `src`.
  Status Repartition(SpillArea::FileId src, const SchemaPtr& schema,
                     size_t key_column, uint32_t depth,
                     const std::vector<SpillArea::FileId>& dst);
  /// Budget-sized build chunks, one probe-file pass each. Drops both files.
  Status BlockNestedJoin(SpillArea::FileId build_file,
                         SpillArea::FileId probe_file);

  SchemaPtr build_schema_;
  std::string build_alias_;
  size_t build_key_;
  SchemaPtr probe_schema_;
  std::string probe_alias_;
  size_t probe_key_;
  PredicatePtr post_join_predicate_;
  HashAggregator* aggregator_;
  Metrics* metrics_;
  SpillArea* spill_;
  GraceJoinOptions options_;
  MemoryGovernor* governor_;
  uint64_t effective_budget_;
  uint64_t spiller_token_ = 0;

  /// Guards partition state during the build phase: AddBuild and the
  /// governor spill callback (another thread's failed reservation) both
  /// mutate it. Probe-phase state is frozen, read lock-free.
  std::mutex mu_;
  std::vector<Partition> partitions_;
  /// First error hit inside the governor spill callback (which cannot
  /// return a Status); re-raised by FinishBuild.
  Status callback_status_ = Status::OK();
  uint64_t resident_bytes_ = 0;
  uint32_t spilled_count_ = 0;
  int64_t build_rows_ = 0;
  uint64_t build_bytes_ = 0;
  bool build_finished_ = false;
  bool finished_ = false;
  /// Resident partitions after FinishBuild, one shard each. Charged by the
  /// join itself, so built without a governor of its own.
  std::unique_ptr<JoinHashTable> table_;
  /// AddProbe's probe thread, feeding the constructor's aggregator.
  std::unique_ptr<ProbeThread> inline_probe_;
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_EXEC_GRACE_JOIN_H_
