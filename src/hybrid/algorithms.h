// The join drivers — one entry point per algorithm of §3, plus a prepared
// query shared by all of them. These are the functions HybridWarehouse
// dispatches to. Each opens one driver::Execution (hybrid/driver_common.h:
// query id, governor, channel tags, worker threads), runs its algorithm on
// it and finishes the report; RunAdaptiveJoin runs the shared prefix and
// the chosen algorithm as two rounds of one Execution.

#ifndef HYBRIDJOIN_HYBRID_ALGORITHMS_H_
#define HYBRIDJOIN_HYBRID_ALGORITHMS_H_

#include "bloom/bloom_filter.h"
#include "hybrid/advisor.h"
#include "hybrid/context.h"
#include "hybrid/query.h"
#include "hybrid/report.h"
#include "jen/coordinator.h"

namespace hybridjoin {

struct StoredBlock;  // hdfs/format.h

/// A validated query with every name resolved against real schemas, so the
/// multi-threaded drivers cannot hit user errors mid-flight.
struct PreparedQuery {
  HybridQuery query;
  DbTableMeta db_meta;
  ScanPlan scan_plan;        ///< HDFS block assignments for all JEN workers
  SchemaPtr db_proj_schema;  ///< schema of T' (db projection)
  size_t db_key_idx = 0;     ///< join key position in db_proj_schema
  SchemaPtr hdfs_out_schema; ///< schema of L' (hdfs projection)
  size_t hdfs_key_idx = 0;   ///< join key position in hdfs_out_schema
  BloomParams bloom_params;
};

/// Validates and resolves a query against the context's catalogs.
Result<PreparedQuery> PrepareQuery(EngineContext* ctx,
                                   const HybridQuery& query);

/// One stored block of the HDFS table as the estimators sample it
/// (EstimateQuery, the adaptive re-sample): the columns the HDFS predicate
/// and projection need, decoded.
struct BlockSample {
  std::vector<size_t> columns;     ///< decoded table columns, ascending
  RecordBatch rows;                ///< the decoded block
  std::vector<uint32_t> selected;  ///< rows passing the HDFS predicate
  RecordBatch projected;           ///< every row, projected like L'
};
Result<BlockSample> SampleHdfsBlock(const PreparedQuery& prepared,
                                    const StoredBlock& stored);

/// §3.1 — fetch filtered HDFS data into the database and join there,
/// optionally pruning with a DB Bloom filter first. `memory_budget_bytes`
/// seeds the execution's MemoryGovernor (0 falls back to
/// SimulationConfig::query_memory_budget_bytes; 0 there = unlimited) — the
/// same knob on every driver below.
Result<QueryResult> RunDbSideJoin(EngineContext* ctx,
                                  const PreparedQuery& prepared,
                                  bool use_bloom,
                                  uint64_t memory_budget_bytes = 0);

/// §3.2 — broadcast T' to every JEN worker, join and aggregate on HDFS.
Result<QueryResult> RunBroadcastJoin(EngineContext* ctx,
                                     const PreparedQuery& prepared,
                                     uint64_t memory_budget_bytes = 0);

/// How the zigzag join's *second* (HDFS -> DB) pruning step is realized.
enum class SecondFilterKind {
  /// The paper's choice: a global Bloom filter BF_H (~5% false positives,
  /// fixed size, one broadcast).
  kBloom = 0,
  /// The classic exact semijoin of the related work (§6): every DB worker
  /// ships its T' join keys to the responsible JEN workers, which answer
  /// with exact membership bitmaps. No false positives, but the keys
  /// themselves cross the interconnect (bytes proportional to |T'|).
  kExactSemijoin = 1,
};

/// Driver-level knobs (ablations; the defaults are the paper's choices).
struct JoinDriverOptions {
  /// §4.4: the paper builds the join hash table on the *shuffled HDFS
  /// data*, because it is fully received right after the scan while the
  /// database records cannot arrive before BF_H is complete. Setting this
  /// buffers L' instead and builds on the (usually smaller) database data
  /// — the "obvious" choice the paper argues against.
  bool build_on_db_data = false;
  /// Second-filter realization for the zigzag join. kExactSemijoin
  /// requires the default build side (build_on_db_data == false).
  SecondFilterKind second_filter = SecondFilterKind::kBloom;
};

/// §3.3 / §3.4 — repartition-based HDFS-side joins. `use_db_bloom` sends
/// BF_DB to prune the HDFS scan; `zigzag` additionally sends BF_H back to
/// prune the database data (the full zigzag join).
Result<QueryResult> RunRepartitionFamilyJoin(
    EngineContext* ctx, const PreparedQuery& prepared, bool use_db_bloom,
    bool zigzag, const JoinDriverOptions& options = {},
    uint64_t memory_budget_bytes = 0);

/// Dispatch by algorithm enum (prepares internally).
Result<QueryResult> RunJoin(EngineContext* ctx, const HybridQuery& query,
                            JoinAlgorithm algorithm,
                            uint64_t memory_budget_bytes = 0);

/// The adaptive join-location driver (docs/architecture.md "Adaptive join
/// location"): runs the shared prefix — DB predicate scan + Bloom
/// build/combine, plus a seeded HDFS block re-sample per JEN worker — ships
/// the observed statistics to DB worker 0 on a fault-exempt control tag,
/// re-runs the §5.5 cost model there (DecidePivot against `advice`'s
/// initial pick with AdaptiveConfig::pivot_threshold hysteresis) and
/// broadcasts the stay-or-pivot decision to every node before running the
/// winning driver on the same Execution, resuming from the prefix state
/// (driver::PrefixState). On return
/// `*advice` additionally holds the observed costs and the pivot verdict.
Result<QueryResult> RunAdaptiveJoin(EngineContext* ctx,
                                    const HybridQuery& query,
                                    const QueryEstimates& est, Advice* advice,
                                    uint64_t memory_budget_bytes = 0);

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_HYBRID_ALGORITHMS_H_
