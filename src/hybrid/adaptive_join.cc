// Adaptive join location (ROADMAP item 3; cf. "Runtime Optimization of
// Join Location in Parallel Data Management Systems", PAPERS.md): every
// strategy of §3 starts with the same cheap prefix — the DB predicate scan
// that builds and combines BF_DB — so the commitment to a join location can
// be deferred until after it. This driver runs that prefix once, then one
// control-plane Coordinate round: every worker ships its *observed*
// statistics (exact qualifying-row counts from the Bloom-build scan, fresh
// seeded block samples from the JEN side) to DB worker 0, which re-runs the
// §5.5 cost model with the observed values and scatters a stay-or-pivot
// decision to all nodes. Prefix and chosen plan are two rounds of one
// driver::Execution: the plan resumes from the prefix's state
// (driver::PrefixState: the global BF_DB and the per-worker sketches)
// instead of re-reading it, under the same query id, governor and tag
// block.
//
// Placement of the decision point: after the Bloom combine but before any
// side materializes or moves data. Staying on the initial pick therefore
// costs only the control-plane round trip (a few hundred bytes per node)
// plus the tiny block samples, and a pivot wastes no data-plane work — the
// filter the prefix built is exactly what every candidate driver would have
// built first.

#include <algorithm>
#include <vector>

#include "common/binary_io.h"
#include "common/hash.h"
#include "hdfs/format.h"
#include "hybrid/algorithms.h"
#include "hybrid/driver_common.h"
#include "jen/exchange.h"
#include "obs/event_log.h"
#include "trace/tracer.h"

namespace hybridjoin {

namespace {

/// Observed-stats message kinds.
constexpr uint8_t kDbStats = 0;
constexpr uint8_t kJenStats = 1;

/// One JEN worker's decision-point sample.
struct JenSample {
  uint64_t rows_sampled = 0;   ///< decoded rows across the picked blocks
  uint64_t rows_after_pred = 0;
  uint64_t projected_bytes = 0;  ///< ByteSize of post-predicate projection
  std::vector<int64_t> keys;
};

/// One JEN worker's decision-point sample into `out`:
/// `AdaptiveConfig::kHdfsSampleBlocks` seeded random picks from its own
/// block assignment, decoded and filtered the same way EstimateQuery
/// samples (reads are charged at the datanode, not the interconnect).
/// Collects up to `AdaptiveConfig::kSampleKeys` post-predicate join-key
/// values for the coordinator's observed Bloom pass rate.
Status SampleWorkerBlocks(EngineContext* ctx, const PreparedQuery& prepared,
                          uint32_t worker, const AdaptiveConfig& acfg,
                          uint64_t seed, JenSample* out) {
  const auto& assigned = prepared.scan_plan.per_worker[worker];
  // The fraction cap bounds the sampler's decode work relative to the scan
  // it precedes (see AdaptiveConfig::hdfs_sample_max_fraction); a worker
  // capped to zero contributes no sample.
  const uint32_t fraction_cap = static_cast<uint32_t>(
      static_cast<double>(assigned.size()) * acfg.hdfs_sample_max_fraction);
  const uint32_t sample_blocks =
      std::min(AdaptiveConfig::kHdfsSampleBlocks, fraction_cap);
  if (assigned.empty() || sample_blocks == 0) return Status::OK();

  const uint32_t picks =
      std::min<uint32_t>(sample_blocks, static_cast<uint32_t>(assigned.size()));
  uint64_t rng = HashInt64(seed, worker + 1);
  for (uint32_t s = 0; s < picks; ++s) {
    rng = HashInt64(rng, s + 1);
    const auto& assignment = assigned[rng % assigned.size()];
    HJ_ASSIGN_OR_RETURN(std::shared_ptr<const StoredBlock> stored,
                        ctx->datanode(assignment.replica.node)
                            ->Fetch(assignment.info.block_id));
    HJ_ASSIGN_OR_RETURN(BlockSample sample, SampleHdfsBlock(prepared, *stored));
    out->rows_sampled += sample.rows.num_rows();
    out->rows_after_pred += sample.selected.size();
    if (sample.selected.empty()) continue;
    const RecordBatch projected = sample.projected.Gather(sample.selected);
    out->projected_bytes += projected.ByteSize();
    const ColumnVector& key = projected.column(prepared.hdfs_key_idx);
    for (uint32_t r = 0; r < projected.num_rows(); ++r) {
      if (out->keys.size() >= AdaptiveConfig::kSampleKeys) break;
      out->keys.push_back(key.physical_type() == PhysicalType::kInt32
                              ? static_cast<int64_t>(key.i32()[r])
                              : key.i64()[r]);
    }
  }
  return Status::OK();
}

}  // namespace

Result<QueryResult> RunAdaptiveJoin(EngineContext* ctx,
                                    const HybridQuery& query,
                                    const QueryEstimates& est, Advice* advice,
                                    uint64_t memory_budget_bytes) {
  HJ_ASSIGN_OR_RETURN(PreparedQuery prepared, PrepareQuery(ctx, query));
  const uint32_t m = ctx->num_db_workers();
  const uint32_t n = ctx->num_jen_workers();
  const AdaptiveConfig& acfg = ctx->config().adaptive;
  const uint64_t hdfs_total_rows = prepared.scan_plan.meta.num_rows;

  driver::Execution exec(ctx, advice->algorithm, memory_budget_bytes);

  // The prefix state the chosen driver resumes from. The sketches are fed
  // whenever the skew shuffle *could* engage in any candidate driver (their
  // own gates decide whether the hot set is actually used — an unused
  // sketch costs one Add per row).
  driver::PrefixState prefix{BloomFilter(prepared.bloom_params), {}};
  prefix.sketches.assign(
      m, HeavyHitterSketch(SkewConfig::kSketchCapacity));
  const driver::DbBloomPrefix bf_db(
      &exec, prepared, /*carried=*/nullptr,
      {.feed_sketch = ctx->config().skew.enabled && (m > 1 || n > 1),
       .built_mark = "bf_db_built"});
  // Every node's observed stats to DB worker 0, the verdict back to all.
  std::vector<NodeId> all_nodes = driver::AllNodes(ctx, ClusterId::kDb);
  for (NodeId node : driver::AllNodes(ctx, ClusterId::kHdfs)) {
    all_nodes.push_back(node);
  }
  const driver::Coordinate decision(&exec, all_nodes, NodeId::Db(0),
                                    all_nodes);

  // Worker 0's fold fills this in; RunWorkers' join publishes it to the
  // driver thread.
  Advice decided = *advice;

  // DB worker 0 re-runs the §5.5 cost model on the observed statistics.
  QueryEstimates observed = est;
  uint64_t db_rows_total = 0;
  double db_sample_bytes = 0;
  double db_sample_rows = 0;
  uint64_t l_sampled = 0;
  uint64_t l_pass = 0;
  uint64_t l_bytes = 0;
  uint64_t keys_total = 0;
  uint64_t keys_pass = 0;
  auto fold = [&](ControlBytes&& stats) -> Status {
    BinaryReader r(stats);
    HJ_ASSIGN_OR_RETURN(const uint8_t kind, r.GetU8());
    if (kind == kDbStats) {
      HJ_ASSIGN_OR_RETURN(const uint64_t rows, r.GetU64());
      HJ_ASSIGN_OR_RETURN(const uint64_t sample_bytes, r.GetU64());
      HJ_ASSIGN_OR_RETURN(const uint64_t sample_rows, r.GetU64());
      db_rows_total += rows;
      db_sample_bytes += static_cast<double>(sample_bytes);
      db_sample_rows += static_cast<double>(sample_rows);
      return Status::OK();
    }
    HJ_ASSIGN_OR_RETURN(const uint64_t sampled, r.GetU64());
    HJ_ASSIGN_OR_RETURN(const uint64_t pass, r.GetU64());
    HJ_ASSIGN_OR_RETURN(const uint64_t bytes, r.GetU64());
    HJ_ASSIGN_OR_RETURN(const uint32_t num_keys, r.GetU32());
    l_sampled += sampled;
    l_pass += pass;
    l_bytes += bytes;
    for (uint32_t k = 0; k < num_keys; ++k) {
      HJ_ASSIGN_OR_RETURN(const int64_t key, r.GetI64());
      ++keys_total;
      if (prefix.global_bloom.MayContain(key)) ++keys_pass;
    }
    return Status::OK();
  };
  auto decide = [&] {
    // Observed T': exact row count x sampled projected row width.
    if (db_sample_rows > 0) {
      observed.db_filtered_bytes = static_cast<uint64_t>(
          static_cast<double>(db_rows_total) *
          (db_sample_bytes / db_sample_rows));
    }
    // Observed L': fresh multi-block selectivity x catalog row count x
    // observed projected row width.
    if (l_sampled > 0) {
      const double sel =
          static_cast<double>(l_pass) / static_cast<double>(l_sampled);
      const double row_bytes =
          l_pass > 0
              ? static_cast<double>(l_bytes) / static_cast<double>(l_pass)
              : 0.0;
      observed.hdfs_filtered_bytes = static_cast<uint64_t>(
          sel * static_cast<double>(hdfs_total_rows) * row_bytes);
    }
    // Observed join-key pruning: the sampled keys against the filter
    // that will actually do the pruning.
    if (keys_total > 0) {
      observed.hdfs_joinkey_selectivity =
          static_cast<double>(keys_pass) / static_cast<double>(keys_total);
    }

    const Advice verdict =
        DecidePivot(*ctx, *advice, observed, acfg.pivot_threshold);
    Metrics& metrics = ctx->metrics();
    metrics.Max(metric::kAdvisorEstimatedDbBytes,
                static_cast<int64_t>(est.db_filtered_bytes));
    metrics.Max(metric::kAdvisorObservedDbBytes,
                static_cast<int64_t>(observed.db_filtered_bytes));
    metrics.Max(metric::kAdvisorEstimatedHdfsBytes,
                static_cast<int64_t>(est.hdfs_filtered_bytes));
    metrics.Max(metric::kAdvisorObservedHdfsBytes,
                static_cast<int64_t>(observed.hdfs_filtered_bytes));
    exec.Mark("adapt_decision");
    if (verdict.pivoted) {
      metrics.Max(metric::kAdvisorPivoted, 1);
      exec.Mark(std::string("pivot_to_") +
                  JoinAlgorithmName(verdict.final_algorithm));
    }
    if (obs::EventLog::Global().enabled()) {
      auto fields = obs::JsonValue::Object();
      fields.Set("pivoted", obs::JsonValue::Bool(verdict.pivoted));
      fields.Set("final_algorithm", obs::JsonValue::Str(JoinAlgorithmName(
                                        verdict.final_algorithm)));
      fields.Set("estimated_db_bytes",
                 obs::JsonValue::Int(
                     static_cast<int64_t>(est.db_filtered_bytes)));
      fields.Set("observed_db_bytes",
                 obs::JsonValue::Int(
                     static_cast<int64_t>(observed.db_filtered_bytes)));
      fields.Set("estimated_hdfs_bytes",
                 obs::JsonValue::Int(
                     static_cast<int64_t>(est.hdfs_filtered_bytes)));
      fields.Set("observed_hdfs_bytes",
                 obs::JsonValue::Int(
                     static_cast<int64_t>(observed.hdfs_filtered_bytes)));
      obs::EventLog::Global().Emit("pivot_decision", exec.query_id(),
                                   std::move(fields));
    }
    decided = verdict;
    BinaryWriter w;
    w.PutU8(static_cast<uint8_t>(verdict.final_algorithm));
    w.PutU8(verdict.pivoted ? 1 : 0);
    return w.Release();
  };

  // --- DB workers: the shared prefix (steps 1-2 of every figure). ---
  auto db_worker = [&](uint32_t i) -> Status {
    Status st;

    // Build + combine BF_DB. The build scan visits every qualifying row,
    // so its count is the *exact* observed build-side cardinality —
    // strictly better input than the estimator's one-batch sample.
    driver::BloomPrefix bloom_prefix = bf_db.Run(i, &st);
    if (i == 0) prefix.global_bloom = std::move(bloom_prefix.bloom);
    prefix.sketches[i] = std::move(bloom_prefix.sketch);

    // Projected-row-width sample: one seeded random stored batch, for
    // converting the exact row count into bytes.
    uint64_t sample_bytes = 0;
    uint64_t sample_rows = 0;
    auto sampled = ctx->db().worker(i)->SampleStoredBatch(
        query.db.table, HashInt64(acfg.sample_seed, i + 0xdb));
    if (sampled.ok() && sampled->num_rows() > 0) {
      std::vector<size_t> idx;
      bool resolved = true;
      for (const auto& name : query.db.projection) {
        auto col = sampled->schema()->IndexOf(name);
        if (!col.ok()) {
          resolved = false;
          break;
        }
        idx.push_back(col.value());
      }
      if (resolved) {
        const RecordBatch projected = std::move(*sampled).Project(idx);
        sample_bytes = projected.ByteSize();
        sample_rows = projected.num_rows();
      }
    }

    // Ship the observed stats — unconditionally, zeros included, so the
    // coordinator's gather always completes even after an error — and
    // block for the verdict: nobody races ahead of the plan.
    BinaryWriter stats;
    stats.PutU8(kDbStats);
    stats.PutU64(bloom_prefix.qualifying_rows);
    stats.PutU64(sample_bytes);
    stats.PutU64(sample_rows);
    st.Update(
        decision.Round(NodeId::Db(i), &stats.buffer(), fold, decide).status());
    return st;
  };

  // --- JEN workers: seeded block re-sample, then wait for the verdict. ---
  auto jen_worker = [&](uint32_t w) -> Status {
    JenSample sample;
    Status st =
        SampleWorkerBlocks(ctx, prepared, w, acfg, acfg.sample_seed, &sample);
    BinaryWriter stats;
    stats.PutU8(kJenStats);
    stats.PutU64(sample.rows_sampled);
    stats.PutU64(sample.rows_after_pred);
    stats.PutU64(sample.projected_bytes);
    stats.PutU32(static_cast<uint32_t>(sample.keys.size()));
    for (int64_t key : sample.keys) stats.PutI64(key);
    st.Update(decision.Round(NodeId::Hdfs(w), &stats.buffer(), fold, decide)
                  .status());
    return st;
  };

  HJ_RETURN_IF_ERROR(exec.RunWorkers(db_worker, jen_worker));
  *advice = decided;
  exec.SetAlgorithm(decided.final_algorithm);

  // The carried state is buffered across the handoff on the query's
  // governor (the Bloom filter dominates; the sketches are a few KiB).
  const uint64_t carried_bytes = prefix.global_bloom.ByteSize();
  exec.governor()->Reserve(carried_bytes);
  Result<RecordBatch> rows = [&]() -> Result<RecordBatch> {
    switch (decided.final_algorithm) {
      case JoinAlgorithm::kBroadcast:
        return driver::RunBroadcastOn(&exec, prepared);
      case JoinAlgorithm::kDbSide:
      case JoinAlgorithm::kDbSideBloom:
        return driver::RunDbSideOn(&exec, prepared, /*use_bloom=*/true,
                                   &prefix);
      default:
        return driver::RunRepartitionFamilyOn(
            &exec, prepared, /*use_db_bloom=*/true, /*zigzag=*/true,
            JoinDriverOptions{}, &prefix);
    }
  }();
  exec.governor()->Release(carried_bytes);
  return exec.Finish(std::move(rows));
}

}  // namespace hybridjoin
