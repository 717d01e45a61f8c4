#include "hybrid/advisor.h"

#include <algorithm>
#include <sstream>

#include "common/hash.h"
#include "hybrid/algorithms.h"

namespace hybridjoin {

namespace {

/// Nominal bandwidths used when the config leaves a resource unthrottled
/// (the advisor still needs relative costs to rank algorithms).
constexpr double kNominalDiskBps = 100.0 * 1024 * 1024;
constexpr double kNominalHdfsNicBps = 120.0 * 1024 * 1024;
constexpr double kNominalDbNicBps = 1200.0 * 1024 * 1024;
constexpr double kNominalCrossBps = 2400.0 * 1024 * 1024;

double Effective(uint64_t configured, double fallback) {
  return configured == 0 ? fallback : static_cast<double>(configured);
}

}  // namespace

std::string Advice::ToString() const {
  std::ostringstream os;
  if (!has_observed) {
    os << "advice: " << JoinAlgorithmName(algorithm)
       << " (est. costs s — broadcast: " << broadcast_cost
       << ", db(BF): " << db_side_cost << ", zigzag: " << zigzag_cost << ")";
    return os.str();
  }
  // Both estimate and observation exist: render all three costs as
  // "estimated -> observed" so a pivot is explainable from this line alone.
  os << "advice: " << JoinAlgorithmName(algorithm) << " -> "
     << JoinAlgorithmName(final_algorithm)
     << (pivoted ? " [pivoted]" : " [stayed]")
     << " (est -> obs costs s — broadcast: " << broadcast_cost << " -> "
     << observed_broadcast_cost << ", db(BF): " << db_side_cost << " -> "
     << observed_db_side_cost << ", zigzag: " << zigzag_cost << " -> "
     << observed_zigzag_cost << ")";
  if (pivoted && !pivot_reason.empty()) os << "; " << pivot_reason;
  return os.str();
}

Advice AdviseAlgorithm(const EngineContext& ctx, const QueryEstimates& est) {
  const SimulationConfig& cfg = ctx.config();
  const double n = cfg.jen_workers;
  const double m = cfg.db.num_workers;
  const double disk =
      Effective(cfg.datanode.disk_read_bps, kNominalDiskBps) *
      cfg.datanode.num_disks;
  const double hdfs_nic = Effective(cfg.net.hdfs_nic_bps, kNominalHdfsNicBps);
  const double db_nic = Effective(cfg.net.db_nic_bps, kNominalDbNicBps);
  const double cross = Effective(cfg.net.cross_switch_bps, kNominalCrossBps);

  // Shared: every HDFS-side algorithm scans L once, in parallel.
  const double scan = static_cast<double>(est.hdfs_scan_bytes) / (n * disk);

  Advice advice;
  // Broadcast (§3.2): T' is copied to all n workers through the switch;
  // no L shuffle at all.
  advice.broadcast_cost =
      scan + static_cast<double>(est.db_filtered_bytes) * n / cross;

  // DB-side with Bloom filter (§3.1): L' (after join-key pruning) crosses
  // the switch and funnels into m database NICs, then an internal join
  // roughly re-shuffles it inside the database.
  const double l_moved = static_cast<double>(est.hdfs_filtered_bytes) *
                         est.hdfs_joinkey_selectivity;
  advice.db_side_cost = scan + l_moved / std::min(cross, m * db_nic) +
                        l_moved / (m * db_nic);

  // Zigzag (§3.4): the L' shuffle overlaps the scan (it is masked unless
  // the NICs are slower than the disks); T'' crosses the switch after
  // two-way pruning.
  const double shuffle = l_moved / (n * hdfs_nic);
  const double t_moved = static_cast<double>(est.db_filtered_bytes) *
                         est.db_joinkey_selectivity;
  advice.zigzag_cost = std::max(scan, shuffle) + t_moved / cross;

  advice.algorithm = JoinAlgorithm::kZigzag;
  double best = advice.zigzag_cost;
  if (advice.db_side_cost < best) {
    best = advice.db_side_cost;
    advice.algorithm = JoinAlgorithm::kDbSideBloom;
  }
  if (advice.broadcast_cost < best) {
    best = advice.broadcast_cost;
    advice.algorithm = JoinAlgorithm::kBroadcast;
  }
  advice.final_algorithm = advice.algorithm;
  return advice;
}

namespace {

/// The cost `advice` assigns to running `algorithm` (the three modeled
/// strategies; the Bloom-less kDbSide maps to the db(BF) cost).
double CostOf(const Advice& advice, JoinAlgorithm algorithm) {
  switch (algorithm) {
    case JoinAlgorithm::kBroadcast:
      return advice.broadcast_cost;
    case JoinAlgorithm::kDbSide:
    case JoinAlgorithm::kDbSideBloom:
      return advice.db_side_cost;
    default:
      return advice.zigzag_cost;
  }
}

}  // namespace

Advice DecidePivot(const EngineContext& ctx, const Advice& initial,
                   const QueryEstimates& observed, double pivot_threshold) {
  const Advice obs = AdviseAlgorithm(ctx, observed);
  Advice advice = initial;
  advice.has_observed = true;
  advice.observed_broadcast_cost = obs.broadcast_cost;
  advice.observed_db_side_cost = obs.db_side_cost;
  advice.observed_zigzag_cost = obs.zigzag_cost;
  advice.final_algorithm = initial.algorithm;
  advice.pivoted = false;
  advice.pivot_reason.clear();
  const double stay = CostOf(obs, initial.algorithm);
  const double best = CostOf(obs, obs.algorithm);
  if (obs.algorithm != initial.algorithm &&
      stay > best * (1.0 + pivot_threshold)) {
    advice.pivoted = true;
    advice.final_algorithm = obs.algorithm;
    std::ostringstream reason;
    reason << "pivot: observed cost of " << JoinAlgorithmName(initial.algorithm)
           << " (" << stay << "s) exceeds " << JoinAlgorithmName(obs.algorithm)
           << " (" << best << "s) by > " << (pivot_threshold * 100.0) << "%";
    advice.pivot_reason = reason.str();
  }
  return advice;
}

Result<BlockSample> SampleHdfsBlock(const PreparedQuery& prepared,
                                    const StoredBlock& stored) {
  const HybridQuery& query = prepared.query;
  const SchemaPtr& schema = prepared.scan_plan.meta.schema;
  BlockSample sample;
  std::vector<std::string> needed = query.hdfs.projection;
  if (query.hdfs.predicate != nullptr) {
    query.hdfs.predicate->CollectColumns(&needed);
  }
  for (const auto& name : needed) {
    HJ_ASSIGN_OR_RETURN(size_t i, schema->IndexOf(name));
    sample.columns.push_back(i);
  }
  std::sort(sample.columns.begin(), sample.columns.end());
  sample.columns.erase(
      std::unique(sample.columns.begin(), sample.columns.end()),
      sample.columns.end());
  HJ_ASSIGN_OR_RETURN(
      sample.rows,
      stored.format == HdfsFormat::kText
          ? DecodeText(stored.text->data(), stored.text->size(), schema,
                       sample.columns)
          : DecodeColumnarBlock(*stored.columnar, schema, sample.columns));
  sample.selected.resize(sample.rows.num_rows());
  for (uint32_t i = 0; i < sample.selected.size(); ++i) {
    sample.selected[i] = i;
  }
  if (query.hdfs.predicate != nullptr) {
    HJ_RETURN_IF_ERROR(
        query.hdfs.predicate->Filter(sample.rows, &sample.selected));
  }
  std::vector<size_t> projection;
  for (const auto& name : query.hdfs.projection) {
    HJ_ASSIGN_OR_RETURN(size_t i, sample.rows.schema()->IndexOf(name));
    projection.push_back(i);
  }
  sample.projected = sample.rows.Project(projection);
  return sample;
}

Result<QueryEstimates> EstimateQuery(EngineContext* ctx,
                                     const HybridQuery& query) {
  HJ_ASSIGN_OR_RETURN(PreparedQuery prepared, PrepareQuery(ctx, query));
  QueryEstimates est;

  // --- Database side: sample one seeded-random stored batch on worker 0
  // (copied under the catalog read lock, so a concurrent LoadTable cannot
  // move it out from under the estimator). ---
  const uint64_t sample_seed = ctx->config().adaptive.sample_seed;
  HJ_ASSIGN_OR_RETURN(RecordBatch sample,
                      ctx->db().worker(0)->SampleStoredBatch(
                          query.db.table, HashInt64(sample_seed, 0xdb)));
  HJ_ASSIGN_OR_RETURN(uint64_t db_rows, ctx->db().TableRows(query.db.table));
  double db_sel = 1.0;
  double db_row_bytes = 32.0;
  if (sample.num_rows() > 0) {
    std::vector<uint32_t> sel(sample.num_rows());
    for (uint32_t i = 0; i < sel.size(); ++i) sel[i] = i;
    if (query.db.predicate != nullptr) {
      HJ_RETURN_IF_ERROR(query.db.predicate->Filter(sample, &sel));
    }
    db_sel = static_cast<double>(sel.size()) /
             static_cast<double>(sample.num_rows());
    std::vector<size_t> idx;
    for (const auto& name : query.db.projection) {
      HJ_ASSIGN_OR_RETURN(size_t i, sample.schema()->IndexOf(name));
      idx.push_back(i);
    }
    const RecordBatch projected = std::move(sample).Project(idx);
    db_row_bytes = static_cast<double>(projected.ByteSize()) /
                   static_cast<double>(projected.num_rows());
  }
  est.db_filtered_bytes = static_cast<uint64_t>(
      db_sel * static_cast<double>(db_rows) * db_row_bytes);

  // --- HDFS side: decode one seeded-random block. ---
  HJ_ASSIGN_OR_RETURN(std::vector<BlockInfo> blocks,
                      ctx->namenode().GetBlocks(prepared.scan_plan.meta.path));
  HJ_ASSIGN_OR_RETURN(uint64_t file_bytes,
                      ctx->namenode().FileSize(prepared.scan_plan.meta.path));
  est.hdfs_scan_bytes = file_bytes;
  double hdfs_sel = 1.0;
  double hdfs_row_bytes = 32.0;
  uint64_t hdfs_rows = prepared.scan_plan.meta.num_rows;
  if (!blocks.empty()) {
    const BlockInfo& b =
        blocks[HashInt64(sample_seed, 0x4df5) % blocks.size()];
    HJ_ASSIGN_OR_RETURN(
        std::shared_ptr<const StoredBlock> stored,
        ctx->datanode(b.replicas.front().node)->Fetch(b.block_id));
    HJ_ASSIGN_OR_RETURN(BlockSample block, SampleHdfsBlock(prepared, *stored));
    hdfs_sel = block.rows.num_rows() == 0
                   ? 1.0
                   : static_cast<double>(block.selected.size()) /
                         static_cast<double>(block.rows.num_rows());
    const RecordBatch& projected = block.projected;
    if (projected.num_rows() > 0) {
      hdfs_row_bytes = static_cast<double>(projected.ByteSize()) /
                       static_cast<double>(projected.num_rows());
    }
    // Columnar scans only read the materialized chunks.
    if (stored->format == HdfsFormat::kColumnar) {
      uint64_t chunk_bytes = 0;
      for (size_t idx : block.columns) {
        chunk_bytes += stored->columnar->chunks[idx].ByteSize();
      }
      const double fraction = static_cast<double>(chunk_bytes) /
                              static_cast<double>(stored->ByteSize());
      est.hdfs_scan_bytes =
          static_cast<uint64_t>(fraction * static_cast<double>(file_bytes));
    }
  }
  est.hdfs_filtered_bytes = static_cast<uint64_t>(
      hdfs_sel * static_cast<double>(hdfs_rows) * hdfs_row_bytes);
  return est;
}

}  // namespace hybridjoin
