// HybridWarehouse: the library's public entry point. Owns a simulated
// hybrid warehouse (parallel EDW + HDFS cluster + JEN + interconnect),
// loads data into both sides, and executes hybrid joins with any of the
// paper's algorithms.
//
// Typical use (see examples/quickstart.cc):
//
//   HybridWarehouse hw(SimulationConfig{});
//   hw.CreateDbTable({"T", t_schema, "uniqKey"});
//   hw.LoadDbTable("T", t_rows);
//   hw.WriteHdfsTable("L", l_schema, {}, l_batches);
//   auto result = hw.Execute(query, JoinAlgorithm::kZigzag);

#ifndef HYBRIDJOIN_HYBRID_WAREHOUSE_H_
#define HYBRIDJOIN_HYBRID_WAREHOUSE_H_

#include <memory>

#include "hdfs/table_writer.h"
#include "hybrid/advisor.h"
#include "hybrid/algorithms.h"
#include "hybrid/context.h"
#include "sql/parser.h"

namespace hybridjoin {

class HybridWarehouse {
 public:
  explicit HybridWarehouse(const SimulationConfig& config)
      : ctx_(std::make_unique<EngineContext>(config)) {}

  EngineContext& context() { return *ctx_; }

  // --- Database-side data definition / loading. ---

  /// Registers a hash-partitioned table in the EDW.
  Status CreateDbTable(DbTableMeta meta) {
    return ctx_->db().CreateTable(std::move(meta));
  }

  /// Loads rows into an EDW table (partitioned on its distribution column).
  Status LoadDbTable(const std::string& name, const RecordBatch& rows) {
    return ctx_->db().LoadTable(name, rows);
  }

  /// Builds a per-partition composite index over integer columns, enabling
  /// index-only Bloom filter computation (paper §5).
  Status CreateDbIndex(const std::string& table,
                       const std::vector<std::string>& columns) {
    return ctx_->db().CreateIndex(table, columns);
  }

  // --- HDFS-side data loading. ---

  /// Writes batches as one HDFS table (text or columnar) and registers it
  /// in HCatalog, encoding blocks on the exec pool when there is one.
  Status WriteHdfsTable(const std::string& name, const SchemaPtr& schema,
                        const HdfsWriteOptions& options,
                        const std::vector<RecordBatch>& batches) {
    HdfsTableWriter writer(&ctx_->namenode(), &ctx_->hcatalog(), name,
                           schema, options, ctx_->exec_pool());
    HJ_RETURN_IF_ERROR(writer.Open());
    for (const RecordBatch& batch : batches) {
      HJ_RETURN_IF_ERROR(writer.Append(batch));
    }
    return writer.Close();
  }

  // --- Query execution. ---

  /// Runs the query with a specific join algorithm. `memory_budget_bytes`
  /// seeds the execution's MemoryGovernor (e.g. a server session's quota);
  /// 0 falls back to SimulationConfig::query_memory_budget_bytes.
  Result<QueryResult> Execute(const HybridQuery& query,
                              JoinAlgorithm algorithm,
                              uint64_t memory_budget_bytes = 0) {
    return RunJoin(ctx_.get(), query, algorithm, memory_budget_bytes);
  }

  /// Lets the advisor pick the algorithm (sampling-based estimates), then
  /// runs it. With AdaptiveConfig::enabled (the default) the execution goes
  /// through the adaptive driver: the shared prefix re-measures the
  /// estimates and the query pivots mid-flight when the observed cost model
  /// disagrees with the initial pick by more than the hysteresis threshold.
  /// `advice_out`, if non-null, receives the decision — including the
  /// observed costs and the pivot verdict on the adaptive path.
  Result<QueryResult> ExecuteAuto(const HybridQuery& query,
                                  Advice* advice_out = nullptr,
                                  uint64_t memory_budget_bytes = 0) {
    HJ_ASSIGN_OR_RETURN(QueryEstimates est, EstimateQuery(ctx_.get(), query));
    Advice advice = AdviseAlgorithm(*ctx_, est);
    if (ctx_->config().adaptive.enabled) {
      auto result =
          RunAdaptiveJoin(ctx_.get(), query, est, &advice, memory_budget_bytes);
      if (advice_out != nullptr) *advice_out = advice;
      return result;
    }
    if (advice_out != nullptr) *advice_out = advice;
    return Execute(query, advice.algorithm, memory_budget_bytes);
  }

  // --- SQL front end (the paper drives everything through SQL, §4.1.1). ---

  /// Parses a SELECT statement of the supported dialect (see sql/parser.h)
  /// against this warehouse's catalogs.
  Result<HybridQuery> ParseSql(const std::string& statement) {
    sql::TableResolver resolver;
    resolver.side = [this](const std::string& table)
        -> Result<sql::TableSideKind> {
      const bool in_db = ctx_->db().LookupTable(table).ok();
      const bool in_hdfs = ctx_->hcatalog().Lookup(table).ok();
      if (in_db && in_hdfs) {
        return Status::InvalidArgument("table '" + table +
                                       "' exists on both sides");
      }
      if (in_db) return sql::TableSideKind::kDb;
      if (in_hdfs) return sql::TableSideKind::kHdfs;
      return Status::NotFound("table '" + table + "' not found");
    };
    resolver.schema = [this](const std::string& table) -> Result<SchemaPtr> {
      if (auto meta = ctx_->db().LookupTable(table); meta.ok()) {
        return meta->schema;
      }
      HJ_ASSIGN_OR_RETURN(HdfsTableMeta meta, ctx_->hcatalog().Lookup(table));
      return meta.schema;
    };
    return sql::ParseHybridQuery(statement, resolver);
  }

  /// Parses and runs a statement with the given algorithm.
  Result<QueryResult> ExecuteSql(const std::string& statement,
                                 JoinAlgorithm algorithm,
                                 uint64_t memory_budget_bytes = 0) {
    HJ_ASSIGN_OR_RETURN(HybridQuery query, ParseSql(statement));
    return Execute(query, algorithm, memory_budget_bytes);
  }

  /// Parses and runs a statement, letting the advisor pick the algorithm.
  Result<QueryResult> ExecuteSqlAuto(const std::string& statement,
                                     Advice* advice_out = nullptr,
                                     uint64_t memory_budget_bytes = 0) {
    HJ_ASSIGN_OR_RETURN(HybridQuery query, ParseSql(statement));
    return ExecuteAuto(query, advice_out, memory_budget_bytes);
  }

  /// Drops the HDFS page caches (to measure cold runs).
  void DropHdfsCaches() { ctx_->DropHdfsCaches(); }

 private:
  std::unique_ptr<EngineContext> ctx_;
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_HYBRID_WAREHOUSE_H_
