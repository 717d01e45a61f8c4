#include "hybrid/reference.h"

#include <unordered_map>
#include <utility>

#include "exec/aggregator.h"
#include "exec/join_prober.h"

namespace hybridjoin {

namespace {

Result<std::vector<RecordBatch>> FilterProject(
    const std::vector<RecordBatch>& batches, const PredicatePtr& predicate,
    const std::vector<std::string>& projection) {
  std::vector<RecordBatch> out;
  for (const RecordBatch& batch : batches) {
    std::vector<uint32_t> sel(batch.num_rows());
    for (uint32_t i = 0; i < sel.size(); ++i) sel[i] = i;
    if (predicate != nullptr) {
      HJ_RETURN_IF_ERROR(predicate->Filter(batch, &sel));
    }
    if (sel.empty()) continue;
    std::vector<size_t> indexes;
    for (const std::string& name : projection) {
      HJ_ASSIGN_OR_RETURN(size_t idx, batch.schema()->IndexOf(name));
      indexes.push_back(idx);
    }
    out.push_back(batch.Project(indexes).Gather(sel));
  }
  return out;
}

/// The join key of `row` widened to int64; `column` must be integer-typed.
Result<int64_t> KeyOf(const ColumnVector& column, size_t row) {
  switch (column.physical_type()) {
    case PhysicalType::kInt32:
      return column.i32()[row];
    case PhysicalType::kInt64:
      return column.i64()[row];
    default:
      return Status::InvalidArgument("join key must be integer-typed");
  }
}

}  // namespace

Result<RecordBatch> RunReferenceJoin(
    const std::vector<RecordBatch>& db_batches,
    const std::vector<RecordBatch>& hdfs_batches, const HybridQuery& query) {
  HJ_RETURN_IF_ERROR(query.Validate());
  HJ_ASSIGN_OR_RETURN(
      std::vector<RecordBatch> t_prime,
      FilterProject(db_batches, query.db.predicate, query.db.projection));
  HJ_ASSIGN_OR_RETURN(std::vector<RecordBatch> l_prime,
                      FilterProject(hdfs_batches, query.hdfs.predicate,
                                    query.hdfs.projection));

  // Schemas of the filtered sides.
  SchemaPtr db_schema;
  SchemaPtr hdfs_schema;
  {
    // Derive projected schemas even when a side filtered down to nothing.
    if (db_batches.empty() || hdfs_batches.empty()) {
      return Status::InvalidArgument("reference join needs input batches");
    }
    std::vector<size_t> idx;
    for (const auto& name : query.db.projection) {
      HJ_ASSIGN_OR_RETURN(size_t i, db_batches[0].schema()->IndexOf(name));
      idx.push_back(i);
    }
    db_schema = db_batches[0].schema()->Project(idx);
    idx.clear();
    for (const auto& name : query.hdfs.projection) {
      HJ_ASSIGN_OR_RETURN(size_t i, hdfs_batches[0].schema()->IndexOf(name));
      idx.push_back(i);
    }
    hdfs_schema = hdfs_batches[0].schema()->Project(idx);
  }
  HJ_ASSIGN_OR_RETURN(size_t db_key, db_schema->IndexOf(query.db.join_key));
  HJ_ASSIGN_OR_RETURN(size_t hdfs_key,
                      hdfs_schema->IndexOf(query.hdfs.join_key));

  // A straight-line join that shares no code with the engine's probe path:
  // index L' rows by key, append every matching (L', T') pair as one fully
  // materialized joined row, then filter and aggregate. Joined rows are
  // flushed in bounded pieces so the oracle's memory stays small.
  std::unordered_multimap<int64_t, std::pair<size_t, size_t>> l_by_key;
  for (size_t b = 0; b < l_prime.size(); ++b) {
    for (size_t r = 0; r < l_prime[b].num_rows(); ++r) {
      HJ_ASSIGN_OR_RETURN(int64_t key, KeyOf(l_prime[b].column(hdfs_key), r));
      l_by_key.emplace(key, std::make_pair(b, r));
    }
  }

  constexpr size_t kFlushRows = 4096;
  const SchemaPtr joined_schema = MakeJoinedSchema(
      hdfs_schema, query.hdfs.alias, db_schema, query.db.alias);
  const size_t hdfs_width = hdfs_schema->num_fields();
  HashAggregator agg(query.agg);
  RecordBatch joined(joined_schema);
  auto flush = [&]() -> Status {
    std::vector<uint32_t> sel(joined.num_rows());
    for (uint32_t i = 0; i < sel.size(); ++i) sel[i] = i;
    if (query.post_join_predicate != nullptr) {
      HJ_RETURN_IF_ERROR(query.post_join_predicate->Filter(joined, &sel));
    }
    HJ_RETURN_IF_ERROR(agg.Update(joined, sel));
    joined = RecordBatch(joined_schema);
    return Status::OK();
  };
  for (const RecordBatch& t : t_prime) {
    for (size_t r = 0; r < t.num_rows(); ++r) {
      HJ_ASSIGN_OR_RETURN(int64_t key, KeyOf(t.column(db_key), r));
      auto [begin, end] = l_by_key.equal_range(key);
      for (auto it = begin; it != end; ++it) {
        const RecordBatch& l = l_prime[it->second.first];
        for (size_t c = 0; c < hdfs_width; ++c) {
          joined.mutable_column(c).AppendFrom(l.column(c), it->second.second);
        }
        for (size_t c = 0; c < t.num_columns(); ++c) {
          joined.mutable_column(hdfs_width + c).AppendFrom(t.column(c), r);
        }
        if (joined.num_rows() >= kFlushRows) HJ_RETURN_IF_ERROR(flush());
      }
    }
  }
  HJ_RETURN_IF_ERROR(flush());
  return agg.Finish();
}

}  // namespace hybridjoin
