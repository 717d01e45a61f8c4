#include "exec/aggregator.h"

#include <algorithm>
#include <limits>

#include "expr/scalar_functions.h"

namespace hybridjoin {

const char* AggOpName(AggOp op) {
  switch (op) {
    case AggOp::kCountStar:
      return "count";
    case AggOp::kSum:
      return "sum";
    case AggOp::kMin:
      return "min";
    case AggOp::kMax:
      return "max";
  }
  return "unknown";
}

SchemaPtr AggSpec::ResultSchema() const {
  std::vector<Field> fields;
  fields.push_back({"group", DataType::kInt64});
  for (const auto& item : items) {
    fields.push_back({item.result_name, DataType::kInt64});
  }
  return Schema::Make(std::move(fields));
}

Status HashAggregator::Update(const RecordBatch& batch,
                              const std::vector<uint32_t>& sel) {
  if (sel.empty()) return Status::OK();
  HJ_ASSIGN_OR_RETURN(size_t group_col,
                      batch.schema()->IndexOf(spec_.group_column));
  const ColumnVector& gc = batch.column(group_col);

  // Resolve aggregate input columns once per batch.
  agg_cols_.assign(spec_.items.size(), nullptr);
  for (size_t i = 0; i < spec_.items.size(); ++i) {
    if (spec_.items[i].op == AggOp::kCountStar) continue;
    HJ_ASSIGN_OR_RETURN(size_t c,
                        batch.schema()->IndexOf(spec_.items[i].column));
    agg_cols_[i] = &batch.column(c);
  }

  for (uint32_t r : sel) {
    int64_t group = 0;
    if (spec_.extract_group) {
      if (gc.physical_type() != PhysicalType::kString) {
        return Status::InvalidArgument(
            "extract_group requires a string group column");
      }
      group = ExtractGroup(gc.str()[r]);
    } else {
      switch (gc.physical_type()) {
        case PhysicalType::kInt32:
          group = gc.i32()[r];
          break;
        case PhysicalType::kInt64:
          group = gc.i64()[r];
          break;
        default:
          return Status::InvalidArgument(
              "group column must be integer-typed (or use extract_group)");
      }
    }
    HJ_RETURN_IF_ERROR(FoldRow(group, agg_cols_, r));
  }
  ChargeNewGroups();
  return Status::OK();
}

Status HashAggregator::FoldRow(
    int64_t group, const std::vector<const ColumnVector*>& cols,
    uint32_t row) {
  State& st = groups_[group];
  if (!st.initialized) {
    st.initialized = true;
    st.acc.resize(spec_.items.size());
    for (size_t i = 0; i < spec_.items.size(); ++i) {
      switch (spec_.items[i].op) {
        case AggOp::kCountStar:
        case AggOp::kSum:
          st.acc[i] = 0;
          break;
        case AggOp::kMin:
          st.acc[i] = std::numeric_limits<int64_t>::max();
          break;
        case AggOp::kMax:
          st.acc[i] = std::numeric_limits<int64_t>::min();
          break;
      }
    }
  }
  for (size_t i = 0; i < spec_.items.size(); ++i) {
    int64_t v = 0;
    if (spec_.items[i].op != AggOp::kCountStar) {
      const ColumnVector* col = cols[i];
      switch (col->physical_type()) {
        case PhysicalType::kInt32:
          v = col->i32()[row];
          break;
        case PhysicalType::kInt64:
          v = col->i64()[row];
          break;
        default:
          return Status::InvalidArgument("aggregate input must be integer");
      }
    }
    switch (spec_.items[i].op) {
      case AggOp::kCountStar:
        st.acc[i] += 1;
        break;
      case AggOp::kSum:
        st.acc[i] += v;
        break;
      case AggOp::kMin:
        st.acc[i] = std::min(st.acc[i], v);
        break;
      case AggOp::kMax:
        st.acc[i] = std::max(st.acc[i], v);
        break;
    }
  }
  return Status::OK();
}

Status HashAggregator::Merge(const RecordBatch& partial) {
  if (partial.num_columns() != spec_.items.size() + 1) {
    return Status::Internal("partial aggregate arity mismatch");
  }
  const auto& groups = partial.column(0).i64();
  for (size_t r = 0; r < partial.num_rows(); ++r) {
    State& st = groups_[groups[r]];
    if (!st.initialized) {
      st.initialized = true;
      st.acc.resize(spec_.items.size());
      for (size_t i = 0; i < spec_.items.size(); ++i) {
        st.acc[i] = partial.column(i + 1).i64()[r];
      }
      continue;
    }
    for (size_t i = 0; i < spec_.items.size(); ++i) {
      const int64_t v = partial.column(i + 1).i64()[r];
      switch (spec_.items[i].op) {
        case AggOp::kCountStar:
        case AggOp::kSum:
          st.acc[i] += v;
          break;
        case AggOp::kMin:
          st.acc[i] = std::min(st.acc[i], v);
          break;
        case AggOp::kMax:
          st.acc[i] = std::max(st.acc[i], v);
          break;
      }
    }
  }
  ChargeNewGroups();
  return Status::OK();
}

RecordBatch HashAggregator::Partial() const {
  RecordBatch out(spec_.ResultSchema());
  std::vector<int64_t> keys;
  keys.reserve(groups_.size());
  for (const auto& [group, st] : groups_) keys.push_back(group);
  std::sort(keys.begin(), keys.end());
  out.Reserve(keys.size());
  auto& group_col = out.mutable_column(0).mutable_i64();
  for (int64_t k : keys) group_col.push_back(k);
  for (size_t i = 0; i < spec_.items.size(); ++i) {
    auto& col = out.mutable_column(i + 1).mutable_i64();
    for (int64_t k : keys) col.push_back(groups_.at(k).acc[i]);
  }
  return out;
}

}  // namespace hybridjoin
