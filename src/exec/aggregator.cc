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

HashAggregator::HashAggregator(AggSpec spec) : spec_(std::move(spec)) {}

int64_t* HashAggregator::AddGroup(int64_t group) {
  // Keep the index at most half full: double it (at least 16 slots),
  // re-slot every group, and grow the dense arrays to what it admits.
  if ((groups_.size() + 1) * 2 > index_.size()) {
    const size_t slots = std::max<size_t>(16, index_.size() * 2);
    index_.assign(slots, 0);
    for (size_t g = 0; g < groups_.size(); ++g) {
      size_t slot = SlotOf(groups_[g], slots - 1);
      while (index_[slot] != 0) slot = (slot + 1) & (slots - 1);
      index_[slot] = static_cast<uint32_t>(g + 1);
    }
    groups_.reserve(slots / 2);
    acc_.reserve(slots / 2 * width());
    const uint64_t held = index_.capacity() * sizeof(uint32_t) +
                          groups_.capacity() * sizeof(int64_t) +
                          acc_.capacity() * sizeof(int64_t);
    reservation_.Grow(held - reservation_.bytes());
  }
  const size_t mask = index_.size() - 1;
  size_t slot = SlotOf(group, mask);
  while (index_[slot] != 0) slot = (slot + 1) & mask;
  groups_.push_back(group);
  index_[slot] = static_cast<uint32_t>(groups_.size());
  for (const AggSpec::Item& item : spec_.items) {
    acc_.push_back(item.op == AggOp::kMin   ? std::numeric_limits<int64_t>::max()
                   : item.op == AggOp::kMax ? std::numeric_limits<int64_t>::min()
                                            : 0);
  }
  return acc_.data() + (groups_.size() - 1) * width();
}

Status HashAggregator::Update(const RecordBatch& batch,
                              const std::vector<uint32_t>& sel) {
  if (sel.empty()) return Status::OK();
  HJ_ASSIGN_OR_RETURN(size_t group_col,
                      batch.schema()->IndexOf(spec_.group_column));
  const ColumnVector& gc = batch.column(group_col);
  if (spec_.extract_group) {
    if (gc.physical_type() != PhysicalType::kString) {
      return Status::InvalidArgument(
          "extract_group requires a string group column");
    }
  } else if (gc.physical_type() != PhysicalType::kInt32 &&
             gc.physical_type() != PhysicalType::kInt64) {
    return Status::InvalidArgument(
        "group column must be integer-typed (or use extract_group)");
  }

  // Resolve aggregate input columns once per batch.
  std::vector<const ColumnVector*> inputs(width(), nullptr);
  for (size_t i = 0; i < width(); ++i) {
    if (spec_.items[i].op == AggOp::kCountStar) continue;
    HJ_ASSIGN_OR_RETURN(size_t c,
                        batch.schema()->IndexOf(spec_.items[i].column));
    inputs[i] = &batch.column(c);
    if (inputs[i]->physical_type() != PhysicalType::kInt32 &&
        inputs[i]->physical_type() != PhysicalType::kInt64) {
      return Status::InvalidArgument("aggregate input must be integer");
    }
  }
  auto int_at = [](const ColumnVector& col, uint32_t r) -> int64_t {
    return col.physical_type() == PhysicalType::kInt32 ? col.i32()[r]
                                                       : col.i64()[r];
  };
  // One loop per group type, so the row loop reads a typed array.
  auto fold_rows = [&](auto group_at) {
    for (uint32_t r : sel) {
      Fold(group_at(r), [&](size_t i) { return int_at(*inputs[i], r); });
    }
  };
  if (spec_.extract_group) {
    const StringColumn& strings = gc.str();
    fold_rows([&strings](uint32_t r) { return ExtractGroup(strings[r]); });
  } else if (gc.physical_type() == PhysicalType::kInt32) {
    const auto& groups = gc.i32();
    fold_rows([&groups](uint32_t r) { return groups[r]; });
  } else {
    const auto& groups = gc.i64();
    fold_rows([&groups](uint32_t r) { return groups[r]; });
  }
  return Status::OK();
}

Status HashAggregator::Merge(const RecordBatch& partial) {
  if (partial.num_columns() != width() + 1) {
    return Status::Internal("partial aggregate arity mismatch");
  }
  const auto& groups = partial.column(0).i64();
  for (size_t r = 0; r < partial.num_rows(); ++r) {
    // A partial count folds like a sum; every identity leaves the value.
    int64_t* acc = Accumulators(groups[r]);
    for (size_t i = 0; i < width(); ++i) {
      FoldValue(spec_.items[i].op, partial.column(i + 1).i64()[r], &acc[i]);
    }
  }
  return Status::OK();
}

RecordBatch HashAggregator::Partial() const {
  RecordBatch out(spec_.ResultSchema());
  std::vector<uint32_t> order(groups_.size());
  for (uint32_t g = 0; g < order.size(); ++g) order[g] = g;
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    return groups_[a] < groups_[b];
  });
  out.Reserve(order.size());
  auto& group_col = out.mutable_column(0).mutable_i64();
  for (uint32_t g : order) group_col.push_back(groups_[g]);
  for (size_t i = 0; i < width(); ++i) {
    auto& col = out.mutable_column(i + 1).mutable_i64();
    for (uint32_t g : order) col.push_back(acc_[g * width() + i]);
  }
  return out;
}

}  // namespace hybridjoin
