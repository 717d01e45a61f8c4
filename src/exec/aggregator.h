// Hash-based group-by aggregation, the last stage of every join variant.
// Each worker keeps a partial HashAggregator; partials are serialized,
// merged at a designated worker and finalized into the query result
// (the paper's "partial aggregation ... final aggregation" steps).

#ifndef HYBRIDJOIN_EXEC_AGGREGATOR_H_
#define HYBRIDJOIN_EXEC_AGGREGATOR_H_

#include <algorithm>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "exec/memory_governor.h"
#include "types/record_batch.h"

namespace hybridjoin {

enum class AggOp : uint8_t {
  kCountStar = 0,
  kSum = 1,  ///< over an integer column
  kMin = 2,
  kMax = 3,
};

const char* AggOpName(AggOp op);

/// Grouping + aggregate list of a query.
struct AggSpec {
  /// Group-by column name in the joined schema (e.g. "L.groupByExtractCol").
  std::string group_column;
  /// Apply ExtractGroup() to a string group column (the paper's
  /// extract_group UDF); otherwise the column must be integer-typed.
  bool extract_group = false;

  struct Item {
    AggOp op = AggOp::kCountStar;
    std::string column;       ///< unused for kCountStar
    std::string result_name;  ///< output column name
  };
  std::vector<Item> items;

  /// COUNT(*) grouped by `group_column` — the paper's query shape.
  static AggSpec CountStar(std::string group_column, bool extract_group) {
    AggSpec s;
    s.group_column = std::move(group_column);
    s.extract_group = extract_group;
    s.items.push_back({AggOp::kCountStar, "", "count"});
    return s;
  }

  /// Output schema: [group int64, one int64 per aggregate].
  SchemaPtr ResultSchema() const;
};

/// Accumulates grouped aggregates. Not thread-safe; one per worker thread.
///
/// Flat state: the groups, in the order they first arrived, in one int64
/// array; their accumulators (one int64 per item) row by row in another;
/// and an open-addressing index of uint32 slots (group index + 1, 0 =
/// empty) at most half full, probed linearly. Any int64 is a valid group.
class HashAggregator {
 public:
  explicit HashAggregator(AggSpec spec);

  const AggSpec& spec() const { return spec_; }
  size_t num_groups() const { return groups_.size(); }

  /// Folds the selected rows of a joined batch into the aggregate state.
  Status Update(const RecordBatch& batch, const std::vector<uint32_t>& sel);

  /// Folds one row into `group`'s state, for callers that read the row's
  /// inputs in place: value_of(i) returns item i's input as int64 (it is
  /// not called for a COUNT(*) item).
  template <typename ValueOf>
  void Fold(int64_t group, ValueOf&& value_of) {
    int64_t* acc = Accumulators(group);
    for (size_t i = 0; i < spec_.items.size(); ++i) {
      const AggOp op = spec_.items[i].op;
      FoldValue(op, op == AggOp::kCountStar ? 1 : value_of(i), &acc[i]);
    }
  }

  /// Folds a partial-state batch (produced by Partial()) into this one.
  Status Merge(const RecordBatch& partial);

  /// Folds another aggregator's state into this one (thread-local partials
  /// of a morsel-parallel phase). Goes through the same Partial() wire path
  /// the cross-node merge uses; every op is commutative and Partial() sorts
  /// by group key, so merge order never changes the final result.
  Status Merge(const HashAggregator& other) { return Merge(other.Partial()); }

  /// Serializes the current state as a partial-aggregate batch.
  RecordBatch Partial() const;

  /// Final result, sorted by group key.
  RecordBatch Finish() const { return Partial(); }

 private:
  /// Folds `v` into one accumulator: a count or a partial count adds (a
  /// COUNT(*) row folds 1), a sum adds with two's-complement wrap, min and
  /// max keep the extreme.
  static void FoldValue(AggOp op, int64_t v, int64_t* acc) {
    switch (op) {
      case AggOp::kCountStar:
      case AggOp::kSum:
        *acc = static_cast<int64_t>(static_cast<uint64_t>(*acc) +
                                    static_cast<uint64_t>(v));
        break;
      case AggOp::kMin:
        *acc = std::min(*acc, v);
        break;
      case AggOp::kMax:
        *acc = std::max(*acc, v);
        break;
    }
  }

  /// `group`'s accumulators, created at each op's identity when new.
  int64_t* Accumulators(int64_t group) {
    if (!index_.empty()) {
      const size_t mask = index_.size() - 1;
      for (size_t slot = SlotOf(group, mask);; slot = (slot + 1) & mask) {
        const uint32_t g = index_[slot];
        if (g == 0) break;
        if (groups_[g - 1] == group) return acc_.data() + (g - 1) * width();
      }
    }
    return AddGroup(group);
  }
  int64_t* AddGroup(int64_t group);

  size_t width() const { return spec_.items.size(); }
  static size_t SlotOf(int64_t group, size_t mask) {
    return HashInt64(static_cast<uint64_t>(group), kIndexSeed) & mask;
  }
  static constexpr uint64_t kIndexSeed = 0xa66e9ULL;

  AggSpec spec_;
  std::vector<int64_t> groups_;
  std::vector<int64_t> acc_;     ///< groups_.size() x width(), row-major
  std::vector<uint32_t> index_;  ///< power of two, or empty before a group
  /// Every byte of the three arrays' capacity is charged, on each growth.
  /// Aggregation state has no spillable representation, so the charge goes
  /// through the never-failing Reserve path.
  MemoryReservation reservation_;
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_EXEC_AGGREGATOR_H_
