// Hash-based group-by aggregation, the last stage of every join variant.
// Each worker keeps a partial HashAggregator; partials are serialized,
// merged at a designated worker and finalized into the query result
// (the paper's "partial aggregation ... final aggregation" steps).

#ifndef HYBRIDJOIN_EXEC_AGGREGATOR_H_
#define HYBRIDJOIN_EXEC_AGGREGATOR_H_

#include <string>
#include <unordered_map>
#include <vector>

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
class HashAggregator {
 public:
  explicit HashAggregator(AggSpec spec) : spec_(std::move(spec)) {}

  const AggSpec& spec() const { return spec_; }
  size_t num_groups() const { return groups_.size(); }

  /// Folds the selected rows of a joined batch into the aggregate state.
  Status Update(const RecordBatch& batch, const std::vector<uint32_t>& sel);

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
  struct State {
    std::vector<int64_t> acc;
    bool initialized = false;
  };

  /// Approximate heap bytes per group (hash-map node + accumulator vector);
  /// charged against the MemoryGovernor in whole-group steps as the state
  /// grows. Aggregation state has no spillable representation, so the
  /// charge goes through the never-failing Reserve path.
  static constexpr uint64_t kApproxGroupBytes = 64;

  void ChargeNewGroups() {
    if (groups_.size() > groups_charged_) {
      reservation_.Grow((groups_.size() - groups_charged_) *
                        kApproxGroupBytes);
      groups_charged_ = groups_.size();
    }
  }

  Status FoldRow(int64_t group, const std::vector<const ColumnVector*>& cols,
                 uint32_t row);

  AggSpec spec_;
  /// Update's aggregate input columns, kept to reuse the allocation.
  std::vector<const ColumnVector*> agg_cols_;
  std::unordered_map<int64_t, State> groups_;
  size_t groups_charged_ = 0;
  MemoryReservation reservation_;
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_EXEC_AGGREGATOR_H_
