// BatchScatter: the one keyed row split. Every site that divides a batch's
// rows by a function of an integer key hands the batch here with its own
// slot function: the exchange's hash routes (the agreed hash of §3.3-3.4
// and DB2's opaque internal distribution), the DB table load, the exact
// semijoin's parts, and the grace join's partitions and spill buffers.
//
// Rows are grouped by slot with a stable counting sort, so a slot's rows
// keep their order in the batch, and copied into the slot's pending batch a
// column at a time. A pending batch that reaches flush_rows is handed to the
// emit callback the scatter was built with, at exactly flush_rows rows, and
// then reused; rows left over stay pending for the next Append or a Flush.
// The scratch is per instance, so a warmed scatter allocates nothing per
// row.

#ifndef HYBRIDJOIN_TYPES_BATCH_SCATTER_H_
#define HYBRIDJOIN_TYPES_BATCH_SCATTER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "types/record_batch.h"

namespace hybridjoin {

/// Calls fn(row, key) for every row of the integer column `key` in row
/// order, the key widened to int64.
template <typename Fn>
void ForEachIntKey(const ColumnVector& key, Fn&& fn) {
  if (key.physical_type() == PhysicalType::kInt32) {
    const std::vector<int32_t>& keys = key.i32();
    for (size_t r = 0; r < keys.size(); ++r) fn(r, int64_t{keys[r]});
  } else {
    const std::vector<int64_t>& keys = key.i64();
    for (size_t r = 0; r < keys.size(); ++r) fn(r, keys[r]);
  }
}

class BatchScatter {
 public:
  /// Takes a full pending batch of `slot`; it may move the batch out.
  using Emit = std::function<Status(size_t slot, RecordBatch& batch)>;
  /// flush_rows for pending batches that grow without bound (and are read
  /// through pending()); such a scatter needs no emit.
  static constexpr size_t kNoFlush = std::numeric_limits<size_t>::max();

  /// `slots` empty pending batches of `schema`.
  BatchScatter(SchemaPtr schema, size_t slots, size_t flush_rows, Emit emit)
      : schema_(std::move(schema)),
        flush_rows_(std::max<size_t>(flush_rows, 1)),
        emit_(std::move(emit)),
        pending_(slots, RecordBatch(schema_)) {}

  /// Slot `slot`'s rows not yet emitted.
  RecordBatch& pending(size_t slot) { return pending_[slot]; }
  /// Rows the last Append sent to `slot`.
  size_t routed(size_t slot) const { return start_[slot + 1] - start_[slot]; }

  /// Appends every row of `batch` to the pending batch of slot
  /// slot_of(key), `key` being the row's value in the integer column
  /// `key_column`; slot_of runs once per row, in row order, and returns a
  /// slot below the slot count. Whenever a pending batch reaches
  /// flush_rows it is emitted, and the slot starts over empty. Returns the
  /// emit's first error.
  template <typename SlotOf>
  Status Append(const RecordBatch& batch, size_t key_column,
                SlotOf&& slot_of) {
    const auto rows = static_cast<uint32_t>(batch.num_rows());
    slot_.resize(rows);
    start_.assign(pending_.size() + 1, 0);
    ForEachIntKey(batch.column(key_column), [&](size_t r, int64_t key) {
      const uint32_t slot = slot_of(key);
      HJ_DCHECK(slot < pending_.size());
      slot_[r] = slot;
      ++start_[slot + 1];
    });
    std::partial_sum(start_.begin(), start_.end(), start_.begin());
    cursor_.assign(start_.begin(), start_.end() - 1);
    order_.resize(rows);
    for (uint32_t r = 0; r < rows; ++r) order_[cursor_[slot_[r]]++] = r;
    for (size_t slot = 0; slot < pending_.size(); ++slot) {
      const uint32_t* run = order_.data() + start_[slot];
      for (size_t left = routed(slot); left > 0;) {
        RecordBatch& out = pending_[slot];
        const size_t take = std::min(left, flush_rows_ - out.num_rows());
        out.GatherAppendFrom(batch, run, take);
        run += take;
        left -= take;
        if (out.num_rows() == flush_rows_) HJ_RETURN_IF_ERROR(Flush(slot));
      }
    }
    return Status::OK();
  }

  /// Emits slot `slot`'s pending rows, if it has any.
  Status Flush(size_t slot) {
    RecordBatch& out = pending_[slot];
    if (out.num_rows() == 0) return Status::OK();
    Status st = emit_(slot, out);
    // A batch the emit moved out has lost its schema.
    if (out.schema() == nullptr) out = RecordBatch(schema_);
    out.Clear();
    return st;
  }

  /// Flush of every slot in slot order; stops at the first error.
  Status FlushAll() {
    for (size_t slot = 0; slot < pending_.size(); ++slot) {
      HJ_RETURN_IF_ERROR(Flush(slot));
    }
    return Status::OK();
  }

 private:
  SchemaPtr schema_;
  size_t flush_rows_;
  Emit emit_;
  std::vector<RecordBatch> pending_;
  // Append's scratch: each row's slot, where each slot's rows start in
  // order_ (one past the last slot: the row count), a fill cursor per
  // slot, and the rows grouped by slot in row order.
  std::vector<uint32_t> slot_;
  std::vector<uint32_t> start_;
  std::vector<uint32_t> cursor_;
  std::vector<uint32_t> order_;
};

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_TYPES_BATCH_SCATTER_H_
