// RecordBatch: a horizontal slice of a table in columnar layout — the unit
// that flows between operators, through the simulated network, and in and
// out of the HDFS formats.

#ifndef HYBRIDJOIN_TYPES_RECORD_BATCH_H_
#define HYBRIDJOIN_TYPES_RECORD_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/binary_io.h"
#include "common/result.h"
#include "types/column_vector.h"
#include "types/schema.h"

namespace hybridjoin {

/// Columns + schema. Invariant: every column has the same length.
class RecordBatch {
 public:
  RecordBatch() : schema_(Schema::Make({})) {}

  /// An empty batch with the given schema.
  explicit RecordBatch(SchemaPtr schema) : schema_(std::move(schema)) {
    columns_.reserve(schema_->num_fields());
    for (const Field& f : schema_->fields()) {
      columns_.emplace_back(f.type);
    }
  }

  RecordBatch(SchemaPtr schema, std::vector<ColumnVector> columns)
      : schema_(std::move(schema)), columns_(std::move(columns)) {
    HJ_CHECK_EQ(schema_->num_fields(), columns_.size());
    CheckRectangular();
  }

  const SchemaPtr& schema() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }
  bool empty() const { return num_rows() == 0; }

  const ColumnVector& column(size_t i) const { return columns_[i]; }
  ColumnVector& mutable_column(size_t i) { return columns_[i]; }

  void Reserve(size_t n) {
    for (auto& c : columns_) c.Reserve(n);
  }

  /// Appends rows [offset, offset + n) of `src` (same layout, another
  /// batch), a column at a time.
  void AppendRange(const RecordBatch& src, size_t offset, size_t n) {
    HJ_DCHECK(src.num_columns() == columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c].AppendRange(src.column(c), offset, n);
    }
  }

  /// Appends rows[0..n) of `src` (same layout), a column at a time.
  void GatherAppendFrom(const RecordBatch& src, const uint32_t* rows,
                        size_t n) {
    HJ_DCHECK(src.num_columns() == columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c].GatherAppendFrom(src.column(c), rows, n);
    }
  }

  /// Empties every column and keeps its allocations.
  void Clear() {
    for (auto& c : columns_) c.Clear();
  }

  /// Appends a full row of scalar values (slow path, for tests).
  void AppendRow(const std::vector<Value>& values) {
    HJ_CHECK_EQ(values.size(), columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c].AppendValue(values[c]);
    }
  }

  /// New batch keeping only the rows in `sel`.
  RecordBatch Gather(const std::vector<uint32_t>& sel) const {
    std::vector<ColumnVector> cols;
    cols.reserve(columns_.size());
    for (const auto& c : columns_) cols.push_back(c.Gather(sel));
    return RecordBatch(schema_, std::move(cols));
  }

  /// New batch with only the columns at `indices`, in that order.
  RecordBatch Project(const std::vector<size_t>& indices) const& {
    std::vector<ColumnVector> cols;
    cols.reserve(indices.size());
    for (size_t i : indices) cols.push_back(columns_[i]);
    return RecordBatch(schema_->Project(indices), std::move(cols));
  }
  /// The same, moving the columns out of this batch instead of copying
  /// them; a column listed twice is copied for all but its last use.
  RecordBatch Project(const std::vector<size_t>& indices) && {
    std::vector<ColumnVector> cols;
    cols.reserve(indices.size());
    for (auto it = indices.begin(); it != indices.end(); ++it) {
      if (std::find(it + 1, indices.end(), *it) != indices.end()) {
        cols.push_back(columns_[*it]);
      } else {
        cols.push_back(std::move(columns_[*it]));
      }
    }
    return RecordBatch(schema_->Project(indices), std::move(cols));
  }

  /// What ByteSize counts for a batch beyond its columns.
  static constexpr size_t kHeaderBytes = 8;

  /// Approximate wire footprint.
  size_t ByteSize() const {
    size_t total = kHeaderBytes;
    for (const auto& c : columns_) total += c.ByteSize();
    return total;
  }

  /// Wire encoding: self-describing enough for a receiver that knows the
  /// schema out of band but validates column count/types.
  void SerializeTo(BinaryWriter* out) const;
  std::vector<uint8_t> Serialize() const {
    BinaryWriter w(ByteSize() + 16);
    SerializeTo(&w);
    return w.Release();
  }

  /// Decodes a batch previously produced by SerializeTo. The schema pointer
  /// is attached to the result (its types must match the wire types).
  static Result<RecordBatch> Deserialize(BinaryReader* in,
                                         const SchemaPtr& schema);
  static Result<RecordBatch> Deserialize(const std::vector<uint8_t>& buf,
                                         const SchemaPtr& schema) {
    BinaryReader r(buf);
    return Deserialize(&r, schema);
  }

 private:
  void CheckRectangular() const {
    for (const auto& c : columns_) {
      HJ_CHECK_EQ(c.size(), num_rows());
    }
  }

  SchemaPtr schema_;
  std::vector<ColumnVector> columns_;
};

/// Concatenates same-schema batches into one (used by tests and the final
/// aggregation step).
RecordBatch ConcatBatches(const SchemaPtr& schema,
                          const std::vector<RecordBatch>& batches);

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_TYPES_RECORD_BATCH_H_
