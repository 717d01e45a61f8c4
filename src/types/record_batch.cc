#include "types/record_batch.h"

#include <string_view>

namespace hybridjoin {

namespace {

/// Reads `rows` length-prefixed strings into `out` in two passes: the first
/// validates them and sums their bytes, so the second copies each into a
/// buffer sized once.
Status ReadStrings(BinaryReader* in, uint64_t rows, StringColumn* out) {
  BinaryReader scan = *in;
  size_t total = 0;
  for (uint64_t r = 0; r < rows; ++r) {
    uint64_t len;
    std::string_view s;
    if (!scan.ReadVarint(&len)) {
      return Status::OutOfRange("truncated or overlong varint");
    }
    if (!scan.ReadSpan(len, &s)) {
      return Status::OutOfRange("binary read past end of buffer");
    }
    total += s.size();
  }
  char* dst = out->BeginWrite(total, 0);
  for (uint64_t r = 0; r < rows; ++r) {
    uint64_t len = 0;
    std::string_view s;
    in->ReadVarint(&len);
    in->ReadSpan(len, &s);
    dst = out->WriteRow(dst, s);
  }
  return Status::OK();
}

}  // namespace

void RecordBatch::SerializeTo(BinaryWriter* out) const {
  out->PutVarint(num_rows());
  out->PutVarint(num_columns());
  for (const auto& col : columns_) {
    out->PutU8(static_cast<uint8_t>(col.type()));
    switch (col.physical_type()) {
      case PhysicalType::kInt32:
        out->PutRaw(col.i32().data(), col.i32().size() * sizeof(int32_t));
        break;
      case PhysicalType::kInt64:
        out->PutRaw(col.i64().data(), col.i64().size() * sizeof(int64_t));
        break;
      case PhysicalType::kFloat64:
        out->PutRaw(col.f64().data(), col.f64().size() * sizeof(double));
        break;
      case PhysicalType::kString:
        for (std::string_view s : col.str()) out->PutString(s);
        break;
    }
  }
}

Result<RecordBatch> RecordBatch::Deserialize(BinaryReader* in,
                                             const SchemaPtr& schema) {
  HJ_ASSIGN_OR_RETURN(uint64_t num_rows, in->GetVarint());
  HJ_ASSIGN_OR_RETURN(uint64_t num_cols, in->GetVarint());
  if (num_cols != schema->num_fields()) {
    return Status::Internal("batch wire column count " +
                            std::to_string(num_cols) +
                            " != schema fields " +
                            std::to_string(schema->num_fields()));
  }
  // Every row takes at least one byte per column, so a larger count is
  // corrupt; checking it here keeps Reserve from trusting it.
  if (num_cols > 0 && num_rows > in->remaining()) {
    return Status::OutOfRange("batch wire row count " +
                              std::to_string(num_rows) +
                              " exceeds the remaining bytes");
  }
  std::vector<ColumnVector> cols;
  cols.reserve(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    HJ_ASSIGN_OR_RETURN(uint8_t type_byte, in->GetU8());
    const auto type = static_cast<DataType>(type_byte);
    if (PhysicalTypeOf(type) != PhysicalTypeOf(schema->field(c).type)) {
      return Status::Internal("batch wire type mismatch on column " +
                              std::to_string(c));
    }
    ColumnVector col(schema->field(c).type);
    col.Reserve(num_rows);
    switch (col.physical_type()) {
      case PhysicalType::kInt32: {
        auto& v = col.mutable_i32();
        v.resize(num_rows);
        HJ_RETURN_IF_ERROR(in->GetRaw(v.data(), num_rows * sizeof(int32_t)));
        break;
      }
      case PhysicalType::kInt64: {
        auto& v = col.mutable_i64();
        v.resize(num_rows);
        HJ_RETURN_IF_ERROR(in->GetRaw(v.data(), num_rows * sizeof(int64_t)));
        break;
      }
      case PhysicalType::kFloat64: {
        auto& v = col.mutable_f64();
        v.resize(num_rows);
        HJ_RETURN_IF_ERROR(in->GetRaw(v.data(), num_rows * sizeof(double)));
        break;
      }
      case PhysicalType::kString:
        HJ_RETURN_IF_ERROR(ReadStrings(in, num_rows, &col.mutable_str()));
        break;
    }
    cols.push_back(std::move(col));
  }
  return RecordBatch(schema, std::move(cols));
}

RecordBatch ConcatBatches(const SchemaPtr& schema,
                          const std::vector<RecordBatch>& batches) {
  RecordBatch out(schema);
  size_t total = 0;
  for (const auto& b : batches) total += b.num_rows();
  out.Reserve(total);
  for (const auto& b : batches) out.AppendRange(b, 0, b.num_rows());
  return out;
}

}  // namespace hybridjoin
