#include "hdfs/format.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <functional>
#include <numeric>
#include <unordered_map>

#include "common/binary_io.h"
#include "expr/scalar_functions.h"

namespace hybridjoin {

const char* HdfsFormatName(HdfsFormat format) {
  switch (format) {
    case HdfsFormat::kText:
      return "text";
    case HdfsFormat::kColumnar:
      return "columnar";
  }
  return "unknown";
}

const char* ColEncodingName(ColEncoding enc) {
  switch (enc) {
    case ColEncoding::kPlain:
      return "plain";
    case ColEncoding::kRle:
      return "rle";
    case ColEncoding::kDict:
      return "dict";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Text format
// ---------------------------------------------------------------------------

namespace {

void AppendInt(std::string* out, int64_t v) {
  char buf[24];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  out->append(buf, ptr - buf);
}

void AppendDate(std::string* out, int32_t days) {
  int y, m, d;
  CivilFromDays(days, &y, &m, &d);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  out->append(buf);
}

void AppendTime(std::string* out, int32_t seconds) {
  char buf[12];
  std::snprintf(buf, sizeof(buf), "%02d:%02d:%02d", seconds / 3600,
                (seconds / 60) % 60, seconds % 60);
  out->append(buf);
}

inline Result<int64_t> ParseInt(const char* begin, const char* end) {
  int64_t v = 0;
  auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc() || ptr != end) {
    return Status::IOError("text: bad integer field '" +
                           std::string(begin, end) + "'");
  }
  return v;
}

inline Result<double> ParseDouble(const char* begin, const char* end) {
  double v = 0;
  auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc() || ptr != end) {
    return Status::IOError("text: bad float field");
  }
  return v;
}

Result<int32_t> ParseDate(const char* begin, const char* end) {
  // yyyy-mm-dd
  if (end - begin != 10 || begin[4] != '-' || begin[7] != '-') {
    return Status::IOError("text: bad date field '" +
                           std::string(begin, end) + "'");
  }
  auto digits = [](const char* p, int n) {
    int v = 0;
    for (int i = 0; i < n; ++i) v = v * 10 + (p[i] - '0');
    return v;
  };
  for (const char* p = begin; p != end; ++p) {
    if (*p != '-' && (*p < '0' || *p > '9')) {
      return Status::IOError("text: bad date digit");
    }
  }
  return DaysFromCivil(digits(begin, 4), digits(begin + 5, 2),
                       digits(begin + 8, 2));
}

Result<int32_t> ParseTime(const char* begin, const char* end) {
  // hh:mm:ss
  if (end - begin != 8 || begin[2] != ':' || begin[5] != ':') {
    return Status::IOError("text: bad time field");
  }
  auto two = [](const char* p) { return (p[0] - '0') * 10 + (p[1] - '0'); };
  return two(begin) * 3600 + two(begin + 3) * 60 + two(begin + 6);
}

}  // namespace

std::vector<uint8_t> EncodeText(const RecordBatch& batch) {
  std::string out;
  // Rough reserve: 12 bytes per numeric field, strings by size.
  out.reserve(batch.ByteSize() * 2 + batch.num_rows() * 2);
  const size_t cols = batch.num_columns();
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) out.push_back('|');
      const ColumnVector& col = batch.column(c);
      switch (col.type()) {
        case DataType::kInt32:
          AppendInt(&out, col.i32()[r]);
          break;
        case DataType::kInt64:
          AppendInt(&out, col.i64()[r]);
          break;
        case DataType::kFloat64: {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.17g", col.f64()[r]);
          out.append(buf);
          break;
        }
        case DataType::kString:
          out.append(col.str()[r]);
          break;
        case DataType::kDate:
          AppendDate(&out, col.i32()[r]);
          break;
        case DataType::kTime:
          AppendTime(&out, col.i32()[r]);
          break;
      }
    }
    out.push_back('\n');
  }
  return std::vector<uint8_t>(out.begin(), out.end());
}

Result<RecordBatch> DecodeText(const uint8_t* data, size_t size,
                               const SchemaPtr& schema,
                               const std::vector<size_t>& projection) {
  // keep[i] = output position of schema column i, or -1 if dropped.
  std::vector<int> keep(schema->num_fields(), -1);
  for (size_t o = 0; o < projection.size(); ++o) {
    if (projection[o] >= schema->num_fields()) {
      return Status::InvalidArgument("projection index out of range");
    }
    keep[projection[o]] = static_cast<int>(o);
  }
  RecordBatch out(schema->Project(projection));

  const char* p = reinterpret_cast<const char*>(data);
  const char* end = p + size;
  const size_t num_fields = schema->num_fields();
  while (p < end) {
    const char* line_end =
        static_cast<const char*>(memchr(p, '\n', end - p));
    if (line_end == nullptr) line_end = end;
    // Tokenize the full line (every byte is touched, as with real text
    // scans), converting only the projected fields.
    const char* field = p;
    for (size_t c = 0; c < num_fields; ++c) {
      const char* field_end;
      if (c + 1 == num_fields) {
        field_end = line_end;
      } else {
        field_end = static_cast<const char*>(
            memchr(field, '|', line_end - field));
        if (field_end == nullptr) {
          return Status::IOError("text: row with too few fields");
        }
      }
      const int out_pos = keep[c];
      if (out_pos >= 0) {
        ColumnVector& dst = out.mutable_column(out_pos);
        switch (schema->field(c).type) {
          case DataType::kInt32: {
            HJ_ASSIGN_OR_RETURN(int64_t v, ParseInt(field, field_end));
            dst.mutable_i32().push_back(static_cast<int32_t>(v));
            break;
          }
          case DataType::kInt64: {
            HJ_ASSIGN_OR_RETURN(int64_t v, ParseInt(field, field_end));
            dst.mutable_i64().push_back(v);
            break;
          }
          case DataType::kFloat64: {
            HJ_ASSIGN_OR_RETURN(double v, ParseDouble(field, field_end));
            dst.mutable_f64().push_back(v);
            break;
          }
          case DataType::kString:
            dst.mutable_str().emplace_back(field, field_end);
            break;
          case DataType::kDate: {
            HJ_ASSIGN_OR_RETURN(int32_t v, ParseDate(field, field_end));
            dst.mutable_i32().push_back(v);
            break;
          }
          case DataType::kTime: {
            HJ_ASSIGN_OR_RETURN(int32_t v, ParseTime(field, field_end));
            dst.mutable_i32().push_back(v);
            break;
          }
        }
      }
      field = field_end + 1;
    }
    p = line_end + 1;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Columnar format
// ---------------------------------------------------------------------------

namespace {

template <typename T>
std::vector<uint8_t> EncodePlainInts(const std::vector<T>& v) {
  std::vector<uint8_t> out(v.size() * sizeof(T));
  std::memcpy(out.data(), v.data(), out.size());
  return out;
}

template <typename T>
std::vector<uint8_t> EncodeRleInts(const std::vector<T>& v) {
  BinaryWriter w(v.size());
  size_t i = 0;
  while (i < v.size()) {
    size_t j = i + 1;
    while (j < v.size() && v[j] == v[i]) ++j;
    w.PutVarint(j - i);
    w.PutSignedVarint(static_cast<int64_t>(v[i]));
    i = j;
  }
  return w.Release();
}

/// Copies a plain fixed-width chunk's bytes into `out`.
template <typename T>
Status DecodePlain(std::string_view raw, uint32_t num_rows,
                   std::vector<T>* out) {
  if (raw.size() != size_t{num_rows} * sizeof(T)) {
    return Status::IOError("columnar: bad plain chunk size");
  }
  out->resize(num_rows);
  if (num_rows > 0) std::memcpy(out->data(), raw.data(), raw.size());
  return Status::OK();
}

/// Decodes a plain or RLE integer chunk into `out`. RLE runs fill `out`,
/// which is sized to the chunk's rows once.
template <typename T>
Status DecodeInts(ColEncoding encoding, std::string_view raw, uint32_t num_rows,
                  std::vector<T>* out) {
  if (encoding == ColEncoding::kPlain) return DecodePlain(raw, num_rows, out);
  if (encoding != ColEncoding::kRle) {
    return Status::IOError("columnar: bad integer encoding");
  }
  out->resize(num_rows);
  BinaryReader r(raw.data(), raw.size());
  for (size_t filled = 0; filled < num_rows;) {
    uint64_t count;
    int64_t value;
    if (!r.ReadVarint(&count) || !r.ReadSignedVarint(&value)) {
      return Status::IOError("columnar: truncated RLE run");
    }
    if (count == 0 || count > num_rows - filled) {
      return Status::IOError("columnar: bad RLE run");
    }
    std::fill_n(out->data() + filled, count, static_cast<T>(value));
    filled += count;
  }
  if (!r.AtEnd()) return Status::IOError("columnar: RLE trailing bytes");
  return Status::OK();
}

std::vector<uint8_t> EncodePlainStrings(const std::vector<std::string>& v) {
  size_t total = 0;
  for (const auto& s : v) total += s.size() + 2;
  BinaryWriter w(total);
  for (const auto& s : v) w.PutString(s);
  return w.Release();
}

/// Dictionary encoding; returns nullopt when the dictionary would not help
/// (too many distinct values).
std::optional<std::vector<uint8_t>> EncodeDictStrings(
    const std::vector<std::string>& v) {
  std::unordered_map<std::string_view, uint32_t> dict;
  std::vector<std::string_view> entries;
  std::vector<uint32_t> codes;
  codes.reserve(v.size());
  for (const auto& s : v) {
    auto [it, inserted] = dict.try_emplace(s, dict.size());
    if (inserted) {
      entries.push_back(s);
      // Bail out early when the column is nearly unique.
      if (entries.size() > v.size() / 2 + 16) return std::nullopt;
    }
    codes.push_back(it->second);
  }
  BinaryWriter w;
  w.PutVarint(entries.size());
  for (auto e : entries) w.PutString(e);
  for (uint32_t c : codes) w.PutVarint(c);
  return w.Release();
}

}  // namespace

ColumnChunk EncodeColumnChunk(const ColumnVector& column,
                              const ColumnarWriteOptions& options) {
  ColumnChunk chunk;
  chunk.type = column.type();
  chunk.num_rows = static_cast<uint32_t>(column.size());

  std::vector<uint8_t> encoded;
  switch (column.physical_type()) {
    case PhysicalType::kInt32: {
      encoded = EncodePlainInts(column.i32());
      chunk.encoding = ColEncoding::kPlain;
      if (options.enable_rle) {
        auto rle = EncodeRleInts(column.i32());
        if (rle.size() < encoded.size()) {
          encoded = std::move(rle);
          chunk.encoding = ColEncoding::kRle;
        }
      }
      if (options.write_stats && !column.i32().empty()) {
        auto [mn, mx] =
            std::minmax_element(column.i32().begin(), column.i32().end());
        chunk.has_stats = true;
        chunk.min_val = *mn;
        chunk.max_val = *mx;
      }
      break;
    }
    case PhysicalType::kInt64: {
      encoded = EncodePlainInts(column.i64());
      chunk.encoding = ColEncoding::kPlain;
      if (options.enable_rle) {
        auto rle = EncodeRleInts(column.i64());
        if (rle.size() < encoded.size()) {
          encoded = std::move(rle);
          chunk.encoding = ColEncoding::kRle;
        }
      }
      if (options.write_stats && !column.i64().empty()) {
        auto [mn, mx] =
            std::minmax_element(column.i64().begin(), column.i64().end());
        chunk.has_stats = true;
        chunk.min_val = *mn;
        chunk.max_val = *mx;
      }
      break;
    }
    case PhysicalType::kFloat64: {
      encoded = EncodePlainInts(column.f64());
      chunk.encoding = ColEncoding::kPlain;
      break;
    }
    case PhysicalType::kString: {
      encoded = EncodePlainStrings(column.str());
      chunk.encoding = ColEncoding::kPlain;
      if (options.enable_dictionary) {
        auto dict = EncodeDictStrings(column.str());
        if (dict.has_value() && dict->size() < encoded.size()) {
          encoded = std::move(*dict);
          chunk.encoding = ColEncoding::kDict;
        }
      }
      break;
    }
  }

  if (options.codec != Codec::kNone) {
    auto compressed = Compress(options.codec, encoded.data(), encoded.size());
    if (compressed.size() < encoded.size()) {
      chunk.codec = options.codec;
      chunk.data = std::move(compressed);
      return chunk;
    }
  }
  chunk.codec = Codec::kNone;
  chunk.data = std::move(encoded);
  return chunk;
}

Result<ColumnVector> DecodeColumnChunk(const ColumnChunk& chunk,
                                       DataType type,
                                       const std::vector<uint32_t>* sel) {
  if (PhysicalTypeOf(type) != PhysicalTypeOf(chunk.type)) {
    return Status::Internal("columnar: chunk type mismatch");
  }
  if (sel != nullptr && !sel->empty() &&
      (sel->back() >= chunk.num_rows ||
       std::adjacent_find(sel->begin(), sel->end(),
                          std::greater_equal<uint32_t>()) != sel->end())) {
    return Status::InvalidArgument(
        "columnar: selection must be ascending rows of the chunk");
  }
  // An uncompressed chunk is read in place; only a compressed one needs a
  // buffer to decompress into.
  std::string_view raw(reinterpret_cast<const char*>(chunk.data.data()),
                       chunk.data.size());
  std::vector<uint8_t> decompressed;
  if (chunk.codec != Codec::kNone) {
    HJ_ASSIGN_OR_RETURN(
        decompressed,
        Decompress(chunk.codec, chunk.data.data(), chunk.data.size()));
    raw = std::string_view(reinterpret_cast<const char*>(decompressed.data()),
                           decompressed.size());
  }

  ColumnVector out(type);
  switch (PhysicalTypeOf(type)) {
    case PhysicalType::kInt32:
      HJ_RETURN_IF_ERROR(DecodeInts(chunk.encoding, raw, chunk.num_rows,
                                    &out.mutable_i32()));
      break;
    case PhysicalType::kInt64:
      HJ_RETURN_IF_ERROR(DecodeInts(chunk.encoding, raw, chunk.num_rows,
                                    &out.mutable_i64()));
      break;
    case PhysicalType::kFloat64:
      if (chunk.encoding != ColEncoding::kPlain) {
        return Status::IOError("columnar: bad float64 encoding");
      }
      HJ_RETURN_IF_ERROR(DecodePlain(raw, chunk.num_rows, &out.mutable_f64()));
      break;
    case PhysicalType::kString: {
      // Every row's bytes are walked and validated; only the selected rows
      // become strings. `next` is the next selected row still to be built.
      const uint32_t* next = sel != nullptr ? sel->data() : nullptr;
      const uint32_t* const sel_end = next + (sel != nullptr ? sel->size() : 0);
      auto selected = [&](uint32_t row) {
        if (sel == nullptr) return true;
        if (next == sel_end || *next != row) return false;
        ++next;
        return true;
      };
      BinaryReader r(raw.data(), raw.size());
      // A varint length, then that many bytes.
      auto read_string = [&r](std::string_view* s) {
        uint64_t len;
        return r.ReadVarint(&len) && r.ReadSpan(len, s);
      };
      auto& v = out.mutable_str();
      v.reserve(sel != nullptr ? sel->size() : chunk.num_rows);
      if (chunk.encoding == ColEncoding::kDict) {
        uint64_t dict_size;
        if (!r.ReadVarint(&dict_size)) {
          return Status::IOError("columnar: truncated dict size");
        }
        if (dict_size > chunk.num_rows) {
          return Status::IOError("columnar: dict larger than chunk");
        }
        std::vector<std::string_view> dict(dict_size);
        for (auto& e : dict) {
          if (!read_string(&e)) {
            return Status::IOError("columnar: truncated dict entry");
          }
        }
        for (uint32_t i = 0; i < chunk.num_rows; ++i) {
          uint64_t code;
          if (!r.ReadVarint(&code)) {
            return Status::IOError("columnar: truncated dict code");
          }
          if (code >= dict.size()) {
            return Status::IOError("columnar: dict code out of range");
          }
          if (selected(i)) v.emplace_back(dict[code]);
        }
      } else if (chunk.encoding == ColEncoding::kPlain) {
        std::string_view s;
        for (uint32_t i = 0; i < chunk.num_rows; ++i) {
          if (!read_string(&s)) {
            return Status::IOError("columnar: truncated plain string");
          }
          if (selected(i)) v.emplace_back(s);
        }
      } else {
        return Status::IOError("columnar: bad string encoding");
      }
      if (!r.AtEnd()) {
        return Status::IOError("columnar: trailing bytes in string chunk");
      }
      if (out.size() != (sel != nullptr ? sel->size() : chunk.num_rows)) {
        return Status::IOError("columnar: decoded row count mismatch");
      }
      return out;
    }
  }
  if (out.size() != chunk.num_rows) {
    return Status::IOError("columnar: decoded row count mismatch");
  }
  // Fixed-width and RLE chunks decode whole, then gather.
  if (sel != nullptr) return out.Gather(*sel);
  return out;
}

ColumnarBlock EncodeColumnarBlock(const RecordBatch& batch,
                                  const ColumnarWriteOptions& options) {
  ColumnarBlock block;
  block.num_rows = static_cast<uint32_t>(batch.num_rows());
  block.chunks.reserve(batch.num_columns());
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    block.chunks.push_back(EncodeColumnChunk(batch.column(c), options));
  }
  return block;
}

Result<RecordBatch> DecodeColumnarBlock(
    const ColumnarBlock& block, const SchemaPtr& schema,
    const std::vector<size_t>& projection) {
  if (block.chunks.size() != schema->num_fields()) {
    return Status::Internal("columnar: chunk count != schema fields");
  }
  std::vector<ColumnVector> cols;
  cols.reserve(projection.size());
  for (size_t idx : projection) {
    if (idx >= block.chunks.size()) {
      return Status::InvalidArgument("projection index out of range");
    }
    HJ_ASSIGN_OR_RETURN(
        ColumnVector col,
        DecodeColumnChunk(block.chunks[idx], schema->field(idx).type));
    cols.push_back(std::move(col));
  }
  return RecordBatch(schema->Project(projection), std::move(cols));
}

// ---------------------------------------------------------------------------
// Filtering scan
// ---------------------------------------------------------------------------

Result<RecordBatch> DecodeBlockFiltered(const StoredBlock& block,
                                        const SchemaPtr& schema,
                                        const std::vector<size_t>& filter_columns,
                                        const std::vector<size_t>& late_columns,
                                        const RowFilter& filter,
                                        std::vector<uint32_t>* sel) {
  std::vector<size_t> all = filter_columns;
  all.insert(all.end(), late_columns.begin(), late_columns.end());

  if (block.format == HdfsFormat::kText) {
    // Text has no per-column layout: one parse decodes every column, so the
    // late step is only a gather.
    HJ_ASSIGN_OR_RETURN(
        RecordBatch batch,
        DecodeText(block.text->data(), block.text->size(), schema, all));
    sel->resize(batch.num_rows());
    std::iota(sel->begin(), sel->end(), 0u);
    HJ_RETURN_IF_ERROR(filter(batch, sel));
    return batch.Gather(*sel);
  }

  const ColumnarBlock& columnar = *block.columnar;
  if (columnar.chunks.size() != schema->num_fields()) {
    return Status::Internal("columnar: chunk count != schema fields");
  }
  for (size_t idx : all) {
    if (idx >= columnar.chunks.size()) {
      return Status::InvalidArgument("projection index out of range");
    }
    if (columnar.chunks[idx].num_rows != columnar.num_rows) {
      return Status::IOError("columnar: chunk row count != block row count");
    }
  }
  std::vector<ColumnVector> early;
  early.reserve(filter_columns.size());
  for (size_t idx : filter_columns) {
    HJ_ASSIGN_OR_RETURN(
        ColumnVector col,
        DecodeColumnChunk(columnar.chunks[idx], schema->field(idx).type));
    early.push_back(std::move(col));
  }
  RecordBatch early_batch(schema->Project(filter_columns), std::move(early));
  sel->resize(columnar.num_rows);
  std::iota(sel->begin(), sel->end(), 0u);
  HJ_RETURN_IF_ERROR(filter(early_batch, sel));

  // Late columns: every chunk is still decompressed and validated, but only
  // the surviving rows are built.
  std::vector<ColumnVector> cols;
  cols.reserve(all.size());
  for (size_t c = 0; c < early_batch.num_columns(); ++c) {
    cols.push_back(early_batch.column(c).Gather(*sel));
  }
  for (size_t idx : late_columns) {
    HJ_ASSIGN_OR_RETURN(ColumnVector col,
                        DecodeColumnChunk(columnar.chunks[idx],
                                          schema->field(idx).type, sel));
    cols.push_back(std::move(col));
  }
  return RecordBatch(schema->Project(all), std::move(cols));
}

}  // namespace hybridjoin
