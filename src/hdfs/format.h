// On-HDFS table formats.
//
// The paper stores the log table twice: as delimited text (1 TB) and as
// Parquet+Snappy (421 GB) and shows the format dominates join performance
// (§5.4). We implement both:
//   - kText:     pipe-delimited rows; scanning must parse every byte and
//                projection cannot reduce I/O.
//   - kColumnar: per-block column chunks with dictionary/RLE encodings, an
//                LZ byte codec, min/max stats for chunk skipping, and
//                projection pushdown (only requested chunks are read).

#ifndef HYBRIDJOIN_HDFS_FORMAT_H_
#define HYBRIDJOIN_HDFS_FORMAT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/compress.h"
#include "common/result.h"
#include "types/record_batch.h"

namespace hybridjoin {

enum class HdfsFormat : uint8_t { kText = 0, kColumnar = 1 };

const char* HdfsFormatName(HdfsFormat format);

// ---------------------------------------------------------------------------
// Text format
// ---------------------------------------------------------------------------

/// Renders a batch as '|'-delimited text, one row per line. Dates are
/// rendered ISO (yyyy-mm-dd) and times as hh:mm:ss, like real log files.
std::vector<uint8_t> EncodeText(const RecordBatch& batch);

/// Parses text back into a batch of `schema`. The whole line is always
/// parsed (no projection pushdown — that is the point of the text format);
/// `projection` (indexes into schema) selects which parsed columns are kept.
Result<RecordBatch> DecodeText(const uint8_t* data, size_t size,
                               const SchemaPtr& schema,
                               const std::vector<size_t>& projection);

// ---------------------------------------------------------------------------
// Columnar format
// ---------------------------------------------------------------------------

enum class ColEncoding : uint8_t { kPlain = 0, kRle = 1, kDict = 2 };

const char* ColEncodingName(ColEncoding enc);

/// One column of one block: encoded, optionally compressed, with stats.
struct ColumnChunk {
  DataType type = DataType::kInt32;
  ColEncoding encoding = ColEncoding::kPlain;
  Codec codec = Codec::kNone;
  uint32_t num_rows = 0;
  std::vector<uint8_t> data;
  /// min/max over the chunk for integer-physical columns; drives skipping.
  bool has_stats = false;
  int64_t min_val = 0;
  int64_t max_val = 0;

  /// What reading this chunk costs in I/O bytes (data + footer entry).
  size_t ByteSize() const { return data.size() + 32; }
};

/// One block (row group) of a columnar file.
struct ColumnarBlock {
  uint32_t num_rows = 0;
  std::vector<ColumnChunk> chunks;  // one per schema column, schema order

  size_t ByteSize() const {
    size_t total = 16;
    for (const auto& c : chunks) total += c.ByteSize();
    return total;
  }
};

/// Options controlling the columnar writer.
struct ColumnarWriteOptions {
  Codec codec = Codec::kLz;
  bool enable_dictionary = true;
  bool enable_rle = true;
  bool write_stats = true;
};

/// Encodes one column, choosing the cheapest of the enabled encodings.
ColumnChunk EncodeColumnChunk(const ColumnVector& column,
                              const ColumnarWriteOptions& options);

/// Decodes a chunk back into a column vector of `type`. With `sel` (strictly
/// ascending row indexes), returns only those rows, equal to
/// `DecodeColumnChunk(chunk, type).Gather(*sel)`: the whole chunk is still
/// decompressed and validated, but unselected strings are skipped by their
/// length or dictionary code instead of being built. A kNone chunk is read
/// in place, without a copy. Every malformed chunk is an IOError; a type
/// mismatch is Internal and a bad `sel` InvalidArgument.
Result<ColumnVector> DecodeColumnChunk(
    const ColumnChunk& chunk, DataType type,
    const std::vector<uint32_t>* sel = nullptr);

/// Encodes a batch into a columnar block.
ColumnarBlock EncodeColumnarBlock(const RecordBatch& batch,
                                  const ColumnarWriteOptions& options);

/// Decodes only the chunks in `projection`, producing a batch whose schema
/// is the projected schema.
Result<RecordBatch> DecodeColumnarBlock(const ColumnarBlock& block,
                                        const SchemaPtr& schema,
                                        const std::vector<size_t>& projection);

// ---------------------------------------------------------------------------
// Stored block: what a DataNode holds for either format.
// ---------------------------------------------------------------------------

/// Immutable payload of one HDFS block.
struct StoredBlock {
  HdfsFormat format = HdfsFormat::kText;
  // Exactly one of the two is populated, matching `format`.
  std::shared_ptr<const std::vector<uint8_t>> text;
  std::shared_ptr<const ColumnarBlock> columnar;
  uint32_t num_rows = 0;

  size_t ByteSize() const {
    if (format == HdfsFormat::kText) return text ? text->size() : 0;
    return columnar ? columnar->ByteSize() : 0;
  }
};

// ---------------------------------------------------------------------------
// Filtering scan
// ---------------------------------------------------------------------------

/// Narrows `sel` (on entry, every row of `batch`) to the rows a scan keeps.
/// Must keep `sel` ascending.
using RowFilter =
    std::function<Status(const RecordBatch& batch, std::vector<uint32_t>* sel)>;

/// Decodes one stored block for a filtering scan, late-materialized: the
/// `filter_columns` are decoded for every row and passed to `filter`, then
/// the `late_columns` are built only for the rows left in `sel`. Returns
/// those rows with schema `schema->Project(filter_columns ++ late_columns)`.
/// A columnar block decompresses and validates every listed chunk even when
/// no row survives; a text block is parsed once, so its late step is a
/// gather. `sel` is caller-owned scratch and holds the survivors on return.
Result<RecordBatch> DecodeBlockFiltered(const StoredBlock& block,
                                        const SchemaPtr& schema,
                                        const std::vector<size_t>& filter_columns,
                                        const std::vector<size_t>& late_columns,
                                        const RowFilter& filter,
                                        std::vector<uint32_t>* sel);

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_HDFS_FORMAT_H_
