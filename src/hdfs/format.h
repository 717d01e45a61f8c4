// On-HDFS table formats.
//
// The paper stores the log table twice: as delimited text (1 TB) and as
// Parquet+Snappy (421 GB) and shows the format dominates join performance
// (§5.4). We implement both:
//   - kText:     pipe-delimited rows; scanning must parse every byte and
//                projection cannot reduce I/O.
//   - kColumnar: per-block column chunks with plain, RLE, dictionary,
//                frame-of-reference bit-packed (kFor) and FSST (kFsst)
//                encodings, an LZ byte codec, min/max stats for chunk
//                skipping, and projection pushdown (only requested chunks
//                are read). kFor and kFsst are random-access by row, so a
//                late-materializing scan reads them at its survivors only,
//                and a scan's integer conjuncts run on the chunks as
//                stored (DecodeBlockFiltered).

#ifndef HYBRIDJOIN_HDFS_FORMAT_H_
#define HYBRIDJOIN_HDFS_FORMAT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/compress.h"
#include "common/result.h"
#include "expr/predicate.h"
#include "types/record_batch.h"

namespace hybridjoin {

enum class HdfsFormat : uint8_t { kText = 0, kColumnar = 1 };

const char* HdfsFormatName(HdfsFormat format);

// ---------------------------------------------------------------------------
// Text format
// ---------------------------------------------------------------------------

/// Renders rows [begin, end) of a batch (all of them by default) as
/// '|'-delimited text, one row per line. Dates are rendered ISO
/// (yyyy-mm-dd) and times as hh:mm:ss, like real log files.
std::vector<uint8_t> EncodeText(const RecordBatch& batch, size_t begin = 0,
                                size_t end = SIZE_MAX);

/// Parses text back into a batch of `schema`. The whole line is always
/// parsed (no projection pushdown — that is the point of the text format);
/// `projection` (indexes into schema) selects which parsed columns are kept.
Result<RecordBatch> DecodeText(const uint8_t* data, size_t size,
                               const SchemaPtr& schema,
                               const std::vector<size_t>& projection);

// ---------------------------------------------------------------------------
// Columnar format
// ---------------------------------------------------------------------------

/// How a chunk's values are laid out before the byte codec.
///   - kPlain: fixed-width values, or varint-length-prefixed strings.
///   - kRle:   (varint run length, zigzag varint value) pairs.
///   - kDict:  a varint-counted string dictionary, then a varint code per row.
///   - kFor:   integer-physical only. The chunk's minimum (4 bytes for the
///             32-bit types, 8 for int64), a bit width w (at most the
///             physical width), then each row's value minus the minimum in
///             w bits, LSB first, padded with zero bits to a byte. Row i is
///             at bit i * w, so any row is read without its neighbours.
///   - kFsst:  strings only (Boncz, Neumann and Leis, VLDB 2020). A symbol
///             table (a count of at most 255, one length of 1-8 per
///             symbol, the symbol bytes), a bit width w, a u32 code-byte
///             count, the code bytes of every row back to back, then each
///             row's end offset into the codes in w bits. A code byte below
///             the count stands for its symbol; 255 escapes the next byte.
/// kFor and kFsst are written with Codec::kNone and read in place.
enum class ColEncoding : uint8_t {
  kPlain = 0,
  kRle = 1,
  kDict = 2,
  kFor = 3,
  kFsst = 4,
};

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
  /// Allows kDict and, when `codec` compresses, kFsst for strings.
  bool enable_dictionary = true;
  /// Allows kRle and kFor for integers.
  bool enable_rle = true;
  bool write_stats = true;
};

/// Encodes one column, choosing the smallest of the enabled encodings: the
/// smaller of plain and RLE or dictionary, compressed with `codec` when
/// that shrinks it; then kFor or kFsst replaces that pick only when it is
/// strictly smaller still.
ColumnChunk EncodeColumnChunk(const ColumnVector& column,
                              const ColumnarWriteOptions& options);

/// An integer-physical column as a kFor chunk, whatever its size.
ColumnChunk EncodeForChunk(const ColumnVector& column);

/// Trains an FSST symbol table for `strings`: at most 255 symbols of 1-8
/// bytes, picked by greedy compression gain over a bounded sample, so the
/// cost does not grow with the chunk.
std::vector<std::string> TrainFsstTable(const StringColumn& strings);

/// A string column as a kFsst chunk with `table` (at most 255 symbols of
/// 1-8 bytes), whatever its size. Compression is greedy longest match;
/// bytes no symbol covers are escaped, and of several symbols of three or
/// more bytes that share their first three only the first is used (a
/// trained table has no such pair).
ColumnChunk EncodeFsstChunk(const ColumnVector& column,
                            const std::vector<std::string>& table);

/// Decodes a chunk back into a column vector of `type`. With `sel` (strictly
/// ascending row indexes), returns only those rows, equal to
/// `DecodeColumnChunk(chunk, type).Gather(*sel)`: the whole chunk is still
/// decompressed and validated, but only the selected rows are built. kFor
/// and kFsst rows are read at the selected positions; unselected plain and
/// dictionary strings are skipped by their length or code; plain and RLE
/// integers decode whole and are gathered. A kNone chunk is read in place,
/// without a copy. Validation covers every row even when none is selected:
/// lengths, run counts, dictionary and FSST codes, FSST offsets (ascending
/// to the code count), bit widths and exact payload sizes. Every malformed
/// chunk is an IOError; a type mismatch is Internal and a bad `sel`
/// InvalidArgument.
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

/// Narrows `sel`, the rows still selected as ascending indexes into
/// `batch`, to the rows a scan keeps. Must keep `sel` ascending.
using RowFilter =
    std::function<Status(const RecordBatch& batch, std::vector<uint32_t>* sel)>;

/// One step of a filtering scan: `columns` (schema indexes, none listed by
/// another stage) are read at the rows still selected, then `filter`, when
/// set, narrows them.
struct ScanStage {
  std::vector<size_t> columns;
  RowFilter filter;
};

/// Decodes one stored block for a filtering scan. A row is kept when it
/// passes every `pushed` conjunct (over integer-physical columns; see
/// SplitPushdown) and then every stage's filter. Returns the kept rows with
/// schema `schema->Project(stage columns, in stage order)`; a column a
/// pushed conjunct reads is returned only when a stage lists it.
///
/// A columnar block runs the pushed conjuncts on each chunk in its
/// encoding: a kFor chunk compares its packed deltas against
/// literal - base, and its header (base and bit width) bounds the chunk's
/// values, which accepts or rejects the whole chunk without a pass over its
/// rows when it settles the conjunct; plain values and RLE runs are
/// compared as stored. Each stage then decodes its columns only at the rows
/// the steps before it kept, and its filter sees those columns and the
/// earlier stages', at those rows. Every chunk a conjunct or a stage reads
/// is still decompressed and validated in full, even when no row survives.
///
/// A text block has no per-column layout: one parse decodes every listed
/// column, the conjuncts and filters narrow the parsed rows (each filter
/// sees the whole parse), and the kept rows are gathered.
///
/// `sel` is caller-owned scratch and holds the kept rows' block indexes on
/// return.
Result<RecordBatch> DecodeBlockFiltered(
    const StoredBlock& block, const SchemaPtr& schema,
    const std::vector<ConjunctiveIntCmp>& pushed,
    const std::vector<ScanStage>& stages, std::vector<uint32_t>* sel);

}  // namespace hybridjoin

#endif  // HYBRIDJOIN_HDFS_FORMAT_H_
