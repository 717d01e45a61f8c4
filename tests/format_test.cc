// Unit tests for the HDFS table formats: text round-trips, columnar
// encodings (plain/RLE/dict and the random-access FOR/FSST), compression,
// stats, projection pushdown, and the selection-aware decode behind the
// late-materializing scan, plus a seeded mutation fuzz of the chunk decoder
// against the legacy and reference ones.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstring>

#include "common/binary_io.h"
#include "common/random.h"
#include "decoder_fuzz.h"
#include "expr/predicate.h"
#include "hdfs/format.h"

namespace hybridjoin {
namespace {

SchemaPtr FullSchema() {
  return Schema::Make({{"i32", DataType::kInt32},
                       {"i64", DataType::kInt64},
                       {"f", DataType::kFloat64},
                       {"s", DataType::kString},
                       {"d", DataType::kDate},
                       {"t", DataType::kTime}});
}

RecordBatch FullBatch(size_t n) {
  RecordBatch b(FullSchema());
  Rng rng(4);
  for (size_t i = 0; i < n; ++i) {
    b.AppendRow({Value(static_cast<int32_t>(i * 3)),
                 Value(static_cast<int64_t>(i) * -1000003),
                 Value(0.5 + static_cast<double>(i)),
                 Value("name_" + std::to_string(rng.Uniform(50))),
                 Value(static_cast<int32_t>(16000 + (i % 100))),
                 Value(static_cast<int32_t>(i % 86400))});
  }
  return b;
}

std::vector<size_t> AllColumns(const SchemaPtr& s) {
  std::vector<size_t> idx(s->num_fields());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  return idx;
}

// ------------------------------- Text -------------------------------------

TEST(TextFormatTest, RoundTripAllTypes) {
  RecordBatch b = FullBatch(100);
  auto bytes = EncodeText(b);
  auto decoded =
      DecodeText(bytes.data(), bytes.size(), b.schema(), AllColumns(b.schema()));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->num_rows(), 100u);
  for (size_t r = 0; r < 100; ++r) {
    EXPECT_EQ(decoded->column(0).i32()[r], b.column(0).i32()[r]);
    EXPECT_EQ(decoded->column(1).i64()[r], b.column(1).i64()[r]);
    EXPECT_DOUBLE_EQ(decoded->column(2).f64()[r], b.column(2).f64()[r]);
    EXPECT_EQ(decoded->column(3).str()[r], b.column(3).str()[r]);
    EXPECT_EQ(decoded->column(4).i32()[r], b.column(4).i32()[r]);
    EXPECT_EQ(decoded->column(5).i32()[r], b.column(5).i32()[r]);
  }
}

TEST(TextFormatTest, ProjectionKeepsRequestedColumnsOnly) {
  RecordBatch b = FullBatch(10);
  auto bytes = EncodeText(b);
  auto decoded = DecodeText(bytes.data(), bytes.size(), b.schema(), {3, 0});
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->num_columns(), 2u);
  EXPECT_EQ(decoded->schema()->field(0).name, "s");
  EXPECT_EQ(decoded->column(1).i32()[4], b.column(0).i32()[4]);
}

TEST(TextFormatTest, DatesRenderedIso) {
  auto schema = Schema::Make({{"d", DataType::kDate}});
  RecordBatch b(schema);
  b.AppendRow({Value(int32_t{0})});  // 1970-01-01
  auto bytes = EncodeText(b);
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "1970-01-01\n");
}

TEST(TextFormatTest, MalformedRowsRejected) {
  auto schema =
      Schema::Make({{"a", DataType::kInt32}, {"b", DataType::kInt32}});
  const std::string too_few = "1\n";
  EXPECT_FALSE(
      DecodeText(reinterpret_cast<const uint8_t*>(too_few.data()),
                 too_few.size(), schema, {0, 1})
          .ok());
  const std::string bad_int = "1|x\n";
  EXPECT_FALSE(
      DecodeText(reinterpret_cast<const uint8_t*>(bad_int.data()),
                 bad_int.size(), schema, {0, 1})
          .ok());
  const std::string bad_date = "1|2\n";
  auto date_schema =
      Schema::Make({{"a", DataType::kInt32}, {"d", DataType::kDate}});
  EXPECT_FALSE(
      DecodeText(reinterpret_cast<const uint8_t*>(bad_date.data()),
                 bad_date.size(), date_schema, {0, 1})
          .ok());
}

TEST(TextFormatTest, EmptyInputDecodesToEmptyBatch) {
  auto schema = Schema::Make({{"a", DataType::kInt32}});
  auto decoded = DecodeText(nullptr, 0, schema, {0});
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_rows(), 0u);
}

// ------------------------------ Columnar ----------------------------------

TEST(ColumnarTest, RoundTripAllTypes) {
  RecordBatch b = FullBatch(500);
  ColumnarWriteOptions options;
  auto block = EncodeColumnarBlock(b, options);
  ASSERT_EQ(block.chunks.size(), b.num_columns());
  auto decoded =
      DecodeColumnarBlock(block, b.schema(), AllColumns(b.schema()));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  for (size_t r = 0; r < 500; ++r) {
    EXPECT_EQ(decoded->column(1).i64()[r], b.column(1).i64()[r]);
    EXPECT_EQ(decoded->column(3).str()[r], b.column(3).str()[r]);
  }
}

TEST(ColumnarTest, RleChosenForRunHeavyColumns) {
  ColumnVector c(DataType::kInt32);
  for (int i = 0; i < 10000; ++i) c.mutable_i32().push_back(i / 1000);
  ColumnarWriteOptions options;
  options.codec = Codec::kNone;  // isolate the encoding choice
  auto chunk = EncodeColumnChunk(c, options);
  EXPECT_EQ(chunk.encoding, ColEncoding::kRle);
  EXPECT_LT(chunk.data.size(), 200u);
  auto decoded = DecodeColumnChunk(chunk, DataType::kInt32);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->i32()[9999], 9);
}

TEST(ColumnarTest, DictionaryChosenForLowCardinalityStrings) {
  ColumnVector c(DataType::kString);
  for (int i = 0; i < 5000; ++i) {
    c.mutable_str().push_back("category_" + std::to_string(i % 8));
  }
  ColumnarWriteOptions options;
  options.codec = Codec::kNone;
  auto chunk = EncodeColumnChunk(c, options);
  EXPECT_EQ(chunk.encoding, ColEncoding::kDict);
  auto decoded = DecodeColumnChunk(chunk, DataType::kString);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->str()[4999], "category_" + std::to_string(4999 % 8));
}

TEST(ColumnarTest, UniqueStringsStayPlain) {
  ColumnVector c(DataType::kString);
  for (int i = 0; i < 1000; ++i) {
    c.mutable_str().push_back("unique_value_" + std::to_string(i));
  }
  ColumnarWriteOptions options;
  options.codec = Codec::kNone;
  auto chunk = EncodeColumnChunk(c, options);
  EXPECT_EQ(chunk.encoding, ColEncoding::kPlain);
}

TEST(ColumnarTest, StatsWritten) {
  ColumnVector c(DataType::kInt32);
  for (int32_t v : {5, -3, 100, 42}) c.mutable_i32().push_back(v);
  auto chunk = EncodeColumnChunk(c, ColumnarWriteOptions{});
  ASSERT_TRUE(chunk.has_stats);
  EXPECT_EQ(chunk.min_val, -3);
  EXPECT_EQ(chunk.max_val, 100);
}

TEST(ColumnarTest, StatsCanBeDisabled) {
  ColumnVector c(DataType::kInt32);
  c.mutable_i32().push_back(1);
  ColumnarWriteOptions options;
  options.write_stats = false;
  EXPECT_FALSE(EncodeColumnChunk(c, options).has_stats);
}

TEST(ColumnarTest, CompressionShrinksCompressibleChunks) {
  ColumnVector c(DataType::kString);
  for (int i = 0; i < 2000; ++i) {
    c.mutable_str().push_back("shop.example.com/section/" +
                              std::to_string(i % 100));
  }
  ColumnarWriteOptions with_lz;
  ColumnarWriteOptions without;
  without.codec = Codec::kNone;
  auto compressed = EncodeColumnChunk(c, with_lz);
  auto plain = EncodeColumnChunk(c, without);
  EXPECT_LT(compressed.data.size(), plain.data.size());
  auto decoded = DecodeColumnChunk(compressed, DataType::kString);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->str()[1234], c.str()[1234]);
}

TEST(ColumnarTest, ProjectionDecodesOnlyRequestedChunks) {
  RecordBatch b = FullBatch(50);
  auto block = EncodeColumnarBlock(b, ColumnarWriteOptions{});
  auto decoded = DecodeColumnarBlock(block, b.schema(), {4, 1});
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->num_columns(), 2u);
  EXPECT_EQ(decoded->schema()->field(0).name, "d");
  EXPECT_EQ(decoded->schema()->field(1).name, "i64");
}

TEST(ColumnarTest, ColumnarSmallerThanTextForRealisticData) {
  // A log-like batch: low-cardinality strings, clustered ints.
  auto schema = Schema::Make({{"k", DataType::kInt32},
                              {"grp", DataType::kString},
                              {"d", DataType::kDate}});
  RecordBatch b(schema);
  Rng rng(9);
  for (int i = 0; i < 20000; ++i) {
    b.AppendRow({Value(static_cast<int32_t>(rng.Uniform(1000))),
                 Value("g" + std::to_string(rng.Uniform(50)) +
                       "/products/item" + std::to_string(rng.Uniform(100))),
                 Value(static_cast<int32_t>(16000 + rng.Uniform(30)))});
  }
  const auto text = EncodeText(b);
  const auto block = EncodeColumnarBlock(b, ColumnarWriteOptions{});
  // The paper observes ~2.4x; our synthetic data compresses at least 2x.
  EXPECT_LT(block.ByteSize() * 2, text.size());
}

TEST(ColumnarTest, CorruptChunkRejected) {
  ColumnVector c(DataType::kInt32);
  for (int i = 0; i < 100; ++i) c.mutable_i32().push_back(i);
  auto chunk = EncodeColumnChunk(c, ColumnarWriteOptions{});
  chunk.data.resize(chunk.data.size() / 2);
  EXPECT_TRUE(DecodeColumnChunk(chunk, DataType::kInt32).status().IsIOError());

  auto chunk2 = EncodeColumnChunk(c, ColumnarWriteOptions{});
  chunk2.num_rows = 9999;  // lies about row count
  EXPECT_TRUE(DecodeColumnChunk(chunk2, DataType::kInt32).status().IsIOError());
}

TEST(ColumnarTest, TypeMismatchRejected) {
  ColumnVector c(DataType::kInt32);
  c.mutable_i32().push_back(1);
  auto chunk = EncodeColumnChunk(c, ColumnarWriteOptions{});
  EXPECT_FALSE(DecodeColumnChunk(chunk, DataType::kString).ok());
  // Date shares int32 physical type and is accepted.
  EXPECT_TRUE(DecodeColumnChunk(chunk, DataType::kDate).ok());
}

// ------------------------- Random-access encodings -------------------------

/// The bit width a kFor chunk stores, after its minimum.
uint32_t ForWidth(const ColumnChunk& chunk) {
  return chunk.data.at(PhysicalTypeOf(chunk.type) == PhysicalType::kInt64 ? 8
                                                                          : 4);
}

/// Decodes `chunk` whole and at a few selections, expecting `want`.
void ExpectRoundTrip(const ColumnChunk& chunk, const ColumnVector& want) {
  auto full = DecodeColumnChunk(chunk, want.type());
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_EQ(full->size(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(full->GetValue(r), want.GetValue(r)) << "row " << r;
  }
  const uint32_t n = static_cast<uint32_t>(want.size());
  std::vector<uint32_t> edges;
  if (n > 0) edges.push_back(0);
  if (n > 1) edges.push_back(n - 1);
  std::vector<uint32_t> thirds;
  for (uint32_t r = 1; r < n; r += 3) thirds.push_back(r);
  for (const auto& sel : {edges, thirds, std::vector<uint32_t>{}}) {
    auto got = DecodeColumnChunk(chunk, want.type(), &sel);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->size(), sel.size());
    for (size_t k = 0; k < sel.size(); ++k) {
      ASSERT_EQ(got->GetValue(k), want.GetValue(sel[k])) << "row " << sel[k];
    }
  }
}

/// `rows` values from `lo` spread over `width` bits: the first row holds
/// `lo` and the last pins the top, so a kFor chunk of them is `width` wide.
ColumnVector SpreadColumn(DataType type, int64_t lo, uint32_t width,
                          size_t rows, Rng* rng) {
  ColumnVector c(type);
  const uint64_t span = width == 64 ? ~uint64_t{0}
                                    : (uint64_t{1} << width) - 1;
  for (size_t i = 0; i < rows; ++i) {
    const uint64_t delta = i == 0          ? 0
                           : i + 1 == rows ? span
                           : span == 0     ? 0
                                           : rng->Next() % span;
    const int64_t v = static_cast<int64_t>(static_cast<uint64_t>(lo) + delta);
    if (c.physical_type() == PhysicalType::kInt64) {
      c.mutable_i64().push_back(v);
    } else {
      c.mutable_i32().push_back(static_cast<int32_t>(v));
    }
  }
  return c;
}

TEST(RandomAccessEncodingTest, ForRoundTripsEveryWidth) {
  Rng rng(25);
  struct Case {
    DataType type;
    int64_t lo;
    uint32_t width;
    size_t rows;
  };
  const std::vector<Case> cases = {
      {DataType::kInt32, 7, 0, 500},  // all equal
      {DataType::kInt32, -5, 0, 1},   // one row
      {DataType::kInt32, -1, 1, 777},
      {DataType::kDate, 16000, 13, 1000},
      {DataType::kTime, 0, 20, 1001},
      {DataType::kInt32, -(1 << 30), 31, 999},
      {DataType::kInt32, INT32_MIN, 32, 1000},  // INT32_MIN..INT32_MAX
      {DataType::kInt64, -3, 0, 64},
      {DataType::kInt64, 1, 1, 9},
      {DataType::kInt64, -77, 13, 300},
      {DataType::kInt64, 1LL << 40, 20, 300},
      {DataType::kInt64, -(1LL << 35), 31, 301},
      {DataType::kInt64, 0, 32, 302},
      {DataType::kInt64, -(1LL << 62), 63, 303},
      {DataType::kInt64, INT64_MIN, 64, 304},  // INT64_MIN..INT64_MAX
      {DataType::kInt64, INT64_MAX, 0, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(DataTypeName(c.type)) + " width " +
                 std::to_string(c.width) + " rows " + std::to_string(c.rows));
    const ColumnVector col = SpreadColumn(c.type, c.lo, c.width, c.rows, &rng);
    const ColumnChunk chunk = EncodeForChunk(col);
    ASSERT_EQ(chunk.encoding, ColEncoding::kFor);
    ASSERT_EQ(chunk.codec, Codec::kNone);
    ASSERT_EQ(ForWidth(chunk), c.width);
    const size_t header = PhysicalTypeOf(c.type) == PhysicalType::kInt64 ? 9 : 5;
    ASSERT_EQ(chunk.data.size(), header + (c.rows * c.width + 7) / 8);
    ExpectRoundTrip(chunk, col);
  }
}

TEST(RandomAccessEncodingTest, ForChosenOnlyWhenSmaller) {
  // Uniform 12-bit values: FOR's 1.5 B/row beats plain, RLE and LZ.
  Rng rng(3);
  ColumnVector uniform(DataType::kInt32);
  for (int i = 0; i < 4000; ++i) {
    uniform.mutable_i32().push_back(static_cast<int32_t>(rng.Uniform(4096)));
  }
  const ColumnChunk chunk = EncodeColumnChunk(uniform, ColumnarWriteOptions{});
  EXPECT_EQ(chunk.encoding, ColEncoding::kFor);
  EXPECT_EQ(chunk.codec, Codec::kNone);
  EXPECT_EQ(chunk.data.size(), 5u + 4000 * 12 / 8);
  ASSERT_TRUE(chunk.has_stats);
  EXPECT_EQ(chunk.max_val, *std::max_element(uniform.i32().begin(),
                                             uniform.i32().end()));
  ExpectRoundTrip(chunk, uniform);

  // Long runs: RLE stays smaller, so it stays. Without RLE, FOR is off too.
  ColumnVector runs(DataType::kInt64);
  for (int i = 0; i < 4000; ++i) runs.mutable_i64().push_back(i / 500);
  EXPECT_EQ(EncodeColumnChunk(runs, ColumnarWriteOptions{}).encoding,
            ColEncoding::kRle);
  ColumnarWriteOptions no_rle;
  no_rle.enable_rle = false;
  EXPECT_NE(EncodeColumnChunk(uniform, no_rle).encoding, ColEncoding::kFor);
}

TEST(RandomAccessEncodingTest, FsstRoundTripsEdgeCases) {
  Rng rng(26);
  ColumnVector mixed(DataType::kString);
  for (int i = 0; i < 600; ++i) {
    switch (i % 5) {
      case 0:
        mixed.mutable_str().push_back("");
        break;
      case 1:  // longer than 255 bytes
        mixed.mutable_str().push_back(
            std::string(300 + rng.Uniform(200), 'a' + i % 26) + "/tail");
        break;
      case 2: {  // every byte value, NUL and 0xff included
        std::string s;
        for (int b = 0; b < 256; b += 1 + static_cast<int>(rng.Uniform(7))) {
          s.push_back(static_cast<char>(b));
        }
        mixed.mutable_str().push_back(s);
        break;
      }
      default:
        mixed.mutable_str().push_back("g" + std::to_string(rng.Uniform(200)) +
                                      "/products/item" +
                                      std::to_string(rng.Uniform(100000)));
    }
  }
  // A trained table (escapes for bytes the sample missed), an empty table
  // (every byte escaped), and a full table of 255 symbols.
  const std::vector<std::string> trained = TrainFsstTable(mixed.str());
  EXPECT_LE(trained.size(), 255u);
  std::vector<std::string> full_table;
  for (int i = 0; i < 255; ++i) {
    std::string sym(1 + i % 8, static_cast<char>('a' + i % 26));
    sym[0] = static_cast<char>(i);
    full_table.push_back(sym);
  }
  const std::vector<std::string>& full = full_table;
  for (const std::vector<std::string>* table : {&trained, &full}) {
    SCOPED_TRACE(table->size());
    const ColumnChunk chunk = EncodeFsstChunk(mixed, *table);
    ASSERT_EQ(chunk.encoding, ColEncoding::kFsst);
    ASSERT_EQ(chunk.data.at(0), table->size());
    ExpectRoundTrip(chunk, mixed);
  }
  const ColumnChunk escaped = EncodeFsstChunk(mixed, {});
  ASSERT_EQ(escaped.data.at(0), 0u);
  size_t bytes = 0;
  for (std::string_view s : mixed.str()) bytes += s.size();
  // Two code bytes per input byte: every one is an escape.
  EXPECT_EQ(escaped.data.size(), 1 + 1 + 4 + 2 * bytes +
                                     (600 * std::bit_width(2 * bytes) + 7) / 8);
  ExpectRoundTrip(escaped, mixed);

  // No rows, and rows that are all empty.
  ColumnVector empty(DataType::kString);
  ExpectRoundTrip(EncodeFsstChunk(empty, trained), empty);
  ColumnVector blanks(DataType::kString);
  for (int i = 0; i < 40; ++i) blanks.mutable_str().push_back("");
  ExpectRoundTrip(EncodeFsstChunk(blanks, trained), blanks);
}

TEST(RandomAccessEncodingTest, FsstChosenOnlyWhenSmallerAndCompressing) {
  Rng rng(27);
  ColumnVector group(DataType::kString);
  for (int i = 0; i < 16384; ++i) {
    group.mutable_str().push_back("g" + std::to_string(rng.Uniform(200)) +
                                  "/products/item" +
                                  std::to_string(rng.Uniform(100000)));
  }
  ColumnarWriteOptions lz;
  const ColumnChunk chunk = EncodeColumnChunk(group, lz);
  EXPECT_EQ(chunk.encoding, ColEncoding::kFsst);
  EXPECT_EQ(chunk.codec, Codec::kNone);
  ColumnarWriteOptions no_dict;
  no_dict.enable_dictionary = false;
  EXPECT_LT(chunk.data.size(), EncodeColumnChunk(group, no_dict).data.size());
  ExpectRoundTrip(chunk, group);
  // Not without a codec or without dictionaries, and never for a column
  // whose dictionary is smaller.
  ColumnarWriteOptions raw;
  raw.codec = Codec::kNone;
  EXPECT_NE(EncodeColumnChunk(group, raw).encoding, ColEncoding::kFsst);
  EXPECT_NE(EncodeColumnChunk(group, no_dict).encoding, ColEncoding::kFsst);
  ColumnVector few(DataType::kString);
  for (int i = 0; i < 5000; ++i) {
    few.mutable_str().push_back("category_" + std::to_string(i % 8));
  }
  EXPECT_EQ(EncodeColumnChunk(few, lz).encoding, ColEncoding::kDict);
}

TEST(RandomAccessEncodingTest, MalformedChunksAreIOErrors) {
  const std::vector<uint32_t> none;
  auto rejected = [&](const ColumnChunk& chunk) {
    for (const std::vector<uint32_t>* sel : {static_cast<const std::vector<uint32_t>*>(nullptr), &none}) {
      const Status st = DecodeColumnChunk(chunk, chunk.type, sel).status();
      EXPECT_TRUE(st.IsIOError()) << st;
    }
  };
  ColumnVector ints(DataType::kInt32);
  for (int i = 0; i < 101; ++i) ints.mutable_i32().push_back(i * 7);
  const ColumnChunk valid_for = EncodeForChunk(ints);
  ColumnChunk wide = valid_for;
  wide.data[4] = 33;  // wider than int32
  rejected(wide);
  ColumnChunk longer = valid_for;
  longer.data.push_back(0);
  rejected(longer);
  ColumnChunk shorter = valid_for;
  shorter.data.pop_back();
  rejected(shorter);
  ColumnChunk padding = valid_for;
  padding.data.back() |= 0x80;  // 101 rows of 10 bits leave 6 spare bits
  rejected(padding);
  ColumnChunk header = valid_for;
  header.data.resize(3);
  rejected(header);

  ColumnVector strs(DataType::kString);
  for (int i = 0; i < 50; ++i) strs.mutable_str().push_back("ab" + std::to_string(i));
  const ColumnChunk valid_fsst = EncodeFsstChunk(strs, {"ab", "1", "2"});
  ASSERT_TRUE(DecodeColumnChunk(valid_fsst, DataType::kString).ok());
  ColumnChunk bad_len = valid_fsst;
  bad_len.data[1] = 9;  // symbol longer than 8 bytes
  rejected(bad_len);
  ColumnChunk zero_len = valid_fsst;
  zero_len.data[2] = 0;
  rejected(zero_len);
  // Header: count, 3 lengths, 4 symbol bytes, width, u32 code count.
  const size_t codes_at = 1 + 3 + 4 + 1 + 4;
  ColumnChunk bad_code = valid_fsst;
  bad_code.data[codes_at] = 3;  // past the three symbols
  rejected(bad_code);
  ColumnChunk wide_offsets = valid_fsst;
  wide_offsets.data[codes_at - 5] = 33;
  rejected(wide_offsets);
  ColumnChunk trailing = valid_fsst;
  trailing.data.push_back(0);
  rejected(trailing);
  // An escape as a row's last code: row 0 is "ab0", coded ab, escape, '0';
  // moving its end offset back by one strands the escape.
  uint32_t codes_size;
  std::memcpy(&codes_size, valid_fsst.data.data() + codes_at - 4, 4);
  ColumnChunk stranded = valid_fsst;
  ASSERT_EQ(stranded.data[codes_at + 1], 255);
  const uint32_t width = stranded.data[codes_at - 5];
  const size_t ends_at = codes_at + codes_size;
  ASSERT_EQ(stranded.data[ends_at] & ((1u << width) - 1), 3u);
  stranded.data[ends_at] -= 1;
  rejected(stranded);
  // Offsets that descend.
  ColumnChunk descending = valid_fsst;
  descending.data[ends_at] |= static_cast<uint8_t>((1u << width) - 1);
  rejected(descending);
}

// --------------------------- Selective decode -----------------------------

bool SameColumnValues(const ColumnVector& a, const ColumnVector& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (!(a.GetValue(r) == b.GetValue(r))) return false;
  }
  return true;
}

/// Selections over an n-row chunk: none, all, sparse, edges, random.
std::vector<std::vector<uint32_t>> Selections(uint32_t n) {
  std::vector<std::vector<uint32_t>> out(6);
  Rng rng(17);
  for (uint32_t i = 0; i < n; ++i) {
    out[1].push_back(i);
    if (i % 3 == 0) out[2].push_back(i);
    if (rng.Uniform(10) == 0) out[5].push_back(i);
  }
  out[3] = {0};
  out[4] = {n - 1};
  return out;
}

TEST(SelectiveDecodeTest, EqualsDecodeThenGatherForEveryEncoding) {
  constexpr uint32_t kRows = 3000;
  struct Case {
    DataType type;
    ColEncoding encoding;
  };
  const std::vector<Case> cases = {
      {DataType::kInt32, ColEncoding::kPlain},
      {DataType::kInt32, ColEncoding::kRle},
      {DataType::kInt64, ColEncoding::kPlain},
      {DataType::kInt64, ColEncoding::kRle},
      {DataType::kFloat64, ColEncoding::kPlain},
      {DataType::kString, ColEncoding::kPlain},
      {DataType::kString, ColEncoding::kDict},
      {DataType::kDate, ColEncoding::kRle},
      {DataType::kTime, ColEncoding::kPlain},
  };
  for (const Case& c : cases) {
    // Runs of 50 for RLE; a small random domain otherwise. Both repeat
    // enough for LZ to pay off.
    Rng rng(5);
    ColumnVector column(c.type);
    for (uint32_t i = 0; i < kRows; ++i) {
      const int64_t v = c.encoding == ColEncoding::kRle
                            ? static_cast<int64_t>(i / 50 % 4)
                            : static_cast<int64_t>(rng.Uniform(16));
      switch (column.physical_type()) {
        case PhysicalType::kInt32:
          column.mutable_i32().push_back(static_cast<int32_t>(v));
          break;
        case PhysicalType::kInt64:
          column.mutable_i64().push_back(v * 1000003);
          break;
        case PhysicalType::kFloat64:
          column.mutable_f64().push_back(static_cast<double>(v) / 4);
          break;
        case PhysicalType::kString:
          column.mutable_str().push_back(
              c.encoding == ColEncoding::kDict
                  ? "category_" + std::to_string(v)
                  : "item_" + std::to_string(i) + "_" + std::to_string(v));
          break;
      }
    }
    for (Codec codec : {Codec::kNone, Codec::kLz}) {
      SCOPED_TRACE(std::string(DataTypeName(c.type)) + "/" +
                   ColEncodingName(c.encoding) + "/" + CodecName(codec));
      ColumnarWriteOptions options;
      options.codec = codec;
      options.enable_rle = c.encoding == ColEncoding::kRle;
      options.enable_dictionary = c.encoding == ColEncoding::kDict;
      const ColumnChunk chunk = EncodeColumnChunk(column, options);
      ASSERT_EQ(chunk.encoding, c.encoding);
      ASSERT_EQ(chunk.codec, codec);
      auto full = DecodeColumnChunk(chunk, c.type);
      ASSERT_TRUE(full.ok()) << full.status();
      for (const std::vector<uint32_t>& sel : Selections(kRows)) {
        auto selected = DecodeColumnChunk(chunk, c.type, &sel);
        ASSERT_TRUE(selected.ok()) << selected.status();
        const ColumnVector want = full->Gather(sel);
        ASSERT_EQ(selected->size(), want.size());
        for (size_t r = 0; r < want.size(); ++r) {
          ASSERT_EQ(selected->GetValue(r), want.GetValue(r)) << "row " << r;
        }
      }
    }
  }
}

TEST(SelectiveDecodeTest, ForAndFsstEqualDecodeThenGather) {
  constexpr uint32_t kRows = 3000;
  Rng rng(6);
  std::vector<std::pair<ColumnChunk, ColumnVector>> cases;
  for (DataType type : {DataType::kInt32, DataType::kInt64, DataType::kDate}) {
    ColumnVector c(type);
    for (uint32_t i = 0; i < kRows; ++i) {
      const int64_t v = static_cast<int64_t>(rng.Uniform(1 << 19)) - 4000;
      if (PhysicalTypeOf(type) == PhysicalType::kInt64) {
        c.mutable_i64().push_back(v * 1000003);
      } else {
        c.mutable_i32().push_back(static_cast<int32_t>(v));
      }
    }
    cases.emplace_back(EncodeForChunk(c), c);
  }
  ColumnVector strs(DataType::kString);
  for (uint32_t i = 0; i < kRows; ++i) {
    strs.mutable_str().push_back(
        i % 97 == 0 ? std::string(i % 300, '~')
                    : "g" + std::to_string(rng.Uniform(200)) +
                          "/products/item" + std::to_string(i));
  }
  cases.emplace_back(EncodeFsstChunk(strs, TrainFsstTable(strs.str())), strs);
  cases.emplace_back(EncodeFsstChunk(strs, {"g", "/product", "s/item"}), strs);
  for (const auto& [chunk, column] : cases) {
    SCOPED_TRACE(std::string(DataTypeName(column.type())) + "/" +
                 ColEncodingName(chunk.encoding));
    auto full = DecodeColumnChunk(chunk, column.type());
    ASSERT_TRUE(full.ok()) << full.status();
    ASSERT_TRUE(SameColumnValues(*full, column));
    for (const std::vector<uint32_t>& sel : Selections(kRows)) {
      auto selected = DecodeColumnChunk(chunk, column.type(), &sel);
      ASSERT_TRUE(selected.ok()) << selected.status();
      ASSERT_TRUE(SameColumnValues(*selected, full->Gather(sel)));
    }
  }
}

TEST(SelectiveDecodeTest, RejectsUnorderedOrOutOfRangeSelections) {
  ColumnVector c(DataType::kString);
  for (int i = 0; i < 10; ++i) c.mutable_str().push_back(std::to_string(i));
  const ColumnChunk chunk = EncodeColumnChunk(c, ColumnarWriteOptions{});
  const std::vector<uint32_t> unordered = {3, 1};
  const std::vector<uint32_t> repeated = {2, 2};
  const std::vector<uint32_t> past_end = {10};
  for (const auto* sel : {&unordered, &repeated, &past_end}) {
    EXPECT_TRUE(DecodeColumnChunk(chunk, DataType::kString, sel)
                    .status()
                    .IsInvalidArgument());
  }
}

TEST(SelectiveDecodeTest, ValidatesTheWholeChunkEvenWithAnEmptySelection) {
  const std::vector<uint32_t> none;
  // Plain strings with a trailing garbage byte.
  ColumnVector c(DataType::kString);
  for (int i = 0; i < 10; ++i) c.mutable_str().push_back("v" + std::to_string(i));
  ColumnarWriteOptions raw;
  raw.codec = Codec::kNone;
  raw.enable_dictionary = false;
  ColumnChunk trailing = EncodeColumnChunk(c, raw);
  trailing.data.push_back(0);
  EXPECT_TRUE(
      DecodeColumnChunk(trailing, DataType::kString, &none).status().IsIOError());

  // A dictionary code past the dictionary's end.
  BinaryWriter w;
  w.PutVarint(1);
  w.PutString("a");
  w.PutVarint(0);
  w.PutVarint(5);
  ColumnChunk bad_code;
  bad_code.type = DataType::kString;
  bad_code.encoding = ColEncoding::kDict;
  bad_code.num_rows = 2;
  bad_code.data = w.Release();
  EXPECT_TRUE(
      DecodeColumnChunk(bad_code, DataType::kString, &none).status().IsIOError());

  // A chunk that claims more rows than it holds.
  ColumnChunk short_rows = EncodeColumnChunk(c, raw);
  short_rows.num_rows = 11;
  EXPECT_TRUE(DecodeColumnChunk(short_rows, DataType::kString, &none)
                  .status()
                  .IsIOError());
}

TEST(SelectiveDecodeTest, HugeStringLengthIsAnErrorNotAnAbort) {
  // An uncompressed plain-string chunk whose second length is 2^64 - 2: read
  // at position 12, it wraps a `pos + n > len` bounds test back into range.
  BinaryWriter w;
  w.PutString("a");
  w.PutVarint(~uint64_t{0} - 1);
  w.PutRaw("tail", 4);
  ColumnChunk chunk;
  chunk.type = DataType::kString;
  chunk.encoding = ColEncoding::kPlain;
  chunk.codec = Codec::kNone;
  chunk.num_rows = 2;
  chunk.data = w.Release();
  const std::vector<uint32_t> none;
  const std::vector<uint32_t> both = {0, 1};
  EXPECT_TRUE(DecodeColumnChunk(chunk, DataType::kString).status().IsIOError());
  EXPECT_TRUE(
      DecodeColumnChunk(chunk, DataType::kString, &none).status().IsIOError());
  EXPECT_TRUE(
      DecodeColumnChunk(chunk, DataType::kString, &both).status().IsIOError());
}

// --------------------------- Mutation fuzz --------------------------------

/// One valid chunk per (type, encoding, codec) the writer produces: int32,
/// int64 and date as plain and RLE, float64 as plain, strings as plain and
/// dict (paper L's groupByExtractCol shape), each with and without LZ; then
/// kFor and kFsst chunks, which are never compressed.
std::vector<ColumnChunk> ChunkCorpus() {
  constexpr size_t kRows = 300;
  Rng rng(18);
  std::vector<ColumnChunk> corpus;
  auto add = [&](const ColumnVector& col, ColEncoding encoding) {
    for (Codec codec : {Codec::kNone, Codec::kLz}) {
      ColumnarWriteOptions options;
      options.codec = codec;
      options.enable_rle = encoding == ColEncoding::kRle;
      options.enable_dictionary = encoding == ColEncoding::kDict;
      ColumnChunk chunk = EncodeColumnChunk(col, options);
      EXPECT_EQ(chunk.encoding, encoding) << DataTypeName(col.type());
      EXPECT_EQ(chunk.codec, codec) << DataTypeName(col.type());
      corpus.push_back(std::move(chunk));
    }
  };
  for (DataType type : {DataType::kInt32, DataType::kInt64, DataType::kDate}) {
    ColumnVector plain(type), runs(type);
    for (size_t i = 0; i < kRows; ++i) {
      // Small values so LZ finds repeats; runs of 10 so RLE wins.
      const int64_t v = static_cast<int64_t>(rng.Uniform(64)) - 20;
      const int64_t run = static_cast<int64_t>(i / 10 % 5) * 1000 - 7;
      if (PhysicalTypeOf(type) == PhysicalType::kInt64) {
        plain.mutable_i64().push_back(v);
        runs.mutable_i64().push_back(run);
      } else {
        plain.mutable_i32().push_back(static_cast<int32_t>(16000 + v));
        runs.mutable_i32().push_back(static_cast<int32_t>(run));
      }
    }
    add(plain, ColEncoding::kPlain);
    add(runs, ColEncoding::kRle);
  }
  ColumnVector f(DataType::kFloat64);
  for (size_t i = 0; i < kRows; ++i) {
    f.mutable_f64().push_back(0.25 * static_cast<double>(i % 8));
  }
  add(f, ColEncoding::kPlain);
  ColumnVector group(DataType::kString), few(DataType::kString);
  char buf[64];
  for (size_t i = 0; i < kRows; ++i) {
    std::snprintf(buf, sizeof(buf), "g%u/products/item%05u",
                  static_cast<unsigned>(rng.Uniform(200)),
                  static_cast<unsigned>(rng.Uniform(100000)));
    group.mutable_str().push_back(buf);
    few.mutable_str().push_back("store" + std::to_string(rng.Uniform(12)));
  }
  add(group, ColEncoding::kPlain);
  add(few, ColEncoding::kDict);

  // The random-access encodings as the writer stores them, uncompressed:
  // kFor at a middling and at the full int64 width, kFsst with a trained
  // table and with a small one that leaves escapes.
  for (DataType type : {DataType::kInt32, DataType::kInt64, DataType::kDate}) {
    ColumnVector c(type);
    for (size_t i = 0; i < kRows; ++i) {
      const int64_t v = static_cast<int64_t>(rng.Uniform(5000)) - 77;
      if (PhysicalTypeOf(type) == PhysicalType::kInt64) {
        c.mutable_i64().push_back(v);
      } else {
        c.mutable_i32().push_back(static_cast<int32_t>(v));
      }
    }
    corpus.push_back(EncodeForChunk(c));
  }
  ColumnVector wide(DataType::kInt64);
  for (size_t i = 0; i < kRows; ++i) {
    wide.mutable_i64().push_back(static_cast<int64_t>(rng.Next()));
  }
  corpus.push_back(EncodeForChunk(wide));
  corpus.push_back(EncodeFsstChunk(group, TrainFsstTable(group.str())));
  corpus.push_back(EncodeFsstChunk(group, {"/product", "s/item", "g1"}));
  return corpus;
}

bool SameColumn(const ColumnVector& a, const ColumnVector& b) {
  if (a.type() != b.type() || a.size() != b.size()) return false;
  switch (a.physical_type()) {
    case PhysicalType::kInt32:
      return a.i32() == b.i32();
    case PhysicalType::kInt64:
      return a.i64() == b.i64();
    case PhysicalType::kFloat64:
      // Bitwise: mutated bytes may decode to NaN.
      return a.size() == 0 ||
             std::memcmp(a.f64().data(), b.f64().data(),
                         a.size() * sizeof(double)) == 0;
    case PhysicalType::kString:
      return a.str() == b.str();
  }
  return false;
}

/// Scans a block holding `chunk` under pushed conjuncts that reject every
/// row: one on a valid kFor column whose header settles it, with `chunk`
/// projected, and, for an integer chunk, one on `chunk` itself. Each scan
/// must still validate `chunk` in full: it succeeds with no row exactly
/// when `accepted`, and otherwise fails with an IOError.
void ExpectRejectingScanValidates(const ColumnChunk& chunk, bool accepted) {
  ColumnVector gate(DataType::kInt32);
  gate.mutable_i32().assign(chunk.num_rows, 5);
  StoredBlock block;
  block.format = HdfsFormat::kColumnar;
  auto columnar = std::make_shared<ColumnarBlock>();
  columnar->num_rows = chunk.num_rows;
  columnar->chunks = {chunk, EncodeForChunk(gate)};
  block.columnar = columnar;
  block.num_rows = chunk.num_rows;
  const SchemaPtr schema =
      Schema::Make({{"x", chunk.type}, {"gate", DataType::kInt32}});
  std::vector<std::vector<ConjunctiveIntCmp>> rejecting = {
      {{"gate", CmpOp::kLt, 5}}};
  const PhysicalType physical = PhysicalTypeOf(chunk.type);
  if (physical == PhysicalType::kInt32 || physical == PhysicalType::kInt64) {
    rejecting.push_back({{"x", CmpOp::kLt, INT64_MIN}});
  }
  for (const auto& pushed : rejecting) {
    SCOPED_TRACE("pushed on " + pushed.front().column);
    std::vector<uint32_t> sel;
    const std::vector<ScanStage> stages = {
        {pushed.front().column == "x" ? std::vector<size_t>{}
                                      : std::vector<size_t>{0},
         nullptr}};
    auto got = DecodeBlockFiltered(block, schema, pushed, stages, &sel);
    EXPECT_EQ(got.ok(), accepted) << got.status();
    if (got.ok()) {
      EXPECT_EQ(got->num_rows(), 0u);
    } else {
      EXPECT_TRUE(got.status().IsIOError()) << got.status();
    }
  }
}

/// Both decoders accept or both reject, with every selection; accepted
/// columns are identical and every rejection is an IOError. A scan that
/// rejects every row agrees too. Returns whether the chunk was accepted.
bool ExpectChunkAgreesWithLegacy(const ColumnChunk& chunk) {
  std::vector<uint32_t> sparse;
  for (uint32_t r = 0; r < chunk.num_rows; r += 7) sparse.push_back(r);
  const std::vector<uint32_t> none;
  const std::vector<uint32_t>* sels[] = {nullptr, &sparse, &none};
  bool accepted = false;
  for (const std::vector<uint32_t>* sel : sels) {
    auto got = DecodeColumnChunk(chunk, chunk.type, sel);
    auto want = legacy::DecodeColumnChunk(chunk, chunk.type, sel);
    EXPECT_EQ(got.ok(), want.ok())
        << got.status() << " vs " << want.status();
    if (got.ok() && want.ok()) {
      EXPECT_TRUE(SameColumn(*got, *want));
    } else if (!got.ok()) {
      EXPECT_TRUE(got.status().IsIOError()) << got.status();
    }
    if (sel == nullptr) accepted = got.ok();
  }
  ExpectRejectingScanValidates(chunk, accepted);
  return accepted;
}

TEST(ChunkFuzzTest, MutatedChunksMatchLegacyForEveryEncodingAndCodec) {
  Rng rng(2015);
  for (const ColumnChunk& valid : ChunkCorpus()) {
    SCOPED_TRACE(std::string(DataTypeName(valid.type)) + "/" +
                 ColEncodingName(valid.encoding) + "/" +
                 CodecName(valid.codec));
    ASSERT_TRUE(ExpectChunkAgreesWithLegacy(valid));
    std::vector<uint8_t> payload = valid.data;
    if (valid.codec == Codec::kLz) {
      payload = LzDecompress(valid.data).value();
    }
    size_t accepted = 0, rejected = 0;
    for (int i = 0; i < 600; ++i) {
      ColumnChunk chunk = valid;
      const uint64_t target = rng.Uniform(8);
      if (target == 0) {
        // A row count off by a little.
        chunk.num_rows += static_cast<uint32_t>(rng.Uniform(5)) - 2;
      } else if (valid.codec == Codec::kLz && target < 5) {
        // A corrupt payload inside a well-formed LZ stream.
        chunk.data = LzCompress(Mutate(payload, &rng));
      } else {
        chunk.data = Mutate(chunk.data, &rng);
      }
      if (ExpectChunkAgreesWithLegacy(chunk)) {
        ++accepted;
      } else {
        ++rejected;
      }
      if (HasFailure()) FAIL() << "mutation " << i;
    }
    // Each chunk kind sees both outcomes: about 10-25% of the mutations
    // still decode.
    EXPECT_GT(accepted, 20u);
    EXPECT_GT(rejected, 300u);
  }
}

TEST(ChunkFuzzTest, TruncationAtEveryOffsetMatchesLegacy) {
  for (const ColumnChunk& valid : ChunkCorpus()) {
    SCOPED_TRACE(std::string(DataTypeName(valid.type)) + "/" +
                 ColEncodingName(valid.encoding) + "/" +
                 CodecName(valid.codec));
    for (size_t cut = 0; cut < valid.data.size(); ++cut) {
      ColumnChunk chunk = valid;
      chunk.data.resize(cut);
      ASSERT_FALSE(ExpectChunkAgreesWithLegacy(chunk)) << "cut at " << cut;
    }
  }
}

TEST(DecodeBlockFilteredTest, EqualsFullDecodeThenGatherInBothFormats) {
  RecordBatch b = FullBatch(400);
  const SchemaPtr schema = b.schema();
  const std::vector<size_t> filter_columns = {0, 4};  // i32, d
  const std::vector<size_t> late_columns = {1, 3, 5};  // i64, s, t
  // Keeps rows whose i32 is a multiple of 9 (every third row).
  const RowFilter filter = [](const RecordBatch& batch,
                              std::vector<uint32_t>* sel) {
    EXPECT_EQ(batch.schema()->field(0).name, "i32");
    std::vector<uint32_t> kept;
    for (uint32_t r : *sel) {
      if (batch.column(0).i32()[r] % 9 == 0) kept.push_back(r);
    }
    *sel = std::move(kept);
    return Status::OK();
  };

  StoredBlock text;
  text.format = HdfsFormat::kText;
  text.text = std::make_shared<const std::vector<uint8_t>>(EncodeText(b));
  StoredBlock columnar;
  columnar.format = HdfsFormat::kColumnar;
  columnar.columnar = std::make_shared<const ColumnarBlock>(
      EncodeColumnarBlock(b, ColumnarWriteOptions{}));
  for (const StoredBlock* block : {&text, &columnar}) {
    SCOPED_TRACE(HdfsFormatName(block->format));
    std::vector<uint32_t> sel;
    auto got = DecodeBlockFiltered(
        *block, schema, {},
        {{filter_columns, filter}, {late_columns, nullptr}}, &sel);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(sel.size(), 134u);
    const std::vector<size_t> order = {0, 4, 1, 3, 5};
    const RecordBatch want = b.Project(order).Gather(sel);
    ASSERT_EQ(got->num_rows(), want.num_rows());
    ASSERT_EQ(got->num_columns(), want.num_columns());
    for (size_t c = 0; c < want.num_columns(); ++c) {
      EXPECT_EQ(got->schema()->field(c).name, want.schema()->field(c).name);
      for (size_t r = 0; r < want.num_rows(); ++r) {
        EXPECT_EQ(got->column(c).GetValue(r), want.column(c).GetValue(r));
      }
    }
  }
}

// ----------------------------- On-chunk filter -----------------------------

StoredBlock ColumnarStored(const RecordBatch& batch,
                           const ColumnarWriteOptions& options) {
  StoredBlock block;
  block.format = HdfsFormat::kColumnar;
  block.num_rows = static_cast<uint32_t>(batch.num_rows());
  block.columnar = std::make_shared<const ColumnarBlock>(
      EncodeColumnarBlock(batch, options));
  return block;
}

StoredBlock TextStored(const RecordBatch& batch) {
  StoredBlock block;
  block.format = HdfsFormat::kText;
  block.num_rows = static_cast<uint32_t>(batch.num_rows());
  block.text = std::make_shared<const std::vector<uint8_t>>(EncodeText(batch));
  return block;
}

/// Scans `block` (holding `batch`) as the JEN scan does: `predicate` split
/// into the conjuncts pushed onto the chunks and the residual, which reads
/// its columns at their survivors, then the rest of `projection`. Expects
/// exactly the rows and bytes of decode-then-Predicate::Filter on `batch`,
/// or the same error.
void ExpectScanEqualsDecodeThenFilter(const StoredBlock& block,
                                      const RecordBatch& batch,
                                      const PredicatePtr& predicate,
                                      const std::vector<size_t>& projection) {
  SCOPED_TRACE(predicate->ToString());
  const SchemaPtr& schema = batch.schema();
  const Result<std::vector<uint32_t>> want_sel = predicate->FilterAll(batch);
  const PushdownSplit split = SplitPushdown(predicate, schema);
  std::vector<std::string> names;
  if (split.residual != nullptr) split.residual->CollectColumns(&names);
  std::vector<size_t> residual;
  for (const std::string& name : names) {
    // A scan fails on a missing column before it reads a block.
    const Result<size_t> idx = schema->IndexOf(name);
    if (!idx.ok()) {
      EXPECT_FALSE(want_sel.ok());
      return;
    }
    if (std::find(residual.begin(), residual.end(), *idx) == residual.end()) {
      residual.push_back(*idx);
    }
  }
  std::vector<size_t> rest;
  for (size_t idx : projection) {
    if (std::find(residual.begin(), residual.end(), idx) == residual.end()) {
      rest.push_back(idx);
    }
  }
  RowFilter residual_filter;
  if (split.residual != nullptr) {
    residual_filter = [&](const RecordBatch& b, std::vector<uint32_t>* sel) {
      return split.residual->Filter(b, sel);
    };
  }
  std::vector<uint32_t> sel;
  auto got = DecodeBlockFiltered(block, schema, split.pushed,
                                 {{residual, residual_filter}, {rest, nullptr}},
                                 &sel);
  if (!want_sel.ok()) {
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), want_sel.status().code()) << got.status();
    return;
  }
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(sel, *want_sel);
  std::vector<size_t> order = residual;
  order.insert(order.end(), rest.begin(), rest.end());
  const RecordBatch want = batch.Project(order).Gather(*want_sel);
  ASSERT_EQ(got->num_columns(), want.num_columns());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    EXPECT_EQ(got->schema()->field(c).name, want.schema()->field(c).name);
  }
  EXPECT_EQ(got->Serialize(), want.Serialize());
}

const CmpOp kAllOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                         CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};

/// The literals that probe a column spanning [min, max]: just outside both
/// ends, both ends, the int64 extremes, and `inner` from the column.
std::vector<int64_t> ProbeLiterals(int64_t min, int64_t max, int64_t inner) {
  return {min == INT64_MIN ? min : min - 1,
          min,
          max,
          max == INT64_MAX ? max : max + 1,
          INT64_MIN,
          INT64_MAX,
          inner};
}

/// Every op against every probe literal on the one-column `batch` stored
/// as `block`: alone, and after a kNe conjunct that narrows the selection
/// first, so the conjunct also runs on a partial selection.
void ExpectEveryCmpEqualsDecodeThenFilter(const StoredBlock& block,
                                          const RecordBatch& batch) {
  const ColumnVector& col = batch.column(0);
  auto at = [&](size_t r) { return col.GetValue(r).AsInt64Lenient(); };
  int64_t min = at(0), max = at(0);
  for (size_t r = 1; r < col.size(); ++r) {
    min = std::min(min, at(r));
    max = std::max(max, at(r));
  }
  const int64_t inner = at(col.size() / 2);
  for (CmpOp op : kAllOps) {
    for (int64_t lit : ProbeLiterals(min, max, inner)) {
      const PredicatePtr cmp = Cmp("x", op, Value(lit));
      ExpectScanEqualsDecodeThenFilter(block, batch, cmp, {0});
      ExpectScanEqualsDecodeThenFilter(
          block, batch, And({Cmp("x", CmpOp::kNe, Value(at(0))), cmp}), {0});
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(OnChunkFilterTest, ForChunksOfEveryWidthEqualDecodeThenFilter) {
  Rng rng(31);
  struct Case {
    DataType type;
    int64_t lo;
    uint32_t width;
  };
  const std::vector<Case> cases = {
      {DataType::kInt32, 7, 0},           {DataType::kInt32, -1, 1},
      {DataType::kInt32, -100, 7},        {DataType::kInt32, -(1 << 30), 31},
      {DataType::kInt32, INT32_MIN, 32},  {DataType::kDate, 16000, 0},
      {DataType::kDate, 16000, 1},        {DataType::kDate, 16000, 7},
      {DataType::kDate, -(1 << 30), 31},  {DataType::kDate, INT32_MIN, 32},
      {DataType::kInt64, -3, 0},          {DataType::kInt64, 1, 1},
      {DataType::kInt64, -77, 7},         {DataType::kInt64, -(1LL << 35), 31},
      {DataType::kInt64, 0, 32},          {DataType::kInt64, 5, 33},
      {DataType::kInt64, -(1LL << 62), 63},
      {DataType::kInt64, INT64_MIN, 64},
  };
  // Short chunks sit wholly in the packed tail, whose last eight bytes run
  // past the end; the longer ones end inside it.
  for (const Case& c : cases) {
    for (size_t rows : {1, 2, 5, 9, 64, 301}) {
      SCOPED_TRACE(std::string(DataTypeName(c.type)) + " width " +
                   std::to_string(c.width) + " rows " + std::to_string(rows));
      RecordBatch batch(Schema::Make({{"x", c.type}}),
                        {SpreadColumn(c.type, c.lo, c.width, rows, &rng)});
      StoredBlock block;
      block.format = HdfsFormat::kColumnar;
      block.num_rows = static_cast<uint32_t>(rows);
      auto columnar = std::make_shared<ColumnarBlock>();
      columnar->num_rows = block.num_rows;
      columnar->chunks = {EncodeForChunk(batch.column(0))};
      ASSERT_EQ(ForWidth(columnar->chunks[0]), rows == 1 ? 0 : c.width);
      block.columnar = columnar;
      ExpectEveryCmpEqualsDecodeThenFilter(block, batch);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(OnChunkFilterTest, PlainAndRleChunksEqualDecodeThenFilter) {
  Rng rng(32);
  for (DataType type : {DataType::kInt32, DataType::kDate, DataType::kInt64}) {
    const bool wide = PhysicalTypeOf(type) == PhysicalType::kInt64;
    ColumnVector scattered(type), runs(type);
    for (size_t i = 0; i < 300; ++i) {
      const int64_t v = static_cast<int64_t>(rng.Uniform(64)) - 20;
      const int64_t run = static_cast<int64_t>(i / 10 % 5) * 1000 - 7;
      if (wide) {
        scattered.mutable_i64().push_back(v * 1000003);
        runs.mutable_i64().push_back(run);
      } else {
        scattered.mutable_i32().push_back(static_cast<int32_t>(16000 + v));
        runs.mutable_i32().push_back(static_cast<int32_t>(run));
      }
    }
    struct Layout {
      const ColumnVector* column;
      bool enable_rle;
      Codec codec;
      ColEncoding want;
    };
    const Layout layouts[] = {
        {&scattered, false, Codec::kNone, ColEncoding::kPlain},
        {&scattered, false, Codec::kLz, ColEncoding::kPlain},
        {&runs, true, Codec::kNone, ColEncoding::kRle},
        {&runs, true, Codec::kLz, ColEncoding::kRle}};
    for (const Layout& l : layouts) {
      SCOPED_TRACE(std::string(DataTypeName(type)) + " " +
                   ColEncodingName(l.want) + "+" + CodecName(l.codec));
      RecordBatch batch(Schema::Make({{"x", type}}), {*l.column});
      ColumnarWriteOptions options;
      options.enable_rle = l.enable_rle;
      options.codec = l.codec;
      const StoredBlock block = ColumnarStored(batch, options);
      ASSERT_EQ(block.columnar->chunks[0].encoding, l.want);
      ExpectEveryCmpEqualsDecodeThenFilter(block, batch);
      ExpectEveryCmpEqualsDecodeThenFilter(TextStored(batch), batch);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(OnChunkFilterTest, ResidualShapesEqualDecodeThenFilter) {
  const RecordBatch b = FullBatch(400);
  const auto lit = [](int64_t v) { return Value(v); };
  const std::vector<PredicatePtr> predicates = {
      And({Cmp("i32", CmpOp::kLt, lit(600)),
           Cmp("i64", CmpOp::kGe, lit(-300 * 1000003LL))}),
      Or({Cmp("i32", CmpOp::kLt, lit(30)), Cmp("d", CmpOp::kEq, lit(16005))}),
      Not(Cmp("i32", CmpOp::kLt, lit(300))),
      And({Cmp("i32", CmpOp::kGt, lit(99)), StrPrefix("s", "name_1"),
           Not(Cmp("d", CmpOp::kGt, lit(16050)))}),
      And({And({Cmp("d", CmpOp::kNe, lit(16003)), True()}),
           Or({Cmp("t", CmpOp::kLe, lit(50)), Cmp("i64", CmpOp::kLt, lit(0))}),
           DiffRange("d", "t", 15900, 16050)}),
      And({Cmp("f", CmpOp::kLt, Value(100.0)),
           Cmp("i32", CmpOp::kLt, lit(500))}),
      And({Cmp("s", CmpOp::kGe, Value(std::string("name_3"))),
           Cmp("i32", CmpOp::kGe, lit(INT64_MAX))}),
      And({Cmp("i32", CmpOp::kGe, lit(0)), Cmp("i32", CmpOp::kLt, Value("x"))}),
      And({Cmp("i32", CmpOp::kGe, lit(0)), Cmp("nope", CmpOp::kLt, lit(1))}),
  };
  ColumnarWriteOptions no_rle;
  no_rle.enable_rle = false;
  const StoredBlock blocks[] = {TextStored(b),
                                ColumnarStored(b, ColumnarWriteOptions{}),
                                ColumnarStored(b, no_rle)};
  for (const StoredBlock& block : blocks) {
    SCOPED_TRACE(HdfsFormatName(block.format));
    for (const PredicatePtr& p : predicates) {
      ExpectScanEqualsDecodeThenFilter(block, b, p, {0, 1, 3, 4});
    }
  }
}

TEST(OnChunkFilterTest, SplitPushesOnlyTopLevelIntegerConjuncts) {
  const SchemaPtr schema = FullSchema();
  PushdownSplit split = SplitPushdown(
      And({And({Cmp("i32", CmpOp::kLt, Value(int64_t{5})), True()}),
           Cmp("f", CmpOp::kLt, Value(1.0)),
           Or({Cmp("i64", CmpOp::kEq, Value(int64_t{1}))}),
           Cmp("d", CmpOp::kGe, Value(int32_t{16001}))}),
      schema);
  ASSERT_EQ(split.pushed.size(), 2u);
  EXPECT_EQ(split.pushed[0].column, "i32");
  EXPECT_EQ(split.pushed[1].column, "d");
  ASSERT_NE(split.residual, nullptr);
  std::vector<std::string> residual_columns;
  split.residual->CollectColumns(&residual_columns);
  EXPECT_EQ(residual_columns, (std::vector<std::string>{"f", "i64"}));
  // A conjunct that fails on the schema keeps the whole predicate.
  const PredicatePtr bad =
      And({Cmp("i32", CmpOp::kLt, Value(int64_t{5})),
           Cmp("s", CmpOp::kLt, Value(int64_t{5}))});
  split = SplitPushdown(bad, schema);
  EXPECT_TRUE(split.pushed.empty());
  EXPECT_EQ(split.residual, bad);
  split = SplitPushdown(Cmp("i32", CmpOp::kLt, Value(int64_t{5})), schema);
  EXPECT_EQ(split.pushed.size(), 1u);
  EXPECT_EQ(split.residual, nullptr);
  EXPECT_TRUE(SplitPushdown(nullptr, schema).pushed.empty());
}

}  // namespace
}  // namespace hybridjoin
