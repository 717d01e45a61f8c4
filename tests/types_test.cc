// Unit tests for the type system: DataType, Value, Schema, ColumnVector,
// RecordBatch and the wire serde.

#include <gtest/gtest.h>

#include "types/batch_scatter.h"
#include "types/record_batch.h"

namespace hybridjoin {
namespace {

TEST(DataTypeTest, PhysicalMapping) {
  EXPECT_EQ(PhysicalTypeOf(DataType::kDate), PhysicalType::kInt32);
  EXPECT_EQ(PhysicalTypeOf(DataType::kTime), PhysicalType::kInt32);
  EXPECT_EQ(PhysicalTypeOf(DataType::kInt64), PhysicalType::kInt64);
  EXPECT_EQ(PhysicalTypeOf(DataType::kString), PhysicalType::kString);
  EXPECT_EQ(FixedWidthOf(DataType::kInt32), 4u);
  EXPECT_EQ(FixedWidthOf(DataType::kFloat64), 8u);
  EXPECT_EQ(FixedWidthOf(DataType::kString), 0u);
}

TEST(DataTypeTest, ParseNames) {
  DataType t;
  EXPECT_TRUE(ParseDataType("int32", &t));
  EXPECT_EQ(t, DataType::kInt32);
  EXPECT_TRUE(ParseDataType("bigint", &t));
  EXPECT_EQ(t, DataType::kInt64);
  EXPECT_TRUE(ParseDataType("varchar", &t));
  EXPECT_EQ(t, DataType::kString);
  EXPECT_TRUE(ParseDataType("date", &t));
  EXPECT_EQ(t, DataType::kDate);
  EXPECT_FALSE(ParseDataType("blob", &t));
}

TEST(ValueTest, TypedAccessors) {
  Value i32(int32_t{5});
  Value i64(int64_t{5});
  Value str("abc");
  EXPECT_TRUE(i32.is_int32());
  EXPECT_TRUE(i64.is_int64());
  EXPECT_FALSE(i32.is_int64());
  EXPECT_EQ(i32.AsInt64Lenient(), 5);
  EXPECT_EQ(i64.AsInt64Lenient(), 5);
  EXPECT_EQ(str.as_string(), "abc");
  EXPECT_EQ(str.ToString(), "abc");
  EXPECT_EQ(i32.ToString(), "5");
}

TEST(SchemaTest, IndexOfAndProject) {
  auto schema = Schema::Make(
      {{"a", DataType::kInt32}, {"b", DataType::kString},
       {"c", DataType::kDate}});
  EXPECT_EQ(schema->IndexOf("b").value(), 1u);
  EXPECT_FALSE(schema->IndexOf("zz").ok());
  EXPECT_TRUE(schema->HasColumn("c"));
  auto projected = schema->Project({2, 0});
  ASSERT_EQ(projected->num_fields(), 2u);
  EXPECT_EQ(projected->field(0).name, "c");
  EXPECT_EQ(projected->field(1).name, "a");
  EXPECT_NE(schema->ToString().find("b string"), std::string::npos);
}

RecordBatch MakeBatch() {
  auto schema = Schema::Make({{"k", DataType::kInt32},
                              {"v", DataType::kInt64},
                              {"s", DataType::kString}});
  RecordBatch b(schema);
  b.AppendRow({Value(int32_t{1}), Value(int64_t{10}), Value("one")});
  b.AppendRow({Value(int32_t{2}), Value(int64_t{20}), Value("two")});
  b.AppendRow({Value(int32_t{3}), Value(int64_t{30}), Value("three")});
  return b;
}

TEST(RecordBatchTest, BasicShape) {
  RecordBatch b = MakeBatch();
  EXPECT_EQ(b.num_rows(), 3u);
  EXPECT_EQ(b.num_columns(), 3u);
  EXPECT_EQ(b.column(0).i32()[1], 2);
  EXPECT_EQ(b.column(2).str()[2], "three");
  EXPECT_GT(b.ByteSize(), 0u);
}

TEST(RecordBatchTest, GatherSelectsRows) {
  RecordBatch b = MakeBatch();
  RecordBatch g = b.Gather({2, 0});
  ASSERT_EQ(g.num_rows(), 2u);
  EXPECT_EQ(g.column(0).i32()[0], 3);
  EXPECT_EQ(g.column(0).i32()[1], 1);
  EXPECT_EQ(g.column(2).str()[0], "three");
}

TEST(RecordBatchTest, ProjectReordersColumns) {
  RecordBatch b = MakeBatch();
  RecordBatch p = b.Project({2, 0});
  ASSERT_EQ(p.num_columns(), 2u);
  EXPECT_EQ(p.schema()->field(0).name, "s");
  EXPECT_EQ(p.column(1).i32()[0], 1);
}


TEST(RecordBatchTest, SerdeRoundTrip) {
  RecordBatch b = MakeBatch();
  auto bytes = b.Serialize();
  auto decoded = RecordBatch::Deserialize(bytes, b.schema());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->num_rows(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(decoded->column(0).i32()[r], b.column(0).i32()[r]);
    EXPECT_EQ(decoded->column(1).i64()[r], b.column(1).i64()[r]);
    EXPECT_EQ(decoded->column(2).str()[r], b.column(2).str()[r]);
  }
}

TEST(RecordBatchTest, SerdeEmptyBatch) {
  RecordBatch b(MakeBatch().schema());
  auto decoded = RecordBatch::Deserialize(b.Serialize(), b.schema());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_rows(), 0u);
}

TEST(RecordBatchTest, SerdeRejectsSchemaMismatch) {
  RecordBatch b = MakeBatch();
  auto bytes = b.Serialize();
  auto wrong = Schema::Make({{"k", DataType::kInt32}});
  EXPECT_FALSE(RecordBatch::Deserialize(bytes, wrong).ok());
  auto wrong_type = Schema::Make({{"k", DataType::kString},
                                  {"v", DataType::kInt64},
                                  {"s", DataType::kString}});
  EXPECT_FALSE(RecordBatch::Deserialize(bytes, wrong_type).ok());
}

TEST(RecordBatchTest, SerdeRejectsTruncation) {
  RecordBatch b = MakeBatch();
  auto bytes = b.Serialize();
  bytes.resize(bytes.size() - 4);
  EXPECT_FALSE(RecordBatch::Deserialize(bytes, b.schema()).ok());
}

TEST(RecordBatchTest, DateAndTimeLogicalTypesSurviveSerde) {
  auto schema =
      Schema::Make({{"d", DataType::kDate}, {"t", DataType::kTime}});
  RecordBatch b(schema);
  b.AppendRow({Value(int32_t{16000}), Value(int32_t{3661})});
  auto decoded = RecordBatch::Deserialize(b.Serialize(), schema);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->column(0).type(), DataType::kDate);
  EXPECT_EQ(decoded->column(0).i32()[0], 16000);
}

TEST(RecordBatchTest, ConcatBatches) {
  RecordBatch a = MakeBatch();
  RecordBatch b = MakeBatch();
  RecordBatch all = ConcatBatches(a.schema(), {a, b});
  EXPECT_EQ(all.num_rows(), 6u);
  EXPECT_EQ(all.column(0).i32()[3], 1);
}

TEST(ColumnVectorTest, GetAndAppendValue) {
  ColumnVector c(DataType::kString);
  c.AppendValue(Value("x"));
  EXPECT_EQ(c.GetValue(0).as_string(), "x");
  ColumnVector i(DataType::kInt32);
  i.AppendValue(Value(int32_t{4}));
  EXPECT_EQ(i.GetValue(0).as_int32(), 4);
  EXPECT_EQ(i.ByteSize(), 4u);
}

// --------------------- String layout: wire and footprint -------------------

/// Rows 0-4 of `s`: empty, 15 bytes, 16 bytes, 300 bytes and non-ASCII
/// UTF-8 — the short-string-buffer edge and a two-byte varint length.
RecordBatch GoldenBatch() {
  auto schema =
      Schema::Make({{"id", DataType::kInt32}, {"s", DataType::kString}});
  std::string s300;
  for (int i = 0; i < 300; ++i) s300.push_back(static_cast<char>('a' + i % 26));
  const std::vector<std::string> strs = {
      "", "fifteen-bytes!!", "sixteen-bytes!!!", s300,
      "na\xc3\xafve \xe6\x97\xa5\xe6\x9c\xac"};
  RecordBatch b(schema);
  for (size_t i = 0; i < strs.size(); ++i) {
    b.AppendRow({Value(static_cast<int32_t>(i)), Value(strs[i])});
  }
  return b;
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

// The bytes the one-std::string-per-row layout put on the wire: a varint
// row count and column count, then per column its type byte and rows (int32
// little-endian; a string as a varint length plus its bytes).
TEST(StringLayoutTest, WireBytesAreUnchanged) {
  const RecordBatch b = GoldenBatch();
  EXPECT_EQ(
      Hex(b.Serialize()),
      "050200000000000100000002000000030000000400000003000f666966746565"
      "6e2d62797465732121107369787465656e2d6279746573212121ac0261626364"
      "65666768696a6b6c6d6e6f707172737475767778797a6162636465666768696a"
      "6b6c6d6e6f707172737475767778797a6162636465666768696a6b6c6d6e6f70"
      "7172737475767778797a6162636465666768696a6b6c6d6e6f70717273747576"
      "7778797a6162636465666768696a6b6c6d6e6f707172737475767778797a6162"
      "636465666768696a6b6c6d6e6f707172737475767778797a6162636465666768"
      "696a6b6c6d6e6f707172737475767778797a6162636465666768696a6b6c6d6e"
      "6f707172737475767778797a6162636465666768696a6b6c6d6e6f7071727374"
      "75767778797a6162636465666768696a6b6c6d6e6f707172737475767778797a"
      "6162636465666768696a6b6c6d6e6f707172737475767778797a616263646566"
      "6768696a6b6c6d6e0d6e61c3af766520e697a5e69cac");
  auto decoded = RecordBatch::Deserialize(b.Serialize(), b.schema());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->column(1).str(), b.column(1).str());
  EXPECT_EQ(decoded->column(1).str()[3].size(), 300u);
}

// Memory-governor charges and spill choices read ByteSize: a string row
// still counts its bytes plus two.
TEST(StringLayoutTest, ByteSizeIsBytesPlusTwoPerRow) {
  const RecordBatch b = GoldenBatch();
  size_t expected = 0;
  for (std::string_view s : b.column(1).str()) expected += s.size() + 2;
  EXPECT_EQ(expected, 354u);
  EXPECT_EQ(b.column(1).ByteSize(), expected);
  EXPECT_EQ(b.ByteSize(), 8 + 5 * 4 + expected);
  EXPECT_EQ(ColumnVector(DataType::kString).ByteSize(), 0u);
}

TEST(StringLayoutTest, TruncationKeepsItsStatusCode) {
  const RecordBatch b = GoldenBatch();
  const std::vector<uint8_t> bytes = b.Serialize();
  ASSERT_EQ(bytes[58], 0xac);  // the 300-byte row's two-byte length
  // Cut inside that length, inside its bytes, and one byte short.
  for (size_t cut : {size_t{59}, size_t{200}, bytes.size() - 1}) {
    SCOPED_TRACE(cut);
    const std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
    auto decoded = RecordBatch::Deserialize(truncated, b.schema());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kOutOfRange);
  }
}

TEST(StringLayoutTest, AppendsFromItsOwnColumn) {
  // Growing the buffer moves it, so a self-append must not read through a
  // view taken before the growth.
  ColumnVector c(DataType::kString);
  c.AppendValue(Value(std::string(40, 'x')));
  c.AppendValue(Value(""));
  for (int i = 0; i < 6; ++i) c.AppendFrom(c, 0);
  const std::vector<uint32_t> rows = {0, 1, 7, 3};
  c.GatherAppendFrom(c, rows.data(), rows.size());
  ASSERT_EQ(c.size(), 12u);
  for (size_t r : {0, 2, 7, 8, 11}) EXPECT_EQ(c.str()[r], std::string(40, 'x'));
  EXPECT_EQ(c.str()[1], "");
  EXPECT_EQ(c.str()[9], "");
  EXPECT_EQ(c.str().bytes(), 10 * 40u);
}

TEST(StringLayoutTest, ClearKeepsTheColumnUsable) {
  ColumnVector c(DataType::kString);
  c.AppendValue(Value("abc"));
  c.Clear();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.ByteSize(), 0u);
  c.AppendValue(Value("de"));
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.str()[0], "de");
  EXPECT_EQ(c.ByteSize(), 4u);
}

TEST(RecordBatchTest, AppendRangeFromAnotherBatch) {
  const RecordBatch src = GoldenBatch();
  RecordBatch dst = GoldenBatch();
  dst.AppendRange(src, 1, 3);
  dst.AppendRange(src, 0, 0);
  dst.AppendRange(src, 4, 1);
  ASSERT_EQ(dst.num_rows(), 9u);
  const std::vector<size_t> from = {0, 1, 2, 3, 4, 1, 2, 3, 4};
  for (size_t r = 0; r < from.size(); ++r) {
    EXPECT_EQ(dst.column(0).i32()[r], src.column(0).i32()[from[r]]);
    EXPECT_EQ(dst.column(1).str()[r], src.column(1).str()[from[r]]);
  }
}

TEST(RecordBatchTest, RvalueProjectMovesColumns) {
  RecordBatch b = MakeBatch();
  const RecordBatch copied = b.Project({2, 0, 2});
  const void* bytes = b.column(2).str()[0].data();
  RecordBatch moved = std::move(b).Project({2, 0, 2});
  ASSERT_EQ(moved.num_columns(), 3u);
  EXPECT_EQ(moved.schema()->ToString(), copied.schema()->ToString());
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(moved.column(c).ByteSize(), copied.column(c).ByteSize());
  }
  EXPECT_EQ(moved.column(0).str(), copied.column(0).str());
  EXPECT_EQ(moved.column(2).str(), copied.column(2).str());
  EXPECT_EQ(moved.column(1).i32(), copied.column(1).i32());
  // The last use of a column takes its buffer; an earlier one copies.
  EXPECT_NE(moved.column(0).str()[0].data(), bytes);
  EXPECT_EQ(moved.column(2).str()[0].data(), bytes);
}

// ------------------------------- BatchScatter ------------------------------

/// Rows with keys `keys` (as `key_type`) and strings "r<first + i>".
RecordBatch KeyedRows(DataType key_type, const std::vector<int64_t>& keys,
                      size_t first) {
  RecordBatch b(Schema::Make({{"k", key_type}, {"s", DataType::kString}}));
  for (size_t i = 0; i < keys.size(); ++i) {
    b.AppendRow({key_type == DataType::kInt32
                     ? Value(static_cast<int32_t>(keys[i]))
                     : Value(keys[i]),
                 Value("r" + std::to_string(first + i))});
  }
  return b;
}

/// Every batch a scatter emitted, in emit order.
using Emitted = std::vector<std::pair<size_t, RecordBatch>>;

BatchScatter::Emit Collect(Emitted* out) {
  return [out](size_t slot, RecordBatch& rows) {
    out->emplace_back(slot, rows);
    return Status::OK();
  };
}

// Slots 0-3 take keys by key mod 4, slot 4 none, slot 5 the hot keys 3 and
// 11. Every slot's rows arrive in source order, across batches (one of them
// empty), in batches of exactly flush_rows but a slot's last.
TEST(BatchScatterTest, EverySlotKeepsSourceOrderInFullBatches) {
  constexpr size_t kFlush = 7;
  auto slot_of = [](int64_t key) -> uint32_t {
    return key == 3 || key == 11 ? 5 : static_cast<uint64_t>(key) % 4;
  };
  for (DataType key_type : {DataType::kInt32, DataType::kInt64}) {
    SCOPED_TRACE(DataTypeName(key_type));
    std::vector<int64_t> keys;
    for (int64_t i = 0; i < 100; ++i) keys.push_back((i * 7919) % 23 - 5);
    Emitted emitted;
    BatchScatter scatter(KeyedRows(key_type, {}, 0).schema(), 6, kFlush,
                         Collect(&emitted));
    size_t first = 0;
    for (size_t n : {40, 0, 60}) {
      const std::vector<int64_t> part(keys.begin() + first,
                                      keys.begin() + first + n);
      ASSERT_TRUE(
          scatter.Append(KeyedRows(key_type, part, first), 0, slot_of).ok());
      first += n;
    }
    ASSERT_TRUE(scatter.FlushAll().ok());
    for (size_t slot = 0; slot < 6; ++slot) {
      SCOPED_TRACE(slot);
      std::vector<std::string> want;
      for (size_t r = 0; r < keys.size(); ++r) {
        if (slot_of(keys[r]) == slot) want.push_back("r" + std::to_string(r));
      }
      std::vector<std::string> got;
      std::vector<size_t> sizes;
      for (const auto& [s, rows] : emitted) {
        if (s != slot) continue;
        sizes.push_back(rows.num_rows());
        for (size_t r = 0; r < rows.num_rows(); ++r) {
          EXPECT_EQ(slot_of(rows.column(0).GetValue(r).AsInt64Lenient()),
                    slot);
          got.emplace_back(rows.column(1).str()[r]);
        }
      }
      EXPECT_EQ(got, want);
      if (slot == 4) EXPECT_TRUE(sizes.empty());
      for (size_t i = 0; i + 1 < sizes.size(); ++i) {
        EXPECT_EQ(sizes[i], kFlush);
      }
      if (!sizes.empty()) {
        EXPECT_GE(sizes.back(), 1u);
        EXPECT_LE(sizes.back(), kFlush);
      }
    }
  }
}

TEST(BatchScatterTest, SplitsExactlyAtFlushRows) {
  Emitted emitted;
  BatchScatter scatter(KeyedRows(DataType::kInt64, {}, 0).schema(), 2, 4,
                       Collect(&emitted));
  auto to_zero = [](int64_t) -> uint32_t { return 0; };
  auto ones = [](size_t n, size_t first) {
    return KeyedRows(DataType::kInt64, std::vector<int64_t>(n, 1), first);
  };
  // One batch three flushes long, then one that tops the rest up.
  ASSERT_TRUE(scatter.Append(ones(13, 0), 0, to_zero).ok());
  EXPECT_EQ(scatter.routed(0), 13u);
  EXPECT_EQ(scatter.routed(1), 0u);
  ASSERT_EQ(emitted.size(), 3u);
  EXPECT_EQ(scatter.pending(0).num_rows(), 1u);
  ASSERT_TRUE(scatter.Append(ones(3, 13), 0, to_zero).ok());
  ASSERT_TRUE(scatter.Append(ones(0, 16), 0, to_zero).ok());
  EXPECT_EQ(scatter.routed(0), 0u);
  ASSERT_TRUE(scatter.FlushAll().ok());
  ASSERT_EQ(emitted.size(), 4u);
  for (size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(emitted[b].first, 0u);
    const RecordBatch& rows = emitted[b].second;
    ASSERT_EQ(rows.num_rows(), 4u);
    for (size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(rows.column(1).str()[r], "r" + std::to_string(4 * b + r));
    }
  }
}

// An emit may move the batch out (the slot starts over with the schema);
// its first error ends the Append.
TEST(BatchScatterTest, EmitMayTakeTheBatchOrFail) {
  const RecordBatch rows =
      KeyedRows(DataType::kInt32, {0, 1, 0, 1, 0, 1, 0}, 0);
  auto by_key = [](int64_t key) { return static_cast<uint32_t>(key); };
  std::vector<RecordBatch> taken;
  BatchScatter scatter(rows.schema(), 2, 2,
                       [&](size_t, RecordBatch& batch) {
                         taken.push_back(std::move(batch));
                         return Status::OK();
                       });
  ASSERT_TRUE(scatter.Append(rows, 0, by_key).ok());
  ASSERT_TRUE(scatter.Append(rows, 0, by_key).ok());
  ASSERT_TRUE(scatter.FlushAll().ok());
  size_t total = 0;
  for (const RecordBatch& b : taken) {
    EXPECT_EQ(b.schema(), rows.schema());
    EXPECT_LE(b.num_rows(), 2u);
    total += b.num_rows();
  }
  EXPECT_EQ(total, 14u);
  EXPECT_EQ(scatter.pending(0).schema(), rows.schema());

  int calls = 0;
  BatchScatter failing(rows.schema(), 2, 2, [&](size_t, RecordBatch&) {
    ++calls;
    return Status::IOError("disk full");
  });
  EXPECT_EQ(failing.Append(rows, 0, by_key).code(), StatusCode::kIOError);
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace hybridjoin
