// Unit tests for the shared execution primitives: JoinHashTable,
// HashAggregator and JoinProber, and the band walk through JoinProber and
// GraceHashJoin.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <optional>

#include "common/hash.h"
#include "common/random.h"
#include "exec/grace_join.h"
#include "exec/join_prober.h"

namespace hybridjoin {
namespace {

SchemaPtr BuildSchema() {
  return Schema::Make(
      {{"joinKey", DataType::kInt32}, {"payload", DataType::kString}});
}

SchemaPtr ProbeSchema() {
  return Schema::Make(
      {{"joinKey", DataType::kInt32}, {"v", DataType::kInt32}});
}

RecordBatch BuildBatch(std::vector<std::pair<int32_t, std::string>> rows) {
  RecordBatch b(BuildSchema());
  for (auto& [k, s] : rows) b.AppendRow({Value(k), Value(std::move(s))});
  return b;
}

// ----------------------------- JoinHashTable ------------------------------

TEST(JoinHashTableTest, FindsAllDuplicates) {
  JoinHashTable table(0);
  ASSERT_TRUE(table.AddBatch(BuildBatch({{1, "a"}, {2, "b"}, {1, "c"}})).ok());
  ASSERT_TRUE(table.AddBatch(BuildBatch({{1, "d"}, {3, "e"}})).ok());
  table.Finalize();
  EXPECT_EQ(table.num_rows(), 5u);

  std::multiset<std::string> matches;
  table.ForEachMatch(1, [&](uint32_t b, uint32_t r) {
    matches.emplace(table.batches()[b].column(1).str()[r]);
  });
  EXPECT_EQ(matches, (std::multiset<std::string>{"a", "c", "d"}));
  EXPECT_TRUE(table.Contains(3));
  EXPECT_FALSE(table.Contains(42));
}

TEST(JoinHashTableTest, EmptyTableProbesCleanly) {
  JoinHashTable table(0);
  table.Finalize();
  EXPECT_FALSE(table.Contains(1));
  EXPECT_EQ(table.num_rows(), 0u);
}

TEST(JoinHashTableTest, EmptyBatchesIgnored) {
  JoinHashTable table(0);
  ASSERT_TRUE(table.AddBatch(RecordBatch(BuildSchema())).ok());
  table.Finalize();
  EXPECT_EQ(table.num_rows(), 0u);
}

TEST(JoinHashTableTest, RejectsMisuse) {
  JoinHashTable table(0);
  table.Finalize();
  EXPECT_FALSE(table.AddBatch(BuildBatch({{1, "a"}})).ok());

  JoinHashTable bad_key(5);
  EXPECT_FALSE(bad_key.AddBatch(BuildBatch({{1, "a"}})).ok());

  JoinHashTable string_key(1);  // column 1 is the string payload
  EXPECT_FALSE(string_key.AddBatch(BuildBatch({{1, "a"}})).ok());
}

TEST(JoinHashTableTest, Int64Keys) {
  auto schema = Schema::Make({{"k", DataType::kInt64}});
  RecordBatch b(schema);
  b.AppendRow({Value(int64_t{1} << 40)});
  JoinHashTable table(0);
  ASSERT_TRUE(table.AddBatch(std::move(b)).ok());
  table.Finalize();
  EXPECT_TRUE(table.Contains(int64_t{1} << 40));
}

TEST(JoinHashTableTest, ScalesPastResize) {
  JoinHashTable table(0);
  RecordBatch big(BuildSchema());
  for (int32_t i = 0; i < 50000; ++i) {
    big.AppendRow({Value(i % 1000), Value("p")});
  }
  ASSERT_TRUE(table.AddBatch(std::move(big)).ok());
  table.Finalize();
  int count = 0;
  table.ForEachMatch(7, [&](uint32_t, uint32_t) { ++count; });
  EXPECT_EQ(count, 50);
}

// ------------------------- Sharded JoinHashTable --------------------------

std::vector<RecordBatch> ShardTestBatches() {
  // Heavy duplication across batches so match order (insertion order) is
  // actually exercised, plus negative keys and a batch-boundary split.
  std::vector<RecordBatch> batches;
  RecordBatch a(BuildSchema()), b(BuildSchema()), c(BuildSchema());
  for (int32_t i = 0; i < 700; ++i) {
    a.AppendRow({Value(i % 90), Value("a" + std::to_string(i))});
  }
  for (int32_t i = 0; i < 450; ++i) {
    b.AppendRow({Value((i % 90) - 45), Value("b" + std::to_string(i))});
  }
  for (int32_t i = 0; i < 300; ++i) {
    c.AppendRow({Value(i % 7), Value("c" + std::to_string(i))});
  }
  batches.push_back(std::move(a));
  batches.push_back(std::move(b));
  batches.push_back(std::move(c));
  return batches;
}

std::vector<int32_t> ShardTestProbeKeys() {
  std::vector<int32_t> keys;
  for (int32_t i = -60; i < 120; ++i) keys.push_back(i);
  keys.push_back(424242);  // no match
  return keys;
}

void ExpectSameMatches(const JoinHashTable& expected,
                       const JoinHashTable& actual) {
  const std::vector<int32_t> keys = ShardTestProbeKeys();
  std::vector<JoinMatch> want, got;
  expected.ProbeBatch(std::span<const int32_t>(keys), &want);
  actual.ProbeBatch(std::span<const int32_t>(keys), &got);
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].probe_row, got[i].probe_row) << "match " << i;
    ASSERT_EQ(want[i].batch, got[i].batch) << "match " << i;
    ASSERT_EQ(want[i].row, got[i].row) << "match " << i;
  }
}

TEST(JoinHashTableTest, ShardedProbeOrderMatchesUnsharded) {
  // The determinism contract the parallel build rests on: for any shard
  // count, every probe emits matches in exactly the unsharded order.
  JoinHashTable reference(0);
  for (RecordBatch& b : ShardTestBatches()) {
    ASSERT_TRUE(reference.AddBatch(std::move(b)).ok());
  }
  reference.Finalize();

  for (uint32_t shards : {2u, 3u, 7u, 16u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    JoinHashTable sharded(0, shards);
    for (RecordBatch& b : ShardTestBatches()) {
      ASSERT_TRUE(sharded.AddBatch(std::move(b)).ok());
    }
    sharded.Finalize();
    EXPECT_EQ(sharded.num_shards(), shards);
    EXPECT_EQ(sharded.num_rows(), reference.num_rows());
    size_t shard_sum = 0;
    for (uint32_t s = 0; s < shards; ++s) shard_sum += sharded.shard_rows(s);
    EXPECT_EQ(shard_sum, sharded.num_rows());
    ExpectSameMatches(reference, sharded);
  }
}

TEST(JoinHashTableTest, AddBatchesParallelMatchesSerialAdd) {
  JoinHashTable serial(0, 4);
  for (RecordBatch& b : ShardTestBatches()) {
    ASSERT_TRUE(serial.AddBatch(std::move(b)).ok());
  }
  serial.Finalize();

  // nullptr pool: the serial fallback inside AddBatchesParallel.
  JoinHashTable fallback(0, 4);
  ASSERT_TRUE(fallback.AddBatchesParallel(ShardTestBatches(), nullptr).ok());
  fallback.Finalize();
  ExpectSameMatches(serial, fallback);

  // Real pool: range extraction in parallel, spliced in range order.
  ThreadPool pool(3);
  JoinHashTable parallel(0, 4);
  ASSERT_TRUE(parallel.AddBatchesParallel(ShardTestBatches(), &pool).ok());
  ASSERT_TRUE(parallel.FinalizeParallel(&pool).ok());
  EXPECT_TRUE(parallel.finalized());
  ExpectSameMatches(serial, parallel);
}

TEST(JoinHashTableTest, FinalizeShardPerShardThenMark) {
  // The driver's traced finalize path: FinalizeShard per shard (here from a
  // ParallelFor) followed by MarkFinalized equals the one-call Finalize.
  JoinHashTable reference(0, 3);
  JoinHashTable staged(0, 3);
  for (RecordBatch& b : ShardTestBatches()) {
    ASSERT_TRUE(reference.AddBatch(std::move(b)).ok());
  }
  for (RecordBatch& b : ShardTestBatches()) {
    ASSERT_TRUE(staged.AddBatch(std::move(b)).ok());
  }
  reference.Finalize();
  ThreadPool pool(3);
  ASSERT_TRUE(pool.ParallelFor(0, staged.num_shards(), 1, [&](size_t s) {
                    staged.FinalizeShard(static_cast<uint32_t>(s));
                    return Status::OK();
                  })
                  .ok());
  staged.MarkFinalized();
  EXPECT_TRUE(staged.finalized());
  ExpectSameMatches(reference, staged);
}

TEST(JoinHashTableTest, ShardedEmptyAndSingleRow) {
  JoinHashTable empty(0, 8);
  empty.Finalize();
  EXPECT_FALSE(empty.Contains(1));
  EXPECT_EQ(empty.num_rows(), 0u);

  JoinHashTable one(0, 8);
  ASSERT_TRUE(one.AddBatch(BuildBatch({{5, "only"}})).ok());
  one.Finalize();
  EXPECT_TRUE(one.Contains(5));
  EXPECT_FALSE(one.Contains(6));
  EXPECT_EQ(one.num_rows(), 1u);
}

// ----------------------------- HashAggregator -----------------------------

TEST(HashAggregatorTest, CountStarGroupsCorrectly) {
  auto spec = AggSpec::CountStar("g", /*extract_group=*/false);
  HashAggregator agg(spec);
  auto schema = Schema::Make({{"g", DataType::kInt32}});
  RecordBatch b(schema);
  for (int32_t g : {3, 1, 3, 3, 2, 1}) b.AppendRow({Value(g)});
  std::vector<uint32_t> sel = {0, 1, 2, 3, 4, 5};
  ASSERT_TRUE(agg.Update(b, sel).ok());
  RecordBatch out = agg.Finish();
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.column(0).i64(), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(out.column(1).i64(), (std::vector<int64_t>{2, 1, 3}));
}

TEST(HashAggregatorTest, ExtractGroupFromStrings) {
  auto spec = AggSpec::CountStar("g", /*extract_group=*/true);
  HashAggregator agg(spec);
  auto schema = Schema::Make({{"g", DataType::kString}});
  RecordBatch b(schema);
  b.AppendRow({Value("g7/x")});
  b.AppendRow({Value("g7/y")});
  b.AppendRow({Value("g9/z")});
  ASSERT_TRUE(agg.Update(b, {0, 1, 2}).ok());
  RecordBatch out = agg.Finish();
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.column(0).i64()[0], 7);
  EXPECT_EQ(out.column(1).i64()[0], 2);
}

TEST(HashAggregatorTest, SumMinMax) {
  AggSpec spec;
  spec.group_column = "g";
  spec.items = {{AggOp::kSum, "v", "sum_v"},
                {AggOp::kMin, "v", "min_v"},
                {AggOp::kMax, "v", "max_v"}};
  HashAggregator agg(spec);
  auto schema =
      Schema::Make({{"g", DataType::kInt32}, {"v", DataType::kInt32}});
  RecordBatch b(schema);
  b.AppendRow({Value(int32_t{1}), Value(int32_t{10})});
  b.AppendRow({Value(int32_t{1}), Value(int32_t{-2})});
  b.AppendRow({Value(int32_t{2}), Value(int32_t{5})});
  ASSERT_TRUE(agg.Update(b, {0, 1, 2}).ok());
  RecordBatch out = agg.Finish();
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.column(1).i64()[0], 8);   // sum group 1
  EXPECT_EQ(out.column(2).i64()[0], -2);  // min group 1
  EXPECT_EQ(out.column(3).i64()[0], 10);  // max group 1
  EXPECT_EQ(out.column(1).i64()[1], 5);
}

TEST(HashAggregatorTest, PartialMergeEqualsDirect) {
  auto spec = AggSpec::CountStar("g", false);
  auto schema = Schema::Make({{"g", DataType::kInt32}});
  RecordBatch b1(schema), b2(schema), all(schema);
  for (int32_t g : {1, 2, 1}) {
    b1.AppendRow({Value(g)});
    all.AppendRow({Value(g)});
  }
  for (int32_t g : {2, 3}) {
    b2.AppendRow({Value(g)});
    all.AppendRow({Value(g)});
  }
  HashAggregator w1(spec), w2(spec), merged(spec), direct(spec);
  ASSERT_TRUE(w1.Update(b1, {0, 1, 2}).ok());
  ASSERT_TRUE(w2.Update(b2, {0, 1}).ok());
  ASSERT_TRUE(merged.Merge(w1.Partial()).ok());
  ASSERT_TRUE(merged.Merge(w2.Partial()).ok());
  ASSERT_TRUE(direct.Update(all, {0, 1, 2, 3, 4}).ok());
  RecordBatch a = merged.Finish();
  RecordBatch e = direct.Finish();
  ASSERT_EQ(a.num_rows(), e.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.column(0).i64()[r], e.column(0).i64()[r]);
    EXPECT_EQ(a.column(1).i64()[r], e.column(1).i64()[r]);
  }
}

TEST(HashAggregatorTest, MergeMinMaxUsesOpSemantics) {
  AggSpec spec;
  spec.group_column = "g";
  spec.items = {{AggOp::kMin, "v", "min_v"}};
  auto schema =
      Schema::Make({{"g", DataType::kInt32}, {"v", DataType::kInt32}});
  HashAggregator a(spec), b(spec);
  RecordBatch r1(schema), r2(schema);
  r1.AppendRow({Value(int32_t{1}), Value(int32_t{5})});
  r2.AppendRow({Value(int32_t{1}), Value(int32_t{3})});
  ASSERT_TRUE(a.Update(r1, {0}).ok());
  ASSERT_TRUE(b.Update(r2, {0}).ok());
  ASSERT_TRUE(a.Merge(b.Partial()).ok());
  EXPECT_EQ(a.Finish().column(1).i64()[0], 3);
}

TEST(HashAggregatorTest, ErrorsOnBadInputs) {
  auto spec = AggSpec::CountStar("missing", false);
  HashAggregator agg(spec);
  auto schema = Schema::Make({{"g", DataType::kInt32}});
  RecordBatch b(schema);
  b.AppendRow({Value(int32_t{1})});
  EXPECT_FALSE(agg.Update(b, {0}).ok());

  auto str_spec = AggSpec::CountStar("g", /*extract_group=*/false);
  HashAggregator agg2(str_spec);
  auto str_schema = Schema::Make({{"g", DataType::kString}});
  RecordBatch sb(str_schema);
  sb.AppendRow({Value("x")});
  EXPECT_FALSE(agg2.Update(sb, {0}).ok());
}

// ------------------------------- JoinProber -------------------------------

TEST(JoinProberTest, JoinWithPostPredicateAndAggregation) {
  // Build: L'(joinKey, date); Probe: T'(joinKey, date).
  auto l_schema =
      Schema::Make({{"joinKey", DataType::kInt32}, {"ldate", DataType::kDate},
                    {"grp", DataType::kInt32}});
  auto t_schema =
      Schema::Make({{"joinKey", DataType::kInt32}, {"tdate", DataType::kDate}});
  RecordBatch l(l_schema);
  l.AppendRow({Value(int32_t{1}), Value(int32_t{100}), Value(int32_t{7})});
  l.AppendRow({Value(int32_t{1}), Value(int32_t{105}), Value(int32_t{7})});
  l.AppendRow({Value(int32_t{2}), Value(int32_t{100}), Value(int32_t{8})});
  JoinHashTable table(0);
  ASSERT_TRUE(table.AddBatch(std::move(l)).ok());
  table.Finalize();

  auto spec = AggSpec::CountStar("L.grp", false);
  HashAggregator agg(spec);
  JoinProber prober(&table, l_schema, "L", t_schema, "T", 0,
                    DiffRange("T.tdate", "L.ldate", 0, 1), &agg, nullptr);

  RecordBatch t(t_schema);
  t.AppendRow({Value(int32_t{1}), Value(int32_t{101})});  // joins ldate=100
  t.AppendRow({Value(int32_t{2}), Value(int32_t{100})});  // joins ldate=100
  t.AppendRow({Value(int32_t{2}), Value(int32_t{300})});  // date pred fails
  t.AppendRow({Value(int32_t{9}), Value(int32_t{100})});  // no key match
  ASSERT_TRUE(prober.ProbeBatch(t).ok());
  ASSERT_TRUE(prober.Flush().ok());

  EXPECT_EQ(prober.join_matches(), 4);  // key 1 matches 2 rows, key 2 twice
  EXPECT_EQ(prober.output_rows(), 2);
  RecordBatch out = agg.Finish();
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.column(0).i64(), (std::vector<int64_t>{7, 8}));
  EXPECT_EQ(out.column(1).i64(), (std::vector<int64_t>{1, 1}));
}

TEST(JoinProberTest, JoinedSchemaUsesAliases) {
  auto a = Schema::Make({{"k", DataType::kInt32}});
  auto b = Schema::Make({{"k", DataType::kInt32}});
  auto joined = MakeJoinedSchema(a, "L", b, "T");
  ASSERT_EQ(joined->num_fields(), 2u);
  EXPECT_EQ(joined->field(0).name, "L.k");
  EXPECT_EQ(joined->field(1).name, "T.k");
}

TEST(JoinProberTest, FlushesAcrossBatchBoundaries) {
  auto schema = Schema::Make({{"k", DataType::kInt32}});
  RecordBatch build(schema);
  for (int32_t i = 0; i < 10; ++i) build.AppendRow({Value(i)});
  JoinHashTable table(0);
  ASSERT_TRUE(table.AddBatch(std::move(build)).ok());
  table.Finalize();

  auto spec = AggSpec::CountStar("T.k", false);
  HashAggregator agg(spec);
  JoinProberOptions options;
  options.output_batch_rows = 3;  // force many internal flushes
  JoinProber prober(&table, schema, "L", schema, "T", 0, nullptr, &agg,
                    nullptr, options);
  RecordBatch probe(schema);
  for (int32_t i = 0; i < 10; ++i) probe.AppendRow({Value(i)});
  ASSERT_TRUE(prober.ProbeBatch(probe).ok());
  ASSERT_TRUE(prober.Flush().ok());
  EXPECT_EQ(prober.output_rows(), 10);
  EXPECT_EQ(agg.Finish().num_rows(), 10u);
}

// ------------------------------- Band walk --------------------------------

SchemaPtr BandJoinSchema() {
  return MakeJoinedSchema(
      Schema::Make({{"k", DataType::kInt32},
                    {"x", DataType::kDate},
                    {"grp", DataType::kInt32},
                    {"s", DataType::kString},
                    {"big", DataType::kInt64}}),
      "B",
      Schema::Make({{"k", DataType::kInt32},
                    {"v", DataType::kInt32},
                    {"w", DataType::kInt32}}),
      "P");
}

TEST(ExtractJoinBandTest, BothOrientations) {
  const SchemaPtr joined = BandJoinSchema();
  // lo <= p - x <= hi: x in [p - hi, p - lo].
  auto band = ExtractJoinBand(DiffRange("P.v", "B.x", 0, 1), joined, 5);
  ASSERT_TRUE(band.has_value());
  EXPECT_EQ(band->build_column, 1u);
  EXPECT_EQ(band->probe_column, 1u);
  EXPECT_EQ(band->lo_offset, -1);
  EXPECT_EQ(band->hi_offset, 0);
  EXPECT_EQ(band->residual, nullptr);
  // lo <= x - p <= hi: x in [p + lo, p + hi].
  band = ExtractJoinBand(DiffRange("B.x", "P.w", -1, 0), joined, 5);
  ASSERT_TRUE(band.has_value());
  EXPECT_EQ(band->build_column, 1u);
  EXPECT_EQ(band->probe_column, 2u);
  EXPECT_EQ(band->lo_offset, -1);
  EXPECT_EQ(band->hi_offset, 0);
}

TEST(ExtractJoinBandTest, SaturatesAtTheInt64Range) {
  const SchemaPtr joined = BandJoinSchema();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  auto band = ExtractJoinBand(DiffRange("P.v", "B.x", kMin, kMax), joined, 5);
  ASSERT_TRUE(band.has_value());
  EXPECT_EQ(band->lo_offset, -kMax);
  EXPECT_EQ(band->hi_offset, kMax);  // -kMin, saturated
  band = ExtractJoinBand(DiffRange("B.x", "P.v", kMin, kMax), joined, 5);
  ASSERT_TRUE(band.has_value());
  EXPECT_EQ(band->lo_offset, kMin);
  EXPECT_EQ(band->hi_offset, kMax);
}

TEST(ExtractJoinBandTest, ResidualKeepsTheOtherConjuncts) {
  const SchemaPtr joined = BandJoinSchema();
  auto band = ExtractJoinBand(
      And({Cmp("P.w", CmpOp::kLt, Value(int32_t{50})),
           And({DiffRange("P.v", "B.x", 0, 1), StrPrefix("B.s", "a")})}),
      joined, 5);
  ASSERT_TRUE(band.has_value());
  ASSERT_NE(band->residual, nullptr);
  EXPECT_EQ(band->residual->ToString(), "(P.w < 50 AND B.s LIKE 'a%')");

  band = ExtractJoinBand(And({DiffRange("P.v", "B.x", 0, 1),
                              Cmp("B.grp", CmpOp::kGe, Value(int32_t{2}))}),
                         joined, 5);
  ASSERT_TRUE(band.has_value());
  ASSERT_NE(band->residual, nullptr);
  EXPECT_EQ(band->residual->ToString(), "B.grp >= 2");

  // The first qualifying DiffRange is the band; a same-side one stays in
  // the residual.
  band = ExtractJoinBand(And({DiffRange("B.x", "B.grp", 0, 9),
                              DiffRange("B.x", "P.v", -2, 2)}),
                         joined, 5);
  ASSERT_TRUE(band.has_value());
  EXPECT_EQ(band->probe_column, 1u);
  ASSERT_NE(band->residual, nullptr);
  EXPECT_EQ(band->residual->ToString(), "B.x - B.grp BETWEEN 0 AND 9");
}

TEST(ExtractJoinBandTest, NoBandTakesThePlainPath) {
  const SchemaPtr joined = BandJoinSchema();
  const PredicatePtr band = DiffRange("P.v", "B.x", 0, 1);
  const std::vector<std::pair<std::string, PredicatePtr>> none = {
      {"null", nullptr},
      {"no DiffRange", Cmp("P.w", CmpOp::kLt, Value(int32_t{50}))},
      {"under OR", Or({band, Cmp("P.w", CmpOp::kLt, Value(int32_t{50}))})},
      {"under NOT", Not(band)},
      {"both build columns", DiffRange("B.x", "B.grp", 0, 1)},
      {"both probe columns", DiffRange("P.v", "P.w", 0, 1)},
      {"string column", DiffRange("P.v", "B.s", 0, 1)},
      {"int64 column", DiffRange("P.v", "B.big", 0, 1)},
      {"missing column", DiffRange("P.v", "B.nope", 0, 1)},
      {"residual with a missing column",
       And({band, Cmp("B.nope", CmpOp::kLt, Value(int32_t{1}))})},
      {"residual with a type error",
       And({band, Cmp("B.s", CmpOp::kLt, Value(int32_t{1}))})},
  };
  for (const auto& [name, pred] : none) {
    EXPECT_FALSE(ExtractJoinBand(pred, joined, 5).has_value()) << name;
  }
}

struct BandJoinInputs {
  SchemaPtr build_schema = Schema::Make({{"k", DataType::kInt32},
                                         {"x", DataType::kDate},
                                         {"grp", DataType::kInt32}});
  SchemaPtr probe_schema = Schema::Make({{"k", DataType::kInt32},
                                         {"v", DataType::kDate},
                                         {"w", DataType::kInt32}});
  std::vector<RecordBatch> build;
  std::vector<RecordBatch> probe;
};

/// `build_rows` rows over `keys` keys and a 30-day band domain (40 rows per
/// key is the paper's L' shape); `keys` = 1 makes every build row share one
/// key.
BandJoinInputs MakeBandJoinInputs(int32_t keys, int32_t build_rows) {
  BandJoinInputs in;
  Rng rng(31);
  RecordBatch b(in.build_schema);
  for (int32_t i = 0; i < build_rows; ++i) {
    b.AppendRow({Value(static_cast<int32_t>(rng.Uniform(keys))),
                 Value(static_cast<int32_t>(rng.Uniform(30))),
                 Value(static_cast<int32_t>(rng.Uniform(9)))});
    if (b.num_rows() == 500) {
      in.build.push_back(std::move(b));
      b = RecordBatch(in.build_schema);
    }
  }
  if (b.num_rows() > 0) in.build.push_back(std::move(b));
  RecordBatch p(in.probe_schema);
  for (int32_t i = 0; i < 3000; ++i) {
    p.AppendRow({Value(static_cast<int32_t>(rng.Uniform(keys + 3))),
                 Value(static_cast<int32_t>(rng.Uniform(32))),
                 Value(static_cast<int32_t>(rng.Uniform(100)))});
    if (p.num_rows() == 700) {
      in.probe.push_back(std::move(p));
      p = RecordBatch(in.probe_schema);
    }
  }
  if (p.num_rows() > 0) in.probe.push_back(std::move(p));
  return in;
}

AggSpec BandAgg() {
  AggSpec spec;
  spec.group_column = "B.grp";
  spec.items = {{AggOp::kCountStar, "", "n"},
                {AggOp::kSum, "P.w", "sum_w"},
                {AggOp::kMin, "B.x", "min_x"}};
  return spec;
}

struct ProbeRun {
  RecordBatch result;
  int64_t join_matches = 0;
  int64_t output_rows = 0;
  int64_t band_visited = 0;
};

ProbeRun ProbeWith(const BandJoinInputs& in, const PredicatePtr& pred,
                   std::optional<size_t> band_column) {
  JoinHashTable table(0, 4, /*governor=*/nullptr, band_column);
  for (RecordBatch b : in.build) HJ_CHECK_OK(table.AddBatch(std::move(b)));
  table.Finalize();
  Metrics metrics;
  HashAggregator agg(BandAgg());
  JoinProberOptions options;
  options.output_batch_rows = 5;  // chunks split mid-match-list
  JoinProber prober(&table, in.build_schema, "B", in.probe_schema, "P", 0,
                    pred, &agg, &metrics, options);
  for (const RecordBatch& b : in.probe) HJ_CHECK_OK(prober.ProbeBatch(b));
  HJ_CHECK_OK(prober.Flush());
  EXPECT_EQ(metrics.Get(metric::kJoinOutputTuples), prober.output_rows());
  return {agg.Finish(), prober.join_matches(), prober.output_rows(),
          metrics.Get(metric::kJoinBandVisited)};
}

void ExpectSameResult(const RecordBatch& want, const RecordBatch& got) {
  ASSERT_EQ(want.num_rows(), got.num_rows());
  ASSERT_EQ(want.num_columns(), got.num_columns());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    for (size_t r = 0; r < want.num_rows(); ++r) {
      EXPECT_EQ(want.column(c).GetValue(r), got.column(c).GetValue(r))
          << "column " << c << " row " << r;
    }
  }
}

std::vector<std::pair<std::string, PredicatePtr>> BandPredicates() {
  return {
      {"paper band", DiffRange("P.v", "B.x", 0, 1)},
      {"swapped", DiffRange("B.x", "P.v", -1, 0)},
      {"wide", DiffRange("P.v", "B.x", -10, 25)},
      {"negative", DiffRange("P.v", "B.x", -4, -2)},
      {"empty", DiffRange("P.v", "B.x", 1, 0)},
      {"band and residual",
       And({Cmp("B.grp", CmpOp::kGe, Value(int32_t{3})),
            DiffRange("P.v", "B.x", -2, 2),
            Cmp("P.w", CmpOp::kLt, Value(int32_t{60}))})},
  };
}

TEST(JoinProberBandTest, BandWalkEqualsTheFullFilter) {
  const BandJoinInputs in = MakeBandJoinInputs(120, 120 * 40);
  const SchemaPtr joined =
      MakeJoinedSchema(in.build_schema, "B", in.probe_schema, "P");
  for (const auto& [name, pred] : BandPredicates()) {
    SCOPED_TRACE(name);
    const auto band = ExtractJoinBand(pred, joined, 3);
    ASSERT_TRUE(band.has_value());
    const ProbeRun plain = ProbeWith(in, pred, std::nullopt);
    const ProbeRun walked = ProbeWith(in, pred, band->build_column);
    EXPECT_EQ(walked.join_matches, plain.join_matches);
    EXPECT_EQ(walked.output_rows, plain.output_rows);
    ExpectSameResult(plain.result, walked.result);
    EXPECT_EQ(plain.band_visited, 0);  // an unordered table: no walk
    EXPECT_LE(walked.band_visited, walked.join_matches);
    if (name != "empty") {
      EXPECT_GT(walked.output_rows, 0);
      EXPECT_GE(walked.band_visited, walked.output_rows);
    }
  }
}

TEST(JoinProberBandTest, PlainPathErrorsAreKept) {
  // A residual that cannot evaluate keeps the whole predicate on the plain
  // path, which reports the error on the first probe with an equi-match.
  const BandJoinInputs in = MakeBandJoinInputs(10, 400);
  JoinHashTable table(0, 1, /*governor=*/nullptr, /*band_column=*/1);
  for (RecordBatch b : in.build) ASSERT_TRUE(table.AddBatch(std::move(b)).ok());
  table.Finalize();
  HashAggregator agg(BandAgg());
  JoinProber prober(&table, in.build_schema, "B", in.probe_schema, "P", 0,
                    And({Cmp("B.nope", CmpOp::kLt, Value(int32_t{1})),
                         DiffRange("P.v", "B.x", 1, 0)}),
                    &agg, nullptr);
  EXPECT_FALSE(prober.ProbeBatch(in.probe[0]).ok());
}

RecordBatch GraceBandJoin(const BandJoinInputs& in, const PredicatePtr& pred,
                          uint64_t budget, Metrics* metrics,
                          uint32_t* spilled) {
  SpillArea spill(0, 0, metrics);
  HashAggregator agg(BandAgg());
  GraceJoinOptions options;
  options.memory_budget_bytes = budget;
  options.num_partitions = 8;
  GraceHashJoin join(in.build_schema, "B", 0, in.probe_schema, "P", 0, pred,
                     &agg, metrics, &spill, options);
  for (RecordBatch b : in.build) HJ_CHECK_OK(join.AddBuild(std::move(b)));
  HJ_CHECK_OK(join.FinishBuild());
  for (const RecordBatch& b : in.probe) HJ_CHECK_OK(join.AddProbe(b));
  HJ_CHECK_OK(join.Finish());
  *spilled = join.spilled_partitions();
  return agg.Finish();
}

TEST(GraceJoinBandTest, SpilledPairsAndBlockNestedLoopMatchResident) {
  // One key: every build row shares it, so re-salting cannot split the
  // spilled pair and it falls back to the block-nested loop.
  for (int32_t keys : {120, 1}) {
    SCOPED_TRACE("keys=" + std::to_string(keys));
    const BandJoinInputs in =
        MakeBandJoinInputs(keys, keys == 1 ? 1000 : keys * 40);
    for (const auto& [name, pred] : BandPredicates()) {
      SCOPED_TRACE(name);
      const ProbeRun plain = ProbeWith(in, pred, std::nullopt);
      Metrics resident_metrics, tiny_metrics;
      uint32_t resident_spilled = 99, tiny_spilled = 0;
      const RecordBatch resident =
          GraceBandJoin(in, pred, 0, &resident_metrics, &resident_spilled);
      const RecordBatch tiny =
          GraceBandJoin(in, pred, 2048, &tiny_metrics, &tiny_spilled);
      EXPECT_EQ(resident_spilled, 0u);
      EXPECT_GT(tiny_spilled, 0u);
      if (keys == 1) {
        EXPECT_EQ(tiny_metrics.Get(metric::kJoinRepartitionDepth), 3);
      }
      ExpectSameResult(plain.result, resident);
      ExpectSameResult(plain.result, tiny);
      EXPECT_EQ(resident_metrics.Get(metric::kJoinOutputTuples),
                plain.output_rows);
      EXPECT_EQ(tiny_metrics.Get(metric::kJoinOutputTuples),
                plain.output_rows);
      if (name != "empty") {
        EXPECT_GT(resident_metrics.Get(metric::kJoinBandVisited), 0);
        EXPECT_GT(tiny_metrics.Get(metric::kJoinBandVisited), 0);
      }
    }
  }
}

}  // namespace
}  // namespace hybridjoin
