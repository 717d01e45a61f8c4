// Unit tests for the EDW substrate: partitioned tables, worker scans, the
// sorted composite index and index-only Bloom builds.

#include <gtest/gtest.h>

#include <set>

#include "common/hash.h"
#include "common/random.h"
#include "edw/db_cluster.h"

namespace hybridjoin {
namespace {

SchemaPtr TSchema() {
  return Schema::Make({{"uniqKey", DataType::kInt64},
                       {"joinKey", DataType::kInt32},
                       {"corPred", DataType::kInt32},
                       {"indPred", DataType::kInt32}});
}

RecordBatch MakeRows(size_t n, uint64_t seed = 1) {
  RecordBatch b(TSchema());
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    b.AppendRow({Value(static_cast<int64_t>(i)),
                 Value(static_cast<int32_t>(rng.Uniform(100))),
                 Value(static_cast<int32_t>(rng.Uniform(1000))),
                 Value(static_cast<int32_t>(rng.Uniform(1000)))});
  }
  return b;
}

class DbClusterTest : public testing::Test {
 protected:
  void SetUp() override {
    DbConfig config;
    config.num_workers = 4;
    config.batch_rows = 256;
    cluster_ = std::make_unique<DbCluster>(config);
    ASSERT_TRUE(cluster_->CreateTable({"T", TSchema(), "uniqKey"}).ok());
    rows_ = MakeRows(5000);
    ASSERT_TRUE(cluster_->LoadTable("T", rows_).ok());
  }
  std::unique_ptr<DbCluster> cluster_;
  RecordBatch rows_{TSchema()};
};

TEST_F(DbClusterTest, CatalogBasics) {
  EXPECT_EQ(cluster_->CreateTable({"T", TSchema(), "uniqKey"}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(cluster_->CreateTable({"X", TSchema(), "nope"}).ok());
  EXPECT_FALSE(cluster_->LookupTable("missing").ok());
  auto meta = cluster_->LookupTable("T");
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->distribution_column, "uniqKey");
}

// Each worker holds exactly the rows the distribution hash sends it, in
// source order, in batches of exactly batch_rows but the last.
TEST_F(DbClusterTest, PartitioningIsCompleteAndDisjoint) {
  EXPECT_EQ(cluster_->TableRows("T").value(), 5000u);
  std::set<int64_t> seen;
  size_t total = 0;
  for (uint32_t w = 0; w < 4; ++w) {
    SCOPED_TRACE(w);
    auto part = cluster_->worker(w)->Partition("T");
    ASSERT_TRUE(part.ok());
    std::vector<int64_t> keys;
    for (size_t b = 0; b < (*part)->size(); ++b) {
      const RecordBatch& batch = (**part)[b];
      if (b + 1 < (*part)->size()) {
        EXPECT_EQ(batch.num_rows(), 256u);
      } else {
        EXPECT_GE(batch.num_rows(), 1u);
        EXPECT_LE(batch.num_rows(), 256u);
      }
      total += batch.num_rows();
      for (int64_t k : batch.column(0).i64()) {
        EXPECT_TRUE(seen.insert(k).second) << "duplicate row " << k;
        keys.push_back(k);
      }
    }
    std::vector<int64_t> want;
    for (int64_t k : rows_.column(0).i64()) {
      if (HashInt64(static_cast<uint64_t>(k), 0xd157ULL) % 4 == w) {
        want.push_back(k);
      }
    }
    EXPECT_EQ(keys, want);
  }
  EXPECT_EQ(total, 5000u);
  EXPECT_EQ(seen.size(), 5000u);
}

TEST_F(DbClusterTest, PartitionsBalanced) {
  for (uint32_t w = 0; w < 4; ++w) {
    size_t rows = 0;
    for (const RecordBatch& b : **cluster_->worker(w)->Partition("T")) {
      rows += b.num_rows();
    }
    EXPECT_NEAR(static_cast<double>(rows), 1250.0, 200.0);
  }
}

TEST_F(DbClusterTest, ScanFilterProjectMatchesDirectEvaluation) {
  Metrics metrics;
  auto pred = And({Cmp("corPred", CmpOp::kLt, 300),
                   Cmp("indPred", CmpOp::kGe, 500)});
  size_t distributed = 0;
  for (uint32_t w = 0; w < 4; ++w) {
    auto out = cluster_->worker(w)->ScanFilterProject(
        "T", pred, {"joinKey", "corPred"}, &metrics);
    ASSERT_TRUE(out.ok());
    for (const RecordBatch& b : *out) {
      ASSERT_EQ(b.num_columns(), 2u);
      EXPECT_EQ(b.schema()->field(0).name, "joinKey");
      for (size_t r = 0; r < b.num_rows(); ++r) {
        EXPECT_LT(b.column(1).i32()[r], 300);
      }
      distributed += b.num_rows();
    }
  }
  auto expected = pred->FilterAll(rows_);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(distributed, expected->size());
  EXPECT_EQ(metrics.Get(metric::kDbTuplesScanned), 5000);
  EXPECT_EQ(metrics.Get(metric::kDbTuplesAfterFilter),
            static_cast<int64_t>(expected->size()));
}

TEST_F(DbClusterTest, ScanRejectsBadInput) {
  Metrics metrics;
  EXPECT_FALSE(cluster_->worker(0)
                   ->ScanFilterProject("missing", nullptr, {"joinKey"},
                                       &metrics)
                   .ok());
  EXPECT_FALSE(cluster_->worker(0)
                   ->ScanFilterProject("T", nullptr, {"missingCol"}, &metrics)
                   .ok());
}

TEST_F(DbClusterTest, BloomViaIndexMatchesBloomViaScan) {
  ASSERT_TRUE(
      cluster_->CreateIndex("T", {"corPred", "indPred", "joinKey"}).ok());
  auto pred = And({Cmp("corPred", CmpOp::kLt, 200),
                   Cmp("indPred", CmpOp::kLt, 700)});
  const BloomParams params = BloomParams::ForKeys(100);
  for (uint32_t w = 0; w < 4; ++w) {
    bool used_index = false;
    auto with_index = cluster_->worker(w)->BuildLocalBloom(
        "T", pred, "joinKey", params, &used_index);
    ASSERT_TRUE(with_index.ok());
    EXPECT_TRUE(used_index) << "covering index should be used";
  }

  // A fresh cluster without the index must produce an identical filter.
  DbConfig config;
  config.num_workers = 4;
  config.batch_rows = 256;
  DbCluster no_index(config);
  ASSERT_TRUE(no_index.CreateTable({"T", TSchema(), "uniqKey"}).ok());
  ASSERT_TRUE(no_index.LoadTable("T", rows_).ok());
  for (uint32_t w = 0; w < 4; ++w) {
    bool used_index = true;
    auto via_scan = no_index.worker(w)->BuildLocalBloom("T", pred, "joinKey",
                                                        params, &used_index);
    ASSERT_TRUE(via_scan.ok());
    EXPECT_FALSE(used_index);
    bool dummy = false;
    auto via_index = cluster_->worker(w)->BuildLocalBloom(
        "T", pred, "joinKey", params, &dummy);
    ASSERT_TRUE(via_index.ok());
    EXPECT_EQ(via_scan->FillRatio(), via_index->FillRatio());
  }
}

TEST_F(DbClusterTest, IndexNotUsedWhenNotCovering) {
  ASSERT_TRUE(cluster_->CreateIndex("T", {"corPred", "joinKey"}).ok());
  auto pred = And({Cmp("corPred", CmpOp::kLt, 200),
                   Cmp("indPred", CmpOp::kLt, 700)});  // indPred not indexed
  bool used_index = true;
  auto bloom = cluster_->worker(0)->BuildLocalBloom(
      "T", pred, "joinKey", BloomParams::ForKeys(100), &used_index);
  ASSERT_TRUE(bloom.ok());
  EXPECT_FALSE(used_index);
}

// --------------------------- DbPartitionIndex -----------------------------

TEST(DbPartitionIndexTest, RangeScanWithResiduals) {
  RecordBatch rows = MakeRows(2000, 3);
  auto index = DbPartitionIndex::Build({rows}, {"corPred", "indPred",
                                                "joinKey"});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_entries(), 2000u);

  std::vector<ConjunctiveIntCmp> cmps = {{"corPred", CmpOp::kLt, 250},
                                         {"indPred", CmpOp::kGe, 800}};
  std::multiset<int64_t> from_index;
  ASSERT_TRUE(index
                  ->ScanValues(cmps, "joinKey",
                               [&](int64_t v) { from_index.insert(v); })
                  .ok());
  std::multiset<int64_t> expected;
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    if (rows.column(2).i32()[r] < 250 && rows.column(3).i32()[r] >= 800) {
      expected.insert(rows.column(1).i32()[r]);
    }
  }
  EXPECT_EQ(from_index, expected);
  EXPECT_FALSE(expected.empty());
}

TEST(DbPartitionIndexTest, EqAndBetweenBounds) {
  RecordBatch rows = MakeRows(500, 4);
  auto index = DbPartitionIndex::Build({rows}, {"corPred", "joinKey"});
  ASSERT_TRUE(index.ok());
  // corPred == X via two bounds.
  const int32_t target = rows.column(2).i32()[0];
  std::vector<ConjunctiveIntCmp> cmps = {{"corPred", CmpOp::kGe, target},
                                         {"corPred", CmpOp::kLe, target}};
  size_t count = 0;
  ASSERT_TRUE(
      index->ScanValues(cmps, "joinKey", [&](int64_t) { ++count; }).ok());
  size_t expected = 0;
  for (int32_t v : rows.column(2).i32()) expected += (v == target);
  EXPECT_EQ(count, expected);
}

TEST(DbPartitionIndexTest, EmptyRangeIsEmpty) {
  RecordBatch rows = MakeRows(100, 5);
  auto index = DbPartitionIndex::Build({rows}, {"corPred"});
  ASSERT_TRUE(index.ok());
  size_t count = 0;
  ASSERT_TRUE(index
                  ->ScanValues({{"corPred", CmpOp::kLt, -5}}, "corPred",
                               [&](int64_t) { ++count; })
                  .ok());
  EXPECT_EQ(count, 0u);
}

TEST(DbPartitionIndexTest, RejectsNonIntegerColumns) {
  auto schema = Schema::Make({{"s", DataType::kString}});
  RecordBatch rows(schema);
  rows.AppendRow({Value("x")});
  EXPECT_FALSE(DbPartitionIndex::Build({rows}, {"s"}).ok());
  EXPECT_FALSE(DbPartitionIndex::Build({rows}, {}).ok());
}

TEST(DbPartitionIndexTest, CoversLogic) {
  RecordBatch rows = MakeRows(10, 6);
  auto index =
      DbPartitionIndex::Build({rows}, {"corPred", "indPred", "joinKey"});
  ASSERT_TRUE(index.ok());
  auto covered = And({Cmp("corPred", CmpOp::kLt, 1),
                      Cmp("indPred", CmpOp::kLt, 1)});
  EXPECT_TRUE(index->Covers(*covered, "joinKey"));
  EXPECT_FALSE(index->Covers(*covered, "uniqKey"));  // output not indexed
  auto uncovered = Cmp("uniqKey", CmpOp::kLt, 5);
  EXPECT_FALSE(index->Covers(*uncovered, "joinKey"));
  auto disjunct = Or({Cmp("corPred", CmpOp::kLt, 1),
                      Cmp("indPred", CmpOp::kLt, 1)});
  EXPECT_FALSE(index->Covers(*disjunct, "joinKey"));
}

}  // namespace
}  // namespace hybridjoin
