// Unit tests for the HDFS substrate: DataNode storage + page cache,
// NameNode placement/metadata, HCatalog, and the table writer.

#include <gtest/gtest.h>

#include <set>

#include "common/stopwatch.h"
#include "hdfs/hcatalog.h"
#include "hdfs/table_writer.h"

namespace hybridjoin {
namespace {

std::shared_ptr<const StoredBlock> TextBlock(size_t bytes, uint32_t rows) {
  auto block = std::make_shared<StoredBlock>();
  block->format = HdfsFormat::kText;
  block->text = std::make_shared<const std::vector<uint8_t>>(
      std::vector<uint8_t>(bytes, 'x'));
  block->num_rows = rows;
  return block;
}

// ------------------------------- DataNode ---------------------------------

TEST(DataNodeTest, StoreAndFetch) {
  DataNode node(0, DataNodeConfig{});
  ASSERT_TRUE(node.StoreBlock(1, 0, TextBlock(100, 10)).ok());
  auto fetched = node.Fetch(1);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ((*fetched)->ByteSize(), 100u);
  EXPECT_FALSE(node.Fetch(2).ok());
}

TEST(DataNodeTest, DuplicateBlockRejected) {
  DataNode node(0, DataNodeConfig{});
  ASSERT_TRUE(node.StoreBlock(1, 0, TextBlock(10, 1)).ok());
  EXPECT_EQ(node.StoreBlock(1, 1, TextBlock(10, 1)).code(),
              StatusCode::kAlreadyExists);
}

TEST(DataNodeTest, BadDiskRejected) {
  DataNodeConfig config;
  config.num_disks = 2;
  DataNode node(0, config);
  EXPECT_FALSE(node.StoreBlock(1, 5, TextBlock(10, 1)).ok());
}

TEST(DataNodeTest, SecondReadIsWarm) {
  DataNode node(0, DataNodeConfig{});
  ASSERT_TRUE(node.StoreBlock(1, 0, TextBlock(1000, 10)).ok());
  EXPECT_FALSE(node.AccountRead(1, 1000));  // cold
  EXPECT_TRUE(node.AccountRead(1, 1000));   // warm
  EXPECT_EQ(node.CacheUsedBytes(), 1000u);
  node.DropCache();
  EXPECT_EQ(node.CacheUsedBytes(), 0u);
  EXPECT_FALSE(node.AccountRead(1, 1000));  // cold again
}

TEST(DataNodeTest, CacheEvictsLruWhenFull) {
  DataNodeConfig config;
  config.cache_capacity_bytes = 2500;
  DataNode node(0, config);
  for (uint64_t b = 1; b <= 3; ++b) {
    ASSERT_TRUE(node.StoreBlock(b, 0, TextBlock(1000, 1)).ok());
  }
  node.AccountRead(1, 1000);
  node.AccountRead(2, 1000);
  node.AccountRead(3, 1000);  // evicts 1 (capacity 2500 fits two blocks)
  EXPECT_TRUE(node.AccountRead(3, 1000));
  EXPECT_TRUE(node.AccountRead(2, 1000));
  EXPECT_FALSE(node.AccountRead(1, 1000));  // was evicted -> cold
}

TEST(DataNodeTest, OversizedBlockBypassesCache) {
  DataNodeConfig config;
  config.cache_capacity_bytes = 100;
  DataNode node(0, config);
  ASSERT_TRUE(node.StoreBlock(1, 0, TextBlock(1000, 1)).ok());
  EXPECT_FALSE(node.AccountRead(1, 1000));
  EXPECT_FALSE(node.AccountRead(1, 1000));  // never cached
  EXPECT_EQ(node.CacheUsedBytes(), 0u);
}

TEST(DataNodeTest, ColdReadsThrottledWarmReadsFast) {
  DataNodeConfig config;
  config.disk_read_bps = 4 * 1024 * 1024;   // 4 MB/s cold
  config.cache_read_bps = 0;                // warm unlimited
  DataNode node(0, config);
  ASSERT_TRUE(node.StoreBlock(1, 0, TextBlock(1 << 20, 1)).ok());
  Stopwatch cold;
  node.AccountRead(1, (1 << 20) + 512 * 1024);  // ~1.5MB beyond burst
  EXPECT_GT(cold.ElapsedSeconds(), 0.15);
  Stopwatch warm;
  node.AccountRead(1, 1 << 20);
  EXPECT_LT(warm.ElapsedSeconds(), 0.05);
}

// ------------------------------- NameNode ---------------------------------

class NameNodeTest : public testing::Test {
 protected:
  void SetUp() override {
    DataNodeConfig config;
    config.num_disks = 2;
    for (uint32_t i = 0; i < 4; ++i) {
      nodes_.push_back(std::make_unique<DataNode>(i, config));
      ptrs_.push_back(nodes_.back().get());
    }
  }
  std::vector<std::unique_ptr<DataNode>> nodes_;
  std::vector<DataNode*> ptrs_;
};

TEST_F(NameNodeTest, FileLifecycle) {
  NameNode nn(ptrs_, 2);
  EXPECT_FALSE(nn.FileExists("/a"));
  ASSERT_TRUE(nn.CreateFile("/a").ok());
  EXPECT_TRUE(nn.FileExists("/a"));
  EXPECT_EQ(nn.CreateFile("/a").code(),
              StatusCode::kAlreadyExists);
  ASSERT_TRUE(nn.DeleteFile("/a").ok());
  EXPECT_FALSE(nn.FileExists("/a"));
  EXPECT_FALSE(nn.DeleteFile("/a").ok());
  EXPECT_FALSE(nn.GetBlocks("/a").ok());
}

TEST_F(NameNodeTest, ReplicationOnDistinctNodes) {
  NameNode nn(ptrs_, 2);
  ASSERT_TRUE(nn.CreateFile("/f").ok());
  for (int b = 0; b < 20; ++b) {
    ASSERT_TRUE(nn.AppendBlock("/f", TextBlock(100, 5)).ok());
  }
  auto blocks = nn.GetBlocks("/f");
  ASSERT_TRUE(blocks.ok());
  ASSERT_EQ(blocks->size(), 20u);
  for (const BlockInfo& b : *blocks) {
    ASSERT_EQ(b.replicas.size(), 2u);
    EXPECT_NE(b.replicas[0].node, b.replicas[1].node);
    EXPECT_EQ(b.num_rows, 5u);
    EXPECT_EQ(b.byte_size, 100u);
    // Every replica is actually fetchable from its DataNode.
    for (const ReplicaLocation& r : b.replicas) {
      EXPECT_TRUE(ptrs_[r.node]->Fetch(b.block_id).ok());
    }
  }
}

TEST_F(NameNodeTest, PrimariesSpreadEvenly) {
  NameNode nn(ptrs_, 2);
  ASSERT_TRUE(nn.CreateFile("/f").ok());
  for (int b = 0; b < 40; ++b) {
    ASSERT_TRUE(nn.AppendBlock("/f", TextBlock(10, 1)).ok());
  }
  std::vector<int> primaries(4, 0);
  const auto blocks = nn.GetBlocks("/f");
  ASSERT_TRUE(blocks.ok());
  for (const BlockInfo& b : *blocks) {
    primaries[b.replicas[0].node]++;
  }
  for (int c : primaries) EXPECT_EQ(c, 10);
}

TEST_F(NameNodeTest, ReplicationClampedToClusterSize) {
  NameNode nn(ptrs_, 10);  // more replicas than nodes
  ASSERT_TRUE(nn.CreateFile("/f").ok());
  ASSERT_TRUE(nn.AppendBlock("/f", TextBlock(10, 1)).ok());
  EXPECT_EQ((*nn.GetBlocks("/f"))[0].replicas.size(), 4u);
}

TEST_F(NameNodeTest, FileSizeSumsBlocks) {
  NameNode nn(ptrs_, 1);
  ASSERT_TRUE(nn.CreateFile("/f").ok());
  ASSERT_TRUE(nn.AppendBlock("/f", TextBlock(100, 1)).ok());
  ASSERT_TRUE(nn.AppendBlock("/f", TextBlock(250, 1)).ok());
  EXPECT_EQ(nn.FileSize("/f").value(), 350u);
}

// ------------------------------- HCatalog ---------------------------------

TEST(HCatalogTest, RegisterLookupDrop) {
  HCatalog catalog;
  HdfsTableMeta meta;
  meta.name = "L";
  meta.path = "/warehouse/L";
  meta.schema = Schema::Make({{"k", DataType::kInt32}});
  meta.format = HdfsFormat::kText;
  meta.num_rows = 7;
  ASSERT_TRUE(catalog.RegisterTable(meta).ok());
  EXPECT_EQ(catalog.RegisterTable(meta).code(),
              StatusCode::kAlreadyExists);
  auto found = catalog.Lookup("L");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->path, "/warehouse/L");
  EXPECT_EQ(found->num_rows, 7u);
  EXPECT_EQ(catalog.ListTables(), std::vector<std::string>{"L"});
  ASSERT_TRUE(catalog.DropTable("L").ok());
  EXPECT_FALSE(catalog.Lookup("L").ok());
}

TEST(HCatalogTest, RejectsInvalidMeta) {
  HCatalog catalog;
  HdfsTableMeta no_name;
  no_name.schema = Schema::Make({{"k", DataType::kInt32}});
  EXPECT_FALSE(catalog.RegisterTable(no_name).ok());
  HdfsTableMeta no_schema;
  no_schema.name = "x";
  EXPECT_FALSE(catalog.RegisterTable(no_schema).ok());
}

// ------------------------------ TableWriter -------------------------------

class TableWriterTest : public NameNodeTest {};

TEST_F(TableWriterTest, WritesBlocksAndRegisters) {
  NameNode nn(ptrs_, 2);
  HCatalog catalog;
  auto schema =
      Schema::Make({{"k", DataType::kInt32}, {"s", DataType::kString}});
  HdfsWriteOptions options;
  options.format = HdfsFormat::kColumnar;
  options.rows_per_block = 100;
  HdfsTableWriter writer(&nn, &catalog, "L", schema, options);
  ASSERT_TRUE(writer.Open().ok());
  RecordBatch batch(schema);
  for (int i = 0; i < 450; ++i) {
    batch.AppendRow({Value(int32_t{i}), Value("s" + std::to_string(i))});
  }
  ASSERT_TRUE(writer.Append(batch).ok());
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(writer.rows_written(), 450u);

  auto meta = catalog.Lookup("L");
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->num_rows, 450u);
  auto blocks = nn.GetBlocks(meta->path);
  ASSERT_TRUE(blocks.ok());
  ASSERT_EQ(blocks->size(), 5u);  // 4 x 100 + 1 x 50
  EXPECT_EQ((*blocks)[4].num_rows, 50u);

  // The stored blocks decode back to the original rows.
  auto stored = ptrs_[(*blocks)[0].replicas[0].node]->Fetch(
      (*blocks)[0].block_id);
  ASSERT_TRUE(stored.ok());
  auto decoded = DecodeColumnarBlock(*(*stored)->columnar, schema, {0, 1});
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->column(0).i32()[99], 99);
}

TEST_F(TableWriterTest, PoolEncodesTheSameBlocksInOrder) {
  auto schema = Schema::Make({{"k", DataType::kInt32},
                              {"d", DataType::kDate},
                              {"s", DataType::kString}});
  // Batches smaller than a block, spanning several, and ending mid-block.
  std::vector<RecordBatch> batches;
  int row = 0;
  for (int n : {30, 250, 70, 400, 1, 99, 333}) {
    RecordBatch b(schema);
    for (int i = 0; i < n; ++i, ++row) {
      b.AppendRow({Value(int32_t{row * 7919 % 5000}),
                   Value(int32_t{16000 + row % 365}),
                   Value("g" + std::to_string(row % 13) + "/products/item" +
                         std::to_string(row * 31 % 1000))});
    }
    batches.push_back(std::move(b));
  }
  for (HdfsFormat format : {HdfsFormat::kColumnar, HdfsFormat::kText}) {
    SCOPED_TRACE(HdfsFormatName(format));
    HdfsWriteOptions options;
    options.format = format;
    options.rows_per_block = 100;
    // Each write gets its own DataNodes: block ids restart per NameNode.
    auto write = [&](ThreadPool* pool) {
      std::vector<std::unique_ptr<DataNode>> nodes;
      std::vector<DataNode*> ptrs;
      for (uint32_t i = 0; i < 2; ++i) {
        nodes.push_back(std::make_unique<DataNode>(i, DataNodeConfig{}));
        ptrs.push_back(nodes.back().get());
      }
      NameNode nn(ptrs, 1);
      HCatalog catalog;
      HdfsTableWriter writer(&nn, &catalog, "L", schema, options, pool);
      EXPECT_TRUE(writer.Open().ok());
      for (const RecordBatch& b : batches) EXPECT_TRUE(writer.Append(b).ok());
      EXPECT_TRUE(writer.Close().ok());
      EXPECT_EQ(writer.rows_written(), static_cast<uint64_t>(row));
      std::vector<std::shared_ptr<const StoredBlock>> stored;
      const std::vector<BlockInfo> blocks =
          nn.GetBlocks("/warehouse/L").value();
      for (const BlockInfo& info : blocks) {
        stored.push_back(
            ptrs[info.replicas[0].node]->Fetch(info.block_id).value());
      }
      return stored;
    };
    ThreadPool pool(3);
    const auto sequential = write(nullptr);
    const auto parallel = write(&pool);
    ASSERT_EQ(sequential.size(), 12u);  // 1183 rows in blocks of 100
    ASSERT_EQ(parallel.size(), sequential.size());
    for (size_t b = 0; b < sequential.size(); ++b) {
      const StoredBlock& x = *sequential[b];
      const StoredBlock& y = *parallel[b];
      ASSERT_EQ(x.num_rows, y.num_rows) << "block " << b;
      if (format == HdfsFormat::kText) {
        EXPECT_EQ(*x.text, *y.text) << "block " << b;
        continue;
      }
      ASSERT_EQ(x.columnar->chunks.size(), y.columnar->chunks.size());
      for (size_t c = 0; c < x.columnar->chunks.size(); ++c) {
        const ColumnChunk& cx = x.columnar->chunks[c];
        const ColumnChunk& cy = y.columnar->chunks[c];
        EXPECT_EQ(cx.encoding, cy.encoding);
        EXPECT_EQ(cx.codec, cy.codec);
        EXPECT_EQ(cx.data, cy.data) << "block " << b << " column " << c;
        EXPECT_EQ(cx.min_val, cy.min_val);
        EXPECT_EQ(cx.max_val, cy.max_val);
      }
    }
  }
}

TEST_F(TableWriterTest, SchemaMismatchRejected) {
  NameNode nn(ptrs_, 1);
  HCatalog catalog;
  auto schema = Schema::Make({{"k", DataType::kInt32}});
  HdfsTableWriter writer(&nn, &catalog, "L", schema, HdfsWriteOptions{});
  ASSERT_TRUE(writer.Open().ok());
  RecordBatch wrong(Schema::Make({{"z", DataType::kString}}));
  wrong.AppendRow({Value("x")});
  EXPECT_FALSE(writer.Append(wrong).ok());
}

TEST_F(TableWriterTest, LifecycleErrors) {
  NameNode nn(ptrs_, 1);
  HCatalog catalog;
  auto schema = Schema::Make({{"k", DataType::kInt32}});
  HdfsTableWriter writer(&nn, &catalog, "L", schema, HdfsWriteOptions{});
  RecordBatch batch(schema);
  EXPECT_FALSE(writer.Append(batch).ok());  // not open
  ASSERT_TRUE(writer.Open().ok());
  EXPECT_FALSE(writer.Open().ok());  // double open
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_FALSE(writer.Append(batch).ok());  // closed
}

}  // namespace
}  // namespace hybridjoin
