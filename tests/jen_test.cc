// Unit tests for the JEN engine: locality-aware block assignment,
// connection grouping, the multi-threaded scan pipeline (predicates, Bloom
// pruning, projection pushdown, chunk skipping, remote reads), and the
// control-value and scan-request wire helpers.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>

#include "hdfs/format.h"
#include "hdfs/table_writer.h"
#include "hybrid/warehouse.h"
#include "jen/exchange.h"
#include "jen/worker.h"
#include "workload/loader.h"

namespace hybridjoin {
namespace {

constexpr uint32_t kNodes = 4;

class JenFixture : public testing::Test {
 protected:
  void SetUp() override {
    DataNodeConfig dn;
    dn.num_disks = 2;
    for (uint32_t i = 0; i < kNodes; ++i) {
      datanodes_.push_back(std::make_unique<DataNode>(i, dn));
      ptrs_.push_back(datanodes_.back().get());
    }
    namenode_ = std::make_unique<NameNode>(ptrs_, 2);
    network_ = std::make_unique<Network>(NetworkConfig{}, 2, kNodes,
                                         &metrics_);
  }

  // Writes a table of n rows: (k int32, v int32, s string).
  void WriteTable(const std::string& name, size_t n, HdfsFormat format,
                  uint32_t rows_per_block = 100) {
    auto schema = Schema::Make({{"k", DataType::kInt32},
                                {"v", DataType::kInt32},
                                {"s", DataType::kString}});
    HdfsWriteOptions options;
    options.format = format;
    options.rows_per_block = rows_per_block;
    HdfsTableWriter writer(namenode_.get(), &hcatalog_, name, schema,
                           options);
    ASSERT_TRUE(writer.Open().ok());
    RecordBatch batch(schema);
    for (size_t i = 0; i < n; ++i) {
      batch.AppendRow({Value(static_cast<int32_t>(i)),
                       Value(static_cast<int32_t>(i % 10)),
                       Value("row" + std::to_string(i))});
    }
    ASSERT_TRUE(writer.Append(batch).ok());
    ASSERT_TRUE(writer.Close().ok());
  }

  JenCoordinator MakeCoordinator(JenConfig config = {}) {
    return JenCoordinator(&hcatalog_, namenode_.get(), kNodes, config);
  }

  JenWorker MakeWorker(uint32_t index, JenConfig config = {}) {
    return JenWorker(index, ptrs_, network_.get(), &metrics_, config);
  }

  std::vector<std::unique_ptr<DataNode>> datanodes_;
  std::vector<DataNode*> ptrs_;
  std::unique_ptr<NameNode> namenode_;
  HCatalog hcatalog_;
  Metrics metrics_;
  std::unique_ptr<Network> network_;
};

// ------------------------------ Coordinator -------------------------------

TEST_F(JenFixture, PlanScanBalancedAndFullyLocal) {
  WriteTable("t", 4000, HdfsFormat::kColumnar, 100);  // 40 blocks
  auto coordinator = MakeCoordinator();
  auto plan = coordinator.PlanScan("t");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_EQ(plan->per_worker.size(), kNodes);
  size_t total = 0;
  for (uint32_t w = 0; w < kNodes; ++w) {
    EXPECT_EQ(plan->per_worker[w].size(), 10u);  // perfectly balanced
    total += plan->per_worker[w].size();
    for (const BlockAssignment& a : plan->per_worker[w]) {
      if (a.local) {
        EXPECT_EQ(a.replica.node, w);
      }
    }
  }
  EXPECT_EQ(total, 40u);
  // With replication 2 on 4 nodes, balanced local assignment is achievable.
  EXPECT_EQ(plan->LocalityFraction(), 1.0);
}

TEST_F(JenFixture, PlanScanWithoutLocalityCausesRemoteReads) {
  WriteTable("t", 4000, HdfsFormat::kColumnar, 100);
  JenConfig config;
  config.locality_aware = false;
  auto plan = MakeCoordinator(config).PlanScan("t");
  ASSERT_TRUE(plan.ok());
  size_t total = 0;
  for (uint32_t w = 0; w < kNodes; ++w) {
    total += plan->per_worker[w].size();
    // Hash-spread: roughly balanced, not exact.
    EXPECT_GE(plan->per_worker[w].size(), 3u);
    EXPECT_LE(plan->per_worker[w].size(), 20u);
  }
  EXPECT_EQ(total, 40u);
  // Placement-blind assignment misses replica locality for a good share
  // of blocks (with replication 2 on 4 nodes, ~half are local by chance).
  EXPECT_LT(plan->LocalityFraction(), 0.95);
}

TEST_F(JenFixture, PlanScanUnknownTableFails) {
  EXPECT_FALSE(MakeCoordinator().PlanScan("missing").ok());
}

TEST_F(JenFixture, GroupWorkersForDbCoversAllWorkers) {
  auto coordinator = MakeCoordinator();
  for (uint32_t m : {1u, 2u, 3u, 4u, 7u}) {
    auto groups = coordinator.GroupWorkersForDb(m);
    ASSERT_EQ(groups.size(), m);
    std::vector<bool> covered(kNodes, false);
    for (const auto& group : groups) {
      for (uint32_t w : group) {
        ASSERT_LT(w, kNodes);
        EXPECT_FALSE(covered[w]);
        covered[w] = true;
      }
    }
    for (bool c : covered) EXPECT_TRUE(c);
  }
}

// ------------------------------ Scan pipeline -----------------------------

TEST_F(JenFixture, ScanAppliesPredicateAndProjection) {
  WriteTable("t", 1000, HdfsFormat::kColumnar);
  auto coordinator = MakeCoordinator();
  auto plan = coordinator.PlanScan("t");
  ASSERT_TRUE(plan.ok());

  size_t rows = 0;
  for (uint32_t w = 0; w < kNodes; ++w) {
    JenWorker worker = MakeWorker(w);
    ScanTask task;
    task.meta = plan->meta;
    task.blocks = plan->per_worker[w];
    task.predicate = Cmp("v", CmpOp::kEq, 3);  // v not projected
    task.projection = {"s", "k"};
    ScanStats stats;
    ASSERT_TRUE(worker
                    .ScanBlocks(task,
                                [&](RecordBatch&& b) {
                                  EXPECT_EQ(b.num_columns(), 2u);
                                  EXPECT_EQ(b.schema()->field(0).name, "s");
                                  for (size_t r = 0; r < b.num_rows(); ++r) {
                                    EXPECT_EQ(b.column(1).i32()[r] % 10, 3);
                                  }
                                  rows += b.num_rows();
                                  return Status::OK();
                                },
                                &stats)
                    .ok());
  }
  EXPECT_EQ(rows, 100u);
}

TEST_F(JenFixture, ScanAppliesBloomFilter) {
  WriteTable("t", 1000, HdfsFormat::kColumnar);
  auto plan = MakeCoordinator().PlanScan("t");
  ASSERT_TRUE(plan.ok());
  BloomFilter bloom(BloomParams::ForKeys(100));
  for (int32_t k = 0; k < 50; ++k) bloom.Add(k);  // keys 0..49 only

  size_t rows = 0;
  int64_t dropped = 0;
  for (uint32_t w = 0; w < kNodes; ++w) {
    JenWorker worker = MakeWorker(w);
    ScanTask task;
    task.meta = plan->meta;
    task.blocks = plan->per_worker[w];
    task.projection = {"k"};
    task.bloom = &bloom;
    task.bloom_column = "k";
    ScanStats stats;
    ASSERT_TRUE(worker
                    .ScanBlocks(task,
                                [&](RecordBatch&& b) {
                                  rows += b.num_rows();
                                  return Status::OK();
                                },
                                &stats)
                    .ok());
    dropped += stats.rows_dropped_by_bloom;
  }
  // No false negatives: all 50 true keys survive; FPR keeps the rest small.
  EXPECT_GE(rows, 50u);
  EXPECT_LE(rows, 50u + 100u);
  EXPECT_GT(dropped, 800);
}

TEST_F(JenFixture, ChunkSkippingPrunesBlocksByStats) {
  // k is monotone, 100 rows per block: a predicate on a narrow k range
  // should skip most blocks entirely.
  WriteTable("t", 2000, HdfsFormat::kColumnar, 100);
  auto plan = MakeCoordinator().PlanScan("t");
  ASSERT_TRUE(plan.ok());
  size_t rows = 0;
  ScanStats total;
  for (uint32_t w = 0; w < kNodes; ++w) {
    JenWorker worker = MakeWorker(w);
    ScanTask task;
    task.meta = plan->meta;
    task.blocks = plan->per_worker[w];
    task.predicate = And({Cmp("k", CmpOp::kGe, 500),
                          Cmp("k", CmpOp::kLt, 700)});
    task.projection = {"k"};
    ScanStats stats;
    ASSERT_TRUE(worker
                    .ScanBlocks(task,
                                [&](RecordBatch&& b) {
                                  rows += b.num_rows();
                                  return Status::OK();
                                },
                                &stats)
                    .ok());
    total.blocks_read += stats.blocks_read;
    total.blocks_skipped += stats.blocks_skipped;
    total.rows_scanned += stats.rows_scanned;
  }
  EXPECT_EQ(rows, 200u);
  EXPECT_EQ(total.blocks_read, 2);    // exactly the two covering blocks
  EXPECT_EQ(total.blocks_skipped, 18);
  EXPECT_EQ(total.rows_scanned, 200);

  // With skipping disabled every block is decoded.
  JenConfig no_skip;
  no_skip.chunk_skipping = false;
  size_t rows2 = 0;
  ScanStats total2;
  for (uint32_t w = 0; w < kNodes; ++w) {
    JenWorker worker = MakeWorker(w, no_skip);
    ScanTask task;
    task.meta = plan->meta;
    task.blocks = plan->per_worker[w];
    task.predicate = And({Cmp("k", CmpOp::kGe, 500),
                          Cmp("k", CmpOp::kLt, 700)});
    task.projection = {"k"};
    ScanStats stats;
    ASSERT_TRUE(worker
                    .ScanBlocks(task,
                                [&](RecordBatch&& b) {
                                  rows2 += b.num_rows();
                                  return Status::OK();
                                },
                                &stats)
                    .ok());
    total2.blocks_skipped += stats.blocks_skipped;
    total2.rows_scanned += stats.rows_scanned;
  }
  EXPECT_EQ(rows2, 200u);
  EXPECT_EQ(total2.blocks_skipped, 0);
  EXPECT_EQ(total2.rows_scanned, 2000);
}

TEST_F(JenFixture, TextScanParsesEverything) {
  WriteTable("t", 500, HdfsFormat::kText);
  auto plan = MakeCoordinator().PlanScan("t");
  ASSERT_TRUE(plan.ok());
  size_t rows = 0;
  int64_t bytes = 0;
  for (uint32_t w = 0; w < kNodes; ++w) {
    JenWorker worker = MakeWorker(w);
    ScanTask task;
    task.meta = plan->meta;
    task.blocks = plan->per_worker[w];
    task.projection = {"k"};
    ScanStats stats;
    ASSERT_TRUE(worker
                    .ScanBlocks(task,
                                [&](RecordBatch&& b) {
                                  rows += b.num_rows();
                                  return Status::OK();
                                },
                                &stats)
                    .ok());
    bytes += stats.bytes_read;
  }
  EXPECT_EQ(rows, 500u);
  // Text reads the full file regardless of projection.
  EXPECT_EQ(bytes,
            static_cast<int64_t>(namenode_->FileSize("/warehouse/t").value()));
}

TEST_F(JenFixture, ColumnarProjectionReducesBytesRead) {
  WriteTable("t", 5000, HdfsFormat::kColumnar, 1000);
  auto plan = MakeCoordinator().PlanScan("t");
  ASSERT_TRUE(plan.ok());
  auto scan_bytes = [&](std::vector<std::string> projection) {
    int64_t bytes = 0;
    for (uint32_t w = 0; w < kNodes; ++w) {
      JenWorker worker = MakeWorker(w);
      ScanTask task;
      task.meta = plan->meta;
      task.blocks = plan->per_worker[w];
      task.projection = projection;
      ScanStats stats;
      EXPECT_TRUE(worker
                      .ScanBlocks(task,
                                  [](RecordBatch&&) { return Status::OK(); },
                                  &stats)
                      .ok());
      bytes += stats.bytes_read;
    }
    return bytes;
  };
  const int64_t narrow = scan_bytes({"v"});
  const int64_t wide = scan_bytes({"k", "v", "s"});
  EXPECT_LT(narrow * 2, wide);
}

// The scan filters on the predicate and Bloom columns, then decodes the rest
// of the projection only for surviving rows. Its output and counters must
// equal an eager scan: decode every column, filter, gather, project.
class LateMaterializationTest : public JenFixture {
 protected:
  using Rows = std::multiset<std::string>;

  static void AddRows(const RecordBatch& b, Rows* rows) {
    for (size_t r = 0; r < b.num_rows(); ++r) {
      std::string row;
      for (size_t c = 0; c < b.num_columns(); ++c) {
        row += b.schema()->field(c).name + "=" +
               b.column(c).GetValue(r).ToString() + ";";
      }
      rows->insert(row);
    }
  }

  /// The eager reference: every block decoded in full, filtered, gathered
  /// and projected; the stats a scan of `task` must report.
  void EagerScan(const ScanTask& task, Rows* rows, ScanStats* stats) {
    const SchemaPtr& schema = task.meta.schema;
    std::vector<std::string> read = task.projection;
    if (task.predicate != nullptr) task.predicate->CollectColumns(&read);
    if (task.bloom != nullptr) read.push_back(task.bloom_column);
    std::set<size_t> read_idx;
    for (const std::string& name : read) {
      read_idx.insert(schema->IndexOf(name).value());
    }
    std::vector<size_t> all(schema->num_fields());
    std::iota(all.begin(), all.end(), 0);
    std::vector<size_t> out;
    for (const std::string& name : task.projection) {
      out.push_back(schema->IndexOf(name).value());
    }
    for (const BlockAssignment& a : task.blocks) {
      auto block = datanodes_[a.replica.node]->Fetch(a.info.block_id).value();
      RecordBatch full =
          block->format == HdfsFormat::kText
              ? DecodeText(block->text->data(), block->text->size(), schema,
                           all)
                    .value()
              : DecodeColumnarBlock(*block->columnar, schema, all).value();
      if (block->format == HdfsFormat::kText) {
        stats->bytes_read += static_cast<int64_t>(block->ByteSize());
      } else {
        for (size_t idx : read_idx) {
          stats->bytes_read +=
              static_cast<int64_t>(block->columnar->chunks[idx].ByteSize());
        }
      }
      stats->blocks_read++;
      stats->rows_scanned += static_cast<int64_t>(full.num_rows());
      std::vector<uint32_t> sel(full.num_rows());
      std::iota(sel.begin(), sel.end(), 0u);
      if (task.predicate != nullptr) {
        ASSERT_TRUE(task.predicate->Filter(full, &sel).ok());
      }
      const size_t after_pred = sel.size();
      if (task.bloom != nullptr) {
        ASSERT_TRUE(
            FilterByBloom(full, task.bloom_column, *task.bloom, &sel).ok());
      }
      stats->rows_dropped_by_bloom +=
          static_cast<int64_t>(after_pred - sel.size());
      stats->rows_after_filter += static_cast<int64_t>(sel.size());
      AddRows(full.Gather(sel).Project(out), rows);
    }
  }

  /// Scans `table` on every worker and checks rows and stats against the
  /// eager reference.
  void ExpectScanMatchesEager(const std::string& table,
                              const PredicatePtr& predicate,
                              std::vector<std::string> projection,
                              const BloomFilter* bloom) {
    auto plan = MakeCoordinator().PlanScan(table);
    ASSERT_TRUE(plan.ok());
    Rows got;
    Rows want;
    for (uint32_t w = 0; w < kNodes; ++w) {
      ScanTask task;
      task.meta = plan->meta;
      task.blocks = plan->per_worker[w];
      task.predicate = predicate;
      task.projection = projection;
      task.bloom = bloom;
      task.bloom_column = "k";
      ScanStats stats;
      ASSERT_TRUE(MakeWorker(w)
                      .ScanBlocks(task,
                                  [&](RecordBatch&& b) {
                                    AddRows(b, &got);
                                    return Status::OK();
                                  },
                                  &stats)
                      .ok());
      ScanStats expected;
      EagerScan(task, &want, &expected);
      EXPECT_EQ(stats.blocks_read, expected.blocks_read);
      EXPECT_EQ(stats.bytes_read, expected.bytes_read);
      EXPECT_EQ(stats.rows_scanned, expected.rows_scanned);
      EXPECT_EQ(stats.rows_after_filter, expected.rows_after_filter);
      EXPECT_EQ(stats.rows_dropped_by_bloom, expected.rows_dropped_by_bloom);
    }
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(got, want);
  }

  /// Scans a copy of table "t"'s first block, with `edit` applied to its
  /// chunks and stored under a fresh block id, under a predicate that drops
  /// every row (chunk skipping off, so the block is read) and with `late`
  /// projected: the late chunk is validated but no row of it is built.
  Status ScanEdited(const std::function<void(ColumnarBlock*)>& edit,
                    const std::string& late) {
    auto plan = MakeCoordinator().PlanScan("t");
    if (!plan.ok()) return plan.status();
    BlockAssignment a = plan->per_worker[0].front();
    HJ_ASSIGN_OR_RETURN(auto stored,
                        datanodes_[a.replica.node]->Fetch(a.info.block_id));
    auto columnar = std::make_shared<ColumnarBlock>(*stored->columnar);
    edit(columnar.get());
    auto copy = std::make_shared<StoredBlock>(*stored);
    copy->columnar = columnar;
    a.info.block_id = (1u << 30) + next_block_++;
    HJ_RETURN_IF_ERROR(datanodes_[a.replica.node]->StoreBlock(
        a.info.block_id, a.replica.disk, copy));
    JenConfig no_skip;
    no_skip.chunk_skipping = false;
    ScanTask task;
    task.meta = plan->meta;
    task.blocks = {a};
    task.predicate = Cmp("v", CmpOp::kGt, 100);  // v is 0..9: drops all
    task.projection = {late};
    size_t rows = 0;
    Status st = MakeWorker(a.replica.node, no_skip)
                    .ScanBlocks(task,
                                [&](RecordBatch&& b) {
                                  rows += b.num_rows();
                                  return Status::OK();
                                },
                                nullptr);
    EXPECT_EQ(rows, 0u);
    return st;
  }

  static BloomFilter EvenKeys() {
    BloomFilter bloom(BloomParams::ForKeys(1000));
    for (int32_t k = 0; k < 2000; k += 2) bloom.Add(k);
    return bloom;
  }

  uint32_t next_block_ = 0;
};

TEST_F(LateMaterializationTest, ProjectionIncludesPredicateColumn) {
  for (HdfsFormat format : {HdfsFormat::kColumnar, HdfsFormat::kText}) {
    const std::string table = std::string("t_") + HdfsFormatName(format);
    SCOPED_TRACE(table);
    WriteTable(table, 2000, format);
    const BloomFilter bloom = EvenKeys();
    ExpectScanMatchesEager(table, Cmp("v", CmpOp::kLt, 4), {"v", "s", "k"}, &bloom);
    ExpectScanMatchesEager(table, Cmp("v", CmpOp::kLt, 4), {"s", "v"}, nullptr);
  }
}

TEST_F(LateMaterializationTest, BloomColumnNotProjected) {
  for (HdfsFormat format : {HdfsFormat::kColumnar, HdfsFormat::kText}) {
    const std::string table = std::string("t_") + HdfsFormatName(format);
    SCOPED_TRACE(table);
    WriteTable(table, 2000, format);
    const BloomFilter bloom = EvenKeys();
    ExpectScanMatchesEager(table, Cmp("v", CmpOp::kEq, 3), {"s"}, &bloom);
    ExpectScanMatchesEager(table, nullptr, {"v", "s"}, &bloom);
    ExpectScanMatchesEager(table, StrPrefix("s", "row1"), {"v"}, &bloom);
  }
}

TEST_F(LateMaterializationTest, CorruptLateChunkFailsEvenWhenNoRowSurvives) {
  WriteTable("t", 100, HdfsFormat::kColumnar);
  EXPECT_TRUE(ScanEdited([](ColumnarBlock*) {}, "s").ok());
  // The "s" chunk with a trailing garbage byte.
  const Status st = ScanEdited(
      [](ColumnarBlock* b) { b->chunks[2].data.push_back(0x7f); }, "s");
  EXPECT_TRUE(st.IsIOError()) << st;
}

TEST_F(LateMaterializationTest,
       CorruptRandomAccessLateChunksFailEvenWhenNoRowSurvives) {
  WriteTable("t", 100, HdfsFormat::kColumnar);
  // Re-encodes chunk `c` of the block with `encode`, then applies `corrupt`.
  auto recode = [](size_t c,
                   std::function<ColumnChunk(const ColumnVector&)> encode,
                   std::function<void(std::vector<uint8_t>*)> corrupt) {
    return [=](ColumnarBlock* b) {
      ColumnChunk& chunk = b->chunks[c];
      const ColumnVector col = DecodeColumnChunk(chunk, chunk.type).value();
      const bool stats = chunk.has_stats;
      const int64_t mn = chunk.min_val, mx = chunk.max_val;
      chunk = encode(col);
      chunk.has_stats = stats;
      chunk.min_val = mn;
      chunk.max_val = mx;
      corrupt(&chunk.data);
    };
  };
  auto for_chunk = [](const ColumnVector& col) { return EncodeForChunk(col); };
  auto fsst_chunk = [](const ColumnVector& col) {
    return EncodeFsstChunk(col, {"row", "1"});
  };
  auto intact = [](std::vector<uint8_t>*) {};
  EXPECT_TRUE(ScanEdited(recode(0, for_chunk, intact), "k").ok());
  EXPECT_TRUE(ScanEdited(recode(2, fsst_chunk, intact), "s").ok());

  // kFor: a bit width wider than int32.
  Status st = ScanEdited(
      recode(0, for_chunk, [](std::vector<uint8_t>* d) { (*d)[4] = 33; }),
      "k");
  EXPECT_TRUE(st.IsIOError()) << st;
  // kFsst: the first code byte past the two-symbol table.
  st = ScanEdited(recode(2, fsst_chunk,
                         [](std::vector<uint8_t>* d) {
                           // count, 2 lengths, 4 symbol bytes, width, u32
                           (*d)[1 + 2 + 4 + 1 + 4] = 2;
                         }),
                  "s");
  EXPECT_TRUE(st.IsIOError()) << st;
}

TEST_F(JenFixture, RemoteBlocksReadThroughNetwork) {
  WriteTable("t", 1000, HdfsFormat::kColumnar, 100);
  auto plan = MakeCoordinator().PlanScan("t");
  ASSERT_TRUE(plan.ok());
  // Force worker 0 to scan everything: every non-local block is remote.
  std::vector<BlockAssignment> all;
  for (auto& per : plan->per_worker) {
    for (auto& a : per) {
      BlockAssignment copy = a;
      copy.local = copy.replica.node == 0;
      all.push_back(copy);
    }
  }
  JenWorker worker = MakeWorker(0);
  ScanTask task;
  task.meta = plan->meta;
  task.blocks = all;
  task.projection = {"k"};
  size_t rows = 0;
  ASSERT_TRUE(worker
                  .ScanBlocks(task,
                              [&](RecordBatch&& b) {
                                rows += b.num_rows();
                                return Status::OK();
                              },
                              nullptr)
                  .ok());
  EXPECT_EQ(rows, 1000u);
  EXPECT_GT(network_->BytesMoved(FlowClass::kIntraHdfs), 0);
  EXPECT_GT(metrics_.Get(metric::kHdfsBlocksRemote), 0);
}

TEST_F(JenFixture, ParallelScanMatchesSingleThreaded) {
  // ScanBlocksParallel with N process threads must observe exactly the rows
  // (and scan stats) of the single-threaded ScanBlocks — block order across
  // consumers is free, the row multiset and the counters are not.
  WriteTable("t", 3000, HdfsFormat::kColumnar, 100);
  auto plan = MakeCoordinator().PlanScan("t");
  ASSERT_TRUE(plan.ok());

  auto make_task = [&](uint32_t w) {
    ScanTask task;
    task.meta = plan->meta;
    task.blocks = plan->per_worker[w];
    task.predicate = Cmp("v", CmpOp::kLt, 7);  // keep v%10 in 0..6
    task.projection = {"k"};
    return task;
  };

  std::multiset<int32_t> serial_keys;
  ScanStats serial_stats;
  for (uint32_t w = 0; w < kNodes; ++w) {
    JenWorker worker = MakeWorker(w);
    ScanStats stats;
    ASSERT_TRUE(worker
                    .ScanBlocks(make_task(w),
                                [&](RecordBatch&& b) {
                                  for (size_t r = 0; r < b.num_rows(); ++r) {
                                    serial_keys.insert(b.column(0).i32()[r]);
                                  }
                                  return Status::OK();
                                },
                                &stats)
                    .ok());
    serial_stats.rows_scanned += stats.rows_scanned;
    serial_stats.rows_after_filter += stats.rows_after_filter;
    serial_stats.blocks_read += stats.blocks_read;
  }

  JenConfig parallel_config;
  parallel_config.process_threads = 3;
  std::multiset<int32_t> parallel_keys;
  std::mutex merge_mu;
  ScanStats parallel_stats;
  for (uint32_t w = 0; w < kNodes; ++w) {
    JenWorker worker = MakeWorker(w, parallel_config);
    ScanStats stats;
    // One consumer per process thread, each with private storage, merged
    // under a lock — the contract the drivers' per-thread sinks rely on.
    std::vector<std::multiset<int32_t>> per_thread(3);
    ASSERT_TRUE(worker
                    .ScanBlocksParallel(
                        make_task(w),
                        [&](uint32_t t) -> ScanConsumer {
                          std::multiset<int32_t>* mine = &per_thread[t];
                          return [mine](RecordBatch&& b) {
                            for (size_t r = 0; r < b.num_rows(); ++r) {
                              mine->insert(b.column(0).i32()[r]);
                            }
                            return Status::OK();
                          };
                        },
                        &stats)
                    .ok());
    std::lock_guard<std::mutex> lock(merge_mu);
    for (auto& keys : per_thread) {
      parallel_keys.insert(keys.begin(), keys.end());
    }
    parallel_stats.rows_scanned += stats.rows_scanned;
    parallel_stats.rows_after_filter += stats.rows_after_filter;
    parallel_stats.blocks_read += stats.blocks_read;
  }

  EXPECT_EQ(parallel_keys.size(), 3000u * 7 / 10);
  EXPECT_EQ(parallel_keys, serial_keys);
  EXPECT_EQ(parallel_stats.rows_scanned, serial_stats.rows_scanned);
  EXPECT_EQ(parallel_stats.rows_after_filter, serial_stats.rows_after_filter);
  EXPECT_EQ(parallel_stats.blocks_read, serial_stats.blocks_read);
}

TEST_F(JenFixture, ParallelScanConsumerErrorAborts) {
  WriteTable("t", 2000, HdfsFormat::kColumnar, 100);
  auto plan = MakeCoordinator().PlanScan("t");
  ASSERT_TRUE(plan.ok());
  std::vector<BlockAssignment> all;
  for (auto& per : plan->per_worker) {
    for (auto& a : per) all.push_back(a);
  }
  JenConfig config;
  config.process_threads = 4;
  JenWorker worker = MakeWorker(0, config);
  ScanTask task;
  task.meta = plan->meta;
  task.blocks = all;
  task.projection = {"k"};
  std::atomic<int> batches_seen{0};
  Status st = worker.ScanBlocksParallel(
      task, [&](uint32_t) -> ScanConsumer {
        return [&batches_seen](RecordBatch&&) {
          batches_seen.fetch_add(1, std::memory_order_relaxed);
          return Status::Aborted("consumer says stop");
        };
      });
  EXPECT_EQ(st.code(), StatusCode::kAborted);
  // The abort flag stops the other process threads early: nowhere near all
  // 20 blocks should have reached a consumer.
  EXPECT_GE(batches_seen.load(), 1);
}

TEST_F(JenFixture, ConsumerErrorAbortsScan) {
  WriteTable("t", 1000, HdfsFormat::kColumnar, 100);
  auto plan = MakeCoordinator().PlanScan("t");
  ASSERT_TRUE(plan.ok());
  JenWorker worker = MakeWorker(0);
  ScanTask task;
  task.meta = plan->meta;
  task.blocks = plan->per_worker[0];
  task.projection = {"k"};
  Status st = worker.ScanBlocks(task, [](RecordBatch&&) {
    return Status::Aborted("consumer says stop");
  });
  EXPECT_EQ(st.code(), StatusCode::kAborted);
}

// ----------------------------- Control values -----------------------------

TEST_F(JenFixture, BloomTransfer) {
  BloomFilter bloom(BloomParams::ForKeys(64));
  bloom.Add(77);
  const uint64_t tag = network_->AllocateTagBlock();
  SendControlValue(network_.get(), NodeId::Db(0), {NodeId::Hdfs(2)}, tag,
                   bloom, &metrics_);
  auto received =
      RecvControlValue<BloomFilter>(network_.get(), NodeId::Hdfs(2), tag);
  ASSERT_TRUE(received.ok());
  EXPECT_TRUE(received->MayContain(77));
  EXPECT_EQ(metrics_.Get(metric::kBloomFiltersSent), 1);
  EXPECT_GT(metrics_.Get(metric::kBloomBytesSent), 0);
}

TEST_F(JenFixture, ScanRequestSerde) {
  ScanRequest req;
  req.predicate = And({Cmp("a", CmpOp::kLt, 5), StrPrefix("s", "g1")});
  req.projection = {"a", "s"};
  BloomFilter bloom(BloomParams::ForKeys(32));
  bloom.Add(1);
  req.bloom = bloom;
  req.bloom_column = "a";
  auto decoded = ScanRequest::Deserialize(req.Serialize());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->projection, req.projection);
  EXPECT_EQ(decoded->predicate->ToString(), req.predicate->ToString());
  ASSERT_TRUE(decoded->bloom.has_value());
  EXPECT_TRUE(decoded->bloom->MayContain(1));
  EXPECT_EQ(decoded->bloom_column, "a");

  ScanRequest minimal;
  minimal.projection = {"x"};
  auto decoded2 = ScanRequest::Deserialize(minimal.Serialize());
  ASSERT_TRUE(decoded2.ok());
  EXPECT_EQ(decoded2->predicate, nullptr);
  EXPECT_FALSE(decoded2->bloom.has_value());

  EXPECT_FALSE(ScanRequest::Deserialize({0x02, 0xff}).ok());
}

TEST(JenWorkerWall, EveryWorkerFeedsWallHistogramAtEndOfQuery) {
  WorkloadConfig wc;
  wc.num_join_keys = 128;
  wc.t_rows = 2000;
  wc.l_rows = 8000;
  wc.num_groups = 5;
  wc.batch_rows = 2048;
  auto workload = Workload::Generate(wc, SelectivitySpec{});
  ASSERT_TRUE(workload.ok()) << workload.status();

  SimulationConfig config;
  config.db.num_workers = 2;
  config.jen_workers = 4;
  config.bloom.expected_keys = wc.num_join_keys;
  HybridWarehouse hw(config);
  ASSERT_TRUE(LoadWorkload(&hw, *workload, {}).ok());

  auto result = hw.Execute(workload->MakeQuery(), JoinAlgorithm::kRepartition);
  ASSERT_TRUE(result.ok()) << result.status();

  // Each of the 4 JEN worker threads records its end-of-query wall time —
  // with tracing disabled too, since the worker runtime records it directly.
  const auto hists = hw.context().metrics().HistogramCounts();
  ASSERT_EQ(hists.count(metric::kJenWorkerWallUs), 1u);
  const HistogramSummary wall = hists.at(metric::kJenWorkerWallUs).Summarize();
  EXPECT_EQ(wall.count, 4);
  EXPECT_GT(wall.max_seconds, 0.0);

  // And the assembled profile carries the same per-worker wall times.
  int jen_nodes = 0;
  for (const auto& [node, us] : result->report.profile.worker_wall_us) {
    if (node.rfind("hdfs:", 0) == 0) ++jen_nodes;
  }
  EXPECT_EQ(jen_nodes, 4);
}

}  // namespace
}  // namespace hybridjoin
