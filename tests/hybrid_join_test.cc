// End-to-end correctness: every join algorithm, over both HDFS formats,
// must produce exactly the rows of the single-node reference executor.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "hybrid/reference.h"
#include "hybrid/warehouse.h"
#include "workload/loader.h"

namespace hybridjoin {
namespace {

struct Cell {
  SelectivitySpec spec;
  HdfsFormat format;
  uint32_t db_workers;
  uint32_t jen_workers;
};

std::string CellName(const testing::TestParamInfo<Cell>& info) {
  const Cell& c = info.param;
  auto pct = [](double v) { return std::to_string(static_cast<int>(v * 1000)); };
  return std::string(HdfsFormatName(c.format)) + "_sT" + pct(c.spec.sigma_t) +
         "_sL" + pct(c.spec.sigma_l) + "_st" + pct(c.spec.st) + "_sl" +
         pct(c.spec.sl) + "_m" + std::to_string(c.db_workers) + "_n" +
         std::to_string(c.jen_workers);
}

class HybridJoinEndToEnd : public testing::TestWithParam<Cell> {
 protected:
  static WorkloadConfig SmallWorkload() {
    WorkloadConfig wc;
    wc.num_join_keys = 512;
    wc.t_rows = 12000;
    wc.l_rows = 50000;
    wc.num_groups = 23;
    wc.batch_rows = 8192;
    return wc;
  }
};

TEST_P(HybridJoinEndToEnd, AllAlgorithmsMatchReference) {
  const Cell& cell = GetParam();
  const WorkloadConfig wc = SmallWorkload();
  auto workload = Workload::Generate(wc, cell.spec);
  ASSERT_TRUE(workload.ok()) << workload.status();

  SimulationConfig config;
  config.db.num_workers = cell.db_workers;
  config.jen_workers = cell.jen_workers;
  config.bloom.expected_keys = wc.num_join_keys;
  HybridWarehouse hw(config);
  LoadOptions load;
  load.hdfs.format = cell.format;
  load.hdfs.rows_per_block = 4096;
  ASSERT_TRUE(LoadWorkload(&hw, *workload, load).ok());

  const HybridQuery query = workload->MakeQuery();
  auto expected = RunReferenceJoin({workload->t_rows()},
                                   workload->l_batches(), query);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_GT(expected->num_rows(), 0u) << "degenerate cell: empty result";

  for (JoinAlgorithm algorithm :
       {JoinAlgorithm::kDbSide, JoinAlgorithm::kDbSideBloom,
        JoinAlgorithm::kBroadcast, JoinAlgorithm::kRepartition,
        JoinAlgorithm::kRepartitionBloom, JoinAlgorithm::kZigzag}) {
    SCOPED_TRACE(JoinAlgorithmName(algorithm));
    auto result = hw.Execute(query, algorithm);
    ASSERT_TRUE(result.ok()) << result.status();
    const RecordBatch& rows = result->rows;
    ASSERT_EQ(rows.num_rows(), expected->num_rows());
    ASSERT_EQ(rows.num_columns(), expected->num_columns());
    for (size_t c = 0; c < rows.num_columns(); ++c) {
      for (size_t r = 0; r < rows.num_rows(); ++r) {
        ASSERT_EQ(rows.column(c).i64()[r], expected->column(c).i64()[r])
            << "mismatch at row " << r << " col " << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HybridJoinEndToEnd,
    testing::Values(
        Cell{{0.1, 0.1, 0.5, 0.5}, HdfsFormat::kColumnar, 3, 4},
        Cell{{0.1, 0.4, 0.2, 0.1}, HdfsFormat::kColumnar, 4, 4},
        Cell{{0.5, 0.5, 1.0, 1.0}, HdfsFormat::kColumnar, 2, 5},
        Cell{{0.01, 0.2, 0.5, 0.5}, HdfsFormat::kColumnar, 4, 3},
        Cell{{0.1, 0.1, 0.5, 0.5}, HdfsFormat::kText, 3, 4},
        Cell{{0.2, 0.4, 0.35, 0.4}, HdfsFormat::kText, 4, 4},
        // More DB workers than JEN workers (empty groups edge case).
        Cell{{0.1, 0.2, 0.5, 0.5}, HdfsFormat::kColumnar, 5, 2}),
    CellName);

// The report must carry the headline counters of Table 1.
TEST(HybridJoinReport, CountersArePopulated) {
  WorkloadConfig wc;
  wc.num_join_keys = 256;
  wc.t_rows = 4000;
  wc.l_rows = 20000;
  auto workload = Workload::Generate(wc, {0.2, 0.4, 0.5, 0.5});
  ASSERT_TRUE(workload.ok());

  SimulationConfig config;
  config.db.num_workers = 2;
  config.jen_workers = 3;
  config.bloom.expected_keys = wc.num_join_keys;
  HybridWarehouse hw(config);
  ASSERT_TRUE(LoadWorkload(&hw, *workload).ok());

  auto zigzag = hw.Execute(workload->MakeQuery(), JoinAlgorithm::kZigzag);
  ASSERT_TRUE(zigzag.ok()) << zigzag.status();
  const ExecutionReport& report = zigzag->report;
  EXPECT_GT(report.Counter(metric::kHdfsTuplesShuffled), 0);
  EXPECT_GT(report.Counter(metric::kDbTuplesSent), 0);
  EXPECT_GT(report.Counter(metric::kHdfsTuplesScanned), 0);
  EXPECT_GT(report.Counter(metric::kBloomFiltersSent), 0);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_FALSE(report.ToString().empty());

  auto repartition =
      hw.Execute(workload->MakeQuery(), JoinAlgorithm::kRepartition);
  ASSERT_TRUE(repartition.ok());
  // The zigzag's two-way pruning must move no more data than the plain
  // repartition join (Table 1's headline claim).
  EXPECT_LE(zigzag->report.Counter(metric::kHdfsTuplesShuffled),
            repartition->report.Counter(metric::kHdfsTuplesShuffled));
  EXPECT_LE(zigzag->report.Counter(metric::kDbTuplesSent),
            repartition->report.Counter(metric::kDbTuplesSent));
}

// Every execution releases its channel tags: after any query — static,
// adaptive or failed — the network holds exactly the channels it held
// before, so a long-running server does not accumulate them per query.
TEST(HybridJoinChannels, EveryQueryReleasesItsChannels) {
  WorkloadConfig wc;
  wc.num_join_keys = 256;
  wc.t_rows = 4000;
  wc.l_rows = 20000;
  auto workload = Workload::Generate(wc, {0.2, 0.4, 0.5, 0.5});
  ASSERT_TRUE(workload.ok());
  const HybridQuery query = workload->MakeQuery();
  LoadOptions load;
  load.hdfs.rows_per_block = 2048;

  SimulationConfig config;
  config.db.num_workers = 2;
  config.jen_workers = 3;
  config.bloom.expected_keys = wc.num_join_keys;
  {
    HybridWarehouse hw(config);
    ASSERT_TRUE(LoadWorkload(&hw, *workload, load).ok());
    const Network& net = hw.context().network();
    const size_t before = net.num_channels();
    for (JoinAlgorithm algorithm :
         {JoinAlgorithm::kDbSide, JoinAlgorithm::kDbSideBloom,
          JoinAlgorithm::kBroadcast, JoinAlgorithm::kRepartition,
          JoinAlgorithm::kRepartitionBloom, JoinAlgorithm::kZigzag}) {
      SCOPED_TRACE(JoinAlgorithmName(algorithm));
      ASSERT_TRUE(hw.Execute(query, algorithm).ok());
      EXPECT_EQ(net.num_channels(), before);
    }
    ASSERT_TRUE(hw.context().config().adaptive.enabled);
    ASSERT_TRUE(hw.ExecuteAuto(query).ok());
    EXPECT_EQ(net.num_channels(), before) << "adaptive";
  }

  // A query that fails: the lossy profile drops data-plane messages for
  // good, and a bounded recv wait turns any lost handshake into an error.
  config.fault = FaultProfile::Lossy(/*seed=*/7);
  config.net.recv_timeout_ms = 2000;
  HybridWarehouse lossy(config);
  ASSERT_TRUE(LoadWorkload(&lossy, *workload, load).ok());
  const Network& net = lossy.context().network();
  const size_t before = net.num_channels();
  EXPECT_FALSE(lossy.Execute(query, JoinAlgorithm::kRepartition).ok());
  EXPECT_EQ(net.num_channels(), before) << "failed query";
}


// The phase-mark contract: perfbench turns these marks into its per-layer
// metrics (hybrid.bloom_prefix_s, hybrid.scan_shuffle_s, hybrid.bf_h_s,
// hybrid.probe_s, hybrid.db_ingest_s, hybrid.db_join_s, hybrid.adapt_s),
// so every algorithm must set exactly its marks. Each chain below is a
// causal order — marks of one node's thread, or linked by a message — so it
// holds on any schedule. A refactor that drops or reorders one would
// silently blank a layer.
TEST(HybridJoinPhases, EveryAlgorithmSetsItsMarksInOrder) {
  using Chains = std::vector<std::vector<std::string>>;
  const std::set<std::string> layer_marks = {
      "bf_db_sent",  "bf_db_carried", "jen_scan_done",    "bf_h_applied",
      "jen_probe_done", "hdfs_ingest_done", "db_join_done", "adapt_decision"};
  auto check = [&](const ExecutionReport& report, const Chains& chains) {
    std::vector<std::string> seen;
    for (const auto& [name, t] : report.phases) seen.push_back(name);
    std::set<std::string> expected;
    for (const auto& chain : chains) {
      auto next = seen.begin();
      for (const std::string& mark : chain) {
        expected.insert(mark);
        next = std::find(next, seen.end(), mark);
        ASSERT_NE(next, seen.end()) << "missing or out of order: " << mark;
      }
    }
    for (const std::string& mark : seen) {
      EXPECT_TRUE(layer_marks.count(mark) == 0 || expected.count(mark) > 0)
          << "unexpected layer mark " << mark;
    }
  };

  WorkloadConfig wc;
  wc.num_join_keys = 256;
  wc.t_rows = 4000;
  wc.l_rows = 20000;
  auto workload = Workload::Generate(wc, {0.2, 0.4, 0.5, 0.5});
  ASSERT_TRUE(workload.ok());
  const HybridQuery query = workload->MakeQuery();
  SimulationConfig config;
  config.db.num_workers = 2;
  config.jen_workers = 3;
  config.bloom.expected_keys = wc.num_join_keys;
  HybridWarehouse hw(config);
  ASSERT_TRUE(LoadWorkload(&hw, *workload).ok());

  // DB worker 0 sets the DB-side marks, the designated JEN worker the
  // JEN-side ones. BF_H reaches DB worker 0 only after the designated
  // worker's scan, and T'' reaches it only after bf_h_applied.
  const Chains jen_chain = {{"jen_scan_done", "jen_hash_built",
                             "jen_probe_done"}};
  const Chains zigzag = {{"bf_db_sent", "bf_h_applied"},
                         {"jen_scan_done", "bf_h_sent", "jen_probe_done"},
                         {"jen_scan_done", "bf_h_applied", "jen_probe_done"}};
  const std::vector<std::pair<JoinAlgorithm, Chains>> plans = {
      {JoinAlgorithm::kDbSide, {{"hdfs_ingest_done", "db_join_done"}}},
      {JoinAlgorithm::kDbSideBloom,
       {{"bf_db_sent", "hdfs_ingest_done", "db_join_done"}}},
      {JoinAlgorithm::kBroadcast, {{"jen_hash_built", "jen_scan_probe_done"}}},
      {JoinAlgorithm::kRepartition, jen_chain},
      {JoinAlgorithm::kRepartitionBloom,
       {{"bf_db_sent"}, jen_chain.front()}},
      {JoinAlgorithm::kZigzag, zigzag},
  };
  for (const auto& [algorithm, chains] : plans) {
    SCOPED_TRACE(JoinAlgorithmName(algorithm));
    auto result = hw.Execute(query, algorithm);
    ASSERT_TRUE(result.ok()) << result.status();
    check(result->report, chains);
  }

  // The adaptive path: the prefix's marks and the decision, then the chosen
  // driver's round, which starts only after the prefix round has joined and
  // resumes from the carried prefix (the broadcast join needs none).
  auto adaptive = hw.ExecuteAuto(query);
  ASSERT_TRUE(adaptive.ok()) << adaptive.status();
  const JoinAlgorithm chosen = adaptive->report.algorithm;
  SCOPED_TRACE(JoinAlgorithmName(chosen));
  Chains chains;
  switch (chosen) {
    case JoinAlgorithm::kBroadcast:
      chains = {{"jen_hash_built", "jen_scan_probe_done"}};
      break;
    case JoinAlgorithm::kDbSide:
    case JoinAlgorithm::kDbSideBloom:
      chains = {{"bf_db_carried", "hdfs_ingest_done", "db_join_done"}};
      break;
    default:
      chains = zigzag;
      chains[0][0] = "bf_db_carried";
  }
  for (auto& chain : chains) {
    chain.insert(chain.begin(), {"bf_db_built", "adapt_decision"});
  }
  check(adaptive->report, chains);
}

}  // namespace
}  // namespace hybridjoin
