// Tests of the benchmark's own metric code: the percentile rule, the
// phase-mark differencing, window byte totals and span self time.

#include <thread>

#include <gtest/gtest.h>

#include "layers.h"
#include "stats.h"
#include "workload/loader.h"

namespace perfbench {
namespace {

using namespace hybridjoin;

TEST(PercentileTest, TenSamplesBeyondTheP90NeedAHundredQueries) {
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_EQ(SamplesBeyond(99, 0.9), 9u);
  EXPECT_EQ(SamplesBeyond(10, 0.5), 5u);
  EXPECT_EQ(MinSamplesForTail(0.9), 100u);
  EXPECT_EQ(MinSamplesForTail(0.5), 20u);
  EXPECT_EQ(MinSamplesForTail(0.99), 1000u);
}

TEST(PercentileTest, NearestRankAndMedian) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_DOUBLE_EQ(Percentile(v, 0.9), 90.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.9), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.9), 0.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(PhaseTest, DurationsAreDifferencesBetweenConsecutiveMarks) {
  // Marks arrive from several threads, so the list need not be sorted.
  const Phases phases = {{"jen_scan_done", 0.5},
                         {"bf_db_sent", 0.1},
                         {"bf_h_applied", 0.6},
                         {"jen_hash_built", 0.7},
                         {"jen_probe_done", 0.9}};
  EXPECT_DOUBLE_EQ(*MarkTime(phases, {"bf_db_sent", "bf_db_carried"}), 0.1);
  EXPECT_DOUBLE_EQ(*PhaseEndingAt(phases, {"bf_db_sent"}), 0.1);
  EXPECT_DOUBLE_EQ(*PhaseEndingAt(phases, {"jen_scan_done"}), 0.4);
  EXPECT_NEAR(*PhaseEndingAt(phases, {"bf_h_applied"}), 0.1, 1e-12);
  EXPECT_NEAR(*PhaseEndingAt(phases, {"jen_probe_done"}), 0.2, 1e-12);
  EXPECT_FALSE(PhaseEndingAt(phases, {"db_join_done"}).has_value());
  EXPECT_NEAR(TailAfterLastMark(phases, 1.25), 0.35, 1e-12);
  EXPECT_DOUBLE_EQ(TailAfterLastMark({}, 1.25), 1.25);
}

TEST(PhaseTest, FirstReachedOfAlternativeMarksWins) {
  const Phases phases = {{"bf_db_built", 0.2},
                         {"adapt_decision", 0.3},
                         {"bf_db_carried", 0.35}};
  EXPECT_DOUBLE_EQ(*MarkTime(phases, {"bf_db_sent", "bf_db_carried"}), 0.35);
  EXPECT_NEAR(*PhaseEndingAt(phases, {"adapt_decision"}), 0.1, 1e-12);
}

/// A tiny warehouse with the paper's query loaded.
struct Tiny {
  std::unique_ptr<HybridWarehouse> hw;
  HybridQuery query;
};

Tiny MakeTiny() {
  WorkloadConfig wc;
  wc.num_join_keys = 256;
  wc.t_rows = 4096;
  wc.l_rows = 16384;
  wc.batch_rows = 4096;
  auto workload = Workload::Generate(wc, {0.2, 0.2, 0.5, 0.5});
  EXPECT_TRUE(workload.ok());
  SimulationConfig config;
  config.db.num_workers = 2;
  config.jen_workers = 2;
  config.exec_threads = 1;
  config.bloom.expected_keys = wc.num_join_keys;
  Tiny t;
  t.hw = std::make_unique<HybridWarehouse>(config);
  LoadOptions load;
  load.hdfs.rows_per_block = 2048;
  EXPECT_TRUE(LoadWorkload(t.hw.get(), *workload, load).ok());
  t.query = workload->MakeQuery();
  return t;
}

TEST(ByteWindowTest, WindowTotalsCountEveryQueryOnceHoweverTheyOverlap) {
  Tiny t = MakeTiny();
  Network& net = t.hw->context().network();
  const std::string cross = FlowClassName(FlowClass::kCrossCluster);

  // A query before the window is not counted.
  auto warm = t.hw->Execute(t.query, JoinAlgorithm::kZigzag);
  ASSERT_TRUE(warm.ok());
  const int64_t solo = warm->report.network_bytes.at(cross);
  ASSERT_GT(solo, 0);

  ByteWindow serial;
  serial.Begin(net);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(t.hw->Execute(t.query, JoinAlgorithm::kZigzag).ok());
  }
  serial.End(net);
  EXPECT_EQ(serial.Bytes(FlowClass::kCrossCluster), 3 * solo);
  EXPECT_DOUBLE_EQ(serial.MbPerQuery(FlowClass::kCrossCluster, 3),
                   static_cast<double>(solo) / (1024.0 * 1024.0));
  EXPECT_DOUBLE_EQ(serial.MbPerQuery(FlowClass::kCrossCluster, 0), 0.0);

  // Concurrent queries: each report's own delta may include the other's
  // traffic, but the window total is exact.
  ByteWindow overlapped;
  overlapped.Begin(net);
  std::vector<std::thread> clients;
  std::atomic<int> ok{0};
  for (int i = 0; i < 2; ++i) {
    clients.emplace_back([&] {
      if (t.hw->Execute(t.query, JoinAlgorithm::kZigzag).ok()) ++ok;
    });
  }
  for (std::thread& c : clients) c.join();
  overlapped.End(net);
  ASSERT_EQ(ok.load(), 2);
  EXPECT_EQ(overlapped.Bytes(FlowClass::kCrossCluster), 2 * solo);
}

TEST(SpanLogTest, SelfTimeExcludesChildren) {
  SpanLog log;
  {
    SpanLog::Scope parent(&log, "parent");
    {
      SpanLog::Scope child(&log, "child");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[1].parent, 0);
  const double parent = log.spans()[0].seconds();
  const double child = log.spans()[1].seconds();
  EXPECT_GE(child, 0.019);
  EXPECT_NEAR(log.SelfSeconds(0), parent - child, 1e-9);
  EXPECT_DOUBLE_EQ(log.SelfSeconds(1), child);
  EXPECT_EQ(log.Durations("child").size(), 1u);
}

}  // namespace
}  // namespace perfbench
