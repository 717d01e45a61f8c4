// Tests for the reporting/driver plumbing: ExecutionReport, algorithm
// names, Tags allocation, ReportBuilder deltas, Bloom combine, and the
// zigzag build-side ablation (both plans must agree exactly).

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <thread>

#include "hybrid/driver_common.h"
#include "hybrid/warehouse.h"
#include "workload/loader.h"

namespace hybridjoin {
namespace {

TEST(ReportTest, AlgorithmNamesAndSides) {
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kDbSide), "db");
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kDbSideBloom), "db(BF)");
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kBroadcast), "broadcast");
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kRepartition),
               "repartition");
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kRepartitionBloom),
               "repartition(BF)");
  EXPECT_STREQ(JoinAlgorithmName(JoinAlgorithm::kZigzag), "zigzag");
  EXPECT_FALSE(IsHdfsSide(JoinAlgorithm::kDbSide));
  EXPECT_FALSE(IsHdfsSide(JoinAlgorithm::kDbSideBloom));
  EXPECT_TRUE(IsHdfsSide(JoinAlgorithm::kBroadcast));
  EXPECT_TRUE(IsHdfsSide(JoinAlgorithm::kZigzag));
}

TEST(ReportTest, ToStringContainsEverything) {
  ExecutionReport report;
  report.algorithm = JoinAlgorithm::kZigzag;
  report.wall_seconds = 1.5;
  report.phases = {{"scan", 0.5}};
  report.counters["jen.tuples_scanned"] = 42;
  report.network_bytes["cross_cluster"] = 1000;
  const std::string s = report.ToString();
  EXPECT_NE(s.find("zigzag"), std::string::npos);
  EXPECT_NE(s.find("scan"), std::string::npos);
  EXPECT_NE(s.find("jen.tuples_scanned = 42"), std::string::npos);
  EXPECT_NE(s.find("cross_cluster = 1000"), std::string::npos);
  EXPECT_EQ(report.Counter("jen.tuples_scanned"), 42);
  EXPECT_EQ(report.Counter("missing"), 0);
}

TEST(DriverCommonTest, TagsAreDistinct) {
  Metrics metrics;
  Network net(NetworkConfig{}, 2, 2, &metrics);
  const driver::Tags a = driver::Tags::Allocate(&net);
  const driver::Tags b = driver::Tags::Allocate(&net);
  const uint64_t a_tags[] = {
      a.bloom_local,  a.bloom_global,  a.bloom_to_jen, a.shuffle,
      a.db_data,      a.bloom_h_local, a.bloom_h_global, a.agg,
      a.result,       a.l_data,        a.control,      a.counts,
      a.strategy,     a.db_shuffle_t,  a.db_shuffle_l, a.profile,
      a.sketch_local, a.hot_global,    a.hot_to_jen,   a.adapt_stats,
      a.adapt_decision};
  std::set<uint64_t> unique(std::begin(a_tags), std::end(a_tags));
  EXPECT_EQ(unique.size(), std::size(a_tags));
  // Every tag lies in the block, and the block is exactly kWidth wide.
  EXPECT_EQ(unique.size(), driver::Tags::kWidth);
  EXPECT_EQ(*unique.begin(), a.base);
  EXPECT_EQ(*unique.rbegin(), a.base + driver::Tags::kWidth - 1);
  EXPECT_GT(b.bloom_local, a.db_shuffle_l);  // disjoint blocks
  EXPECT_GE(b.base, a.base + driver::Tags::kWidth);
}

TEST(DriverCommonTest, CombineBloomProducesGlobalUnionEverywhere) {
  SimulationConfig config;
  config.db.num_workers = 3;
  config.jen_workers = 1;
  EngineContext ctx(config);
  const driver::Tags tags = driver::Tags::Allocate(&ctx.network());
  const BloomParams params = BloomParams::ForKeys(256);

  std::vector<BloomFilter> globals(3, BloomFilter(params));
  std::vector<std::thread> workers;
  for (uint32_t i = 0; i < 3; ++i) {
    workers.emplace_back([&, i] {
      BloomFilter local(params);
      local.Add(1000 + static_cast<int64_t>(i));  // distinct key per worker
      auto global = driver::CombineBloomAtDbWorker0(&ctx, i, local, tags);
      ASSERT_TRUE(global.ok());
      globals[i] = std::move(global).value();
    });
  }
  for (auto& t : workers) t.join();
  for (uint32_t i = 0; i < 3; ++i) {
    for (int64_t k = 1000; k < 1003; ++k) {
      EXPECT_TRUE(globals[i].MayContain(k))
          << "worker " << i << " missing key " << k;
    }
    EXPECT_EQ(globals[i].FillRatio(), globals[0].FillRatio());
  }
}

TEST(DriverCommonTest, FilterBatchesByBloomDropsNonMembers) {
  auto schema = Schema::Make({{"k", DataType::kInt32}});
  RecordBatch batch(schema);
  for (int32_t i = 0; i < 100; ++i) batch.AppendRow({Value(i)});
  BloomFilter bloom(BloomParams::ForKeys(64, 16.0, 4));  // low FPR
  for (int32_t i = 0; i < 10; ++i) bloom.Add(i);
  auto filtered =
      driver::FilterBatchesByBloom({batch}, "k", bloom);
  ASSERT_TRUE(filtered.ok());
  size_t rows = 0;
  for (const auto& b : *filtered) rows += b.num_rows();
  EXPECT_GE(rows, 10u);
  EXPECT_LE(rows, 20u);  // 10 members + few false positives
}

TEST(ConfigTest, PaperTestbedScalesBandwidths) {
  const SimulationConfig base = SimulationConfig::PaperTestbed(4, 8, 1.0);
  const SimulationConfig half = SimulationConfig::PaperTestbed(4, 8, 0.5);
  EXPECT_EQ(base.db.num_workers, 4u);
  EXPECT_EQ(base.jen_workers, 8u);
  EXPECT_GT(base.datanode.disk_read_bps, 0u);
  EXPECT_EQ(half.datanode.disk_read_bps, base.datanode.disk_read_bps / 2);
  EXPECT_EQ(half.net.cross_switch_bps, base.net.cross_switch_bps / 2);
  // Ratios follow the paper: DB NICs faster than HDFS NICs, switch fastest.
  EXPECT_GT(base.net.db_nic_bps, base.net.hdfs_nic_bps);
  EXPECT_GT(base.net.cross_switch_bps, base.net.db_nic_bps);
}

// The build-side ablation must not change the result (§4.4: it only moves
// the hash-build to the other input).
TEST(BuildSideAblationTest, BothPlansProduceIdenticalRows) {
  WorkloadConfig wc;
  wc.num_join_keys = 512;
  wc.t_rows = 8000;
  wc.l_rows = 30000;
  auto workload = Workload::Generate(wc, {0.2, 0.3, 0.3, 0.3});
  ASSERT_TRUE(workload.ok());
  SimulationConfig config;
  config.db.num_workers = 3;
  config.jen_workers = 3;
  config.bloom.expected_keys = wc.num_join_keys;
  HybridWarehouse hw(config);
  ASSERT_TRUE(LoadWorkload(&hw, *workload).ok());

  auto prepared = PrepareQuery(&hw.context(), workload->MakeQuery());
  ASSERT_TRUE(prepared.ok());

  for (bool zigzag : {false, true}) {
    SCOPED_TRACE(zigzag ? "zigzag" : "repartition(BF)");
    JoinDriverOptions hdfs_build;
    JoinDriverOptions db_build;
    db_build.build_on_db_data = true;
    auto on_hdfs = RunRepartitionFamilyJoin(&hw.context(), *prepared,
                                            /*use_db_bloom=*/true, zigzag,
                                            hdfs_build);
    auto on_db = RunRepartitionFamilyJoin(&hw.context(), *prepared,
                                          /*use_db_bloom=*/true, zigzag,
                                          db_build);
    ASSERT_TRUE(on_hdfs.ok()) << on_hdfs.status();
    ASSERT_TRUE(on_db.ok()) << on_db.status();
    ASSERT_EQ(on_hdfs->rows.num_rows(), on_db->rows.num_rows());
    for (size_t r = 0; r < on_hdfs->rows.num_rows(); ++r) {
      EXPECT_EQ(on_hdfs->rows.column(0).i64()[r],
                on_db->rows.column(0).i64()[r]);
      EXPECT_EQ(on_hdfs->rows.column(1).i64()[r],
                on_db->rows.column(1).i64()[r]);
    }
  }
}

// The exact-semijoin second filter must agree with the Bloom variant and,
// having no false positives, never send MORE database tuples.
TEST(SemijoinFilterTest, MatchesBloomZigzagWithFewerOrEqualTuples) {
  WorkloadConfig wc;
  wc.num_join_keys = 1024;
  wc.t_rows = 16000;
  wc.l_rows = 50000;
  auto workload = Workload::Generate(wc, {0.2, 0.4, 0.2, 0.1});
  ASSERT_TRUE(workload.ok());
  SimulationConfig config;
  config.db.num_workers = 3;
  config.jen_workers = 3;
  config.bloom.expected_keys = wc.num_join_keys;
  HybridWarehouse hw(config);
  ASSERT_TRUE(LoadWorkload(&hw, *workload).ok());
  auto prepared = PrepareQuery(&hw.context(), workload->MakeQuery());
  ASSERT_TRUE(prepared.ok());

  JoinDriverOptions bloom_opts;
  JoinDriverOptions semi_opts;
  semi_opts.second_filter = SecondFilterKind::kExactSemijoin;
  auto with_bloom = RunRepartitionFamilyJoin(&hw.context(), *prepared, true,
                                             true, bloom_opts);
  auto with_semi = RunRepartitionFamilyJoin(&hw.context(), *prepared, true,
                                            true, semi_opts);
  ASSERT_TRUE(with_bloom.ok()) << with_bloom.status();
  ASSERT_TRUE(with_semi.ok()) << with_semi.status();

  ASSERT_EQ(with_semi->rows.num_rows(), with_bloom->rows.num_rows());
  for (size_t r = 0; r < with_semi->rows.num_rows(); ++r) {
    EXPECT_EQ(with_semi->rows.column(0).i64()[r],
              with_bloom->rows.column(0).i64()[r]);
    EXPECT_EQ(with_semi->rows.column(1).i64()[r],
              with_bloom->rows.column(1).i64()[r]);
  }
  // Exactness: no Bloom false positives inflate the T'' transfer.
  EXPECT_LE(with_semi->report.Counter(metric::kDbTuplesSent),
            with_bloom->report.Counter(metric::kDbTuplesSent));
  // But the key lists themselves crossed the interconnect.
  EXPECT_GT(with_semi->report.Counter("semijoin.key_bytes_sent"), 0);

  // Invalid combinations are rejected up front.
  JoinDriverOptions bad = semi_opts;
  bad.build_on_db_data = true;
  EXPECT_FALSE(RunRepartitionFamilyJoin(&hw.context(), *prepared, true, true,
                                        bad)
                   .ok());
}

}  // namespace
}  // namespace hybridjoin
