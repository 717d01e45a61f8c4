// Tests for the adaptive join-location layer (hybrid/adaptive_join.cc):
// the DecidePivot stay-or-pivot rule, and end-to-end executions where the
// decision point corrects deliberately misleading statistics mid-query.
//
// The misleading statistics come from WorkloadConfig::cluster_t_by_pred:
// storing T sorted by its corPred column makes every stored batch pass the
// predicate almost entirely or not at all, so the estimator's single-batch
// sample is arbitrarily wrong while the decision point's exact qualifying
// row count (from the Bloom-build scan) is not. All shapes and seeds below
// are deterministic; the assertions hold run-over-run.

#include <gtest/gtest.h>

#include "hybrid/reference.h"
#include "hybrid/warehouse.h"
#include "testing/differential.h"
#include "workload/loader.h"

namespace hybridjoin {
namespace {

// ------------------------------ DecidePivot -------------------------------

SimulationConfig ThrottledConfig() {
  SimulationConfig c = SimulationConfig::PaperTestbed(2, 3, /*scale=*/1.0);
  c.bloom.expected_keys = 1024;
  return c;
}

/// Estimates that make zigzag the clear §5.5 winner under ThrottledConfig.
QueryEstimates ZigzagEstimates() {
  QueryEstimates est;
  est.db_filtered_bytes = 40 * 1024 * 1024;
  est.hdfs_filtered_bytes = 300 * 1024 * 1024;
  est.hdfs_scan_bytes = 800 * 1024 * 1024;
  est.db_joinkey_selectivity = 0.2;
  est.hdfs_joinkey_selectivity = 0.1;
  return est;
}

/// Estimates that make broadcast the clear winner (tiny T', heavy L').
QueryEstimates BroadcastEstimates() {
  QueryEstimates est;
  est.db_filtered_bytes = 10 * 1024;
  est.hdfs_filtered_bytes = 150 * 1024 * 1024;
  est.hdfs_scan_bytes = 200 * 1024 * 1024;
  return est;
}

TEST(DecidePivotTest, PivotsOnLargeObservedDisagreement) {
  EngineContext ctx(ThrottledConfig());
  const Advice initial = AdviseAlgorithm(ctx, ZigzagEstimates());
  ASSERT_EQ(initial.algorithm, JoinAlgorithm::kZigzag);
  const Advice verdict =
      DecidePivot(ctx, initial, BroadcastEstimates(), /*pivot_threshold=*/0.2);
  EXPECT_TRUE(verdict.has_observed);
  EXPECT_TRUE(verdict.pivoted) << verdict.ToString();
  EXPECT_EQ(verdict.final_algorithm, JoinAlgorithm::kBroadcast);
  EXPECT_EQ(verdict.algorithm, JoinAlgorithm::kZigzag);  // initial preserved
  EXPECT_FALSE(verdict.pivot_reason.empty());
  // Observed per-algorithm costs are filled in and rank broadcast best.
  EXPECT_LT(verdict.observed_broadcast_cost, verdict.observed_zigzag_cost);
  EXPECT_LT(verdict.observed_broadcast_cost, verdict.observed_db_side_cost);
}

TEST(DecidePivotTest, NeverPivotsWhenObservationConfirmsThePick) {
  EngineContext ctx(ThrottledConfig());
  const Advice initial = AdviseAlgorithm(ctx, ZigzagEstimates());
  // Observation agrees (same estimates): even a zero threshold stays.
  const Advice verdict =
      DecidePivot(ctx, initial, ZigzagEstimates(), /*pivot_threshold=*/0.0);
  EXPECT_TRUE(verdict.has_observed);
  EXPECT_FALSE(verdict.pivoted) << verdict.ToString();
  EXPECT_EQ(verdict.final_algorithm, initial.algorithm);
  EXPECT_TRUE(verdict.pivot_reason.empty());
}

TEST(DecidePivotTest, HysteresisSuppressesNearTies) {
  EngineContext ctx(ThrottledConfig());
  const Advice initial = AdviseAlgorithm(ctx, ZigzagEstimates());
  const QueryEstimates observed = BroadcastEstimates();
  // Find the observed stay/best cost ratio, then bracket it with thresholds:
  // hysteresis above the gap stays, hysteresis below it pivots.
  const Advice probe = DecidePivot(ctx, initial, observed, 0.0);
  ASSERT_TRUE(probe.pivoted);
  const double ratio =
      probe.observed_zigzag_cost / probe.observed_broadcast_cost;
  ASSERT_GT(ratio, 1.0);
  const Advice stayed = DecidePivot(ctx, initial, observed, ratio - 1.0 + 0.01);
  EXPECT_FALSE(stayed.pivoted) << stayed.ToString();
  EXPECT_EQ(stayed.final_algorithm, initial.algorithm);
  const Advice pivoted =
      DecidePivot(ctx, initial, observed, ratio - 1.0 - 0.01);
  EXPECT_TRUE(pivoted.pivoted) << pivoted.ToString();
}

TEST(DecidePivotTest, ToStringRendersEstimateVersusObservation) {
  EngineContext ctx(ThrottledConfig());
  const Advice initial = AdviseAlgorithm(ctx, ZigzagEstimates());
  EXPECT_NE(initial.ToString().find("est. costs"), std::string::npos);
  const Advice verdict = DecidePivot(ctx, initial, BroadcastEstimates(), 0.2);
  const std::string s = verdict.ToString();
  EXPECT_NE(s.find("zigzag -> broadcast"), std::string::npos) << s;
  EXPECT_NE(s.find("[pivoted]"), std::string::npos) << s;
  EXPECT_NE(s.find("est -> obs"), std::string::npos) << s;
  const Advice stayed = DecidePivot(ctx, initial, ZigzagEstimates(), 0.2);
  EXPECT_NE(stayed.ToString().find("[stayed]"), std::string::npos)
      << stayed.ToString();
}

// --------------------------- End-to-end pivots ----------------------------

/// The misleading-stats cell: T stored sorted by corPred so the estimator's
/// sampled batch sees zero qualifying rows (the advisor then picks
/// broadcast for the "tiny" T'), while the true T' is 20% of the table.
/// The throttled cross-switch makes broadcasting the real T' expensive, so
/// the observed cost model pivots to zigzag at the decision point.
class MisleadingStatsTest : public testing::Test {
 protected:
  void SetUp() override {
    WorkloadConfig wc;
    wc.num_join_keys = 2048;
    wc.t_rows = 64 * 1024;
    wc.l_rows = 192 * 1024;
    wc.batch_rows = 16 * 1024;
    wc.cluster_t_by_pred = true;
    auto workload = Workload::Generate(wc, {0.2, 0.1, 0.5, 0.5});
    ASSERT_TRUE(workload.ok()) << workload.status();
    workload_ = std::make_unique<Workload>(std::move(*workload));
    config_ = SimulationConfig();
    config_.db.num_workers = 2;
    config_.jen_workers = 3;
    config_.db.batch_rows = 4096;
    config_.bloom.expected_keys = wc.num_join_keys;
    config_.exec_threads = 1;
    config_.net.hdfs_nic_bps = 2 * 1024 * 1024;
    config_.net.cross_switch_bps = 512 * 1024;
  }

  std::unique_ptr<HybridWarehouse> MakeWarehouse() {
    auto hw = std::make_unique<HybridWarehouse>(config_);
    EXPECT_TRUE(LoadWorkload(hw.get(), *workload_).ok());
    return hw;
  }

  std::unique_ptr<Workload> workload_;
  SimulationConfig config_;
};

TEST_F(MisleadingStatsTest, PivotCorrectsTheMispickAndBeatsIt) {
  auto hw = MakeWarehouse();
  const HybridQuery query = workload_->MakeQuery();

  // The clustered layout fools the estimator: the sampled batch reports no
  // qualifying T rows and the advisor mispicks broadcast.
  auto est = EstimateQuery(&hw->context(), query);
  ASSERT_TRUE(est.ok()) << est.status();
  EXPECT_EQ(est->db_filtered_bytes, 0u);
  const Advice initial = AdviseAlgorithm(hw->context(), *est);
  ASSERT_EQ(initial.algorithm, JoinAlgorithm::kBroadcast)
      << initial.ToString();

  // Warm the HDFS page caches so the adaptive and static runs below read at
  // the same (warm) tier and the wall-clock comparison is apples-to-apples.
  ASSERT_TRUE(hw->Execute(query, JoinAlgorithm::kZigzag).ok());

  Advice advice;
  auto adaptive = hw->ExecuteAuto(query, &advice);
  ASSERT_TRUE(adaptive.ok()) << adaptive.status();
  EXPECT_TRUE(advice.has_observed);
  EXPECT_TRUE(advice.pivoted) << advice.ToString();
  EXPECT_EQ(advice.algorithm, JoinAlgorithm::kBroadcast);
  EXPECT_EQ(advice.final_algorithm, JoinAlgorithm::kZigzag)
      << advice.ToString();
  // The exact prefix count replaces the estimator's zero.
  EXPECT_FALSE(advice.pivot_reason.empty());

  // Byte-for-byte against the single-node oracle.
  auto ref = RunReferenceJoin({workload_->t_rows()}, workload_->l_batches(),
                              query);
  ASSERT_TRUE(ref.ok()) << ref.status();
  auto diff = testing_support::CompareBatches(*ref, adaptive->rows);
  EXPECT_FALSE(diff.has_value()) << *diff;

  // The pivot's verdict lands in the EXPLAIN ANALYZE profile.
  EXPECT_NE(adaptive->report.profile.ToText().find("advisor.pivoted"),
            std::string::npos);
  const obs::ProfileCounterRow* pivot_row =
      adaptive->report.profile.FindCounter("driver", "advisor.pivoted");
  ASSERT_NE(pivot_row, nullptr);
  EXPECT_EQ(pivot_row->total, 1);

  // Mid-query correction beats committing to the mispick: the static
  // broadcast pays the throttled cross-switch for the full (real) T'.
  auto mispick = hw->Execute(query, initial.algorithm);
  ASSERT_TRUE(mispick.ok()) << mispick.status();
  EXPECT_LT(adaptive->report.wall_seconds, mispick->report.wall_seconds)
      << advice.ToString();
}

TEST_F(MisleadingStatsTest, HysteresisSuppressesThePivot) {
  // Same misleading cell, but with a hysteresis threshold far above the
  // observed cost gap: the query must stay on the initial pick (and still
  // be correct) even though the observed costs disagree.
  config_.adaptive.pivot_threshold = 10.0;
  auto hw = MakeWarehouse();
  const HybridQuery query = workload_->MakeQuery();
  Advice advice;
  auto result = hw->ExecuteAuto(query, &advice);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(advice.has_observed);
  EXPECT_FALSE(advice.pivoted) << advice.ToString();
  EXPECT_EQ(advice.final_algorithm, JoinAlgorithm::kBroadcast);
  // The disagreement itself is still visible in the observed costs.
  EXPECT_GT(advice.observed_broadcast_cost,
            advice.observed_zigzag_cost * 1.2);
  auto ref = RunReferenceJoin({workload_->t_rows()}, workload_->l_batches(),
                              query);
  ASSERT_TRUE(ref.ok());
  auto diff = testing_support::CompareBatches(*ref, result->rows);
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST_F(MisleadingStatsTest, DisabledAdaptivityKeepsTheStaticPath) {
  config_.adaptive.enabled = false;
  auto hw = MakeWarehouse();
  Advice advice;
  auto result = hw->ExecuteAuto(workload_->MakeQuery(), &advice);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(advice.has_observed);
  EXPECT_FALSE(advice.pivoted);
}

/// Accurate statistics (no clustering): the decision point must confirm the
/// initial pick and cost only a bounded slice of the query.
TEST(AdaptiveOverheadTest, AccurateStatsStayAndOverheadIsBounded) {
  WorkloadConfig wc;
  wc.num_join_keys = 2048;
  wc.t_rows = 64 * 1024;
  wc.l_rows = 192 * 1024;
  wc.batch_rows = 16 * 1024;
  auto workload = Workload::Generate(wc, {0.2, 0.1, 0.5, 0.5});
  ASSERT_TRUE(workload.ok());
  SimulationConfig config;
  config.db.num_workers = 2;
  config.jen_workers = 3;
  config.db.batch_rows = 4096;
  config.bloom.expected_keys = wc.num_join_keys;
  config.exec_threads = 1;
  HybridWarehouse hw(config);
  ASSERT_TRUE(LoadWorkload(&hw, *workload).ok());
  const HybridQuery query = workload->MakeQuery();
  ASSERT_TRUE(hw.Execute(query, JoinAlgorithm::kZigzag).ok());  // warm

  Advice advice;
  auto adaptive = hw.ExecuteAuto(query, &advice);
  ASSERT_TRUE(adaptive.ok()) << adaptive.status();
  EXPECT_TRUE(advice.has_observed);
  EXPECT_FALSE(advice.pivoted) << advice.ToString();
  auto fixed = hw.Execute(query, advice.final_algorithm);
  ASSERT_TRUE(fixed.ok());
  // Wall-clock bound is deliberately loose (2x) to stay robust on loaded CI
  // machines; the tight (<5%) overhead claim is the benchmark exhibit's
  // (bench_paper --exhibit=adaptive), judged on the median of repeated runs.
  EXPECT_LT(adaptive->report.wall_seconds,
            2.0 * fixed->report.wall_seconds + 0.25);
}

}  // namespace
}  // namespace hybridjoin
