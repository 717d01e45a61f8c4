// Tests for the spill substrate and the Grace/hybrid hash join (the
// paper's §4.4 future work), including end-to-end equivalence with the
// all-in-memory join under forced spilling.

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/stopwatch.h"
#include "exec/grace_join.h"
#include "hybrid/reference.h"
#include "hybrid/warehouse.h"
#include "testing/differential.h"
#include "workload/loader.h"

namespace hybridjoin {
namespace {

// ------------------------------- SpillArea --------------------------------

RecordBatch SmallBatch(int32_t base, size_t n = 10) {
  auto schema =
      Schema::Make({{"k", DataType::kInt32}, {"s", DataType::kString}});
  RecordBatch b(schema);
  for (size_t i = 0; i < n; ++i) {
    b.AppendRow({Value(base + static_cast<int32_t>(i)),
                 Value("v" + std::to_string(base + i))});
  }
  return b;
}

TEST(SpillAreaTest, WriteReadRoundTrip) {
  Metrics metrics;
  SpillArea spill(0, 0, &metrics);
  const auto id = spill.Create();
  RecordBatch b1 = SmallBatch(0);
  RecordBatch b2 = SmallBatch(100);
  ASSERT_TRUE(spill.Append(id, b1).ok());
  ASSERT_TRUE(spill.Append(id, b2).ok());
  EXPECT_GT(spill.bytes_on_disk(), 0);

  std::vector<int32_t> keys;
  ASSERT_TRUE(spill
                  .ForEach(id, b1.schema(),
                           [&](RecordBatch&& batch) {
                             for (int32_t k : batch.column(0).i32()) {
                               keys.push_back(k);
                             }
                             return Status::OK();
                           })
                  .ok());
  ASSERT_EQ(keys.size(), 20u);
  EXPECT_EQ(keys[0], 0);
  EXPECT_EQ(keys[10], 100);
  EXPECT_GT(metrics.Get(metric::kSpillBytesWritten), 0);
  EXPECT_EQ(metrics.Get(metric::kSpillBytesWritten),
            metrics.Get(metric::kSpillBytesRead));

  spill.Drop(id);
  EXPECT_EQ(spill.bytes_on_disk(), 0);
}

TEST(SpillAreaTest, BadFileIdRejected) {
  SpillArea spill(0, 0, nullptr);
  RecordBatch b = SmallBatch(0);
  EXPECT_FALSE(spill.Append(99, b).ok());
  EXPECT_FALSE(
      spill.ForEach(99, b.schema(), [](RecordBatch&&) {
        return Status::OK();
      }).ok());
}

TEST(SpillAreaTest, ThrottledWrites) {
  SpillArea spill(512 * 1024, 0, nullptr);  // 512 KB/s writes
  const auto id = spill.Create();
  RecordBatch big = SmallBatch(0, 10000);  // ~110 KB serialized
  Stopwatch sw;
  ASSERT_TRUE(spill.Append(id, big).ok());
  ASSERT_TRUE(spill.Append(id, big).ok());
  // ~220 KB at 512 KB/s with a 64 KB burst: > 0.2 s of pacing.
  EXPECT_GT(sw.ElapsedSeconds(), 0.1);
}

// ------------------------------ GraceHashJoin -----------------------------

struct JoinInputs {
  SchemaPtr build_schema;
  SchemaPtr probe_schema;
  std::vector<RecordBatch> build;
  std::vector<RecordBatch> probe;
};

JoinInputs MakeInputs(size_t build_rows, size_t probe_rows, int32_t keys) {
  JoinInputs in;
  in.build_schema = Schema::Make(
      {{"k", DataType::kInt32}, {"grp", DataType::kInt32},
       {"pad", DataType::kString}});
  in.probe_schema =
      Schema::Make({{"k", DataType::kInt32}, {"v", DataType::kInt32}});
  Rng rng(11);
  RecordBatch b(in.build_schema);
  for (size_t i = 0; i < build_rows; ++i) {
    b.AppendRow({Value(static_cast<int32_t>(rng.Uniform(keys))),
                 Value(static_cast<int32_t>(rng.Uniform(7))),
                 Value("padding_" + std::to_string(i % 50))});
    if (b.num_rows() == 1000) {
      in.build.push_back(std::move(b));
      b = RecordBatch(in.build_schema);
    }
  }
  if (b.num_rows() > 0) in.build.push_back(std::move(b));
  RecordBatch p(in.probe_schema);
  for (size_t i = 0; i < probe_rows; ++i) {
    p.AppendRow({Value(static_cast<int32_t>(rng.Uniform(keys))),
                 Value(static_cast<int32_t>(rng.Uniform(100)))});
    if (p.num_rows() == 1000) {
      in.probe.push_back(std::move(p));
      p = RecordBatch(in.probe_schema);
    }
  }
  if (p.num_rows() > 0) in.probe.push_back(std::move(p));
  return in;
}

/// Reference: plain in-memory join + aggregation.
RecordBatch ReferenceJoin(const JoinInputs& in) {
  JoinHashTable table(0);
  for (RecordBatch batch : in.build) {
    HJ_CHECK_OK(table.AddBatch(std::move(batch)));
  }
  table.Finalize();
  auto spec = AggSpec::CountStar("B.grp", false);
  HashAggregator agg(spec);
  JoinProber prober(&table, in.build_schema, "B", in.probe_schema, "P", 0,
                    nullptr, &agg, nullptr);
  for (const RecordBatch& batch : in.probe) {
    HJ_CHECK_OK(prober.ProbeBatch(batch));
  }
  HJ_CHECK_OK(prober.Flush());
  return agg.Finish();
}

RecordBatch GraceJoinWithBudget(const JoinInputs& in, uint64_t budget,
                                uint32_t partitions, Metrics* metrics,
                                uint32_t* spilled) {
  SpillArea spill(0, 0, metrics);
  auto spec = AggSpec::CountStar("B.grp", false);
  HashAggregator agg(spec);
  GraceJoinOptions options;
  options.memory_budget_bytes = budget;
  options.num_partitions = partitions;
  GraceHashJoin join(in.build_schema, "B", 0, in.probe_schema, "P", 0,
                     nullptr, &agg, metrics, &spill, options);
  for (RecordBatch batch : in.build) {
    HJ_CHECK_OK(join.AddBuild(std::move(batch)));
  }
  HJ_CHECK_OK(join.FinishBuild());
  for (const RecordBatch& batch : in.probe) {
    HJ_CHECK_OK(join.AddProbe(batch));
  }
  HJ_CHECK_OK(join.Finish());
  if (spilled != nullptr) *spilled = join.spilled_partitions();
  return agg.Finish();
}

void ExpectEqualResults(const RecordBatch& a, const RecordBatch& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.column(0).i64()[r], b.column(0).i64()[r]);
    EXPECT_EQ(a.column(1).i64()[r], b.column(1).i64()[r]);
  }
}

TEST(GraceJoinTest, UnlimitedBudgetNeverSpills) {
  const JoinInputs in = MakeInputs(5000, 8000, 300);
  const RecordBatch expected = ReferenceJoin(in);
  Metrics metrics;
  uint32_t spilled = 99;
  const RecordBatch got =
      GraceJoinWithBudget(in, 0, 8, &metrics, &spilled);
  EXPECT_EQ(spilled, 0u);
  EXPECT_EQ(metrics.Get(metric::kSpillBytesWritten), 0);
  ExpectEqualResults(got, expected);
}

TEST(GraceJoinTest, TinyBudgetSpillsEverythingYetMatches) {
  const JoinInputs in = MakeInputs(5000, 8000, 300);
  const RecordBatch expected = ReferenceJoin(in);
  Metrics metrics;
  uint32_t spilled = 0;
  const RecordBatch got =
      GraceJoinWithBudget(in, 1024, 8, &metrics, &spilled);
  EXPECT_GT(spilled, 6u);  // nearly all partitions forced out
  EXPECT_GT(metrics.Get(metric::kSpillBytesWritten), 0);
  EXPECT_GT(metrics.Get(metric::kSpillBytesRead), 0);
  ExpectEqualResults(got, expected);
}

TEST(GraceJoinTest, MediumBudgetSpillsSomePartitions) {
  const JoinInputs in = MakeInputs(8000, 8000, 300);
  const RecordBatch expected = ReferenceJoin(in);
  uint64_t total_bytes = 0;
  for (const auto& b : in.build) total_bytes += b.ByteSize();
  Metrics metrics;
  uint32_t spilled = 0;
  const RecordBatch got = GraceJoinWithBudget(in, total_bytes / 3, 16,
                                              &metrics, &spilled);
  EXPECT_GT(spilled, 0u);
  EXPECT_LT(spilled, 16u);  // hybrid: some partitions stayed resident
  ExpectEqualResults(got, expected);
}

TEST(GraceJoinTest, SinglePartitionDegenerate) {
  const JoinInputs in = MakeInputs(2000, 3000, 50);
  const RecordBatch expected = ReferenceJoin(in);
  Metrics metrics;
  const RecordBatch got = GraceJoinWithBudget(in, 128, 1, &metrics, nullptr);
  ExpectEqualResults(got, expected);
}

TEST(GraceJoinTest, EmptyInputs) {
  JoinInputs in = MakeInputs(0, 0, 10);
  Metrics metrics;
  const RecordBatch got = GraceJoinWithBudget(in, 16, 4, &metrics, nullptr);
  EXPECT_EQ(got.num_rows(), 0u);
}

TEST(GraceJoinTest, PhaseMisuseRejected) {
  const JoinInputs in = MakeInputs(100, 100, 10);
  SpillArea spill(0, 0, nullptr);
  auto spec = AggSpec::CountStar("B.grp", false);
  HashAggregator agg(spec);
  GraceHashJoin join(in.build_schema, "B", 0, in.probe_schema, "P", 0,
                     nullptr, &agg, nullptr, &spill, GraceJoinOptions{});
  EXPECT_FALSE(join.AddProbe(in.probe[0]).ok());  // before FinishBuild
  RecordBatch b = in.build[0];
  ASSERT_TRUE(join.AddBuild(std::move(b)).ok());
  ASSERT_TRUE(join.FinishBuild().ok());
  RecordBatch b2 = in.build[0];
  EXPECT_FALSE(join.AddBuild(std::move(b2)).ok());  // after FinishBuild
  EXPECT_TRUE(join.Finish().ok());
}

// ----------------------- Seeded budget property test -----------------------

// Property: for ANY budget, the grace join's output equals the unlimited
// run's, and it spills iff the build side does not fit — spilled partitions
// (and spill bytes) are zero exactly when budget == 0 (unlimited) or
// budget >= build_bytes(). Budgets are drawn from [0, 2x build] so both
// sides of the boundary are exercised, plus the exact boundary itself.
TEST(GraceJoinTest, RandomBudgetsMatchUnlimitedAndSpillIffOverBudget) {
  const JoinInputs in = MakeInputs(6000, 9000, 250);
  const RecordBatch expected = ReferenceJoin(in);

  // Probe the exact build-side byte measure the budget is compared against
  // with one unlimited dry run. Same partition fanout as the sweep below:
  // the routed-slice accounting depends on it.
  constexpr uint32_t kPartitions = 8;
  uint64_t build_bytes = 0;
  {
    SpillArea spill(0, 0, nullptr);
    auto spec = AggSpec::CountStar("B.grp", false);
    HashAggregator agg(spec);
    GraceJoinOptions dry_options;
    dry_options.num_partitions = kPartitions;
    GraceHashJoin join(in.build_schema, "B", 0, in.probe_schema, "P", 0,
                       nullptr, &agg, nullptr, &spill, dry_options);
    for (RecordBatch batch : in.build) {
      HJ_CHECK_OK(join.AddBuild(std::move(batch)));
    }
    HJ_CHECK_OK(join.FinishBuild());
    HJ_CHECK_OK(join.Finish());
    build_bytes = join.build_bytes();
  }
  ASSERT_GT(build_bytes, 0u);

  Rng rng(20260808);
  std::vector<uint64_t> budgets = {0, build_bytes, build_bytes + 1,
                                   build_bytes - 1};
  for (int i = 0; i < 10; ++i) {
    budgets.push_back(rng.Uniform(2 * build_bytes + 1));
  }

  for (uint64_t budget : budgets) {
    Metrics metrics;
    SpillArea spill(0, 0, &metrics);
    auto spec = AggSpec::CountStar("B.grp", false);
    HashAggregator agg(spec);
    GraceJoinOptions options;
    options.memory_budget_bytes = budget;
    options.num_partitions = kPartitions;
    GraceHashJoin join(in.build_schema, "B", 0, in.probe_schema, "P", 0,
                       nullptr, &agg, &metrics, &spill, options);
    for (RecordBatch batch : in.build) {
      ASSERT_TRUE(join.AddBuild(std::move(batch)).ok()) << "budget " << budget;
    }
    ASSERT_TRUE(join.FinishBuild().ok()) << "budget " << budget;
    for (const RecordBatch& batch : in.probe) {
      ASSERT_TRUE(join.AddProbe(batch).ok()) << "budget " << budget;
    }
    ASSERT_TRUE(join.Finish().ok()) << "budget " << budget;
    EXPECT_EQ(join.build_bytes(), build_bytes) << "budget " << budget;

    const bool fits = budget == 0 || budget >= build_bytes;
    EXPECT_EQ(join.spilled_partitions() == 0, fits) << "budget " << budget;
    EXPECT_EQ(metrics.Get(metric::kSpillBytesWritten) == 0, fits)
        << "budget " << budget;

    const RecordBatch got = agg.Finish();
    SCOPED_TRACE("budget " + std::to_string(budget));
    ExpectEqualResults(got, expected);
  }
}

// ------------------------- End-to-end with spilling ------------------------

TEST(GraceJoinTest, ZigzagWithSpillBudgetMatchesUnlimited) {
  WorkloadConfig wc;
  wc.num_join_keys = 512;
  wc.t_rows = 8000;
  wc.l_rows = 40000;
  auto workload = Workload::Generate(wc, {0.3, 0.4, 0.5, 0.5});
  ASSERT_TRUE(workload.ok());

  auto run = [&](uint64_t budget, int64_t* spill_bytes) {
    SimulationConfig config;
    config.db.num_workers = 2;
    config.jen_workers = 3;
    config.bloom.expected_keys = wc.num_join_keys;
    config.query_memory_budget_bytes = budget;
    HybridWarehouse hw(config);
    HJ_CHECK_OK(LoadWorkload(&hw, *workload));
    auto result = hw.Execute(workload->MakeQuery(), JoinAlgorithm::kZigzag);
    HJ_CHECK(result.ok()) << result.status();
    if (spill_bytes != nullptr) {
      *spill_bytes = result->report.Counter(metric::kSpillBytesWritten);
    }
    return result->rows;
  };

  int64_t unlimited_spill = -1;
  const RecordBatch unlimited = run(0, &unlimited_spill);
  EXPECT_EQ(unlimited_spill, 0);

  int64_t forced_spill = 0;
  const RecordBatch spilled = run(2048, &forced_spill);
  EXPECT_GT(forced_spill, 0);

  ASSERT_EQ(spilled.num_rows(), unlimited.num_rows());
  for (size_t r = 0; r < spilled.num_rows(); ++r) {
    EXPECT_EQ(spilled.column(0).i64()[r], unlimited.column(0).i64()[r]);
    EXPECT_EQ(spilled.column(1).i64()[r], unlimited.column(1).i64()[r]);
  }
}

// One operator, one accounting: a budget that does not bind changes nothing,
// so the budgeted run reports the unbudgeted run's peak. The peak also holds
// in-flight exchange payloads, whose timing varies, so each side takes the
// largest peak of a few runs.
TEST(GraceJoinTest, NonBindingBudgetReportsUnbudgetedPeak) {
  WorkloadConfig wc;
  wc.num_join_keys = 512;
  wc.t_rows = 8000;
  wc.l_rows = 40000;
  auto workload = Workload::Generate(wc, {0.3, 0.4, 0.5, 0.5});
  ASSERT_TRUE(workload.ok());

  auto max_peak = [&](uint64_t budget) {
    SimulationConfig config;
    config.db.num_workers = 2;
    config.jen_workers = 3;
    config.bloom.expected_keys = wc.num_join_keys;
    config.query_memory_budget_bytes = budget;
    HybridWarehouse hw(config);
    HJ_CHECK_OK(LoadWorkload(&hw, *workload));
    int64_t peak = 0;
    for (int i = 0; i < 3; ++i) {
      auto result = hw.Execute(workload->MakeQuery(), JoinAlgorithm::kZigzag);
      HJ_CHECK(result.ok()) << result.status();
      EXPECT_EQ(result->report.Counter(metric::kSpilledPartitions), 0);
      const auto* row = result->report.profile.FindCounter(
          "driver", metric::kJoinMemPeakBytes);
      HJ_CHECK(row != nullptr);
      peak = std::max(peak, row->total);
    }
    return peak;
  };

  const int64_t unbudgeted = max_peak(0);
  ASSERT_GT(unbudgeted, 0);
  const int64_t budgeted = max_peak(4 * static_cast<uint64_t>(unbudgeted));
  EXPECT_GE(budgeted, unbudgeted * 9 / 10);
  EXPECT_LE(budgeted, unbudgeted * 11 / 10);
}

// The exact-semijoin zigzag runs under the query budget like every other
// variant: a budget far below its build spills, and the result stays exact.
TEST(GraceJoinTest, ExactSemijoinZigzagSpillsUnderBudget) {
  WorkloadConfig wc;
  wc.num_join_keys = 512;
  wc.t_rows = 8000;
  wc.l_rows = 40000;
  auto workload = Workload::Generate(wc, {0.3, 0.4, 0.5, 0.5});
  ASSERT_TRUE(workload.ok());
  const HybridQuery query = workload->MakeQuery();
  auto expected =
      RunReferenceJoin({workload->t_rows()}, workload->l_batches(), query);
  ASSERT_TRUE(expected.ok()) << expected.status();

  SimulationConfig config;
  config.db.num_workers = 2;
  config.jen_workers = 3;
  config.bloom.expected_keys = wc.num_join_keys;
  config.query_memory_budget_bytes = 64 * 1024;
  HybridWarehouse hw(config);
  HJ_CHECK_OK(LoadWorkload(&hw, *workload));
  auto result = testing_support::RunVariant(&hw, query, "zigzag_semijoin");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->report.Counter(metric::kSpilledPartitions), 0);
  const auto diff = testing_support::CompareBatches(*expected, result->rows);
  EXPECT_FALSE(diff.has_value()) << *diff;
}

}  // namespace
}  // namespace hybridjoin
