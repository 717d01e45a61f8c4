// The differential harness as a fixed-seed tier-1 suite: randomized cases
// against the reference executor (with and without faults), seed
// reproducibility, clean failure under unrecoverable loss, and the named
// edge-case regressions (empty filtered sides, one group, disjoint keys,
// single-row tables, a DataNode with zero blocks) run through every
// algorithm variant. docs/testing.md describes the methodology; the
// open-ended sweep lives in tools/fuzz_joins.
//
// Kept deliberately below typical per-test CI timeouts: small tables, a
// handful of seeds, 5 s receive timeouts bounding any faulted run.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "hybrid/reference.h"
#include "testing/differential.h"
#include "workload/loader.h"

namespace hybridjoin {
namespace {

using testing_support::CompareBatches;
using testing_support::DiffCase;
using testing_support::DiffCaseReport;
using testing_support::DifferentialVariants;
using testing_support::MakeRandomCase;
using testing_support::RunDifferentialCase;
using testing_support::RunVariant;

// ---------------------------------------------------------------------------
// Randomized fixed-seed suite.

TEST(DifferentialSuite, FaultFreeSeedsMatchReference) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const DiffCaseReport report = RunDifferentialCase(seed, "none");
    EXPECT_TRUE(report.ok()) << report.Summary();
  }
}

TEST(DifferentialSuite, RecoverableFaultsStillMatchReference) {
  // flaky = delays + transient failures + truncated retries + duplicates;
  // retry/dedup must absorb all of it, byte for byte.
  for (uint64_t seed = 10; seed <= 12; ++seed) {
    const DiffCaseReport report = RunDifferentialCase(seed, "flaky");
    EXPECT_TRUE(report.ok()) << report.Summary();
  }
  const DiffCaseReport stalled = RunDifferentialCase(20, "stall");
  EXPECT_TRUE(stalled.ok()) << stalled.Summary();
}

TEST(DifferentialSuite, LossyFailsCleanlyOrMatches) {
  // Hard loss is not recoverable: every variant must either still match the
  // oracle or surface a non-OK Status — within the recv timeout, no hangs.
  const DiffCaseReport report =
      RunDifferentialCase(30, "lossy", /*recv_timeout_ms=*/2000);
  EXPECT_TRUE(report.ok()) << report.Summary();
  for (const auto& outcome : report.outcomes) {
    if (!outcome.status.ok()) {
      EXPECT_FALSE(outcome.matched);
    }
  }
}

TEST(DifferentialSuite, MorselParallelExecutionMatchesReference) {
  // exec_threads=3: sharded build, parallel scan/probe and partial-aggregate
  // merge on every variant — still byte-for-byte against the single-node
  // oracle, fault-free and under the recoverable flaky profile.
  for (uint64_t seed = 5; seed <= 7; ++seed) {
    const DiffCaseReport report =
        RunDifferentialCase(seed, "none", /*recv_timeout_ms=*/5000,
                            /*exec_threads=*/3);
    EXPECT_TRUE(report.ok()) << report.Summary();
  }
  const DiffCaseReport flaky =
      RunDifferentialCase(13, "flaky", /*recv_timeout_ms=*/5000,
                          /*exec_threads=*/3);
  EXPECT_TRUE(flaky.ok()) << flaky.Summary();
}

TEST(DifferentialSuite, FailingReportPrintsExecThreads) {
  DiffCaseReport report;
  report.seed = 9;
  report.profile = "none";
  report.exec_threads = 4;
  report.profile_recoverable = true;
  report.outcomes.push_back(
      {"db", Status::Internal("synthetic"), false, ""});
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.Summary().find("--exec_threads=4"), std::string::npos)
      << report.Summary();
}

TEST(DifferentialSuite, CasesDrawEveryPostJoinShape) {
  // The post-join predicate comes from the case seed: the sweeps' seeds
  // cover every band shape the join walks and the ones it cannot.
  std::set<std::string> shapes;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    const PredicatePtr p = MakeRandomCase(seed).post_join_predicate;
    if (p == nullptr) {
      shapes.insert("none");
      continue;
    }
    const std::string text = p->ToString();
    long long lo = 0;
    long long hi = 0;
    if (text.front() == '(') {
      shapes.insert(text.find(" OR ") != std::string::npos ? "band under or"
                                                            : "band and cmp");
    } else if (text.rfind("L.", 0) == 0) {
      shapes.insert("swapped");
    } else if (std::sscanf(text.c_str(),
                           "T.predAfterJoin - L.predAfterJoin BETWEEN %lld "
                           "AND %lld",
                           &lo, &hi) == 2) {
      shapes.insert(lo > hi ? "empty"
                    : hi < 0 ? "negative"
                    : lo == 0 && hi == 1 ? "paper"
                                         : "wide");
    }
  }
  EXPECT_EQ(shapes, (std::set<std::string>{"band and cmp", "band under or",
                                           "empty", "negative", "none",
                                           "paper", "swapped", "wide"}));
}

TEST(DifferentialSuite, SeedReproducesIdenticalOutcome) {
  // The reproduction workflow (fuzz_joins --seed=N): the same seed must
  // yield the same case and, under loss, the same per-variant verdicts.
  const DiffCase a = MakeRandomCase(77);
  const DiffCase b = MakeRandomCase(77);
  EXPECT_EQ(a.summary, b.summary);
  EXPECT_NE(a.summary, MakeRandomCase(78).summary);

  const DiffCaseReport r1 = RunDifferentialCase(31, "lossy", 2000);
  const DiffCaseReport r2 = RunDifferentialCase(31, "lossy", 2000);
  ASSERT_EQ(r1.outcomes.size(), r2.outcomes.size());
  for (size_t i = 0; i < r1.outcomes.size(); ++i) {
    EXPECT_EQ(r1.outcomes[i].status.code(), r2.outcomes[i].status.code())
        << r1.outcomes[i].variant;
    EXPECT_EQ(r1.outcomes[i].matched, r2.outcomes[i].matched)
        << r1.outcomes[i].variant;
  }
}

TEST(DifferentialSuite, FailingReportPrintsReproducingSeed) {
  DiffCaseReport report;
  report.seed = 123;
  report.profile = "flaky";
  report.profile_recoverable = true;
  report.outcomes.push_back(
      {"zigzag", Status::TimedOut("recv timeout"), false, ""});
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.Summary().find("fuzz_joins --seed=123 --profiles=flaky"),
            std::string::npos)
      << report.Summary();
}

// ---------------------------------------------------------------------------
// Skewed-key workloads: the skew-aware hybrid shuffle route vs the oracle.

TEST(DifferentialSkew, SkewedSeedsMatchReference) {
  // zipf_s=1.3 concentrates ~25-30% of both tables on the top key at these
  // case sizes, enough for PickHotKeys to promote it; the hybrid route must
  // stay byte-identical to the reference.
  for (uint64_t seed = 41; seed <= 43; ++seed) {
    const DiffCaseReport report = RunDifferentialCase(
        seed, "none", /*recv_timeout_ms=*/5000, /*exec_threads=*/1,
        /*profile_out_prefix=*/"", /*mem_budget_bytes=*/0, /*zipf_s=*/1.3);
    EXPECT_TRUE(report.ok()) << report.Summary();
  }
}

TEST(DifferentialSkew, SkewSurvivesFaultsBudgetsAndThreads) {
  const DiffCaseReport flaky = RunDifferentialCase(
      44, "flaky", 5000, /*exec_threads=*/1, "", 0, /*zipf_s=*/1.3);
  EXPECT_TRUE(flaky.ok()) << flaky.Summary();
  const DiffCaseReport budgeted = RunDifferentialCase(
      45, "none", 5000, /*exec_threads=*/3, "", /*mem_budget_bytes=*/65536,
      /*zipf_s=*/1.3);
  EXPECT_TRUE(budgeted.ok()) << budgeted.Summary();
  const DiffCaseReport lossy = RunDifferentialCase(
      46, "lossy", /*recv_timeout_ms=*/2000, 1, "", 0, /*zipf_s=*/1.3);
  EXPECT_TRUE(lossy.ok()) << lossy.Summary();
}

TEST(DifferentialSkew, FailingReportPrintsZipf) {
  DiffCaseReport report;
  report.seed = 9;
  report.profile = "none";
  report.zipf_s = 1.3;
  report.profile_recoverable = true;
  report.outcomes.push_back(
      {"repartition_bloom", Status::Internal("synthetic"), false, ""});
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.Summary().find("--zipf_s=1.3"), std::string::npos)
      << report.Summary();
}

TEST(DifferentialSkew, HotRouteEngagesAndMatchesOracle) {
  // A workload skewed enough that the hot route provably engages: assert
  // the shuffle.* counters fired AND the result still equals the oracle.
  WorkloadConfig wc;
  wc.num_join_keys = 512;
  wc.t_rows = 6000;
  wc.l_rows = 24000;
  wc.zipf_s = 1.3;
  // Full key windows (st = sl = 1) so the hot key participates in the join
  // regardless of where its key-hash lands; selectivity comes from the
  // independent predicates alone.
  auto workload = Workload::Generate(wc, {0.3, 0.3, 1.0, 1.0});
  ASSERT_TRUE(workload.ok());
  const HybridQuery query = workload->MakeQuery();
  auto expected =
      RunReferenceJoin({workload->t_rows()}, workload->l_batches(), query);
  ASSERT_TRUE(expected.ok());

  SimulationConfig config;
  config.db.num_workers = 2;
  config.jen_workers = 4;
  config.bloom.expected_keys = wc.num_join_keys;
  HybridWarehouse hw(config);
  ASSERT_TRUE(LoadWorkload(&hw, *workload, {}).ok());

  auto result = hw.Execute(query, JoinAlgorithm::kRepartitionBloom);
  ASSERT_TRUE(result.ok()) << result.status();
  auto diff = CompareBatches(*expected, result->rows);
  EXPECT_FALSE(diff.has_value()) << *diff;
  EXPECT_GT(result->report.Counter(metric::kShuffleHotKeys), 0);
  EXPECT_GT(result->report.Counter(metric::kShuffleHotRowsBuild), 0);
  EXPECT_GT(result->report.Counter(metric::kShuffleHotRowsProbe), 0);
  EXPECT_GT(result->report.Counter(metric::kShuffleBroadcastBytes), 0);
  // The probe side's kept hot rows are charged to the governor until the
  // receive hands them on; none may outlive the query.
  EXPECT_EQ(hw.context().metrics().Get(metric::kServerGovernorLeakedBytes),
            0);

  // The off switch: same workload, hybrid route disabled, same answer and
  // no hot-route traffic.
  SimulationConfig off = config;
  off.skew.enabled = false;
  HybridWarehouse hw_off(off);
  ASSERT_TRUE(LoadWorkload(&hw_off, *workload, {}).ok());
  auto off_result = hw_off.Execute(query, JoinAlgorithm::kRepartitionBloom);
  ASSERT_TRUE(off_result.ok()) << off_result.status();
  auto off_diff = CompareBatches(*expected, off_result->rows);
  EXPECT_FALSE(off_diff.has_value()) << *off_diff;
  EXPECT_EQ(off_result->report.Counter(metric::kShuffleHotKeys), 0);
  EXPECT_EQ(off_result->report.Counter(metric::kShuffleHotRowsBuild), 0);
}

TEST(DifferentialSkew, HotKeysOutsideTheLWindowRouteNothing) {
  // The paper's correlated key windows with both sides Zipf-skewed (the
  // server_mix skew shape): T's corPred window holds the hottest key ranks,
  // L's window is offset from it, so every hot T' key is absent from L'.
  // The hot set is agreed and sent, yet BF_H prunes the hot T' rows and no
  // L' row has a hot key: no row takes the hot route, so the gauge (which
  // counts hot keys only where a hash route routes a row by them) reads 0.
  WorkloadConfig wc;
  wc.num_join_keys = 1024;
  wc.t_rows = 12 * 1024;
  wc.l_rows = 36 * 1024;
  wc.zipf_s = 1.2;
  auto workload = Workload::Generate(wc, {0.1, 0.1, 0.5, 0.5});
  ASSERT_TRUE(workload.ok());
  const HybridQuery query = workload->MakeQuery();
  auto expected =
      RunReferenceJoin({workload->t_rows()}, workload->l_batches(), query);
  ASSERT_TRUE(expected.ok());

  SimulationConfig config;
  config.db.num_workers = 2;
  config.jen_workers = 8;
  config.bloom.expected_keys = wc.num_join_keys;
  HybridWarehouse hw(config);
  ASSERT_TRUE(LoadWorkload(&hw, *workload, {}).ok());

  auto result = hw.Execute(query, JoinAlgorithm::kZigzag);
  ASSERT_TRUE(result.ok()) << result.status();
  auto diff = CompareBatches(*expected, result->rows);
  EXPECT_FALSE(diff.has_value()) << *diff;
  const ExecutionReport& report = result->report;
  bool hot_set_sent = false;
  for (const auto& [mark, t] : report.phases) {
    hot_set_sent = hot_set_sent || mark == "hot_set_sent";
  }
  EXPECT_TRUE(hot_set_sent);
  EXPECT_EQ(report.Counter(metric::kShuffleHotRowsBuild), 0);
  EXPECT_EQ(report.Counter(metric::kShuffleHotRowsProbe), 0);
  EXPECT_EQ(report.Counter(metric::kShuffleBroadcastBytes), 0);
  EXPECT_EQ(report.Counter(metric::kShuffleHotKeys), 0);
}

// ---------------------------------------------------------------------------
// Named edge-case regressions, hand-built tables, all variants vs oracle.

struct TRow {
  int32_t join_key;
  int32_t cor;
  int32_t date;
};

struct LRow {
  int32_t join_key;
  int32_t cor;
  int32_t date;
  std::string group;
};

RecordBatch MakeT(const std::vector<TRow>& rows) {
  RecordBatch t(Workload::TSchema());
  int64_t uniq = 0;
  for (const TRow& r : rows) {
    t.AppendRow({Value(uniq++), Value(r.join_key), Value(r.cor),
                 Value(int32_t{0}), Value(r.date), Value(std::string("x")),
                 Value(int32_t{0}), Value(int32_t{0})});
  }
  return t;
}

RecordBatch MakeL(const std::vector<LRow>& rows) {
  RecordBatch l(Workload::LSchema());
  for (const LRow& r : rows) {
    l.AppendRow({Value(r.join_key), Value(r.cor), Value(int32_t{0}),
                 Value(r.date), Value(r.group), Value(std::string("d"))});
  }
  return l;
}

HybridQuery EdgeQuery(int32_t t_cor_lit = 100, int32_t l_cor_lit = 100) {
  HybridQuery q;
  q.db.table = "T";
  q.db.alias = "T";
  q.db.predicate = Cmp("corPred", CmpOp::kLt, Value(t_cor_lit));
  q.db.projection = {"joinKey", "predAfterJoin"};
  q.db.join_key = "joinKey";
  q.hdfs.table = "L";
  q.hdfs.alias = "L";
  q.hdfs.predicate = Cmp("corPred", CmpOp::kLt, Value(l_cor_lit));
  q.hdfs.projection = {"joinKey", "predAfterJoin", "groupByExtractCol"};
  q.hdfs.join_key = "joinKey";
  q.post_join_predicate =
      DiffRange("T.predAfterJoin", "L.predAfterJoin", 0, 1);
  q.agg = AggSpec::CountStar("L.groupByExtractCol", /*extract_group=*/true);
  return q;
}

/// Runs every variant of `query` over hand-built tables and expects each to
/// equal the reference result exactly (including when that result is empty).
void ExpectAllVariantsMatch(const RecordBatch& t, const RecordBatch& l,
                            const HybridQuery& query, uint32_t db_workers,
                            uint32_t jen_workers, uint32_t rows_per_block,
                            const std::string& profile = "none") {
  auto expected = RunReferenceJoin({t}, {l}, query);
  ASSERT_TRUE(expected.ok()) << expected.status();

  for (const std::string& variant : DifferentialVariants()) {
    SCOPED_TRACE(variant);
    SimulationConfig config;
    config.db.num_workers = db_workers;
    config.jen_workers = jen_workers;
    config.bloom.expected_keys = 256;
    config.net.recv_timeout_ms = 5000;
    auto fault = FaultProfile::ByName(profile, /*seed=*/42, jen_workers);
    ASSERT_TRUE(fault.ok());
    config.fault = *fault;
    HybridWarehouse hw(config);

    ASSERT_TRUE(
        hw.CreateDbTable({"T", Workload::TSchema(), "uniqKey"}).ok());
    ASSERT_TRUE(hw.LoadDbTable("T", t).ok());
    ASSERT_TRUE(hw.CreateDbIndex("T", {"corPred", "indPred"}).ok());
    ASSERT_TRUE(
        hw.CreateDbIndex("T", {"corPred", "indPred", "joinKey"}).ok());
    HdfsWriteOptions write;
    write.rows_per_block = rows_per_block;
    ASSERT_TRUE(
        hw.WriteHdfsTable("L", Workload::LSchema(), write, {l}).ok());

    auto result = RunVariant(&hw, query, variant);
    ASSERT_TRUE(result.ok()) << result.status();
    auto diff = CompareBatches(*expected, result->rows);
    EXPECT_FALSE(diff.has_value()) << *diff;
  }
}

std::vector<TRow> SomeT() {
  return {{1, 5, 16000}, {2, 5, 16001}, {3, 5, 16002}, {4, 5, 16000}};
}

std::vector<LRow> SomeL() {
  return {{1, 5, 16000, "g1"},
          {2, 5, 16001, "g2"},
          {3, 5, 16002, "g3"},
          {1, 5, 16000, "g1"}};
}

TEST(DifferentialEdgeCases, EmptyTPrimeAfterPredicate) {
  // T's local predicate rejects every row; T' is empty on every DB worker.
  ExpectAllVariantsMatch(MakeT(SomeT()), MakeL(SomeL()),
                         EdgeQuery(/*t_cor_lit=*/0, /*l_cor_lit=*/100), 2, 3,
                         4096);
}

TEST(DifferentialEdgeCases, EmptyLPrimeAfterPredicate) {
  ExpectAllVariantsMatch(MakeT(SomeT()), MakeL(SomeL()),
                         EdgeQuery(/*t_cor_lit=*/100, /*l_cor_lit=*/0), 2, 3,
                         4096);
}

TEST(DifferentialEdgeCases, AllRowsInOneGroup) {
  std::vector<LRow> l = SomeL();
  for (LRow& r : l) r.group = "g7";
  ExpectAllVariantsMatch(MakeT(SomeT()), MakeL(l), EdgeQuery(), 3, 2, 4096);
}

TEST(DifferentialEdgeCases, JoinKeyAbsentFromOneSide) {
  // Disjoint key domains: a non-empty T' and L' joining to zero rows.
  std::vector<LRow> l = SomeL();
  for (LRow& r : l) r.join_key += 1000;
  ExpectAllVariantsMatch(MakeT(SomeT()), MakeL(l), EdgeQuery(), 2, 2, 4096);
}

TEST(DifferentialEdgeCases, SingleRowTables) {
  ExpectAllVariantsMatch(MakeT({{7, 5, 16000}}), MakeL({{7, 5, 16000, "g3"}}),
                         EdgeQuery(), 3, 3, 4096);
}

TEST(DifferentialEdgeCases, ZeroBlocksOnOneDataNode) {
  // Four rows in one HDFS block, five JEN workers: most DataNodes hold no
  // block of L at all, so their workers scan nothing but must still take
  // part in every shuffle/broadcast/aggregation round.
  ExpectAllVariantsMatch(MakeT(SomeT()), MakeL(SomeL()), EdgeQuery(), 2, 5,
                         /*rows_per_block=*/4096);
}

TEST(DifferentialEdgeCases, EdgeCasesSurviveFlakyNetwork) {
  // The same degenerate shapes under the adversarial recoverable profile —
  // empty streams are where retry/EOS protocol bugs hide.
  ExpectAllVariantsMatch(MakeT(SomeT()), MakeL(SomeL()),
                         EdgeQuery(/*t_cor_lit=*/0, /*l_cor_lit=*/100), 2, 3,
                         4096, "flaky");
  ExpectAllVariantsMatch(MakeT({{7, 5, 16000}}), MakeL({{7, 5, 16000, "g3"}}),
                         EdgeQuery(), 2, 2, 4096, "flaky");
}

}  // namespace
}  // namespace hybridjoin
