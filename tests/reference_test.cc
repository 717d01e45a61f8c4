// Validates the reference executor (the oracle all distributed tests
// compare against) and the engine's JoinProber with a second, independent
// oracle: a brute-force O(n*m) nested-loop evaluation of the query
// semantics.

#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "common/metrics.h"
#include "common/random.h"
#include "exec/aggregator.h"
#include "exec/join_hash_table.h"
#include "exec/join_prober.h"
#include "expr/scalar_functions.h"
#include "hybrid/reference.h"
#include "workload/generator.h"

namespace hybridjoin {
namespace {

/// Straight-line re-implementation of the paper query's semantics:
/// filter both sides, nested-loop equi-join, date predicate, group count.
std::map<int64_t, int64_t> NestedLoopOracle(const RecordBatch& t,
                                            const std::vector<RecordBatch>& l,
                                            const SolvedSpec& s) {
  std::map<int64_t, int64_t> counts;
  std::vector<size_t> t_rows;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (t.column(2).i32()[r] < s.t_cor_lit &&
        t.column(3).i32()[r] < s.t_ind_lit) {
      t_rows.push_back(r);
    }
  }
  for (const RecordBatch& batch : l) {
    for (size_t lr = 0; lr < batch.num_rows(); ++lr) {
      if (!(batch.column(1).i32()[lr] < s.l_cor_lit &&
            batch.column(2).i32()[lr] < s.l_ind_lit)) {
        continue;
      }
      const int32_t l_key = batch.column(0).i32()[lr];
      const int32_t l_date = batch.column(3).i32()[lr];
      for (size_t tr : t_rows) {
        if (t.column(1).i32()[tr] != l_key) continue;
        const int32_t diff = t.column(4).i32()[tr] - l_date;
        if (diff < 0 || diff > 1) continue;
        counts[ExtractGroup(batch.column(4).str()[lr])]++;
      }
    }
  }
  return counts;
}

TEST(ReferenceOracleTest, MatchesNestedLoopOnSmallWorkloads) {
  for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    WorkloadConfig wc;
    wc.num_join_keys = 64;
    wc.t_rows = 1500;
    wc.l_rows = 4000;
    wc.num_groups = 11;
    wc.seed = seed;
    auto workload = Workload::Generate(wc, {0.3, 0.3, 0.5, 0.5});
    ASSERT_TRUE(workload.ok());
    const auto oracle = NestedLoopOracle(
        workload->t_rows(), workload->l_batches(), workload->solved());
    auto reference = RunReferenceJoin({workload->t_rows()},
                                      workload->l_batches(),
                                      workload->MakeQuery());
    ASSERT_TRUE(reference.ok()) << reference.status();
    ASSERT_EQ(reference->num_rows(), oracle.size()) << "seed " << seed;
    size_t i = 0;
    for (const auto& [group, count] : oracle) {
      EXPECT_EQ(reference->column(0).i64()[i], group);
      EXPECT_EQ(reference->column(1).i64()[i], count);
      ++i;
    }
  }
}

TEST(ReferenceOracleTest, NonTrivialResult) {
  WorkloadConfig wc;
  wc.num_join_keys = 64;
  wc.t_rows = 1500;
  wc.l_rows = 4000;
  auto workload = Workload::Generate(wc, {0.3, 0.3, 0.5, 0.5});
  ASSERT_TRUE(workload.ok());
  const auto oracle = NestedLoopOracle(
      workload->t_rows(), workload->l_batches(), workload->solved());
  int64_t total = 0;
  for (const auto& [g, c] : oracle) total += c;
  // The fixture must actually join something or the oracle proves nothing.
  EXPECT_GT(total, 100);
}

/// Rows of `batches` passing `predicate`, as one batch per input batch.
std::vector<RecordBatch> FilterBatches(const std::vector<RecordBatch>& batches,
                                       const PredicatePtr& predicate) {
  std::vector<RecordBatch> out;
  for (const RecordBatch& b : batches) {
    auto sel = predicate->FilterAll(b);
    EXPECT_TRUE(sel.ok()) << sel.status();
    out.push_back(b.Gather(*sel));
  }
  return out;
}

struct ProbeOutcome {
  int64_t join_matches = 0;
  int64_t output_rows = 0;
  std::map<int64_t, int64_t> counts;  // ExtractGroup(L.groupByExtractCol)
};

/// Nested-loop join of L' (build) and T' (probe) into fully materialized
/// joined rows, filtered by `post` as a whole batch.
ProbeOutcome NestedLoopProbe(const std::vector<RecordBatch>& l_prime,
                             const RecordBatch& t_prime,
                             const SchemaPtr& joined_schema,
                             const PredicatePtr& post) {
  RecordBatch joined(joined_schema);
  const size_t l_width = l_prime.front().num_columns();
  for (size_t tr = 0; tr < t_prime.num_rows(); ++tr) {
    for (const RecordBatch& l : l_prime) {
      for (size_t lr = 0; lr < l.num_rows(); ++lr) {
        if (l.column(0).i32()[lr] != t_prime.column(1).i32()[tr]) continue;
        for (size_t c = 0; c < l_width; ++c) {
          joined.mutable_column(c).AppendFrom(l.column(c), lr);
        }
        for (size_t c = 0; c < t_prime.num_columns(); ++c) {
          joined.mutable_column(l_width + c).AppendFrom(t_prime.column(c), tr);
        }
      }
    }
  }
  ProbeOutcome out;
  out.join_matches = static_cast<int64_t>(joined.num_rows());
  std::vector<uint32_t> sel(joined.num_rows());
  for (uint32_t i = 0; i < sel.size(); ++i) sel[i] = i;
  if (post != nullptr) {
    auto filtered = post->FilterAll(joined);
    EXPECT_TRUE(filtered.ok()) << filtered.status();
    sel = *filtered;
  }
  out.output_rows = static_cast<int64_t>(sel.size());
  for (uint32_t r : sel) out.counts[ExtractGroup(joined.column(4).str()[r])]++;
  return out;
}

TEST(ReferenceOracleTest, JoinProberMatchesNestedLoopForEveryPredicateShape) {
  WorkloadConfig wc;
  wc.num_join_keys = 64;
  wc.t_rows = 1500;
  wc.l_rows = 4000;
  wc.num_groups = 11;
  wc.batch_rows = 700;  // several build batches
  auto workload = Workload::Generate(wc, {0.3, 0.3, 0.5, 0.5});
  ASSERT_TRUE(workload.ok());
  const HybridQuery query = workload->MakeQuery();
  // Every column of both tables, so build and probe sides each carry ints,
  // dates, times and strings; L' keeps its batch boundaries.
  const std::vector<RecordBatch> l_prime =
      FilterBatches(workload->l_batches(), query.hdfs.predicate);
  const RecordBatch t_prime =
      FilterBatches({workload->t_rows()}, query.db.predicate).front();
  const SchemaPtr l_schema = l_prime.front().schema();
  const SchemaPtr t_schema = t_prime.schema();
  const SchemaPtr joined_schema = MakeJoinedSchema(l_schema, "L", t_schema, "T");
  const SolvedSpec& s = workload->solved();

  const std::vector<std::pair<std::string, PredicatePtr>> cases = {
      {"build columns only",
       Cmp("L.indPred", CmpOp::kLt, Value(int32_t{s.l_ind_lit / 2}))},
      {"probe columns only",
       Cmp("T.indPred", CmpOp::kGe, Value(int32_t{s.t_ind_lit / 2}))},
      {"both sides", DiffRange("T.predAfterJoin", "L.predAfterJoin", 0, 1)},
      {"both sides, swapped",
       DiffRange("L.predAfterJoin", "T.predAfterJoin", -1, 0)},
      {"empty band", DiffRange("T.predAfterJoin", "L.predAfterJoin", 1, 0)},
      {"string column", StrPrefix("L.groupByExtractCol", "g1")},
      {"or/not",
       Or({Not(DiffRange("T.predAfterJoin", "L.predAfterJoin", -3, 3)),
           And({StrPrefix("T.dummy1", "a"),
                Cmp("L.corPred", CmpOp::kLt, Value(int32_t{s.l_cor_lit}))})})},
      {"no predicate", nullptr},
  };
  for (const auto& [name, post] : cases) {
    SCOPED_TRACE(name);
    const ProbeOutcome expected =
        NestedLoopProbe(l_prime, t_prime, joined_schema, post);
    if (name == "empty band") {
      ASSERT_EQ(expected.output_rows, 0);
      ASSERT_GT(expected.join_matches, 0);
    } else {
      ASSERT_GT(expected.output_rows, 0);
    }
    if (post != nullptr) ASSERT_LT(expected.output_rows, expected.join_matches);

    // Built the way GraceHashJoin builds it: ordered by the band's build
    // column when the predicate has a band, so those cases take the walk.
    const auto band =
        ExtractJoinBand(post, joined_schema, l_schema->num_fields());
    JoinHashTable table(/*key_column=*/0, 1, /*governor=*/nullptr,
                        band.has_value()
                            ? std::optional<size_t>(band->build_column)
                            : std::nullopt);
    for (const RecordBatch& b : l_prime) ASSERT_TRUE(table.AddBatch(b).ok());
    table.Finalize();
    Metrics metrics;
    HashAggregator agg(query.agg);
    JoinProberOptions options;
    options.output_batch_rows = 7;  // chunks split mid-match-list
    JoinProber prober(&table, l_schema, "L", t_schema, "T",
                      /*probe_key_column=*/1, post, &agg, &metrics, options);
    // Probe in uneven slices so chunks also straddle probe batches.
    for (size_t begin = 0; begin < t_prime.num_rows(); begin += 97) {
      std::vector<uint32_t> rows;
      for (size_t r = begin; r < std::min(begin + 97, t_prime.num_rows());
           ++r) {
        rows.push_back(static_cast<uint32_t>(r));
      }
      ASSERT_TRUE(prober.ProbeBatch(t_prime.Gather(rows)).ok());
    }
    ASSERT_TRUE(prober.Flush().ok());

    EXPECT_EQ(prober.join_matches(), expected.join_matches);
    EXPECT_EQ(prober.output_rows(), expected.output_rows);
    EXPECT_EQ(metrics.Get(metric::kJoinOutputTuples), expected.output_rows);
    if (band.has_value()) {
      EXPECT_GT(metrics.Get(metric::kJoinBandVisited), 0);
    } else {
      EXPECT_EQ(metrics.Get(metric::kJoinBandVisited), 0);
    }
    const RecordBatch result = agg.Finish();
    ASSERT_EQ(result.num_rows(), expected.counts.size());
    size_t i = 0;
    for (const auto& [group, count] : expected.counts) {
      EXPECT_EQ(result.column(0).i64()[i], group);
      EXPECT_EQ(result.column(1).i64()[i], count);
      ++i;
    }
  }
}

}  // namespace
}  // namespace hybridjoin
