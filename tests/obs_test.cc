// Observability subsystem: JSON model, profile assembly, the per-node ==
// global invariant and exact byte accounting over every join algorithm,
// and the perfcheck regression gate.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <set>
#include <sstream>

#include "data_counters.h"
#include "exec/spill.h"
#include "hybrid/warehouse.h"
#include "obs/json.h"
#include "obs/perfcheck.h"
#include "obs/profile.h"
#include "obs/promtext.h"
#include "workload/loader.h"

namespace hybridjoin {
namespace obs {
namespace {

// ---------------------------------- JSON -----------------------------------

TEST(JsonTest, RoundTripKeepsIntegersExact) {
  JsonValue doc = JsonValue::Object();
  doc.Set("big", JsonValue::Int(9007199254740993LL));  // not double-exact
  doc.Set("neg", JsonValue::Int(-42));
  doc.Set("pi", JsonValue::Number(3.25));
  doc.Set("s", JsonValue::Str("a \"quoted\"\nline"));
  doc.Set("flag", JsonValue::Bool(true));
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Int(1));
  arr.Append(JsonValue::Null());
  doc.Set("arr", std::move(arr));

  for (int indent : {0, 2}) {
    auto parsed = JsonValue::Parse(doc.Dump(indent));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed->GetInt("big"), 9007199254740993LL);
    EXPECT_EQ(parsed->GetInt("neg"), -42);
    EXPECT_DOUBLE_EQ(parsed->GetDouble("pi"), 3.25);
    EXPECT_EQ(parsed->GetString("s"), "a \"quoted\"\nline");
    EXPECT_TRUE(parsed->GetBool("flag"));
    const JsonValue* a = parsed->Find("arr");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->items().size(), 2u);
    EXPECT_TRUE(a->items()[1].is_null());
  }
}

TEST(JsonTest, ObjectsPreserveInsertionOrderAndSetReplaces) {
  JsonValue doc = JsonValue::Object();
  doc.Set("z", JsonValue::Int(1));
  doc.Set("a", JsonValue::Int(2));
  doc.Set("z", JsonValue::Int(3));  // replace, not append
  ASSERT_EQ(doc.members().size(), 2u);
  EXPECT_EQ(doc.members()[0].first, "z");
  EXPECT_EQ(doc.members()[0].second.AsInt(), 3);
  EXPECT_EQ(doc.Dump(), "{\"z\":3,\"a\":2}");
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(JsonValue::Parse("[1, 2").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("nul").ok());
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonTest, ParseHandlesEscapesAndUnicode) {
  auto parsed = JsonValue::Parse(R"(["A\t\"\\", "é"])");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->items()[0].AsString(), "A\t\"\\");
  EXPECT_EQ(parsed->items()[1].AsString(), "\xC3\xA9");
}

// ---------------------------- node snapshots -------------------------------

NodeProfileSnapshot MakeSnapshot() {
  NodeProfileSnapshot snap;
  snap.node = "hdfs:3";
  snap.wall_us = 123456;
  snap.metrics.counters["jen.tuples_scanned"] = {5000, false};
  snap.metrics.counters["join.ht_max_chain"] = {7, true};
  HistogramSummary s;
  s.count = 4;
  s.total_seconds = 0.004;
  s.min_seconds = 0.0005;
  s.max_seconds = 0.002;
  s.p50_seconds = 0.001;
  s.p95_seconds = 0.002;
  s.p99_seconds = 0.002;
  snap.metrics.histograms["jen.scan"] = s;
  return snap;
}

// ------------------------------ phase mapping ------------------------------

TEST(PhaseMappingTest, KnownNamesAreStable) {
  EXPECT_STREQ(PhaseForMetric("jen.tuples_scanned"), "scan");
  EXPECT_STREQ(PhaseForMetric("hdfs.bytes_read"), "scan");
  EXPECT_STREQ(PhaseForMetric("edw.tuples_after_filter"), "scan");
  EXPECT_STREQ(PhaseForMetric("jen.tuples_shuffled"), "shuffle");
  EXPECT_STREQ(PhaseForMetric("edw.tuples_sent_to_hdfs"), "transfer");
  EXPECT_STREQ(PhaseForMetric("jen.tuples_sent_to_db"), "transfer");
  EXPECT_STREQ(PhaseForMetric("net.transfer"), "transfer");
  EXPECT_STREQ(PhaseForMetric(FlowBytesMetric(FlowClass::kCrossCluster)),
               "transfer");
  EXPECT_STREQ(PhaseForMetric("bloom.fill_pct"), "bloom");
  EXPECT_STREQ(PhaseForMetric("semijoin.keys"), "bloom");
  EXPECT_STREQ(PhaseForMetric("join.ht_rows"), "build");
  EXPECT_STREQ(PhaseForMetric("join.build_shard_rows"), "build");
  EXPECT_STREQ(PhaseForMetric("join.output_tuples"), "probe");
  EXPECT_STREQ(PhaseForMetric("jen.aggregate"), "aggregate");
  EXPECT_STREQ(PhaseForMetric("shuffle.hot_keys"), "shuffle");
  EXPECT_STREQ(PhaseForMetric("shuffle.broadcast_bytes"), "shuffle");
  EXPECT_STREQ(PhaseForMetric("shuffle.hot_rows_build"), "shuffle");
  EXPECT_STREQ(PhaseForMetric("shuffle.hot_rows_probe"), "shuffle");
  EXPECT_STREQ(PhaseForMetric("jen.worker_wall_us"), "driver");
  EXPECT_STREQ(PhaseForMetric("driver.db_worker"), "driver");
  EXPECT_STREQ(PhaseForMetric("something.else"), "other");
}

// The canonical join.* spill metric names (exec/spill.h) are the contract
// EXPLAIN ANALYZE consumers key on. Pin both the constants and their phase
// mapping so a rename regression fails here, not in a dashboard. The
// jen.spill_* aliases finished their one-release dual-emit window and are
// gone: they must now fall through to the "other" bucket.
TEST(PhaseMappingTest, CanonicalSpillNamesAreStable) {
  EXPECT_STREQ(metric::kSpillBytesWritten, "join.spill_bytes");
  EXPECT_STREQ(metric::kSpillBytesRead, "join.spill_bytes_read");
  EXPECT_STREQ(metric::kSpilledPartitions, "join.spill_partitions");
  EXPECT_STREQ(metric::kJoinRepartitionDepth, "join.repartition_depth");
  EXPECT_STREQ(metric::kJoinMemPeakBytes, "join.mem_peak_bytes");

  EXPECT_STREQ(PhaseForMetric("join.spill_bytes"), "spill");
  EXPECT_STREQ(PhaseForMetric("join.spill_bytes_read"), "spill");
  EXPECT_STREQ(PhaseForMetric("join.spill_partitions"), "spill");
  EXPECT_STREQ(PhaseForMetric("join.repartition_depth"), "spill");
  EXPECT_STREQ(PhaseForMetric("join.mem_peak_bytes"), "driver");
  EXPECT_STREQ(PhaseForMetric("jen.spill_bytes_written"), "other");
  EXPECT_STREQ(PhaseForMetric("jen.spill_bytes_read"), "other");
  EXPECT_STREQ(PhaseForMetric("jen.spilled_partitions"), "other");
}

// ----------------------------- profile assembly ----------------------------

TEST(AssembleProfileTest, SumsCountersMaxesGaugesComputesSkew) {
  std::vector<NodeProfileSnapshot> nodes(2);
  nodes[0].node = "hdfs:0";
  nodes[0].wall_us = 1000;
  nodes[0].metrics.counters["jen.tuples_scanned"] = {100, false};
  nodes[0].metrics.counters["join.ht_max_chain"] = {3, true};
  nodes[1].node = "hdfs:1";
  nodes[1].wall_us = 3000;
  nodes[1].metrics.counters["jen.tuples_scanned"] = {300, false};
  nodes[1].metrics.counters["join.ht_max_chain"] = {5, true};

  const QueryProfile p =
      AssembleProfile(7, "zigzag", 1.5, nodes, "trace.json");
  EXPECT_EQ(p.query_id, 7u);
  EXPECT_EQ(p.algorithm, "zigzag");
  EXPECT_FALSE(p.empty());

  const ProfileCounterRow* scanned =
      p.FindCounter("scan", "jen.tuples_scanned");
  ASSERT_NE(scanned, nullptr);
  EXPECT_EQ(scanned->total, 400);
  EXPECT_EQ(scanned->min, 100);
  EXPECT_EQ(scanned->max, 300);
  EXPECT_DOUBLE_EQ(scanned->mean, 200.0);
  EXPECT_DOUBLE_EQ(scanned->median, 200.0);
  EXPECT_DOUBLE_EQ(scanned->skew, 1.5);
  EXPECT_EQ(scanned->per_node.at("hdfs:0"), 100);

  const ProfileCounterRow* chain = p.FindCounter("build", "join.ht_max_chain");
  ASSERT_NE(chain, nullptr);
  EXPECT_TRUE(chain->gauge);
  EXPECT_EQ(chain->total, 5);  // max, not sum

  EXPECT_EQ(p.worker_wall_us.at("hdfs:1"), 3000);
  EXPECT_DOUBLE_EQ(p.worker_wall_skew, 1.5);
  EXPECT_EQ(p.FindCounter("scan", "missing"), nullptr);
  EXPECT_EQ(p.FindCounter("nophase", "jen.tuples_scanned"), nullptr);

  const std::string text = p.ToText();
  EXPECT_NE(text.find("phase scan"), std::string::npos);
  EXPECT_NE(text.find("jen.tuples_scanned"), std::string::npos);
  EXPECT_NE(text.find("trace.json"), std::string::npos);
}

// Name -> integer members of one object of a parsed profile export.
std::map<std::string, int64_t> IntMembers(const JsonValue& doc,
                                          const std::string& key) {
  std::map<std::string, int64_t> out;
  if (const JsonValue* obj = doc.Find(key); obj != nullptr) {
    for (const auto& [name, v] : obj->members()) out[name] = v.AsInt();
  }
  return out;
}

TEST(QueryProfileTest, JsonRoundTrip) {
  std::vector<NodeProfileSnapshot> nodes = {MakeSnapshot()};
  nodes.push_back(MakeSnapshot());
  nodes[1].node = "hdfs:4";
  nodes[1].wall_us = 99;
  QueryProfile p = AssembleProfile(42, "broadcast", 2.25, nodes, "t.json");
  p.global_counters["jen.tuples_scanned"] = 10000;
  p.network_bytes["shuffle"] = 4096;
  HistogramSummary s;
  s.count = 2;
  s.p95_seconds = 0.5;
  p.span_histograms["jen.probe"] = s;

  auto parsed = JsonValue::Parse(p.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->GetInt("query_id"), 42);
  EXPECT_EQ(parsed->GetString("algorithm"), "broadcast");
  EXPECT_DOUBLE_EQ(parsed->GetDouble("wall_seconds"), 2.25);
  EXPECT_EQ(parsed->GetString("trace_file"), "t.json");
  const JsonValue* workers = parsed->Find("workers");
  ASSERT_NE(workers, nullptr);
  EXPECT_EQ(IntMembers(*workers, "wall_us"), p.worker_wall_us);
  EXPECT_DOUBLE_EQ(workers->GetDouble("skew"), p.worker_wall_skew);
  const JsonValue* phases = parsed->Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->items().size(), p.phases.size());
  for (size_t i = 0; i < p.phases.size(); ++i) {
    const JsonValue& phase = phases->items()[i];
    EXPECT_EQ(phase.GetString("name"), p.phases[i].name);
    const JsonValue* counters = phase.Find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_EQ(counters->items().size(), p.phases[i].counters.size());
    for (size_t c = 0; c < p.phases[i].counters.size(); ++c) {
      const JsonValue& a = counters->items()[c];
      const auto& b = p.phases[i].counters[c];
      EXPECT_EQ(a.GetString("name"), b.name);
      EXPECT_EQ(a.GetBool("gauge"), b.gauge);
      EXPECT_EQ(a.GetInt("total"), b.total);
      EXPECT_EQ(IntMembers(a, "per_node"), b.per_node);
      EXPECT_DOUBLE_EQ(a.GetDouble("skew"), b.skew);
    }
    const JsonValue* histograms = phase.Find("histograms");
    ASSERT_NE(histograms, nullptr);
    ASSERT_EQ(histograms->items().size(), p.phases[i].histograms.size());
  }
  EXPECT_EQ(IntMembers(*parsed, "counters_total"), p.global_counters);
  EXPECT_EQ(IntMembers(*parsed, "network_bytes"), p.network_bytes);
  const JsonValue* spans = parsed->Find("span_histograms");
  ASSERT_NE(spans, nullptr);
  const JsonValue* probe = spans->Find("jen.probe");
  ASSERT_NE(probe, nullptr);
  EXPECT_DOUBLE_EQ(probe->GetDouble("p95_seconds"), 0.5);
}

TEST(QueryProfileTest, WriteJsonRoundTripsThroughDisk) {
  const QueryProfile p =
      AssembleProfile(3, "repartition", 0.5, {MakeSnapshot()}, "");
  const std::string path =
      testing::TempDir() + "/obs_profile_roundtrip.json";
  ASSERT_TRUE(p.WriteJson(path).ok());
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = JsonValue::Parse(buf.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->GetString("algorithm"), "repartition");
  std::remove(path.c_str());
}

// -------------------- end-to-end: per-node == global -----------------------

class ProfileEndToEnd : public testing::Test {
 protected:
  static WorkloadConfig SmallWorkload() {
    WorkloadConfig wc;
    wc.num_join_keys = 256;
    wc.t_rows = 4000;
    wc.l_rows = 16000;
    wc.num_groups = 7;
    wc.batch_rows = 2048;
    return wc;
  }
};

TEST_F(ProfileEndToEnd, PerNodeCountersMatchGlobalReportForEveryAlgorithm) {
  const WorkloadConfig wc = SmallWorkload();
  SelectivitySpec spec;
  auto workload = Workload::Generate(wc, spec);
  ASSERT_TRUE(workload.ok()) << workload.status();
  const HybridQuery query = workload->MakeQuery();

  // One warehouse for every run: each report must hold its own query's
  // values, so a second run of the same query reports the same counters
  // (gauges included) as the first.
  SimulationConfig config;
  config.db.num_workers = 2;
  config.jen_workers = 3;
  config.exec_threads = 1;
  config.bloom.expected_keys = wc.num_join_keys;
  HybridWarehouse hw(config);
  ASSERT_TRUE(LoadWorkload(&hw, *workload, {}).ok());

  struct Variant {
    std::string name;
    std::function<Result<QueryResult>()> run;
    int64_t rounds;  ///< RunWorkers rounds: the adaptive path runs two
    /// The algorithm the report must name; the adaptive path picks its own.
    std::optional<JoinAlgorithm> algorithm;
  };
  std::vector<Variant> variants;
  for (JoinAlgorithm algorithm :
       {JoinAlgorithm::kDbSide, JoinAlgorithm::kDbSideBloom,
        JoinAlgorithm::kBroadcast, JoinAlgorithm::kRepartition,
        JoinAlgorithm::kRepartitionBloom, JoinAlgorithm::kZigzag}) {
    variants.push_back({JoinAlgorithmName(algorithm),
                        [&hw, &query, algorithm] {
                          return hw.Execute(query, algorithm);
                        },
                        1, algorithm});
  }
  variants.push_back(
      {"auto", [&hw, &query] { return hw.ExecuteAuto(query); }, 2,
       std::nullopt});

  for (const Variant& variant : variants) {
    std::map<std::string, int64_t> first_run;
    std::map<std::string, int64_t> first_bytes;
    for (int run = 0; run < 2; ++run) {
      SCOPED_TRACE(variant.name + " run " + std::to_string(run));
      auto result = variant.run();
      ASSERT_TRUE(result.ok()) << result.status();
      const ExecutionReport& report = result->report;
      const QueryProfile& profile = report.profile;

      EXPECT_FALSE(profile.empty());
      if (variant.algorithm.has_value()) {
        EXPECT_EQ(report.algorithm, *variant.algorithm);
      }
      EXPECT_EQ(profile.algorithm, JoinAlgorithmName(report.algorithm));
      EXPECT_EQ(profile.worker_wall_us.size(), 5u);  // 2 DB + 3 JEN workers
      EXPECT_GE(profile.worker_wall_skew, 1.0);
      EXPECT_EQ(profile.global_counters, report.counters);

      // Accumulate each metric across phases: sum for counters, max for
      // gauges, then compare against the report.
      std::map<std::string, int64_t> per_node_total;
      std::map<std::string, bool> is_gauge;
      for (const ProfilePhase& phase : profile.phases) {
        EXPECT_FALSE(phase.counters.empty() && phase.histograms.empty());
        for (const ProfileCounterRow& row : phase.counters) {
          EXPECT_FALSE(row.per_node.empty());
          int64_t agg = 0;
          for (const auto& [node, v] : row.per_node) {
            agg = row.gauge ? std::max(agg, v) : agg + v;
          }
          EXPECT_EQ(agg, row.total) << row.name;
          int64_t& total = per_node_total[row.name];
          is_gauge[row.name] = row.gauge;
          total = row.gauge ? std::max(total, row.total) : total + row.total;
        }
      }
      for (const auto& [name, global] : report.counters) {
        ASSERT_EQ(per_node_total.count(name), 1u)
            << name << " missing from the profile";
        EXPECT_EQ(per_node_total[name], global)
            << (is_gauge[name] ? "gauge " : "counter ") << name;
      }

      // JEN straggler satellite: every JEN worker feeds jen.worker_wall_us
      // once per round.
      int64_t wall_nodes = 0;
      for (const ProfilePhase& phase : profile.phases) {
        for (const ProfileHistogramRow& row : phase.histograms) {
          if (row.name != metric::kJenWorkerWallUs) continue;
          for (const auto& [node, summary] : row.per_node) {
            EXPECT_EQ(summary.count, variant.rounds) << node;
            ++wall_nodes;
          }
        }
      }
      EXPECT_EQ(wall_nodes, 3);

      // Telemetry is read where it is written, never sent: the broadcast
      // and repartition joins (Figures 2-3) move nothing between DB
      // workers, and a second run moves exactly the bytes of the first.
      if (variant.algorithm == JoinAlgorithm::kBroadcast ||
          variant.algorithm == JoinAlgorithm::kRepartition) {
        EXPECT_EQ(report.network_bytes.count("intra_db"), 0u);
      }
      if (run == 0) {
        first_run = DataCounters(report.counters);
        first_bytes = report.network_bytes;
      } else {
        EXPECT_EQ(DataCounters(report.counters), first_run);
        EXPECT_EQ(report.network_bytes, first_bytes);
      }

      // The JSON export of this profile round-trips.
      auto parsed = JsonValue::Parse(profile.ToJson());
      ASSERT_TRUE(parsed.ok()) << parsed.status();
      EXPECT_EQ(IntMembers(*parsed, "counters_total"), report.counters);
      EXPECT_FALSE(profile.ToText().empty());
    }
  }
}

// One source of truth: with one query at a time, a query moves the process
// totals by exactly the counters of its own report. A counter that moves
// without appearing in the report, or the other way round, was written
// outside the query's worker slices. Network bytes are such counters: each
// class's BytesMoved delta equals the report's network_bytes and the sum of
// the profile's per-node net.*_bytes cells.
TEST_F(ProfileEndToEnd, ProcessTotalsMoveByExactlyTheReportedCounters) {
  const WorkloadConfig wc = SmallWorkload();
  auto workload = Workload::Generate(wc, SelectivitySpec{});
  ASSERT_TRUE(workload.ok()) << workload.status();
  const HybridQuery query = workload->MakeQuery();
  SimulationConfig config;
  config.db.num_workers = 2;
  config.jen_workers = 3;
  config.exec_threads = 1;
  config.bloom.expected_keys = wc.num_join_keys;
  HybridWarehouse hw(config);
  ASSERT_TRUE(LoadWorkload(&hw, *workload, {}).ok());
  const Metrics& metrics = hw.context().metrics();
  const Network& net = hw.context().network();
  const auto bytes_moved = [&net] {
    std::map<std::string, int64_t> out;
    for (int fc = 0; fc < 4; ++fc) {
      const int64_t bytes = net.BytesMoved(static_cast<FlowClass>(fc));
      if (bytes != 0) out[FlowClassName(static_cast<FlowClass>(fc))] = bytes;
    }
    return out;
  };

  std::vector<std::pair<std::string, std::function<Result<QueryResult>()>>>
      runs;
  for (JoinAlgorithm algorithm :
       {JoinAlgorithm::kDbSide, JoinAlgorithm::kDbSideBloom,
        JoinAlgorithm::kBroadcast, JoinAlgorithm::kRepartition,
        JoinAlgorithm::kRepartitionBloom, JoinAlgorithm::kZigzag}) {
    runs.emplace_back(JoinAlgorithmName(algorithm), [&hw, &query, algorithm] {
      return hw.Execute(query, algorithm);
    });
  }
  runs.emplace_back("auto", [&hw, &query] { return hw.ExecuteAuto(query); });

  for (const auto& [name, run] : runs) {
    SCOPED_TRACE(name);
    const auto before = metrics.Snapshot();
    const auto bytes_before = bytes_moved();
    auto result = run();
    ASSERT_TRUE(result.ok()) << result.status();
    std::set<std::string> gauges;
    const auto after = metrics.Snapshot(&gauges);
    std::map<std::string, int64_t> bytes_delta = bytes_moved();
    const ExecutionReport& report = result->report;

    const auto is_sum = [&gauges](const std::string& metric) {
      return gauges.count(metric) == 0 && metric.rfind("server.", 0) != 0;
    };
    std::map<std::string, int64_t> moved;
    for (const auto& [metric, value] : after) {
      auto it = before.find(metric);
      const int64_t delta = value - (it == before.end() ? 0 : it->second);
      if (delta != 0 && is_sum(metric)) moved[metric] = delta;
    }
    std::map<std::string, int64_t> reported;
    for (const auto& [metric, value] : report.counters) {
      if (is_sum(metric)) reported[metric] = value;
    }
    EXPECT_EQ(moved, reported);

    for (const auto& [flow, bytes] : bytes_before) bytes_delta[flow] -= bytes;
    std::erase_if(bytes_delta, [](const auto& kv) { return kv.second == 0; });
    EXPECT_FALSE(report.network_bytes.empty());
    EXPECT_EQ(bytes_delta, report.network_bytes);
    for (int fc = 0; fc < 4; ++fc) {
      const FlowClass flow = static_cast<FlowClass>(fc);
      const ProfileCounterRow* row =
          report.profile.FindCounter("transfer", FlowBytesMetric(flow));
      int64_t per_node_sum = 0;
      if (row != nullptr) {
        for (const auto& [node, bytes] : row->per_node) per_node_sum += bytes;
      }
      const auto it = report.network_bytes.find(FlowClassName(flow));
      EXPECT_EQ(per_node_sum,
                it == report.network_bytes.end() ? 0 : it->second)
          << FlowClassName(flow);
    }
  }
}

// -------------------------------- perfcheck --------------------------------

JsonValue MustParse(const std::string& text) {
  auto parsed = JsonValue::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  return std::move(parsed).value();
}

TEST(PerfcheckTest, FlattenKeysArraysByNameMember) {
  const JsonValue doc = MustParse(
      R"({"wall_seconds": 1.5,
          "phases": [{"name": "scan", "total_seconds": 0.5},
                     {"name": "probe", "total_seconds": 0.25}],
          "plain": [10, 20]})");
  const auto flat = FlattenNumericLeaves(doc);
  ASSERT_TRUE(flat.ok()) << flat.status();
  EXPECT_DOUBLE_EQ(flat->at("wall_seconds"), 1.5);
  EXPECT_DOUBLE_EQ(flat->at("phases.scan.total_seconds"), 0.5);
  EXPECT_DOUBLE_EQ(flat->at("phases.probe.total_seconds"), 0.25);
  EXPECT_DOUBLE_EQ(flat->at("plain.0"), 10.0);
  EXPECT_DOUBLE_EQ(flat->at("plain.1"), 20.0);
}

// Two rows with one name flatten onto one path; the second must not
// silently replace the first, or a regression in the first is never gated.
TEST(PerfcheckTest, DuplicatePathIsAnError) {
  const JsonValue doc = MustParse(
      R"({"rows": [{"name": "fig8/a", "wall_seconds": 1.0},
                   {"name": "fig8/a", "wall_seconds": 2.0}]})");
  const auto flat = FlattenNumericLeaves(doc);
  ASSERT_FALSE(flat.ok());
  EXPECT_NE(flat.status().message().find("rows.fig8/a.wall_seconds"),
            std::string::npos);
  const JsonValue unique = MustParse(R"({"wall_seconds": 1.0})");
  EXPECT_FALSE(ComparePerf(doc, unique, {}).ok());
  EXPECT_FALSE(ComparePerf(unique, doc, {}).ok());
}

TEST(PerfcheckTest, FlagsWallRegressionPastThreshold) {
  const JsonValue base = MustParse(R"({"wall_seconds": 1.0})");
  const JsonValue ok = MustParse(R"({"wall_seconds": 1.15})");
  const JsonValue bad = MustParse(R"({"wall_seconds": 1.25})");
  PerfcheckOptions options;  // 20% wall threshold
  EXPECT_TRUE(ComparePerf(base, ok, options)->regressions.empty());
  const PerfcheckResult r = *ComparePerf(base, bad, options);
  ASSERT_EQ(r.regressions.size(), 1u);
  EXPECT_EQ(r.regressions[0].family, "wall");
  EXPECT_EQ(r.regressions[0].path, "wall_seconds");
}

// A row that keeps its runs is judged on their median: one run that got
// slower, or one lucky baseline run, does not flag it.
TEST(PerfcheckTest, RowWallIsJudgedOnTheMedianRun) {
  const JsonValue base = MustParse(
      R"({"rows": [{"name": "r", "wall_seconds": 0.8,
                    "runs_s": [0.8, 1.0, 1.0]}]})");
  const JsonValue cur = MustParse(
      R"({"rows": [{"name": "r", "wall_seconds": 1.0,
                    "runs_s": [1.0, 1.05, 1.3]}]})");
  // The best run moved +25%, the median +5%.
  EXPECT_TRUE(ComparePerf(base, cur, {})->regressions.empty());
}

TEST(PerfcheckTest, RowWhoseEveryRunDoubledIsFlagged) {
  const JsonValue base = MustParse(
      R"({"rows": [{"name": "r", "wall_seconds": 1.0,
                    "runs_s": [1.0, 1.2]}]})");
  const JsonValue cur = MustParse(
      R"({"rows": [{"name": "r", "wall_seconds": 2.0,
                    "runs_s": [2.0, 2.4]}]})");
  const PerfcheckResult r = *ComparePerf(base, cur, {});
  ASSERT_EQ(r.regressions.size(), 1u);
  EXPECT_EQ(r.regressions[0].path, "rows.r.wall_seconds");
  EXPECT_DOUBLE_EQ(r.regressions[0].baseline, 1.1);  // the medians
  EXPECT_DOUBLE_EQ(r.regressions[0].current, 2.2);
}

TEST(PerfcheckTest, TinyBaselinesAreNoiseNotRegressions) {
  // 1 ms -> 10 ms is +900%, but below the 5 ms noise floor.
  const JsonValue base = MustParse(R"({"wall_seconds": 0.001})");
  const JsonValue cur = MustParse(R"({"wall_seconds": 0.010})");
  EXPECT_TRUE(ComparePerf(base, cur, {})->regressions.empty());
  PerfcheckOptions strict;
  strict.min_wall_seconds = 0.0;
  EXPECT_EQ(ComparePerf(base, cur, strict)->regressions.size(), 1u);
}

TEST(PerfcheckTest, GatesBytesAndSkewFamilies) {
  const JsonValue base = MustParse(
      R"({"network_bytes": {"shuffle_bytes": 1000},
          "workers": {"skew": 1.2},
          "join": {"output_tuples": 50}})");
  const JsonValue cur = MustParse(
      R"({"network_bytes": {"shuffle_bytes": 2000},
          "workers": {"skew": 2.5},
          "join": {"output_tuples": 500000}})");
  const PerfcheckResult r = *ComparePerf(base, cur, {});
  ASSERT_EQ(r.regressions.size(), 2u);  // tuple counts are not gated
  EXPECT_EQ(r.regressions[0].family, "bytes");   // paths iterate sorted
  EXPECT_EQ(r.regressions[1].family, "skew");
}

TEST(PerfcheckTest, LeavesOnOneSideOnlyAreIgnored) {
  const JsonValue base = MustParse(R"({"old_wall_seconds": 1.0})");
  const JsonValue cur = MustParse(R"({"new_wall_seconds": 9.0})");
  const PerfcheckResult r = *ComparePerf(base, cur, {});
  EXPECT_TRUE(r.regressions.empty());
  EXPECT_EQ(r.leaves_compared, 0u);
}

TEST(PerfcheckTest, EndToEndProfileJsonRegressionIsCaught) {
  QueryProfile p = AssembleProfile(1, "zigzag", 1.0, {MakeSnapshot()}, "");
  const std::string baseline = p.ToJson();
  p.wall_seconds = 1.5;  // > 20% wall regression
  const std::string current = p.ToJson();
  const PerfcheckResult r =
      *ComparePerf(MustParse(baseline), MustParse(current), {});
  ASSERT_FALSE(r.regressions.empty());
  EXPECT_EQ(r.regressions[0].path, "wall_seconds");
}

}  // namespace
}  // namespace obs
}  // namespace hybridjoin
