// Tests for the tracing subsystem: histogram percentile math, span nesting
// and node attribution, Chrome trace-event JSON well-formedness (verified by
// parsing it back) and whole files under concurrent writers, an end-to-end
// traced join whose report must carry the paper-relevant latency
// histograms, and overlapping traced queries that each report only their
// own records.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <latch>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "data_counters.h"
#include "exec/spill.h"
#include "hybrid/warehouse.h"
#include "obs/json.h"
#include "trace/chrome_trace.h"
#include "trace/tracer.h"
#include "workload/loader.h"

namespace hybridjoin {
namespace {

// Chrome traces are parsed back with the observability JSON parser, which
// shares no code with the trace writer: failing to parse means the
// exporter emitted bad JSON.
using obs::JsonValue;

/// Member `key` of `v`, or a null value when absent.
const JsonValue& At(const JsonValue& v, const std::string& key) {
  static const JsonValue kNull;
  const JsonValue* member = v.Find(key);
  return member == nullptr ? kNull : *member;
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  LatencyHistogram h;
  for (int64_t v = 0; v < 32; ++v) h.RecordMicros(v);
  EXPECT_EQ(h.Count(), 32);
  EXPECT_EQ(h.TotalMicros(), 31 * 32 / 2);
  // Values below the sub-bucket count land in unit buckets; percentiles of
  // the uniform 0..31 set are exact.
  EXPECT_EQ(h.PercentileMicros(50), 15);
  EXPECT_EQ(h.PercentileMicros(100), 31);
  const HistogramSummary s = h.Summarize();
  EXPECT_DOUBLE_EQ(s.min_seconds, 0.0);
  EXPECT_DOUBLE_EQ(s.max_seconds, 31e-6);
}

TEST(LatencyHistogramTest, UniformDistributionPercentilesWithinErrorBound) {
  LatencyHistogram h;
  for (int64_t v = 1; v <= 10000; ++v) h.RecordMicros(v);
  // The bucket layout bounds relative quantization error by ~6%, and
  // HighestEquivalent only rounds up.
  const struct {
    double percentile;
    double exact;
  } cases[] = {{50, 5000}, {95, 9500}, {99, 9900}};
  for (const auto& c : cases) {
    const auto got = static_cast<double>(h.PercentileMicros(c.percentile));
    EXPECT_GE(got, c.exact) << "p" << c.percentile;
    EXPECT_LE(got, c.exact * 1.07) << "p" << c.percentile;
  }
  const HistogramSummary s = h.Summarize();
  EXPECT_EQ(s.count, 10000);
  EXPECT_DOUBLE_EQ(s.min_seconds, 1e-6);
  EXPECT_DOUBLE_EQ(s.max_seconds, 10000e-6);
  EXPECT_LE(s.p50_seconds, s.p95_seconds);
  EXPECT_LE(s.p95_seconds, s.p99_seconds);
}

TEST(LatencyHistogramTest, BimodalDistribution) {
  LatencyHistogram h;
  for (int i = 0; i < 950; ++i) h.RecordMicros(100);
  for (int i = 0; i < 50; ++i) h.RecordMicros(100000);
  // p50 sits in the fast mode, p99 in the slow one.
  EXPECT_GE(h.PercentileMicros(50), 100);
  EXPECT_LE(h.PercentileMicros(50), 107);
  EXPECT_GE(h.PercentileMicros(99), 100000);
  EXPECT_LE(h.PercentileMicros(99), 107000);
}

TEST(LatencyHistogramTest, MergeAndReset) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 0; i < 100; ++i) a.RecordMicros(10);
  for (int i = 0; i < 100; ++i) b.RecordMicros(1000);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 200);
  EXPECT_EQ(a.PercentileMicros(25), 10);
  EXPECT_GE(a.PercentileMicros(75), 1000);
  const HistogramSummary s = a.Summarize();
  EXPECT_DOUBLE_EQ(s.min_seconds, 10e-6);
  a.Reset();
  EXPECT_EQ(a.Count(), 0);
  EXPECT_EQ(a.Summarize().count, 0);
}

TEST(LatencyHistogramTest, HugeValuesClampInsteadOfCrashing) {
  LatencyHistogram h;
  h.RecordMicros(INT64_MAX);
  h.RecordMicros(-5);  // treated as 0
  EXPECT_EQ(h.Count(), 2);
  EXPECT_GT(h.PercentileMicros(100), 0);
}

// ---------------------------------------------------------------------------
// Tracer / Span / ThreadScope
// ---------------------------------------------------------------------------

TEST(TracerTest, DisabledTracerRecordsNothing) {
  trace::Tracer tracer(/*enabled=*/false);
  {
    trace::Span span(&tracer, "x");
    EXPECT_FALSE(span.active());
  }
  {
    trace::Span span(nullptr, "y");
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(tracer.Snapshot().empty());
}

TEST(TracerTest, SpanNestingDepthAndAttribution) {
  trace::Tracer tracer(/*enabled=*/true);
  // Sleeps keep the three start timestamps distinct at µs resolution, so
  // the snapshot order is deterministic.
  const auto tick = std::chrono::microseconds(300);
  {
    trace::ThreadScope scope(NodeId::Hdfs(3), "jen_worker");
    trace::Span outer(&tracer, "outer", "driver");
    std::this_thread::sleep_for(tick);
    {
      trace::Span inner(&tracer, "inner", "join");
    }
    std::this_thread::sleep_for(tick);
    // Explicit node wins over the thread scope (still nested in `outer`).
    trace::Span other(&tracer, "other", "net", NodeId::Db(1));
    other.End();
    other.End();  // idempotent
  }
  const auto events = tracer.Snapshot();
  // Sorted by start time, parents before same-microsecond children.
  ASSERT_EQ(events.size(), 3u);

  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_TRUE(events[0].has_node);
  EXPECT_EQ(events[0].node, NodeId::Hdfs(3));
  EXPECT_STREQ(events[0].role, "jen_worker");

  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[1].node, NodeId::Hdfs(3));
  EXPECT_LE(events[1].dur_us, events[0].dur_us);
  EXPECT_GE(events[1].start_us, events[0].start_us);

  EXPECT_STREQ(events[2].name, "other");
  EXPECT_EQ(events[2].node, NodeId::Db(1));
  EXPECT_EQ(events[2].depth, 1);  // opened while `outer` was still active

  // Same thread, same tid on every event.
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_EQ(events[0].tid, events[2].tid);

  tracer.Clear();
  EXPECT_TRUE(tracer.Snapshot().empty());
}

TEST(TracerTest, ThreadScopeRestoresOuterAttribution) {
  trace::ThreadScope outer(NodeId::Db(0), "outer");
  {
    trace::ThreadScope inner(NodeId::Hdfs(1), "inner");
    NodeId node;
    const char* role = nullptr;
    ASSERT_TRUE(trace::ThreadScope::Current(&node, &role));
    EXPECT_EQ(node, NodeId::Hdfs(1));
    EXPECT_STREQ(role, "inner");
  }
  NodeId node;
  const char* role = nullptr;
  ASSERT_TRUE(trace::ThreadScope::Current(&node, &role));
  EXPECT_EQ(node, NodeId::Db(0));
  EXPECT_STREQ(role, "outer");
}

TEST(TracerTest, SpansFeedMetricsHistograms) {
  Metrics metrics;
  trace::Tracer tracer(/*enabled=*/true, &metrics);
  { trace::Span span(&tracer, "jen.probe", "join"); }
  { trace::Span span(&tracer, "jen.probe", "join"); }
  const auto histograms = metrics.HistogramCounts();
  auto it = histograms.find("jen.probe");
  ASSERT_NE(it, histograms.end());
  EXPECT_EQ(it->second.Count(), 2);
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

TEST(ChromeTraceTest, PidMapping) {
  trace::TraceEvent engine;
  EXPECT_EQ(trace::ChromePid(engine), 0u);
  trace::TraceEvent db;
  db.node = NodeId::Db(2);
  db.has_node = true;
  EXPECT_EQ(trace::ChromePid(db), 3u);
  trace::TraceEvent hdfs;
  hdfs.node = NodeId::Hdfs(0);
  hdfs.has_node = true;
  EXPECT_EQ(trace::ChromePid(hdfs), 1001u);
}

TEST(ChromeTraceTest, JsonParsesBackWithMetadataAndEvents) {
  trace::Tracer tracer(/*enabled=*/true);
  {
    trace::ThreadScope scope(NodeId::Db(0), "db_worker");
    trace::Span outer(&tracer, "driver.db_worker", "driver");
    trace::Span inner(&tracer, "net.send", "intra_db");
    inner.set_bytes(123);
  }
  const std::string json = trace::ChromeTraceJson(tracer.Snapshot());

  Result<JsonValue> doc = JsonValue::Parse(json);
  ASSERT_TRUE(doc.ok()) << doc.status() << json;
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(At(*doc, "displayTimeUnit").AsString(), "ms");
  const JsonValue& events = At(*doc, "traceEvents");
  ASSERT_TRUE(events.is_array());

  int x_events = 0;
  bool saw_process_name = false;
  bool saw_thread_name = false;
  bool saw_bytes = false;
  for (const JsonValue& e : events.items()) {
    ASSERT_TRUE(e.is_object());
    const std::string& ph = At(e, "ph").AsString();
    if (ph == "M") {
      if (At(e, "name").AsString() == "process_name" &&
          At(At(e, "args"), "name").AsString() == "db:0") {
        saw_process_name = true;
      }
      if (At(e, "name").AsString() == "thread_name") saw_thread_name = true;
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++x_events;
    for (const char* key : {"name", "cat", "ts", "dur", "pid", "tid"}) {
      EXPECT_NE(e.Find(key), nullptr) << key;
    }
    EXPECT_GE(At(e, "dur").AsDouble(), 0.0);
    EXPECT_EQ(At(e, "pid").AsDouble(), 1.0);  // NodeId::Db(0)
    if (At(e, "name").AsString() == "net.send") {
      EXPECT_EQ(At(At(e, "args"), "bytes").AsDouble(), 123.0);
      EXPECT_EQ(At(At(e, "args"), "depth").AsDouble(), 1.0);
      saw_bytes = true;
    }
  }
  EXPECT_EQ(x_events, 2);
  EXPECT_TRUE(saw_process_name);
  EXPECT_TRUE(saw_thread_name);
  EXPECT_TRUE(saw_bytes);
}

TEST(ChromeTraceTest, EscapesSpecialCharactersInStrings) {
  // \x01 is split off so the 'f' is not swallowed by the hex escape.
  const char kName[] =
      "a\"b\\c\nd\te\x01"
      "f";
  trace::TraceEvent event;
  event.name = kName;
  event.category = "cat";
  const std::string json = trace::ChromeTraceJson({event});
  Result<JsonValue> doc = JsonValue::Parse(json);
  ASSERT_TRUE(doc.ok()) << doc.status() << json;
  const JsonValue& events = At(*doc, "traceEvents");
  ASSERT_FALSE(events.items().empty());
  bool found = false;
  for (const JsonValue& e : events.items()) {
    if (At(e, "ph").AsString() == "X") {
      EXPECT_EQ(At(e, "name").AsString(), kName);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ChromeTraceTest, ConcurrentWritersLeaveOneWholeTrace) {
  // Writers of different-sized traces race on one path while a reader
  // keeps reading it: every read sees exactly one writer's document.
  constexpr int kWriters = 4;
  const std::string path = ::testing::TempDir() + "trace_test_race.json";
  std::vector<std::vector<trace::TraceEvent>> traces(kWriters);
  std::vector<std::string> docs;
  for (int w = 0; w < kWriters; ++w) {
    traces[w].resize(200 + 1500 * w);
    for (trace::TraceEvent& e : traces[w]) {
      e.name = "jen.probe";
      e.category = "join";
      e.dur_us = w;
    }
    docs.push_back(trace::ChromeTraceJson(traces[w]));
  }
  auto read_file = [&path] {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  ASSERT_TRUE(trace::WriteChromeTrace(traces[0], path).ok());
  std::atomic<int> writing{kWriters};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 20; ++i) {
        EXPECT_TRUE(trace::WriteChromeTrace(traces[w], path).ok());
      }
      --writing;
    });
  }
  int torn_reads = 0;
  while (writing.load() > 0) {
    const std::string doc = read_file();
    if (std::find(docs.begin(), docs.end(), doc) == docs.end()) ++torn_reads;
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(torn_reads, 0);
  const std::string last = read_file();
  EXPECT_NE(std::find(docs.begin(), docs.end(), last), docs.end());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// End to end: a traced zigzag join must produce the paper-relevant latency
// histograms and a Perfetto-loadable trace whose top-level driver spans
// cover (nearly) the whole execution.
// ---------------------------------------------------------------------------

TEST(TraceEndToEndTest, TracedZigzagProducesHistogramsAndLoadableTrace) {
  WorkloadConfig wc;
  wc.num_join_keys = 256;
  wc.t_rows = 4000;
  wc.l_rows = 20000;
  auto workload = Workload::Generate(wc, {0.3, 0.3, 0.5, 0.5});
  ASSERT_TRUE(workload.ok());

  const std::string trace_path =
      ::testing::TempDir() + "trace_test_zigzag.json";
  SimulationConfig config;
  config.db.num_workers = 2;
  config.jen_workers = 2;
  config.bloom.expected_keys = wc.num_join_keys;
  config.trace.enabled = true;
  config.trace.chrome_out = trace_path;
  HybridWarehouse hw(config);
  ASSERT_TRUE(LoadWorkload(&hw, *workload).ok());

  auto result = hw.Execute(workload->MakeQuery(), JoinAlgorithm::kZigzag);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ExecutionReport& report = result->report;

  // The acceptance histograms, with sane percentile ordering.
  for (const char* name :
       {trace::span::kNetSend, trace::span::kJenProbe,
        trace::span::kJenShuffle}) {
    const HistogramSummary* h = report.Histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->count, 0) << name;
    EXPECT_LE(h->p50_seconds, h->p95_seconds) << name;
    EXPECT_LE(h->p95_seconds, h->p99_seconds) << name;
    EXPECT_LE(h->p99_seconds, report.wall_seconds) << name;
  }
  EXPECT_EQ(report.trace_file, trace_path);
  // The report prints the histogram section.
  EXPECT_NE(report.ToString().find("jen.probe"), std::string::npos);

  // The written file is valid JSON with the Chrome trace shape.
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  Result<JsonValue> doc = JsonValue::Parse(buffer.str());
  ASSERT_TRUE(doc.ok()) << doc.status();
  const JsonValue& events = At(*doc, "traceEvents");
  ASSERT_TRUE(events.is_array());

  // Top-level driver spans must cover >= 90% of the measured wall time.
  // The driver thread's own spans (setup before the workers spawn, join
  // and report after) do not overlap the worker spans.
  double min_start = 1e18;
  double max_end = 0.0;
  int driver_spans = 0;
  double workers_start = 1e18, workers_end = 0.0;
  double setup_end = -1.0, finish_start = -1.0;
  for (const JsonValue& e : events.items()) {
    if (At(e, "ph").AsString() != "X") continue;
    EXPECT_GE(At(e, "dur").AsDouble(), 0.0);
    if (At(e, "cat").AsString() == "driver") {
      ++driver_spans;
      const double ts = At(e, "ts").AsDouble();
      const double end = ts + At(e, "dur").AsDouble();
      min_start = std::min(min_start, ts);
      max_end = std::max(max_end, end);
      const std::string& name = At(e, "name").AsString();
      if (name == trace::span::kDriverSetup) {
        setup_end = end;
      } else if (name == trace::span::kDriverFinish) {
        finish_start = ts;
      } else {
        workers_start = std::min(workers_start, ts);
        workers_end = std::max(workers_end, end);
      }
    }
  }
  // One per DB worker + one per JEN worker, then setup and finish.
  EXPECT_EQ(driver_spans, 2 + 2 + 2);
  EXPECT_GE((max_end - min_start) * 1e-6, 0.9 * report.wall_seconds);
  ASSERT_GE(setup_end, 0.0);
  ASSERT_GE(finish_start, 0.0);
  EXPECT_LE(setup_end, workers_start);
  EXPECT_GE(finish_start, workers_end);

  std::remove(trace_path.c_str());
}

TEST(TraceEndToEndTest, TracingDisabledLeavesReportHistogramsEmpty) {
  WorkloadConfig wc;
  wc.num_join_keys = 128;
  wc.t_rows = 2000;
  wc.l_rows = 8000;
  auto workload = Workload::Generate(wc, {0.3, 0.3, 0.5, 0.5});
  ASSERT_TRUE(workload.ok());
  SimulationConfig config;
  config.db.num_workers = 2;
  config.jen_workers = 2;
  config.bloom.expected_keys = wc.num_join_keys;
  HybridWarehouse hw(config);
  ASSERT_TRUE(LoadWorkload(&hw, *workload).ok());
  auto result = hw.Execute(workload->MakeQuery(), JoinAlgorithm::kBroadcast);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->report.histograms.empty());
  EXPECT_TRUE(result->report.trace_file.empty());
}

// ---------------------------------------------------------------------------
// Overlapping queries: every report is built from its own query's records
// only, so four traced zigzag queries running at once each report what the
// same query reports alone.
// ---------------------------------------------------------------------------

class OverlappingQueriesTest : public ::testing::Test {
 protected:
  static constexpr int kQueries = 4;
  static constexpr uint32_t kDbWorkers = 2;
  static constexpr uint32_t kJenWorkers = 3;

  void SetUp() override {
    WorkloadConfig wc;
    wc.num_join_keys = 256;
    wc.t_rows = 4000;
    wc.l_rows = 16000;
    wc.num_groups = 7;
    wc.batch_rows = 2048;
    auto workload = Workload::Generate(wc, {});
    ASSERT_TRUE(workload.ok()) << workload.status();
    query_ = workload->MakeQuery();
    SimulationConfig config;
    config.db.num_workers = kDbWorkers;
    config.jen_workers = kJenWorkers;
    config.exec_threads = 1;
    config.bloom.expected_keys = wc.num_join_keys;
    // Throttled block reads stretch each query to tens of milliseconds, so
    // queries released together overlap.
    config.datanode.disk_read_bps = 4 << 20;
    config.datanode.cache_read_bps = 4 << 20;
    config.trace.enabled = true;
    config.trace.chrome_out = trace_path_;
    hw_ = std::make_unique<HybridWarehouse>(config);
    ASSERT_TRUE(LoadWorkload(hw_.get(), *workload).ok());
  }

  void TearDown() override { std::remove(trace_path_.c_str()); }

  ExecutionReport RunOne() {
    auto result = hw_->Execute(query_, JoinAlgorithm::kZigzag);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? result->report : ExecutionReport();
  }

  /// Releases kQueries zigzag queries together and asserts that all of
  /// them were running at one instant.
  std::vector<ExecutionReport> RunOverlapping() {
    using Clock = std::chrono::steady_clock;
    std::vector<ExecutionReport> reports(kQueries);
    std::vector<Clock::time_point> start(kQueries);
    std::vector<Clock::time_point> end(kQueries);
    std::latch go(kQueries);
    std::vector<std::thread> threads;
    for (int q = 0; q < kQueries; ++q) {
      threads.emplace_back([&, q] {
        go.arrive_and_wait();
        start[q] = Clock::now();
        reports[q] = RunOne();
        end[q] = Clock::now();
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_LT(*std::max_element(start.begin(), start.end()),
              *std::min_element(end.begin(), end.end()))
        << "the queries did not overlap";
    return reports;
  }

  const std::string trace_path_ =
      ::testing::TempDir() + "trace_test_overlapping.json";
  HybridQuery query_;
  std::unique_ptr<HybridWarehouse> hw_;
};

TEST_F(OverlappingQueriesTest, EachReportHoldsOnlyItsOwnQuery) {
  const ExecutionReport solo = RunOne();
  const HistogramSummary* solo_probe = solo.Histogram(trace::span::kJenProbe);
  ASSERT_NE(solo_probe, nullptr);
  ASSERT_GT(solo.Counter(metric::kHdfsTuplesShuffled), 0);

  Network& net = hw_->context().network();
  auto bytes_moved = [&net] {
    std::map<std::string, int64_t> out;
    for (FlowClass fc : {FlowClass::kLoopback, FlowClass::kIntraDb,
                         FlowClass::kIntraHdfs, FlowClass::kCrossCluster}) {
      if (net.BytesMoved(fc) != 0) out[FlowClassName(fc)] = net.BytesMoved(fc);
    }
    return out;
  };
  const std::map<std::string, int64_t> before = bytes_moved();
  const std::vector<ExecutionReport> reports = RunOverlapping();
  std::map<std::string, int64_t> window = bytes_moved();
  for (const auto& [name, bytes] : before) window[name] -= bytes;

  std::map<std::string, int64_t> reported;
  for (const ExecutionReport& report : reports) {
    EXPECT_EQ(DataCounters(report.counters), DataCounters(solo.counters));
    for (const auto& [name, bytes] : report.network_bytes) {
      reported[name] += bytes;
    }
    const HistogramSummary* probe = report.Histogram(trace::span::kJenProbe);
    ASSERT_NE(probe, nullptr);
    EXPECT_EQ(probe->count, solo_probe->count);
  }
  EXPECT_EQ(reported, window);
  EXPECT_TRUE(hw_->context().tracer().Snapshot().empty());
}

TEST_F(OverlappingQueriesTest, TraceFileHoldsOneWholeQuery) {
  const ExecutionReport solo = RunOne();
  const std::vector<ExecutionReport> reports = RunOverlapping();
  std::ifstream in(trace_path_);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  Result<JsonValue> doc = JsonValue::Parse(buffer.str());
  ASSERT_TRUE(doc.ok()) << doc.status();
  std::map<std::string, int64_t> spans;  // span name -> events in the file
  for (const JsonValue& e : At(*doc, "traceEvents").items()) {
    if (At(e, "ph").AsString() == "X") ++spans[At(e, "name").AsString()];
  }
  EXPECT_EQ(spans[trace::span::kDriverDbWorker], kDbWorkers);
  EXPECT_EQ(spans[trace::span::kDriverJenWorker], kJenWorkers);
  EXPECT_EQ(spans[trace::span::kJenProbe],
            solo.Histogram(trace::span::kJenProbe)->count);
  // The file is one of the four queries' traces, whole: its spans are
  // exactly the spans behind that query's report histograms.
  int matches = 0;
  for (const ExecutionReport& report : reports) {
    EXPECT_EQ(report.trace_file, trace_path_);  // every query wrote it
    std::map<std::string, int64_t> counts;
    for (const auto& [name, summary] : report.histograms) {
      counts[name] = summary.count;
    }
    if (counts == spans) ++matches;
  }
  EXPECT_GE(matches, 1);
}

}  // namespace
}  // namespace hybridjoin
