// Observability-plane unit tests: the Prometheus renderer types each series
// by how its cells were written (Add -> counter, Max/Set -> gauge, also
// after a real query) and round-trips through the strict validator
// (including under 8-way concurrent writers), the validator rejects
// malformed expositions, the event log writes parseable JSON lines, the
// process-list registry snapshots and cancels, the scrape endpoint serves
// real HTTP, and perfcheck's overhead family gates against its absolute
// ceiling. Server-integrated behavior (KILL through a running join, scrape
// == registry across a live warehouse, the metrics_out writer) lives in
// server_test.cc.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/query_scope.h"
#include "exec/memory_governor.h"
#include "hybrid/warehouse.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/metrics_http.h"
#include "obs/perfcheck.h"
#include "obs/promtext.h"
#include "obs/query_registry.h"
#include "workload/loader.h"

namespace hybridjoin {
namespace {

// ---------------------------------------------------------------------------
// Prometheus naming and series types.

TEST(PromtextTest, PrometheusNameSanitizes) {
  EXPECT_EQ(obs::PrometheusName("join.spill_bytes"), "hj_join_spill_bytes");
  EXPECT_EQ(obs::PrometheusName("server.queries_executed"),
            "hj_server_queries_executed");
  EXPECT_EQ(obs::PrometheusName("weird name-with/chars"),
            "hj_weird_name_with_chars");
}

// A series' TYPE comes from its record, whatever its name says: Add cells
// are counters with the _total suffix, Max and Set cells gauges without
// it, and join.ht_max_chain (written with Max) is a gauge after a real
// query.
TEST(PromtextTest, TypesComeFromTheRecord) {
  Metrics metrics;
  metrics.Add("test.peak_pct", 5);  // gauge-looking name, written with Add
  metrics.Max("test.rows", 9);      // counter-looking name, written with Max
  metrics.Set("test.sessions", 2);
  const std::string text = obs::RenderPrometheus(metrics);
  ASSERT_TRUE(obs::ValidatePrometheus(text).ok()) << text;
  EXPECT_NE(text.find("# TYPE hj_test_peak_pct_total counter\n"
                      "hj_test_peak_pct_total 5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE hj_test_rows gauge\nhj_test_rows 9\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE hj_test_sessions gauge\nhj_test_sessions 2\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("hj_test_rows_total"), std::string::npos);
  EXPECT_EQ(text.find("hj_test_sessions_total"), std::string::npos);

  WorkloadConfig wc;
  wc.num_join_keys = 128;
  wc.t_rows = 1000;
  wc.l_rows = 4000;
  auto workload = Workload::Generate(wc, SelectivitySpec{});
  ASSERT_TRUE(workload.ok()) << workload.status();
  SimulationConfig config;
  config.db.num_workers = 2;
  config.jen_workers = 2;
  config.bloom.expected_keys = wc.num_join_keys;
  HybridWarehouse hw(config);
  ASSERT_TRUE(LoadWorkload(&hw, *workload, {}).ok());
  auto result = hw.Execute(workload->MakeQuery(), JoinAlgorithm::kZigzag);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GT(result->report.Counter(metric::kJoinHtMaxChain), 0);
  const std::string after_query =
      obs::RenderPrometheus(hw.context().metrics());
  ASSERT_TRUE(obs::ValidatePrometheus(after_query).ok());
  EXPECT_NE(after_query.find("# TYPE hj_join_ht_max_chain gauge\n"),
            std::string::npos);
  EXPECT_EQ(after_query.find("hj_join_ht_max_chain_total"), std::string::npos);
  EXPECT_NE(after_query.find("# TYPE hj_net_cross_cluster_bytes_total counter"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Renderer round-trip: everything RenderPrometheus emits must pass the
// validator, with counters suffixed _total and gauges not.

TEST(PromtextTest, RenderRoundTripsThroughValidator) {
  Metrics metrics;
  metrics.Add(metric::kServerQueriesExecuted, 7);
  metrics.Add(metric::kJoinOutputTuples, 12345);
  metrics.Set(metric::kServerOpenSessions, 3);
  metrics.Max(metric::kJoinHtLoadFactorPct, 62);
  metrics.Record("jen.worker_wall_us", 1500);
  metrics.Record("jen.worker_wall_us", 250000);

  const std::string text = obs::RenderPrometheus(metrics);
  const Status valid = obs::ValidatePrometheus(text);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << text;

  EXPECT_NE(text.find("hj_server_queries_executed_total 7"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE hj_server_open_sessions gauge"),
            std::string::npos);
  EXPECT_NE(text.find("hj_server_open_sessions 3"), std::string::npos);
  EXPECT_EQ(text.find("hj_server_open_sessions_total"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hj_jen_worker_wall_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("hj_jen_worker_wall_us_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("hj_jen_worker_wall_us_count 2"), std::string::npos);
}

// The acceptance families: a registry carrying server/join/shuffle/advisor
// series renders all four under their prefixes.
TEST(PromtextTest, RenderCoversAllMetricFamilies) {
  Metrics metrics;
  metrics.Add(metric::kServerQueriesExecuted, 1);
  metrics.Add(metric::kJoinOutputTuples, 1);
  metrics.Set(metric::kShuffleHotKeys, 4);
  metrics.Max(metric::kAdvisorObservedDbBytes, 1 << 20);

  const std::string text = obs::RenderPrometheus(metrics);
  ASSERT_TRUE(obs::ValidatePrometheus(text).ok());
  for (const char* family :
       {"hj_server_", "hj_join_", "hj_shuffle_", "hj_advisor_"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
}

// ---------------------------------------------------------------------------
// Validator rejection fixtures.

TEST(PromtextTest, ValidatorRejectsMalformed) {
  // Invalid metric name (leading digit).
  EXPECT_FALSE(obs::ValidatePrometheus("# TYPE 9bad counter\n9bad 1\n").ok());
  // Sample without any TYPE declaration.
  EXPECT_FALSE(obs::ValidatePrometheus("hj_orphan 1\n").ok());
  // TYPE after its samples.
  EXPECT_FALSE(obs::ValidatePrometheus(
                   "# TYPE hj_a counter\nhj_a 1\n# TYPE hj_a counter\n")
                   .ok());
  // Unknown TYPE kind.
  EXPECT_FALSE(obs::ValidatePrometheus("# TYPE hj_a cntr\nhj_a 1\n").ok());
  // Unparseable value.
  EXPECT_FALSE(
      obs::ValidatePrometheus("# TYPE hj_a counter\nhj_a banana\n").ok());
  // Histogram buckets out of le order.
  EXPECT_FALSE(obs::ValidatePrometheus("# TYPE hj_h histogram\n"
                                       "hj_h_bucket{le=\"1\"} 1\n"
                                       "hj_h_bucket{le=\"0.5\"} 2\n"
                                       "hj_h_bucket{le=\"+Inf\"} 2\n"
                                       "hj_h_sum 1\n"
                                       "hj_h_count 2\n")
                   .ok());
  // Cumulative bucket counts decreasing.
  EXPECT_FALSE(obs::ValidatePrometheus("# TYPE hj_h histogram\n"
                                       "hj_h_bucket{le=\"0.5\"} 5\n"
                                       "hj_h_bucket{le=\"1\"} 3\n"
                                       "hj_h_bucket{le=\"+Inf\"} 5\n"
                                       "hj_h_sum 1\n"
                                       "hj_h_count 5\n")
                   .ok());
  // Missing the mandatory +Inf bucket.
  EXPECT_FALSE(obs::ValidatePrometheus("# TYPE hj_h histogram\n"
                                       "hj_h_bucket{le=\"1\"} 1\n"
                                       "hj_h_sum 1\n"
                                       "hj_h_count 1\n")
                   .ok());
  // _count disagreeing with the +Inf bucket.
  EXPECT_FALSE(obs::ValidatePrometheus("# TYPE hj_h histogram\n"
                                       "hj_h_bucket{le=\"+Inf\"} 2\n"
                                       "hj_h_sum 1\n"
                                       "hj_h_count 3\n")
                   .ok());
  // Bare sample for a declared histogram.
  EXPECT_FALSE(
      obs::ValidatePrometheus("# TYPE hj_h histogram\nhj_h 1\n").ok());

  // A well-formed document passes.
  EXPECT_TRUE(obs::ValidatePrometheus("# HELP hj_a help text\n"
                                      "# TYPE hj_a counter\n"
                                      "hj_a 42\n"
                                      "# TYPE hj_h histogram\n"
                                      "hj_h_bucket{le=\"0.5\"} 1\n"
                                      "hj_h_bucket{le=\"+Inf\"} 2\n"
                                      "hj_h_sum 0.75\n"
                                      "hj_h_count 2\n")
                  .ok());
}

// ---------------------------------------------------------------------------
// Satellite (c): scrape/registry round-trip under concurrent writers — the
// rendered value of a counter equals the registry's value once writers
// stop, and every mid-flight render validates.

TEST(PromtextTest, ConcurrentRenderMatchesRegistry) {
  Metrics metrics;
  constexpr int kWriters = 8;
  constexpr int kAddsPerWriter = 2000;
  std::atomic<bool> stop{false};
  std::atomic<int> render_failures{0};

  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string text = obs::RenderPrometheus(metrics);
      if (!obs::ValidatePrometheus(text).ok()) {
        render_failures.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < kAddsPerWriter; ++i) {
        metrics.Add(metric::kServerQueriesExecuted, 1);
        metrics.Record("jen.worker_wall_us", 100 + i);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  scraper.join();
  EXPECT_EQ(render_failures.load(), 0);

  // Quiesced: the scraped number equals the registry number exactly.
  const std::string text = obs::RenderPrometheus(metrics);
  ASSERT_TRUE(obs::ValidatePrometheus(text).ok());
  const std::string needle =
      "hj_server_queries_executed_total " +
      std::to_string(kWriters * kAddsPerWriter) + "\n";
  EXPECT_NE(text.find(needle), std::string::npos) << text;
  EXPECT_EQ(metrics.Get(metric::kServerQueriesExecuted),
            kWriters * kAddsPerWriter);
}

// ---------------------------------------------------------------------------
// Event log.

TEST(EventLogTest, WritesParseableJsonLines) {
  const std::string path = ::testing::TempDir() + "/hj_event_log_test.jsonl";
  obs::EventLog& log = obs::EventLog::Global();
  EXPECT_FALSE(log.enabled());
  ASSERT_TRUE(log.Open(path).ok());
  EXPECT_TRUE(log.enabled());

  auto fields = obs::JsonValue::Object();
  fields.Set("algorithm", obs::JsonValue::Str("zigzag"));
  fields.Set("session_id", obs::JsonValue::Int(3));
  log.Emit("start", 42, std::move(fields));
  log.Emit("finish", 42);
  log.Close();
  EXPECT_FALSE(log.enabled());
  log.Emit("dropped", 99);  // after Close: silently ignored
  EXPECT_EQ(log.lines_written(), 2u);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::vector<obs::JsonValue> events;
  while (std::getline(in, line)) {
    auto parsed = obs::JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    events.push_back(std::move(parsed).value());
  }
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].Find("event")->AsString(), "start");
  EXPECT_EQ(events[0].Find("query_id")->AsInt(), 42);
  EXPECT_GT(events[0].Find("ts_us")->AsInt(), 0);
  EXPECT_EQ(events[0].Find("algorithm")->AsString(), "zigzag");
  EXPECT_EQ(events[1].Find("event")->AsString(), "finish");
  std::remove(path.c_str());
}

TEST(EventLogTest, ReopenTruncates) {
  const std::string path = ::testing::TempDir() + "/hj_event_log_trunc.jsonl";
  obs::EventLog& log = obs::EventLog::Global();
  ASSERT_TRUE(log.Open(path).ok());
  log.Emit("first", 1);
  ASSERT_TRUE(log.Open(path).ok());  // reopen truncates and resets the count
  log.Emit("second", 2);
  log.Close();
  EXPECT_EQ(log.lines_written(), 1u);

  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str().find("first"), std::string::npos);
  EXPECT_NE(buf.str().find("second"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Query registry: registration, snapshot fields, cancel, render.

TEST(QueryRegistryTest, RegisterSnapshotCancelUnregister) {
  constexpr uint64_t kId = 0xABCDEF01;
  Metrics metrics;
  MemoryGovernor governor(1 << 20);
  ASSERT_TRUE(governor.TryReserve(4096));

  obs::QueryRegistry& registry = obs::QueryRegistry::Global();
  const size_t before = registry.size();
  {
    obs::SubmissionScope submission(7, 9, "SELECT 1");
    registry.Register(kId, &metrics, &governor, "zigzag");
  }
  registry.SetPhase(kId, "build");
  {
    // Scoped writes under the query's id feed the live row.
    QueryScope qs(kId);
    Metrics::NodeScope node(1);
    metrics.Add(metric::kDbTuplesScanned, 100);
    metrics.Add(metric::kHdfsTuplesScanned, 50);
    metrics.Add(metric::kJoinOutputTuples, 25);
  }

  const auto rows = registry.Snapshot();
  ASSERT_EQ(registry.size(), before + 1);
  const obs::LiveQuery* row = nullptr;
  for (const auto& r : rows) {
    if (r.query_id == kId) row = &r;
  }
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->session_id, 7u);
  EXPECT_EQ(row->ticket_id, 9u);
  EXPECT_EQ(row->sql, "SELECT 1");
  EXPECT_EQ(row->algorithm, "zigzag");
  EXPECT_EQ(row->phase, "build");
  EXPECT_GE(row->elapsed_seconds, 0.0);
  EXPECT_EQ(row->rows_scanned, 150);
  EXPECT_EQ(row->rows_produced, 25);
  EXPECT_EQ(row->mem_used_bytes, 4096u);
  EXPECT_EQ(row->mem_budget_bytes, 1u << 20);
  EXPECT_FALSE(row->cancel_requested);

  // The rendered process list carries the load-bearing columns.
  const std::string text = obs::RenderProcessListText(rows);
  EXPECT_NE(text.find("build"), std::string::npos);
  EXPECT_NE(text.find("SELECT 1"), std::string::npos);

  // Cancellation: visible to CheckCancelled only under the query's scope.
  EXPECT_TRUE(obs::QueryRegistry::CheckCancelled().ok());
  ASSERT_TRUE(registry.Cancel(kId).ok());
  {
    QueryScope qs(kId);
    EXPECT_TRUE(obs::QueryRegistry::IsCancelled());
    const Status st = obs::QueryRegistry::CheckCancelled();
    EXPECT_TRUE(st.IsCancelled()) << st.ToString();
  }
  EXPECT_TRUE(obs::QueryRegistry::CheckCancelled().ok());  // no scope here
  EXPECT_EQ(registry.Cancel(kId + 1).code(), StatusCode::kNotFound);

  // Unregister reports the governor's still-held bytes (leak detection).
  EXPECT_EQ(registry.Unregister(kId), 4096u);
  EXPECT_EQ(registry.size(), before);
  EXPECT_EQ(registry.Cancel(kId).code(), StatusCode::kNotFound);
  governor.Release(4096);
  metrics.ClearScoped(kId);
}

TEST(QueryRegistryTest, EmptyProcessListRenders) {
  const std::string text = obs::RenderProcessListText({});
  EXPECT_NE(text.find("no queries in flight"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Scrape endpoint.

std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MetricsHttpTest, ServesMetricsAndRejectsOtherPaths) {
  Metrics metrics;
  metrics.Add(metric::kServerQueriesExecuted, 5);
  obs::MetricsHttpServer http(0, [&](const std::string& path,
                                     std::string* body) {
    if (path != "/metrics") return false;
    *body = obs::RenderPrometheus(metrics);
    return true;
  });
  ASSERT_TRUE(http.Start().ok());
  ASSERT_NE(http.port(), 0);

  const std::string ok_response = HttpGet(http.port(), "/metrics");
  EXPECT_NE(ok_response.find("200 OK"), std::string::npos);
  EXPECT_NE(ok_response.find("hj_server_queries_executed_total 5"),
            std::string::npos);
  const size_t body_at = ok_response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  EXPECT_TRUE(obs::ValidatePrometheus(ok_response.substr(body_at + 4)).ok());

  const std::string missing = HttpGet(http.port(), "/teapot");
  EXPECT_NE(missing.find("404"), std::string::npos);
  EXPECT_GE(http.requests_served(), 2u);
  http.Stop();
  http.Stop();  // idempotent
}

// ---------------------------------------------------------------------------
// perfcheck: the overhead family gates against an absolute ceiling, not
// against the baseline.

obs::JsonValue ParseJson(const std::string& text) {
  auto parsed = obs::JsonValue::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text;
  return std::move(parsed).value();
}

TEST(PerfcheckOverheadTest, GatesAgainstAbsoluteCeiling) {
  const obs::JsonValue baseline =
      ParseJson("{\"observability\": {\"overhead_pct\": 0.4}}");
  obs::PerfcheckOptions options;  // default ceiling 2.0

  // Under the ceiling: fine even though it tripled vs baseline.
  auto result = obs::ComparePerf(
      baseline, ParseJson("{\"observability\": {\"overhead_pct\": 1.4}}"),
      options);
  EXPECT_EQ(result->leaves_compared, 1u);
  EXPECT_TRUE(result->regressions.empty());

  // Over the ceiling: flagged with the overhead family.
  result = obs::ComparePerf(
      baseline, ParseJson("{\"observability\": {\"overhead_pct\": 2.6}}"),
      options);
  ASSERT_EQ(result->regressions.size(), 1u);
  EXPECT_EQ(result->regressions[0].family, "overhead");

  // A lucky negative baseline must not tighten the gate.
  result = obs::ComparePerf(
      ParseJson("{\"observability\": {\"overhead_pct\": -0.8}}"),
      ParseJson("{\"observability\": {\"overhead_pct\": 1.9}}"), options);
  EXPECT_TRUE(result->regressions.empty());

  // The ceiling is configurable.
  options.max_overhead_pct = 1.0;
  result = obs::ComparePerf(
      baseline, ParseJson("{\"observability\": {\"overhead_pct\": 1.4}}"),
      options);
  ASSERT_EQ(result->regressions.size(), 1u);
  EXPECT_EQ(result->regressions[0].family, "overhead");
}

}  // namespace
}  // namespace hybridjoin
