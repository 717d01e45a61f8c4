// WarehouseServer tests: session lifecycle, the admission gate
// (queue-then-shed, FIFO grant), per-session rate limiting, memory quotas,
// and — the load-bearing part — N concurrent queries through one warehouse
// all matching the single-node reference oracle with per-query isolated
// profiles (concurrent EXPLAIN ANALYZE must not cross-contaminate).
// The whole suite runs under the TSan CI job, so the catalog RW locks and
// the query-scoped metric store are exercised under a race detector.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hybrid/reference.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/promtext.h"
#include "server/warehouse_server.h"
#include "testing/differential.h"
#include "workload/loader.h"

namespace hybridjoin {
namespace {

using server::AdmissionController;
using server::QueryQuotas;
using server::ServerConfig;
using server::ServerResult;
using server::ServerStats;
using server::WarehouseServer;

const char kQuery[] =
    "SELECT extract_group(L.groupByExtractCol), COUNT(*) "
    "FROM T, L "
    "WHERE T.corPred < 200000 AND L.corPred < 400000 "
    "  AND T.joinKey = L.joinKey "
    "  AND T.predAfterJoin - L.predAfterJoin BETWEEN 0 AND 1 "
    "GROUP BY extract_group(L.groupByExtractCol)";

/// Small but non-trivial warehouse shared by the concurrency tests.
class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    WorkloadConfig wc;
    wc.num_join_keys = 512;
    wc.t_rows = 8 * 1024;
    wc.l_rows = 32 * 1024;
    InitWarehouse(wc);
  }

  void InitWarehouse(const WorkloadConfig& wc) {
    auto workload = Workload::Generate(wc, {0.1, 0.1, 0.5, 0.5});
    ASSERT_TRUE(workload.ok()) << workload.status().ToString();
    workload_ = std::make_unique<Workload>(std::move(workload).value());

    SimulationConfig config;
    config.db.num_workers = 2;
    config.jen_workers = 2;
    config.bloom.expected_keys = wc.num_join_keys;
    hw_ = std::make_unique<HybridWarehouse>(config);
    ASSERT_TRUE(LoadWorkload(hw_.get(), *workload_).ok());

    // The oracle must run the same query the server will parse from
    // kQuery (its literals differ from the workload's solved ones).
    auto query = hw_->ParseSql(kQuery);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    auto oracle = RunReferenceJoin({workload_->t_rows()},
                                   workload_->l_batches(), *query);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    oracle_ = std::make_unique<RecordBatch>(std::move(oracle).value());
  }

  std::unique_ptr<Workload> workload_;
  std::unique_ptr<HybridWarehouse> hw_;
  std::unique_ptr<RecordBatch> oracle_;
};

TEST_F(ServerTest, SessionLifecycle) {
  WarehouseServer server(hw_.get(), ServerConfig{});
  const uint64_t s1 = server.OpenSession();
  const uint64_t s2 = server.OpenSession();
  EXPECT_NE(s1, s2);
  EXPECT_EQ(server.stats().open_sessions, 2u);

  // Unknown / closed sessions fail kNotFound.
  EXPECT_EQ(server.Execute(999999, kQuery).status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(server.CloseSession(s2).ok());
  EXPECT_EQ(server.Execute(s2, kQuery).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(server.CloseSession(s2).code(), StatusCode::kNotFound);

  // A live session executes and gets a populated ticket.
  auto result = server.Execute(s1, kQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->ticket.ticket_id, 0u);
  EXPECT_GT(result->ticket.query_id, 0u);
  EXPECT_EQ(result->ticket.session_id, s1);
  EXPECT_FALSE(result->ticket.queued);

  // After Shutdown everything is kUnavailable; the destructor is idempotent.
  server.Shutdown();
  EXPECT_EQ(server.Execute(s1, kQuery).status().code(),
            StatusCode::kUnavailable);
}

// The acceptance bullet: N concurrent queries through one warehouse, every
// result equal to the reference oracle, every ticket carrying a distinct
// query id, and every profile isolated — its data counters identical to a
// solo run's, unaffected by the neighbors executing at the same time.
TEST_F(ServerTest, ConcurrentQueriesMatchReferenceWithIsolatedProfiles) {
  ServerConfig sc;
  sc.admission.max_concurrent_queries = 4;
  sc.admission.max_queued = 32;
  sc.admission.queue_timeout = std::chrono::milliseconds(60000);
  WarehouseServer server(hw_.get(), sc);

  // Solo run: the baseline for the per-query data counters. These are pure
  // functions of (data, query, algorithm) — unlike wall-time counters —
  // so a concurrent run whose scoped slices got polluted by a neighbor
  // would show inflated totals.
  const uint64_t baseline_session = server.OpenSession();
  auto solo = server.Execute(baseline_session, kQuery);
  ASSERT_TRUE(solo.ok()) << solo.status().ToString();
  const obs::QueryProfile& solo_profile = solo->result.report.profile;
  ASSERT_FALSE(solo_profile.empty());
  const std::vector<std::pair<std::string, std::string>> kDataCounters = {
      {"scan", "jen.tuples_scanned"},
      {"scan", "edw.tuples_scanned"},
      {"build", "join.ht_rows"},
  };
  std::vector<std::pair<std::pair<std::string, std::string>, int64_t>>
      baseline;
  for (const auto& [phase, name] : kDataCounters) {
    if (const auto* row = solo_profile.FindCounter(phase, name)) {
      baseline.emplace_back(std::make_pair(phase, name), row->total);
    }
  }
  ASSERT_FALSE(baseline.empty());

  constexpr int kClients = 8;
  std::vector<Result<ServerResult>> results(
      kClients, Result<ServerResult>(Status::Internal("not run")));
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const uint64_t session = server.OpenSession();
      results[c] = server.Execute(session, kQuery);
      (void)server.CloseSession(session);
    });
  }
  for (auto& t : threads) t.join();

  std::set<uint64_t> query_ids{solo->ticket.query_id};
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(results[c].ok())
        << "client " << c << ": " << results[c].status().ToString();
    const ServerResult& r = results[c].value();

    // Correctness: byte-for-byte equal to the single-node oracle.
    auto diff = testing_support::CompareBatches(*oracle_, r.result.rows);
    EXPECT_FALSE(diff.has_value()) << "client " << c << ": " << *diff;

    // Distinct query ids, ticket consistent with the assembled profile.
    EXPECT_GT(r.ticket.query_id, 0u);
    EXPECT_TRUE(query_ids.insert(r.ticket.query_id).second)
        << "duplicate query id " << r.ticket.query_id;
    EXPECT_EQ(r.result.report.profile.query_id, r.ticket.query_id);

    // Profile isolation: each concurrent profile reports exactly the solo
    // totals for the deterministic data counters.
    for (const auto& [key, solo_total] : baseline) {
      const auto* row =
          r.result.report.profile.FindCounter(key.first, key.second);
      ASSERT_NE(row, nullptr)
          << "client " << c << " lost " << key.first << "/" << key.second;
      EXPECT_EQ(row->total, solo_total)
          << "client " << c << " profile contaminated at " << key.first
          << "/" << key.second;
    }
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.executed, kClients + 1);
  EXPECT_EQ(stats.admission.shed, 0);
  EXPECT_EQ(stats.admission.running, 0u);
}

// DDL through the HybridWarehouse facade (EDW catalog writers + HCatalog
// registration) interleaved with live queries: the catalog RW locks must
// let both proceed without a data race (TSan job) or a wrong answer.
TEST_F(ServerTest, ConcurrentDdlAndQueries) {
  ServerConfig sc;
  sc.admission.max_concurrent_queries = 4;
  sc.admission.queue_timeout = std::chrono::milliseconds(60000);
  WarehouseServer server(hw_.get(), sc);

  std::atomic<bool> ddl_ok{true};
  std::thread ddl([&] {
    SchemaPtr schema =
        Schema::Make({{"k", DataType::kInt32}, {"v", DataType::kInt64}});
    RecordBatch rows(schema);
    for (int32_t i = 0; i < 256; ++i) {
      rows.AppendRow({Value(i), Value(int64_t{i} * 7)});
    }
    for (int i = 0; i < 6; ++i) {
      const std::string name = "ddl_side_" + std::to_string(i);
      if (!hw_->CreateDbTable({name, schema, "k"}).ok() ||
          !hw_->LoadDbTable(name, rows).ok() ||
          !hw_->CreateDbIndex(name, {"k", "v"}).ok() ||
          !hw_->WriteHdfsTable("ddl_hdfs_" + std::to_string(i), schema,
                               HdfsWriteOptions{}, {rows})
               .ok()) {
        ddl_ok.store(false);
      }
    }
  });

  constexpr int kClients = 3;
  constexpr int kQueriesEach = 2;
  std::atomic<int> query_failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      const uint64_t session = server.OpenSession();
      for (int q = 0; q < kQueriesEach; ++q) {
        auto result = server.Execute(session, kQuery);
        if (!result.ok() ||
            testing_support::CompareBatches(*oracle_, result->result.rows)
                .has_value()) {
          query_failures.fetch_add(1);
        }
      }
      (void)server.CloseSession(session);
    });
  }
  ddl.join();
  for (auto& t : threads) t.join();

  EXPECT_TRUE(ddl_ok.load());
  EXPECT_EQ(query_failures.load(), 0);
  // The DDL really landed while queries were flowing.
  EXPECT_TRUE(hw_->context().db().LookupTable("ddl_side_5").ok());
  EXPECT_TRUE(hw_->context().hcatalog().Lookup("ddl_hdfs_5").ok());
}

// Queries past the admission limit queue; past the deadline they shed with
// kResourceExhausted — deterministically, by pinning the only slot from the
// test instead of racing against query runtimes.
TEST_F(ServerTest, AdmissionQueuesThenSheds) {
  ServerConfig sc;
  sc.admission.max_concurrent_queries = 1;
  sc.admission.max_queued = 2;
  sc.admission.queue_timeout = std::chrono::milliseconds(50);
  WarehouseServer server(hw_.get(), sc);
  const uint64_t session = server.OpenSession();

  {
    // Pin the only execution slot.
    auto pinned = server.admission().Admit();
    ASSERT_TRUE(pinned.ok());

    constexpr int kBlocked = 3;
    std::vector<StatusCode> codes(kBlocked, StatusCode::kOk);
    std::vector<std::thread> threads;
    for (int i = 0; i < kBlocked; ++i) {
      threads.emplace_back([&, i] {
        codes[i] = server.Execute(session, kQuery).status().code();
      });
    }
    for (auto& t : threads) t.join();
    for (int i = 0; i < kBlocked; ++i) {
      EXPECT_EQ(codes[i], StatusCode::kResourceExhausted) << "waiter " << i;
    }
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.admission.shed, kBlocked);
    EXPECT_EQ(stats.executed, 0);
  }  // pinned slot released

  // With the slot free again, the same session executes normally.
  auto result = server.Execute(session, kQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(server.stats().admission.shed, 3);
}

// A queued query whose turn comes before the deadline is admitted (not
// shed) and its ticket records the queue wait.
TEST_F(ServerTest, QueuedQueryIsGrantedWhenSlotFrees) {
  ServerConfig sc;
  sc.admission.max_concurrent_queries = 1;
  sc.admission.max_queued = 4;
  sc.admission.queue_timeout = std::chrono::milliseconds(60000);
  WarehouseServer server(hw_.get(), sc);
  const uint64_t session = server.OpenSession();

  auto pinned = server.admission().Admit();
  ASSERT_TRUE(pinned.ok());

  std::thread waiter_thread([&] {
    auto result = server.Execute(session, kQuery);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->ticket.queued);
    EXPECT_GT(result->ticket.queue_wait_us, 0);
  });

  // Give the waiter time to enter the queue, then free the slot.
  while (server.stats().admission.queued_now == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pinned.value().Release();
  waiter_thread.join();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.admission.admitted_queued, 1);
  EXPECT_EQ(stats.admission.shed, 0);
}

TEST_F(ServerTest, SessionRateLimitSheds) {
  // The shed assertion below is only meaningful while the bucket is still
  // empty, i.e. the first query must finish well inside the 1-second refill
  // period. A deliberately tiny warehouse keeps it there even on a loaded
  // CI machine; if the machine is too slow anyway, skip rather than flake.
  WorkloadConfig tiny;
  tiny.num_join_keys = 128;
  tiny.t_rows = 512;
  tiny.l_rows = 2048;
  InitWarehouse(tiny);

  ServerConfig sc;
  sc.session_queries_per_second = 1;  // refill far slower than the test
  sc.session_burst_queries = 1;
  sc.rate_limit_wait = std::chrono::milliseconds(0);
  WarehouseServer server(hw_.get(), sc);
  const uint64_t session = server.OpenSession();

  // First query spends the burst token; the immediate second one sheds.
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(server.Execute(session, kQuery).ok());
  if (std::chrono::steady_clock::now() - t0 >=
      std::chrono::milliseconds(800)) {
    GTEST_SKIP() << "machine too loaded for the 1s token-refill window";
  }
  auto second = server.Execute(session, kQuery);
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server.stats().rate_limited, 1);

  // The limit is per session: a fresh session has its own bucket.
  const uint64_t other = server.OpenSession();
  EXPECT_TRUE(server.Execute(other, kQuery).ok());
}

TEST_F(ServerTest, MemoryQuotaRejectsBeforeAdmission) {
  WarehouseServer server(hw_.get(), ServerConfig{});
  const uint64_t session = server.OpenSession();

  QueryQuotas tight;
  tight.memory_bytes = 1;  // no build side fits in one byte
  auto rejected = server.Execute(session, kQuery, tight);
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.quota_rejected, 1);
  EXPECT_EQ(stats.admission.admitted, 0);  // never reached the gate

  QueryQuotas roomy;
  roomy.memory_bytes = 1ull << 40;
  EXPECT_TRUE(server.Execute(session, kQuery, roomy).ok());
}

/// A warehouse whose working set genuinely exceeds the minimum admissible
/// quota, so a 64 KiB-class budget puts the governor under real pressure.
class PressuredServerTest : public ServerTest {
 protected:
  void SetUp() override {
    WorkloadConfig wc;
    wc.num_join_keys = 2048;
    wc.t_rows = 64 * 1024;
    wc.l_rows = 64 * 1024;
    InitWarehouse(wc);
  }
};

// A query admitted with a quota below its working set completes by
// spilling (never an error), still matches the oracle, and its EXPLAIN
// ANALYZE profile shows the spill traffic under the canonical names.
TEST_F(PressuredServerTest, SmallMemoryQuotaCompletesViaSpilling) {
  WarehouseServer server(hw_.get(), ServerConfig{});
  const uint64_t session = server.OpenSession();

  QueryQuotas tight;
  tight.memory_bytes = 96 * 1024;  // >= kMinQuotaBytes, < the working set
  ASSERT_GE(tight.memory_bytes, WarehouseServer::kMinQuotaBytes);
  auto result = server.Execute(session, kQuery, tight);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto diff = testing_support::CompareBatches(*oracle_, result->result.rows);
  EXPECT_FALSE(diff.has_value()) << *diff;

  const obs::QueryProfile& profile = result->result.report.profile;
  const auto* spilled = profile.FindCounter("spill", "join.spill_bytes");
  ASSERT_NE(spilled, nullptr) << profile.ToText();
  EXPECT_GT(spilled->total, 0);
  EXPECT_EQ(server.stats().quota_rejected, 0);
}

// The governor holds the query to its quota: the profile's peak-memory
// gauge never exceeds the admitted budget (spilling, not overcommit, is
// how the working set fits).
TEST_F(PressuredServerTest, MemPeakStaysWithinQuota) {
  WarehouseServer server(hw_.get(), ServerConfig{});
  const uint64_t session = server.OpenSession();

  QueryQuotas quota;
  quota.memory_bytes = 256 * 1024;
  auto result = server.Execute(session, kQuery, quota);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto diff = testing_support::CompareBatches(*oracle_, result->result.rows);
  EXPECT_FALSE(diff.has_value()) << *diff;

  const obs::QueryProfile& profile = result->result.report.profile;
  const auto* peak = profile.FindCounter("driver", "join.mem_peak_bytes");
  ASSERT_NE(peak, nullptr) << profile.ToText();
  EXPECT_GT(peak->total, 0);
  EXPECT_LE(peak->total, static_cast<int64_t>(quota.memory_bytes));
}

// ---------------------------------------------------------------------------
// Observability plane through the server.

/// A throttled warehouse (paper-testbed I/O simulation, cold cache) whose
/// queries run long enough to observe — and kill — mid-flight.
class SlowServerTest : public ServerTest {
 protected:
  void SetUp() override {
    WorkloadConfig wc;
    wc.num_join_keys = 1024;
    wc.t_rows = 16 * 1024;
    wc.l_rows = 64 * 1024;
    auto workload = Workload::Generate(wc, {0.1, 0.1, 0.5, 0.5});
    ASSERT_TRUE(workload.ok()) << workload.status().ToString();
    workload_ = std::make_unique<Workload>(std::move(workload).value());

    SimulationConfig config = SimulationConfig::PaperTestbed(2, 2, 0.05);
    config.datanode.cache_capacity_bytes = 0;  // stay cold: stay slow
    config.bloom.expected_keys = wc.num_join_keys;
    hw_ = std::make_unique<HybridWarehouse>(config);
    ASSERT_TRUE(LoadWorkload(hw_.get(), *workload_).ok());
  }
};

// The acceptance bullet: a second session runs SHOW PROCESSLIST while a
// join is in flight and sees its phase / elapsed / memory; KILL makes the
// running Execute return a clean kCancelled with no leaked governor
// reservations.
TEST_F(SlowServerTest, ShowProcesslistThenKillTerminatesCleanly) {
  WarehouseServer server(hw_.get(), ServerConfig{});
  const uint64_t runner_session = server.OpenSession();
  const uint64_t admin_session = server.OpenSession();

  QueryQuotas quota;
  quota.memory_bytes = 64 * 1024 * 1024;  // a real governor budget to report
  Status run_status = Status::OK();
  std::thread runner([&] {
    run_status = server.Execute(runner_session, kQuery, quota).status();
  });

  // Wait for the query to appear in the live process list.
  std::vector<obs::LiveQuery> rows;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (rows.empty() && std::chrono::steady_clock::now() < deadline) {
    rows = server.ProcessList();
    if (rows.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ASSERT_FALSE(rows.empty()) << "query never registered";
  const obs::LiveQuery live = rows[0];
  EXPECT_GT(live.query_id, 0u);
  EXPECT_EQ(live.session_id, runner_session);
  EXPECT_EQ(live.sql, kQuery);
  EXPECT_FALSE(live.phase.empty());
  EXPECT_GE(live.elapsed_seconds, 0.0);
  EXPECT_EQ(live.mem_budget_bytes, quota.memory_bytes);
  EXPECT_FALSE(live.cancel_requested);

  // SHOW PROCESSLIST from the second session sees the same query. Its
  // phase may have advanced since `live` was read, so the rendered row
  // only has to carry some phase.
  auto shown = server.ExecuteStatement(admin_session, "SHOW PROCESSLIST");
  ASSERT_TRUE(shown.ok()) << shown.status().ToString();
  const std::string& text = shown->admin_text;
  EXPECT_NE(text.find(std::to_string(live.query_id)), std::string::npos)
      << text;
  const size_t phase_col = text.find("PHASE");
  ASSERT_NE(phase_col, std::string::npos) << text;
  std::istringstream lines(text);
  std::string line;
  std::string row;
  while (std::getline(lines, line)) {
    if (line.rfind(std::to_string(live.query_id) + " ", 0) == 0) row = line;
  }
  ASSERT_GT(row.size(), phase_col) << text;
  EXPECT_NE(row[phase_col], ' ') << "empty phase column:\n" << text;

  // KILL through the statement front end; the runner unwinds with
  // kCancelled at its next cooperative checkpoint.
  auto killed = server.ExecuteStatement(
      admin_session, "KILL " + std::to_string(live.query_id));
  ASSERT_TRUE(killed.ok()) << killed.status().ToString();
  EXPECT_NE(killed->admin_text.find("killing query"), std::string::npos);
  runner.join();
  EXPECT_EQ(run_status.code(), StatusCode::kCancelled)
      << run_status.ToString();

  // Clean unwind: the query left the registry, every governor reservation
  // was released (the leak counter stays zero), and the kill was counted.
  EXPECT_TRUE(server.ProcessList().empty());
  EXPECT_EQ(hw_->context().metrics().Get(metric::kServerGovernorLeakedBytes),
            0);
  EXPECT_EQ(server.stats().killed, 1);
  EXPECT_EQ(server.Kill(live.query_id).code(), StatusCode::kNotFound);

  // The warehouse stays healthy after a kill: the next query succeeds.
  auto next = server.Execute(admin_session, kQuery);
  EXPECT_TRUE(next.ok()) << next.status().ToString();
}

TEST_F(ServerTest, AdminStatementsAnswerWithoutAdmission) {
  ServerConfig sc;
  sc.admission.max_concurrent_queries = 1;
  WarehouseServer server(hw_.get(), sc);
  const uint64_t session = server.OpenSession();

  // Admin statements answer even with the only execution slot pinned.
  auto pinned = server.admission().Admit();
  ASSERT_TRUE(pinned.ok());

  auto processlist = server.ExecuteStatement(session, "SHOW PROCESSLIST");
  ASSERT_TRUE(processlist.ok());
  EXPECT_NE(processlist->admin_text.find("no queries in flight"),
            std::string::npos);

  auto sessions = server.ExecuteStatement(session, "show sessions");
  ASSERT_TRUE(sessions.ok());
  EXPECT_NE(sessions->admin_text.find(std::to_string(session)),
            std::string::npos);

  auto metrics = server.ExecuteStatement(session, "SHOW METRICS");
  ASSERT_TRUE(metrics.ok());
  EXPECT_TRUE(obs::ValidatePrometheus(metrics->admin_text).ok())
      << metrics->admin_text;

  // Unknown session / malformed statements fail cleanly.
  EXPECT_EQ(server.ExecuteStatement(999999, "SHOW METRICS").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(server.ExecuteStatement(session, "KILL 424242").status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(server.ExecuteStatement(session, "SHOW NONSENSE").ok());
}

// 50 plane start/stop cycles (scrape listener, event log) with bounded
// joins — runs under the TSan CI job. With only the scrape endpoint on, no
// metrics_out writer thread runs.
TEST_F(ServerTest, ObservabilityPlaneStartStop50x) {
  const std::string log_path =
      ::testing::TempDir() + "/hj_plane_cycle_events.jsonl";
  for (int i = 0; i < 50; ++i) {
    ServerConfig sc;
    sc.observability.metrics_http = true;
    sc.observability.metrics_http_port = 0;  // ephemeral
    sc.observability.sample_interval = std::chrono::milliseconds(1);
    sc.observability.event_log_path = log_path;
    WarehouseServer server(hw_.get(), sc);
    ASSERT_NE(server.metrics_port(), 0) << "cycle " << i;
    EXPECT_FALSE(server.metrics_out_running()) << "cycle " << i;
    if (i % 10 == 0) {
      // Occasionally do real work mid-cycle so the scrape renders live
      // state, not an idle registry.
      const uint64_t session = server.OpenSession();
      EXPECT_TRUE(obs::ValidatePrometheus(server.MetricsText()).ok());
      (void)server.CloseSession(session);
    }
    server.Shutdown();
    EXPECT_FALSE(obs::EventLog::Global().enabled()) << "cycle " << i;
  }
  std::remove(log_path.c_str());
}

// The metrics_out file is rewritten every sample_interval while the server
// runs, and once more at Shutdown.
TEST_F(ServerTest, MetricsOutRewrittenWhileRunningAndAtShutdown) {
  const std::string path = ::testing::TempDir() + "/hj_metrics_out.prom";
  const auto read_file = [&path] {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  // One read per try: the writer truncates the file before each rewrite,
  // so a second read may land in between.
  const auto wait_for = [&read_file](const std::string& needle) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    do {
      if (read_file().find(needle) != std::string::npos) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } while (std::chrono::steady_clock::now() < deadline);
    return false;
  };
  std::remove(path.c_str());
  {
    ServerConfig sc;
    sc.observability.metrics_out = path;
    sc.observability.sample_interval = std::chrono::milliseconds(5);
    WarehouseServer server(hw_.get(), sc);
    EXPECT_TRUE(server.metrics_out_running());
    const uint64_t session = server.OpenSession();
    ASSERT_TRUE(server.Execute(session, kQuery).ok());
    ASSERT_TRUE(server.CloseSession(session).ok());
    // Rewritten while running: a removed file comes back with the query's
    // counters, twice over.
    for (int round = 0; round < 2; ++round) {
      std::remove(path.c_str());
      ASSERT_TRUE(wait_for("hj_server_queries_executed_total 1\n"))
          << "round " << round;
    }
    server.Shutdown();
    EXPECT_FALSE(server.metrics_out_running());
    EXPECT_TRUE(obs::ValidatePrometheus(read_file()).ok());
  }
  {
    // An interval longer than the test: the file is written at start and
    // then only at Shutdown, which must show the session opened since.
    std::remove(path.c_str());
    ServerConfig sc;
    sc.observability.metrics_out = path;
    sc.observability.sample_interval = std::chrono::hours(1);
    WarehouseServer server(hw_.get(), sc);
    ASSERT_TRUE(wait_for("hj_server_open_sessions 0\n"));
    server.OpenSession();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_NE(read_file().find("hj_server_open_sessions 0\n"),
              std::string::npos);
    server.Shutdown();
    const std::string last = read_file();
    EXPECT_NE(last.find("hj_server_open_sessions 1\n"), std::string::npos)
        << last;
    EXPECT_TRUE(obs::ValidatePrometheus(last).ok());
  }
  std::remove(path.c_str());
}

// The lifecycle acceptance bullet: an 8-way concurrent run leaves an event
// log whose every query correlates admit -> start -> finish by ticket and
// query id, and whose scraped queries-executed counter equals the registry.
TEST_F(ServerTest, EventLogLifecycleCorrelatesAcrossEightWayRun) {
  const std::string log_path =
      ::testing::TempDir() + "/hj_lifecycle_events.jsonl";
  constexpr int kClients = 8;
  int64_t executed_before = 0;
  int64_t executed_after = 0;
  std::string scraped;
  {
    ServerConfig sc;
    sc.admission.max_concurrent_queries = 4;
    sc.admission.max_queued = 32;
    sc.admission.queue_timeout = std::chrono::milliseconds(60000);
    sc.observability.event_log_path = log_path;
    WarehouseServer server(hw_.get(), sc);
    executed_before = hw_->context().metrics().Get(
        metric::kServerQueriesExecuted);

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&] {
        const uint64_t session = server.OpenSession();
        if (!server.Execute(session, kQuery).ok()) failures.fetch_add(1);
        (void)server.CloseSession(session);
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_EQ(failures.load(), 0);

    scraped = server.MetricsText();
    executed_after = hw_->context().metrics().Get(
        metric::kServerQueriesExecuted);
    server.Shutdown();  // closes the event log so every line is on disk
  }
  EXPECT_EQ(executed_after - executed_before, kClients);

  // The scraped exposition is valid and its counter equals the registry.
  ASSERT_TRUE(obs::ValidatePrometheus(scraped).ok());
  EXPECT_NE(scraped.find("hj_server_queries_executed_total " +
                         std::to_string(executed_after) + "\n"),
            std::string::npos)
      << scraped;

  // Replay the log: per ticket, admit then start then finish, with start
  // and finish agreeing on the engine query id.
  std::ifstream in(log_path);
  ASSERT_TRUE(in.is_open());
  std::map<int64_t, int> admits;              // ticket -> count
  std::map<int64_t, int64_t> start_query;     // ticket -> query id
  std::map<int64_t, int64_t> finish_query;    // ticket -> query id
  std::string line;
  while (std::getline(in, line)) {
    auto parsed = obs::JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    const obs::JsonValue event = std::move(parsed).value();
    const std::string name = event.Find("event")->AsString();
    const obs::JsonValue* ticket = event.Find("ticket_id");
    if (name == "admit") {
      ASSERT_NE(ticket, nullptr) << line;
      admits[ticket->AsInt()]++;
    } else if (name == "start") {
      ASSERT_NE(ticket, nullptr) << line;
      start_query[ticket->AsInt()] = event.Find("query_id")->AsInt();
    } else if (name == "finish") {
      ASSERT_NE(ticket, nullptr) << line;
      finish_query[ticket->AsInt()] = event.Find("query_id")->AsInt();
      EXPECT_EQ(event.Find("status")->AsString(), "OK") << line;
    }
  }
  ASSERT_EQ(admits.size(), static_cast<size_t>(kClients));
  ASSERT_EQ(start_query.size(), static_cast<size_t>(kClients));
  ASSERT_EQ(finish_query.size(), static_cast<size_t>(kClients));
  std::set<int64_t> query_ids;
  for (const auto& [ticket_id, count] : admits) {
    EXPECT_EQ(count, 1) << "ticket " << ticket_id;
    ASSERT_TRUE(start_query.count(ticket_id)) << "ticket " << ticket_id;
    ASSERT_TRUE(finish_query.count(ticket_id)) << "ticket " << ticket_id;
    EXPECT_EQ(start_query[ticket_id], finish_query[ticket_id])
        << "ticket " << ticket_id;
    EXPECT_GT(start_query[ticket_id], 0) << "ticket " << ticket_id;
    EXPECT_TRUE(query_ids.insert(start_query[ticket_id]).second)
        << "duplicate engine query id for ticket " << ticket_id;
  }
  std::remove(log_path.c_str());
}

TEST(AdmissionControllerTest, FifoGrantAndCloseShedsWaiters) {
  server::AdmissionConfig config;
  config.max_concurrent_queries = 1;
  config.max_queued = 8;
  config.queue_timeout = std::chrono::milliseconds(60000);
  AdmissionController controller(config);

  auto first = controller.Admit();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->queued());

  // Granted slots are parked (not released) so the grant chain cannot
  // cascade through all waiters before Close gets its turn.
  std::mutex slots_mu;
  std::vector<AdmissionController::Slot> held_slots;
  std::atomic<int> granted{0};
  std::atomic<int> closed{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&] {
      auto slot = controller.Admit();
      if (slot.ok()) {
        EXPECT_TRUE(slot->queued());
        granted.fetch_add(1);
        std::lock_guard<std::mutex> lock(slots_mu);
        held_slots.push_back(std::move(slot).value());
      } else if (slot.status().code() == StatusCode::kUnavailable) {
        closed.fetch_add(1);
      }
    });
  }
  while (controller.stats().queued_now < 4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Release once: exactly one waiter gets the slot (and keeps it); the
  // other three wait until Close sheds them with kUnavailable.
  first->Release();
  while (granted.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  controller.Close();
  for (auto& t : waiters) t.join();

  EXPECT_EQ(granted.load(), 1);
  EXPECT_EQ(closed.load(), 3);
  const server::AdmissionStats stats = controller.stats();
  EXPECT_EQ(stats.admitted, 2);  // the pinned slot + the granted waiter
  EXPECT_EQ(stats.admitted_queued, 1);
  EXPECT_EQ(stats.rejected_closed + stats.shed, 3);
  // Closed controller rejects new arrivals immediately; slots granted
  // before Close stay valid until released.
  EXPECT_EQ(controller.Admit().status().code(), StatusCode::kUnavailable);
  held_slots.clear();
  EXPECT_EQ(controller.stats().running, 0u);
}

}  // namespace
}  // namespace hybridjoin
