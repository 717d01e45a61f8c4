// Concurrency benchmark for the multi-query warehouse server
// (docs/architecture.md, "Warehouse server & admission control"): N client
// streams push the paper's query through one WarehouseServer and the sweep
// reports queries/sec and p50/p99 latency at 1/4/16/64 streams, plus a
// deterministic admission scenario showing queries past the concurrency
// limit queueing and then being shed on deadline (never crashing), plus an
// observability-overhead cell (16 streams plain vs with the full plane on;
// overhead_pct gated by tools/perfcheck --max_overhead_pct). Writes
// BENCH_concurrency.json (path overridable with --out=PATH) as
// {"rows": [...]}, the row shape of BENCH_paper.json: one row per stream
// count ("streams=N"), an "admission" row and an "observability" row.
// *_us and *_seconds leaves are wall-family gated by perfcheck,
// queries_per_second is an ungated trend column.
//
// With >1 query in flight the substrate overlaps executions, so 4-stream
// throughput above 1-stream throughput is the headline check (asserted
// softly here — wall-clock on shared CI runners is a trend artifact).
//
// Environment overrides: HJ_BENCH_SMOKE=1 shrinks everything for CI smoke.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/histogram.h"
#include "common/stopwatch.h"
#include "server/warehouse_server.h"
#include "workload/loader.h"

namespace hybridjoin {
namespace {

const char kQuery[] =
    "SELECT extract_group(L.groupByExtractCol), COUNT(*) "
    "FROM T, L "
    "WHERE T.corPred < 200000 AND L.corPred < 400000 "
    "  AND T.joinKey = L.joinKey "
    "  AND T.predAfterJoin - L.predAfterJoin BETWEEN 0 AND 1 "
    "GROUP BY extract_group(L.groupByExtractCol)";

constexpr uint32_t kStreamSweep[] = {1, 4, 16, 64};

struct StreamResult {
  uint32_t streams = 0;
  int64_t queries = 0;       ///< completed queries
  int64_t queued = 0;        ///< admitted after waiting in the queue
  int64_t shed = 0;          ///< kResourceExhausted (expected: 0 here)
  double wall_seconds = 0;   ///< whole-sweep wall time
  double qps = 0;
  int64_t p50_us = 0;
  int64_t p99_us = 0;
};

struct AdmissionResult {
  uint32_t limit = 0;
  size_t max_queued = 0;
  int offered = 0;
  int64_t admitted = 0;
  int64_t queued_granted = 0;
  int64_t shed = 0;
  int errors_other = 0;  ///< anything but ok/kResourceExhausted (want 0)
};

/// Observability-plane cost at 16 streams: the same sweep cell run twice,
/// once plain and once with the full plane on (metrics_out writer + scrape
/// endpoint + event log + slow-query log). overhead_pct is perfcheck-gated at an
/// absolute ceiling (tools/perfcheck --max_overhead_pct, default 2.0).
struct OverheadResult {
  uint32_t streams = 0;
  double wall_seconds_plain = 0;
  double wall_seconds_observed = 0;
  double overhead_pct = 0;
};

Result<HybridWarehouse*> MakeWarehouse(bool smoke) {
  WorkloadConfig wc;
  wc.num_join_keys = smoke ? 1024 : 2048;
  wc.t_rows = smoke ? 16 * 1024 : 32 * 1024;
  wc.l_rows = smoke ? 64 * 1024 : 128 * 1024;
  HJ_ASSIGN_OR_RETURN(Workload workload,
                      Workload::Generate(wc, {0.1, 0.1, 0.5, 0.5}));
  // The paper-testbed throttles make each query spend part of its life in
  // simulated disk/NIC waits: a single stream leaves each resource idle
  // while it uses the others, so overlapping streams lift throughput even
  // on a single core — the effect the sweep exists to measure. Scale 0.25
  // balances the per-query CPU and I/O fractions at this workload size
  // (higher scales let the bucket bursts swallow the I/O entirely and the
  // sweep degenerates to pure CPU time-slicing).
  SimulationConfig config = SimulationConfig::PaperTestbed(2, 2, 0.25);
  // Disable the page cache: identical back-to-back queries would otherwise
  // all run warm after the first, and the throttled-I/O phase (the very
  // thing concurrency overlaps) would vanish from the measurement.
  config.datanode.cache_capacity_bytes = 0;
  config.bloom.expected_keys = wc.num_join_keys;
  auto* hw = new HybridWarehouse(config);
  HJ_RETURN_IF_ERROR(LoadWorkload(hw, workload));
  return hw;
}

/// `streams` client threads, `queries_per_stream` queries each, through one
/// server with a deep queue and a generous deadline (throughput run: nothing
/// should shed).
StreamResult RunStreams(HybridWarehouse* hw, uint32_t streams,
                        int queries_per_stream,
                        const server::ObservabilityConfig* obs = nullptr) {
  server::ServerConfig sc;
  sc.admission.max_concurrent_queries = 8;
  sc.admission.max_queued = 128;
  sc.admission.queue_timeout = std::chrono::milliseconds(120000);
  if (obs != nullptr) sc.observability = *obs;
  server::WarehouseServer server(hw, sc);

  LatencyHistogram latency;
  std::mutex latency_mu;
  std::atomic<int64_t> ok{0};
  std::atomic<int64_t> shed{0};

  Stopwatch sweep_watch;
  std::vector<std::thread> threads;
  threads.reserve(streams);
  for (uint32_t s = 0; s < streams; ++s) {
    threads.emplace_back([&] {
      const uint64_t session = server.OpenSession();
      for (int q = 0; q < queries_per_stream; ++q) {
        Stopwatch watch;
        auto result = server.Execute(session, kQuery);
        if (result.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard<std::mutex> lock(latency_mu);
          latency.RecordMicros(watch.ElapsedMicros());
        } else if (result.status().code() == StatusCode::kResourceExhausted) {
          shed.fetch_add(1, std::memory_order_relaxed);
        }
      }
      (void)server.CloseSession(session);
    });
  }
  for (auto& t : threads) t.join();

  StreamResult r;
  r.streams = streams;
  r.queries = ok.load();
  r.shed = shed.load();
  r.wall_seconds = sweep_watch.ElapsedSeconds();
  r.qps = r.wall_seconds > 0
              ? static_cast<double>(r.queries) / r.wall_seconds
              : 0;
  r.p50_us = latency.PercentileMicros(50);
  r.p99_us = latency.PercentileMicros(99);
  r.queued = server.stats().admission.admitted_queued;
  return r;
}

/// Runs the 16-stream sweep cell twice — plain, then with every piece of
/// the observability plane switched on — and reports the wall-clock delta.
/// The observed run scrapes nothing itself; the cost measured is the
/// always-on part: registry bookkeeping, cancel checks, event emission,
/// the periodic metrics_out rewrite, and the idle scrape listener.
OverheadResult RunOverhead(HybridWarehouse* hw, int queries_per_stream) {
  constexpr uint32_t kStreams = 16;
  const StreamResult plain = RunStreams(hw, kStreams, queries_per_stream);

  server::ObservabilityConfig obs;
  obs.metrics_http = true;
  obs.metrics_http_port = 0;  // ephemeral: the cost is the idle listener
  obs.metrics_out = "bench_obs_metrics.prom";
  obs.sample_interval = std::chrono::milliseconds(250);
  obs.event_log_path = "bench_obs_events.jsonl";
  obs.slow_query_dir = ".";
  obs.slow_query_seconds = 3600.0;  // threshold checked but never crossed
  const StreamResult observed =
      RunStreams(hw, kStreams, queries_per_stream, &obs);
  std::remove("bench_obs_metrics.prom");
  std::remove("bench_obs_events.jsonl");

  OverheadResult r;
  r.streams = kStreams;
  r.wall_seconds_plain = plain.wall_seconds;
  r.wall_seconds_observed = observed.wall_seconds;
  r.overhead_pct =
      plain.wall_seconds > 0
          ? (observed.wall_seconds - plain.wall_seconds) /
                plain.wall_seconds * 100.0
          : 0;
  return r;
}

/// Deterministic queue-then-shed demonstration: a 1-slot server with a
/// 2-deep queue and a deadline far below one query's runtime, hit by 6
/// simultaneous arrivals. Exactly one runs; the rest queue (or block on the
/// full queue) and shed on deadline with kResourceExhausted — no crashes,
/// no hangs.
AdmissionResult RunAdmissionShed(HybridWarehouse* hw) {
  server::ServerConfig sc;
  sc.admission.max_concurrent_queries = 1;
  sc.admission.max_queued = 2;
  sc.admission.queue_timeout = std::chrono::milliseconds(5);
  server::WarehouseServer server(hw, sc);

  constexpr int kOffered = 6;
  std::atomic<int> errors_other{0};
  std::vector<std::thread> threads;
  threads.reserve(kOffered);
  for (int i = 0; i < kOffered; ++i) {
    threads.emplace_back([&] {
      const uint64_t session = server.OpenSession();
      auto result = server.Execute(session, kQuery);
      if (!result.ok() &&
          result.status().code() != StatusCode::kResourceExhausted) {
        errors_other.fetch_add(1, std::memory_order_relaxed);
      }
      (void)server.CloseSession(session);
    });
  }
  for (auto& t : threads) t.join();

  const server::ServerStats stats = server.stats();
  AdmissionResult r;
  r.limit = sc.admission.max_concurrent_queries;
  r.max_queued = sc.admission.max_queued;
  r.offered = kOffered;
  r.admitted = stats.admission.admitted;
  r.queued_granted = stats.admission.admitted_queued;
  r.shed = stats.admission.shed;
  r.errors_other = errors_other.load();
  return r;
}

/// The sweep, the admission scenario and the overhead cell as rows of one
/// {"rows": [...]} document.
std::vector<obs::JsonValue> Rows(const std::vector<StreamResult>& sweep,
                                 const AdmissionResult& admission,
                                 const OverheadResult& overhead) {
  using obs::JsonValue;
  std::vector<JsonValue> rows;
  for (const StreamResult& r : sweep) {
    JsonValue& row = rows.emplace_back(JsonValue::Object());
    row.Set("name", JsonValue::Str("streams=" + std::to_string(r.streams)));
    row.Set("queries", JsonValue::Int(r.queries));
    row.Set("wall_seconds", JsonValue::Number(r.wall_seconds));
    row.Set("queries_per_second", JsonValue::Number(r.qps));
    row.Set("p50_us", JsonValue::Int(r.p50_us));
    row.Set("p99_us", JsonValue::Int(r.p99_us));
    row.Set("queued", JsonValue::Int(r.queued));
    row.Set("shed", JsonValue::Int(r.shed));
  }
  JsonValue& shed = rows.emplace_back(JsonValue::Object());
  shed.Set("name", JsonValue::Str("admission"));
  shed.Set("limit", JsonValue::Int(admission.limit));
  shed.Set("max_queued", JsonValue::Int(admission.max_queued));
  shed.Set("offered", JsonValue::Int(admission.offered));
  shed.Set("admitted", JsonValue::Int(admission.admitted));
  shed.Set("queued_granted", JsonValue::Int(admission.queued_granted));
  shed.Set("shed", JsonValue::Int(admission.shed));
  shed.Set("errors_other", JsonValue::Int(admission.errors_other));
  JsonValue& obs = rows.emplace_back(JsonValue::Object());
  obs.Set("name", JsonValue::Str("observability"));
  obs.Set("streams", JsonValue::Int(overhead.streams));
  obs.Set("wall_seconds_plain", JsonValue::Number(overhead.wall_seconds_plain));
  obs.Set("wall_seconds_observed",
          JsonValue::Number(overhead.wall_seconds_observed));
  obs.Set("overhead_pct", JsonValue::Number(overhead.overhead_pct));
  return rows;
}

int Run(const std::string& out_path) {
  const bool smoke = [] {
    const char* s = std::getenv("HJ_BENCH_SMOKE");
    return s != nullptr && s[0] == '1';
  }();
  // At least two queries per stream: simultaneous identical single-shot
  // queries march through the phases in lockstep (scan convoy, then compute
  // convoy) and the pipeline overlap never forms.
  const int queries_per_stream = smoke ? 2 : 3;

  auto hw = MakeWarehouse(smoke);
  if (!hw.ok()) {
    std::fprintf(stderr, "%s\n", hw.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<HybridWarehouse> owned(hw.value());

  std::vector<StreamResult> sweep;
  for (uint32_t streams : kStreamSweep) {
    sweep.push_back(RunStreams(owned.get(), streams, queries_per_stream));
  }
  const AdmissionResult admission = RunAdmissionShed(owned.get());
  const OverheadResult overhead =
      RunOverhead(owned.get(), queries_per_stream);

  std::printf("%8s %8s %10s %10s %10s %8s %6s\n", "streams", "queries",
              "qps", "p50(ms)", "p99(ms)", "queued", "shed");
  for (const StreamResult& r : sweep) {
    std::printf("%8u %8lld %10.2f %10.1f %10.1f %8lld %6lld\n", r.streams,
                static_cast<long long>(r.queries), r.qps,
                static_cast<double>(r.p50_us) / 1e3,
                static_cast<double>(r.p99_us) / 1e3,
                static_cast<long long>(r.queued),
                static_cast<long long>(r.shed));
  }
  std::printf(
      "admission: limit %u queue %zu: offered %d -> admitted %lld "
      "(%lld after queueing), shed %lld, other errors %d\n",
      admission.limit, admission.max_queued, admission.offered,
      static_cast<long long>(admission.admitted),
      static_cast<long long>(admission.queued_granted),
      static_cast<long long>(admission.shed), admission.errors_other);

  const double qps1 = sweep[0].qps;
  const double qps4 = sweep.size() > 1 ? sweep[1].qps : 0;
  std::printf("4-stream vs 1-stream throughput: %.2fx %s\n",
              qps1 > 0 ? qps4 / qps1 : 0,
              qps4 > qps1 ? "(concurrent executions overlap)"
                          : "(WARNING: no overlap measured)");
  std::printf(
      "observability overhead at %u streams: %.3fs plain vs %.3fs "
      "observed = %+.2f%%\n",
      overhead.streams, overhead.wall_seconds_plain,
      overhead.wall_seconds_observed, overhead.overhead_pct);

  return bench::WriteRows(out_path, Rows(sweep, admission, overhead)) ? 0 : 1;
}

}  // namespace
}  // namespace hybridjoin

int main(int argc, char** argv) {
  std::string out_path = "BENCH_concurrency.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  return hybridjoin::Run(out_path);
}
