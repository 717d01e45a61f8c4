// WarehouseServer: a long-lived multi-query front end over one
// HybridWarehouse. Clients open sessions, submit SQL, and get back a
// QueryTicket + QueryResult; between them and the substrate sit a
// per-session TokenBucket rate limit and the AdmissionController's
// concurrency gate, so N clients can hammer one warehouse without
// oversubscribing it — excess queries queue, then shed, never crash.
//
// Concurrency contract with the substrate: the join drivers isolate scoped
// metrics per query id (QueryScope), the catalogs take reader-writer locks
// (DDL through the HybridWarehouse facade interleaves safely with queries),
// the exec pool fair-shares across query lanes, and network tags are
// allocated per execution — so Execute() is safe to call from any number of
// client threads concurrently.

#ifndef HYBRIDJOIN_SERVER_WAREHOUSE_SERVER_H_
#define HYBRIDJOIN_SERVER_WAREHOUSE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/blocking_queue.h"
#include "common/token_bucket.h"
#include "hybrid/warehouse.h"
#include "obs/json.h"
#include "obs/metrics_http.h"
#include "obs/query_registry.h"
#include "server/admission_controller.h"
#include "server/query_context.h"

namespace hybridjoin {
namespace server {

/// The server-lifetime observability plane: what of it to switch on.
/// Everything defaults off — a server with the default config spawns no
/// background threads and writes no files.
struct ObservabilityConfig {
  /// Serve GET /metrics (Prometheus text) on 127.0.0.1:metrics_http_port.
  bool metrics_http = false;
  /// 0 = ephemeral; WarehouseServer::metrics_port() reports the bound one.
  uint16_t metrics_http_port = 0;
  /// Rewrite this file with the Prometheus exposition at start, every
  /// sample_interval and once at Shutdown — the scrapeless fallback for
  /// batch runs. "" disables (and no writer thread runs).
  std::string metrics_out;
  /// The metrics_out rewrite cadence.
  std::chrono::milliseconds sample_interval{1000};
  /// JSON-lines lifecycle event log (submit/admit/shed/phase/pivot/spill/
  /// kill/finish). "" disables.
  std::string event_log_path;
  /// Directory for slow-query profiles: queries slower than
  /// slow_query_seconds persist their full EXPLAIN ANALYZE JSON here.
  std::string slow_query_dir;
  /// 0 disables the slow-query log.
  double slow_query_seconds = 0.0;
};

struct ServerConfig {
  AdmissionConfig admission;
  /// Per-session sustained query rate (queries/second); 0 = unlimited.
  uint32_t session_queries_per_second = 0;
  /// Instantaneous burst (queries) per session; 0 = one query.
  uint32_t session_burst_queries = 0;
  /// How long Execute() may wait on the session rate limiter before the
  /// query is shed with kResourceExhausted.
  std::chrono::milliseconds rate_limit_wait{0};
  /// Default quotas stamped into every query's QueryContext; a session can
  /// tighten them per call via Execute()'s quotas argument.
  QueryQuotas default_quotas;
  ObservabilityConfig observability;
};

/// Server-wide counters — a point-in-time snapshot view. The same counts
/// are mirrored into the engine's Metrics registry under server.* (see
/// common/metrics.h), which is what the scrape endpoint and the
/// metrics_out file render; this struct stays the programmatic view.
struct ServerStats {
  AdmissionStats admission;
  int64_t executed = 0;        ///< queries that ran to a result (ok or not)
  int64_t rate_limited = 0;    ///< shed by the session rate limit
  int64_t quota_rejected = 0;  ///< rejected by the memory quota
  int64_t killed = 0;          ///< KILLed while in flight
  size_t open_sessions = 0;
  uint32_t queries_in_flight = 0;  ///< executing right now
};

class WarehouseServer {
 public:
  /// Minimum usable memory quota: below this there is not even room for a
  /// single record batch of operator state, so the query is rejected with
  /// kResourceExhausted before admission instead of thrashing the spiller.
  /// At or above it, any working set completes by spilling.
  static constexpr uint64_t kMinQuotaBytes = 64 * 1024;

  /// The warehouse must outlive the server. The server does not own it:
  /// loading data and DDL keep going through the HybridWarehouse facade
  /// (concurrently with queries — the catalogs take RW locks).
  WarehouseServer(HybridWarehouse* warehouse, const ServerConfig& config);
  ~WarehouseServer();

  WarehouseServer(const WarehouseServer&) = delete;
  WarehouseServer& operator=(const WarehouseServer&) = delete;

  /// Opens a session and returns its id. Each session carries its own
  /// TokenBucket when a per-session rate is configured.
  uint64_t OpenSession();

  /// Closes a session; subsequent Execute() calls on it fail kNotFound.
  Status CloseSession(uint64_t session_id);

  /// Parses and runs one SQL statement on behalf of `session_id`, letting
  /// the advisor pick the algorithm. Blocks through rate limiting and
  /// admission; thread-safe, any number of concurrent callers.
  /// Errors: kNotFound (unknown session), kResourceExhausted (rate-limited,
  /// shed by admission, or over memory quota), kUnavailable (shut down),
  /// plus anything the engine itself returns.
  Result<ServerResult> Execute(uint64_t session_id, const std::string& sql);

  /// Execute with per-call quotas overriding the server defaults.
  Result<ServerResult> Execute(uint64_t session_id, const std::string& sql,
                               const QueryQuotas& quotas);

  /// Front-end entry point that also understands the administrative
  /// statements (SHOW PROCESSLIST / SHOW METRICS / SHOW SESSIONS /
  /// KILL <query_id>): admin statements bypass rate limiting and admission
  /// and return their answer in ServerResult::admin_text; anything else
  /// routes to Execute().
  Result<ServerResult> ExecuteStatement(uint64_t session_id,
                                        const std::string& sql);

  /// Requests cooperative cancellation of an in-flight query. The query
  /// unwinds at its next morsel / exchange / receive boundary and its
  /// Execute() call returns kCancelled. kNotFound when no such query is in
  /// flight.
  Status Kill(uint64_t query_id);

  /// Live rows for every in-flight query (the SHOW PROCESSLIST data).
  std::vector<obs::LiveQuery> ProcessList() const;
  std::string ProcessListText() const;

  /// Prometheus text exposition of the engine's metrics registry — the
  /// same bytes GET /metrics serves.
  std::string MetricsText();

  /// One line per open session (SHOW SESSIONS).
  std::string SessionsText() const;

  /// The bound scrape port when ObservabilityConfig::metrics_http is on
  /// (resolves port 0 to the ephemeral pick), 0 otherwise.
  uint16_t metrics_port() const;

  /// Whether the metrics_out writer thread is running: true from
  /// construction to Shutdown when ObservabilityConfig::metrics_out is set,
  /// false otherwise.
  bool metrics_out_running() const { return metrics_out_writer_.joinable(); }

  /// Sheds all waiting queries and rejects new ones. Running queries
  /// finish. Stops the observability plane (scrape endpoint, metrics_out
  /// writer after its last rewrite, event log) with bounded joins.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  ServerStats stats() const;
  const ServerConfig& config() const { return config_; }
  AdmissionController& admission() { return admission_; }

 private:
  struct Session {
    uint64_t id = 0;
    std::unique_ptr<TokenBucket> rate;  ///< null when unlimited
    std::atomic<int64_t> executed{0};   ///< queries run on this session
  };

  /// nullptr when the session does not exist. The returned pointer stays
  /// valid until CloseSession (map nodes are stable; sessions are only
  /// erased, never mutated after creation).
  std::shared_ptr<Session> FindSession(uint64_t session_id) const;

  /// The engine metrics registry the server.* mirror writes into.
  Metrics& engine_metrics() const;

  /// Rewrites the metrics_out file with the current exposition.
  void WriteMetricsOut();

  /// Emits one lifecycle event when the event log is open.
  void Emit(const char* event, uint64_t query_id,
            obs::JsonValue fields) const;

  HybridWarehouse* warehouse_;
  const ServerConfig config_;
  AdmissionController admission_;

  mutable std::mutex sessions_mu_;
  std::map<uint64_t, std::shared_ptr<Session>> sessions_;
  std::atomic<uint64_t> session_seq_{0};
  std::atomic<uint64_t> ticket_seq_{0};
  std::atomic<int64_t> executed_{0};
  std::atomic<int64_t> rate_limited_{0};
  std::atomic<int64_t> quota_rejected_{0};
  std::atomic<int64_t> killed_{0};
  std::atomic<uint32_t> in_flight_{0};
  std::atomic<bool> shutdown_{false};

  // Observability plane (all optional; constructed per config, torn down
  // with bounded joins in Shutdown).
  std::unique_ptr<obs::MetricsHttpServer> http_;
  /// Closed at Shutdown to wake the metrics_out writer for its last rewrite.
  BlockingQueue<bool> metrics_out_stop_;
  std::thread metrics_out_writer_;
  bool owns_event_log_ = false;  ///< this server opened the global log
};

}  // namespace server
}  // namespace hybridjoin

#endif  // HYBRIDJOIN_SERVER_WAREHOUSE_SERVER_H_
