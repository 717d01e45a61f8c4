#include "server/warehouse_server.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "hybrid/advisor.h"
#include "obs/event_log.h"
#include "obs/promtext.h"
#include "sql/parser.h"

namespace hybridjoin {
namespace server {

WarehouseServer::WarehouseServer(HybridWarehouse* warehouse,
                                 const ServerConfig& config)
    : warehouse_(warehouse), config_(config), admission_(config.admission) {
  const ObservabilityConfig& obs_cfg = config_.observability;
  if (!obs_cfg.event_log_path.empty()) {
    const Status opened =
        obs::EventLog::Global().Open(obs_cfg.event_log_path);
    owns_event_log_ = opened.ok();
  }
  if (!obs_cfg.slow_query_dir.empty()) {
    // Best effort: an existing directory (EEXIST) is fine, and a failed
    // create only means profile writes fail later and no slow_query event
    // is emitted.
    ::mkdir(obs_cfg.slow_query_dir.c_str(), 0755);
  }
  if (!obs_cfg.metrics_out.empty()) {
    // Rewrites until Shutdown closes the queue, then once more, so the file
    // ends on the server's terminal state.
    metrics_out_writer_ = std::thread([this] {
      bool timed_out = true;
      while (timed_out) {
        WriteMetricsOut();
        metrics_out_stop_.PopFor(config_.observability.sample_interval,
                                 &timed_out);
      }
      WriteMetricsOut();
    });
  }
  if (obs_cfg.metrics_http) {
    http_ = std::make_unique<obs::MetricsHttpServer>(
        obs_cfg.metrics_http_port,
        [this](const std::string& path, std::string* body) {
          if (path != "/metrics") return false;
          *body = MetricsText();
          return true;
        });
    const Status started = http_->Start();
    if (!started.ok()) http_.reset();
  }
}

WarehouseServer::~WarehouseServer() { Shutdown(); }

void WarehouseServer::WriteMetricsOut() {
  // Rewrite in place: fopen("w") truncates and the write is one buffered
  // burst + close, so readers see a recent complete exposition.
  std::FILE* f = std::fopen(config_.observability.metrics_out.c_str(), "w");
  if (f == nullptr) return;
  const std::string text = MetricsText();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

Metrics& WarehouseServer::engine_metrics() const {
  return warehouse_->context().metrics();
}

void WarehouseServer::Emit(const char* event, uint64_t query_id,
                           obs::JsonValue fields) const {
  if (!obs::EventLog::Global().enabled()) return;
  obs::EventLog::Global().Emit(event, query_id, std::move(fields));
}

uint64_t WarehouseServer::OpenSession() {
  auto session = std::make_shared<Session>();
  session->id = session_seq_.fetch_add(1) + 1;
  if (config_.session_queries_per_second > 0) {
    // TokenBucket counts "bytes"; here one token is one query, so the burst
    // must be set explicitly (the byte-oriented default of 64 KiB would
    // disable the limit for any realistic stream).
    session->rate = std::make_unique<TokenBucket>(
        config_.session_queries_per_second,
        std::max<uint32_t>(config_.session_burst_queries, 1));
  }
  size_t open = 0;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_[session->id] = session;
    open = sessions_.size();
  }
  engine_metrics().Set(metric::kServerOpenSessions,
                       static_cast<int64_t>(open));
  return session->id;
}

Status WarehouseServer::CloseSession(uint64_t session_id) {
  size_t open = 0;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (sessions_.erase(session_id) == 0) {
      return Status::NotFound("session " + std::to_string(session_id) +
                              " does not exist");
    }
    open = sessions_.size();
  }
  engine_metrics().Set(metric::kServerOpenSessions,
                       static_cast<int64_t>(open));
  return Status::OK();
}

std::shared_ptr<WarehouseServer::Session> WarehouseServer::FindSession(
    uint64_t session_id) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : it->second;
}

Result<ServerResult> WarehouseServer::Execute(uint64_t session_id,
                                              const std::string& sql) {
  return Execute(session_id, sql, config_.default_quotas);
}

Result<ServerResult> WarehouseServer::Execute(uint64_t session_id,
                                              const std::string& sql,
                                              const QueryQuotas& quotas) {
  if (shutdown_.load(std::memory_order_acquire)) {
    return Status::Unavailable("warehouse server is shutting down");
  }
  std::shared_ptr<Session> session = FindSession(session_id);
  if (session == nullptr) {
    return Status::NotFound("session " + std::to_string(session_id) +
                            " does not exist");
  }

  QueryContext qctx;
  qctx.session_id = session_id;
  qctx.ticket_id = ticket_seq_.fetch_add(1) + 1;
  qctx.quotas = quotas;

  Metrics& metrics = engine_metrics();
  const auto ticket_fields = [&qctx] {
    auto fields = obs::JsonValue::Object();
    fields.Set("session_id", obs::JsonValue::Int(
                                 static_cast<int64_t>(qctx.session_id)));
    fields.Set("ticket_id",
               obs::JsonValue::Int(static_cast<int64_t>(qctx.ticket_id)));
    return fields;
  };
  Emit("submit", 0, ticket_fields());

  // 1. Session rate limit: one token per query, shed when starved past the
  //    configured wait.
  if (session->rate != nullptr &&
      !session->rate->TryAcquireFor(1, config_.rate_limit_wait)) {
    rate_limited_.fetch_add(1, std::memory_order_relaxed);
    metrics.Add(metric::kServerQueriesRateLimited, 1);
    auto fields = ticket_fields();
    fields.Set("reason", obs::JsonValue::Str("rate_limit"));
    Emit("shed", 0, std::move(fields));
    return Status::ResourceExhausted(
        "session " + std::to_string(session_id) + " over its query rate");
  }

  // 2. Parse + quota check before taking an execution slot. Since the
  //    grace join spills to stay inside any budget the working set fits
  //    in, an over-estimate no longer rejects the query — it runs and
  //    spills. Only quotas below the minimum runway (not enough room for
  //    a single batch of operator state) are rejected outright.
  HJ_ASSIGN_OR_RETURN(HybridQuery query, warehouse_->ParseSql(sql));
  if (qctx.quotas.memory_bytes > 0 &&
      qctx.quotas.memory_bytes < kMinQuotaBytes) {
    quota_rejected_.fetch_add(1, std::memory_order_relaxed);
    metrics.Add(metric::kServerQueriesQuotaRejected, 1);
    auto fields = ticket_fields();
    fields.Set("reason", obs::JsonValue::Str("quota"));
    Emit("shed", 0, std::move(fields));
    return Status::ResourceExhausted(
        "query memory quota (" + std::to_string(qctx.quotas.memory_bytes) +
        " bytes) is below the minimum runway (" +
        std::to_string(kMinQuotaBytes) + " bytes)");
  }

  // 3. Admission: bounded concurrency, queue-then-shed.
  Result<AdmissionController::Slot> admitted = admission_.Admit();
  if (!admitted.ok()) {
    metrics.Add(metric::kServerQueriesShed, 1);
    auto fields = ticket_fields();
    fields.Set("reason", obs::JsonValue::Str("admission"));
    Emit("shed", 0, std::move(fields));
    return admitted.status();
  }
  AdmissionController::Slot slot = std::move(admitted).value();
  {
    auto fields = ticket_fields();
    fields.Set("queued", obs::JsonValue::Bool(slot.queued()));
    fields.Set("queue_wait_us", obs::JsonValue::Int(slot.queue_wait_us()));
    Emit("admit", 0, std::move(fields));
  }

  // 4. Execute while holding the slot. The engine allocates the substrate
  //    query id inside the driver; copy it into the ticket from the
  //    assembled profile. SubmissionScope hands the driver this query's
  //    session/ticket/SQL so the live process list can attribute it.
  //    The memory quota seeds the execution's MemoryGovernor: joins spill
  //    partitions to honor it instead of failing mid-flight.
  metrics.Set(metric::kServerQueriesInFlight,
              static_cast<int64_t>(in_flight_.fetch_add(1) + 1));
  Advice advice;
  Result<QueryResult> result = [&] {
    obs::SubmissionScope submission(qctx.session_id, qctx.ticket_id, sql);
    return warehouse_->ExecuteAuto(query, &advice,
                                   qctx.quotas.memory_bytes);
  }();
  metrics.Set(metric::kServerQueriesInFlight,
              static_cast<int64_t>(in_flight_.fetch_sub(1) - 1));
  executed_.fetch_add(1, std::memory_order_relaxed);
  metrics.Add(metric::kServerQueriesExecuted, 1);
  session->executed.fetch_add(1, std::memory_order_relaxed);

  const uint64_t query_id =
      result.ok() ? result.value().report.profile.query_id : 0;
  {
    auto fields = ticket_fields();
    fields.Set("status",
               obs::JsonValue::Str(result.ok()
                                       ? "OK"
                                       : StatusCodeName(
                                             result.status().code())));
    if (result.ok()) {
      fields.Set("wall_seconds", obs::JsonValue::Number(
                                     result.value().report.wall_seconds));
      fields.Set("algorithm",
                 obs::JsonValue::Str(JoinAlgorithmName(advice.algorithm)));
    }
    Emit("finish", query_id, std::move(fields));
  }
  HJ_RETURN_IF_ERROR(result.status());

  // Slow-query log: persist the full EXPLAIN ANALYZE profile of anything
  // past the threshold for post-hoc analysis.
  const ObservabilityConfig& obs_cfg = config_.observability;
  if (!obs_cfg.slow_query_dir.empty() && obs_cfg.slow_query_seconds > 0 &&
      result.value().report.wall_seconds >= obs_cfg.slow_query_seconds) {
    const std::string path = obs_cfg.slow_query_dir + "/slow_query_" +
                             std::to_string(query_id) + ".json";
    const Status written = result.value().report.profile.WriteJson(path);
    if (written.ok()) {
      auto fields = ticket_fields();
      fields.Set("profile", obs::JsonValue::Str(path));
      fields.Set("wall_seconds", obs::JsonValue::Number(
                                     result.value().report.wall_seconds));
      Emit("slow_query", query_id, std::move(fields));
    }
  }

  ServerResult out;
  out.ticket.session_id = qctx.session_id;
  out.ticket.ticket_id = qctx.ticket_id;
  out.ticket.query_id = query_id;
  out.ticket.queued = slot.queued();
  out.ticket.queue_wait_us = slot.queue_wait_us();
  out.ticket.algorithm = advice.algorithm;
  out.result = std::move(result).value();
  return out;
}

Result<ServerResult> WarehouseServer::ExecuteStatement(
    uint64_t session_id, const std::string& sql) {
  HJ_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  if (stmt.kind == sql::StatementKind::kSelect) {
    return Execute(session_id, sql);
  }
  // Administrative statements answer from the observability plane without
  // touching rate limits or admission — a second session can always
  // inspect (and kill) a wedged server.
  if (FindSession(session_id) == nullptr) {
    return Status::NotFound("session " + std::to_string(session_id) +
                            " does not exist");
  }
  ServerResult out;
  out.ticket.session_id = session_id;
  switch (stmt.kind) {
    case sql::StatementKind::kShowProcesslist:
      out.admin_text = ProcessListText();
      break;
    case sql::StatementKind::kShowMetrics:
      out.admin_text = MetricsText();
      break;
    case sql::StatementKind::kShowSessions:
      out.admin_text = SessionsText();
      break;
    case sql::StatementKind::kKill:
      HJ_RETURN_IF_ERROR(Kill(stmt.kill_query_id));
      out.admin_text = "killing query " +
                       std::to_string(stmt.kill_query_id) + "\n";
      break;
    case sql::StatementKind::kSelect:
      break;  // unreachable
  }
  return out;
}

Status WarehouseServer::Kill(uint64_t query_id) {
  HJ_RETURN_IF_ERROR(obs::QueryRegistry::Global().Cancel(query_id));
  killed_.fetch_add(1, std::memory_order_relaxed);
  engine_metrics().Add(metric::kServerQueriesKilled, 1);
  Emit("kill", query_id, obs::JsonValue::Object());
  return Status::OK();
}

std::vector<obs::LiveQuery> WarehouseServer::ProcessList() const {
  return obs::QueryRegistry::Global().Snapshot();
}

std::string WarehouseServer::ProcessListText() const {
  return obs::RenderProcessListText(ProcessList());
}

std::string WarehouseServer::MetricsText() {
  return obs::RenderPrometheus(engine_metrics());
}

std::string WarehouseServer::SessionsText() const {
  std::string out = "SESSION  RATE_LIMITED  EXECUTED\n";
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (const auto& [id, session] : sessions_) {
    char line[128];
    std::snprintf(line, sizeof(line), "%-8llu %-13s %lld\n",
                  static_cast<unsigned long long>(id),
                  session->rate != nullptr ? "yes" : "no",
                  static_cast<long long>(
                      session->executed.load(std::memory_order_relaxed)));
    out += line;
  }
  if (sessions_.empty()) out += "(no open sessions)\n";
  return out;
}

uint16_t WarehouseServer::metrics_port() const {
  return http_ != nullptr ? http_->port() : 0;
}

void WarehouseServer::Shutdown() {
  shutdown_.store(true, std::memory_order_release);
  admission_.Close();
  if (http_ != nullptr) http_->Stop();
  metrics_out_stop_.Close();
  if (metrics_out_writer_.joinable()) metrics_out_writer_.join();
  if (owns_event_log_) {
    obs::EventLog::Global().Close();
    owns_event_log_ = false;
  }
}

ServerStats WarehouseServer::stats() const {
  ServerStats s;
  s.admission = admission_.stats();
  s.executed = executed_.load(std::memory_order_relaxed);
  s.rate_limited = rate_limited_.load(std::memory_order_relaxed);
  s.quota_rejected = quota_rejected_.load(std::memory_order_relaxed);
  s.killed = killed_.load(std::memory_order_relaxed);
  s.queries_in_flight = in_flight_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    s.open_sessions = sessions_.size();
  }
  return s;
}

}  // namespace server
}  // namespace hybridjoin
