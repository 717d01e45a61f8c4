// QueryRegistry: the process-global table of in-flight query executions —
// the data behind SHOW PROCESSLIST and KILL. Every driver execution
// registers itself at driver::Execution construction (carrying the submitting
// session/ticket/SQL when the server installed a SubmissionScope) and
// unregisters at destruction; between the two, any thread can snapshot the
// live rows (phase, elapsed wall, rows scanned/produced, governor memory,
// spill bytes) or request cooperative cancellation.
//
// Cancellation contract: Cancel(query_id) flips a per-query atomic flag;
// worker threads check it at their natural yield points — Network::Recv's
// poll slices, BatchMorselPipe::Feed, the exchange send loop — via
// CheckCancelled(), which resolves the calling thread's QueryScope id to
// the flag through a thread-local cache (one atomic load on the fast
// path). A cancelled check returns StatusCode::kCancelled, which rides the
// drivers' existing first-error-wins status propagation: workers bail, EOS
// obligations still run (receivers never hang), and the query surfaces as
// a clean Cancelled result with every governor reservation released.
//
// Registration precedes worker spawn and ids are process-unique
// (EngineContext::NextQueryId is process-global), so the thread-local
// cache never goes stale: a cached flag stays valid for as long as any
// thread still carries that QueryScope.

#ifndef HYBRIDJOIN_OBS_QUERY_REGISTRY_H_
#define HYBRIDJOIN_OBS_QUERY_REGISTRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/query_scope.h"
#include "common/status.h"
#include "exec/memory_governor.h"

namespace hybridjoin {
namespace obs {

/// One SHOW PROCESSLIST row: a plain-value snapshot of an in-flight query.
/// Safe to hold after the query finishes (no pointers into the execution).
struct LiveQuery {
  uint64_t query_id = 0;
  uint64_t session_id = 0;  ///< 0 when not submitted through the server
  uint64_t ticket_id = 0;
  std::string sql;          ///< empty when not submitted through the server
  std::string algorithm;
  std::string phase;        ///< most recent driver::Execution::Mark name
  double elapsed_seconds = 0.0;
  int64_t rows_scanned = 0;   ///< edw.tuples_scanned + jen.tuples_scanned
  int64_t rows_produced = 0;  ///< join.output_tuples
  uint64_t mem_used_bytes = 0;
  uint64_t mem_peak_bytes = 0;
  uint64_t mem_budget_bytes = 0;
  int64_t spill_bytes = 0;
  bool cancel_requested = false;
};

/// RAII: tags the next driver::Execution constructed on this thread (and its
/// execution) with the submitting session/ticket/SQL. The warehouse server
/// installs one around Execute(); nesting keeps the innermost.
class SubmissionScope {
 public:
  struct Info {
    uint64_t session_id = 0;
    uint64_t ticket_id = 0;
    std::string sql;
  };

  SubmissionScope(uint64_t session_id, uint64_t ticket_id, std::string sql)
      : saved_(tls_info_) {
    info_.session_id = session_id;
    info_.ticket_id = ticket_id;
    info_.sql = std::move(sql);
    tls_info_ = &info_;
  }
  ~SubmissionScope() { tls_info_ = saved_; }

  SubmissionScope(const SubmissionScope&) = delete;
  SubmissionScope& operator=(const SubmissionScope&) = delete;

  /// The calling thread's current submission info (nullptr outside any
  /// scope — direct library callers).
  static const Info* Current() { return tls_info_; }

 private:
  static inline thread_local const Info* tls_info_ = nullptr;
  Info info_;
  const Info* saved_;
};

class QueryRegistry {
 public:
  static QueryRegistry& Global();

  QueryRegistry(const QueryRegistry&) = delete;
  QueryRegistry& operator=(const QueryRegistry&) = delete;

  /// Registers an in-flight execution. `metrics` and `governor` must stay
  /// valid until Unregister (driver::Execution guarantees both); session /
  /// ticket / SQL attribution is read from the calling thread's
  /// SubmissionScope when one is installed.
  void Register(uint64_t query_id, Metrics* metrics, MemoryGovernor* governor,
                const char* algorithm);

  /// Drops the execution. Returns the governor's still-held bytes at the
  /// moment of removal — non-zero means leaked reservations (recorded by
  /// the caller under server.governor_leaked_bytes).
  uint64_t Unregister(uint64_t query_id);

  /// Updates the query's current phase (driver::Execution::Mark calls this).
  void SetPhase(uint64_t query_id, const std::string& phase);

  /// Requests cooperative cancellation; kNotFound when the query is not
  /// in flight (already finished, or never existed).
  Status Cancel(uint64_t query_id);

  /// Plain-value rows for every in-flight query, ordered by query id. Live
  /// memory readings are taken under the registry lock, so a concurrent
  /// Unregister can never leave a dangling governor read.
  std::vector<LiveQuery> Snapshot() const;

  size_t size() const;

  /// Fast cooperative-cancellation check for the calling thread's current
  /// QueryScope: OK when no query is installed, the query is unknown, or
  /// no cancel was requested; kCancelled once Cancel() ran. One
  /// thread-local compare + one atomic load on the steady-state path.
  static Status CheckCancelled();

  /// Boolean form of CheckCancelled for hot loops.
  static bool IsCancelled();

 private:
  struct Entry {
    uint64_t session_id = 0;
    uint64_t ticket_id = 0;
    std::string sql;
    std::string algorithm;
    std::string phase;
    std::chrono::steady_clock::time_point start;
    Metrics* metrics = nullptr;
    MemoryGovernor* governor = nullptr;
    std::shared_ptr<std::atomic<bool>> cancel;
  };

  QueryRegistry() = default;

  /// Resolves a query id to its cancel flag (nullptr when not in flight).
  std::shared_ptr<std::atomic<bool>> CancelFlag(uint64_t query_id) const;

  mutable std::mutex mu_;
  std::map<uint64_t, Entry> entries_;
};

/// Fixed-width text rendering of a process-list snapshot (the SHOW
/// PROCESSLIST output of the server API and the SQL shell).
std::string RenderProcessListText(const std::vector<LiveQuery>& rows);

}  // namespace obs
}  // namespace hybridjoin

#endif  // HYBRIDJOIN_OBS_QUERY_REGISTRY_H_
