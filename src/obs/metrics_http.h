// MetricsHttpServer: a minimal embedded HTTP/1.1 endpoint whose only job
// is serving Prometheus scrapes of the warehouse server (GET /metrics →
// 200 text/plain, anything else → 404). Plain POSIX sockets, loopback
// only, one short-lived connection per request — deliberately not a web
// server.
//
// Lifecycle: the accept loop polls with a 100 ms slice and re-checks a
// stop flag, so Stop() (and the destructor) joins the listener thread
// within one slice. Port 0 binds an ephemeral port; port() reports the
// bound one, which tests use to scrape their own in-process server.

#ifndef HYBRIDJOIN_OBS_METRICS_HTTP_H_
#define HYBRIDJOIN_OBS_METRICS_HTTP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "common/status.h"

namespace hybridjoin {
namespace obs {

class MetricsHttpServer {
 public:
  /// `handler` maps a request path to a response body; an empty optional
  /// is modeled as handler returning false (→ 404). Called from the
  /// listener thread, so it must be thread-safe against the rest of the
  /// server (RenderPrometheus over Metrics is).
  using Handler = std::function<bool(const std::string& path,
                                     std::string* body)>;

  explicit MetricsHttpServer(uint16_t port, Handler handler);
  ~MetricsHttpServer();

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// Binds 127.0.0.1:`port` and starts the listener thread.
  Status Start();

  /// Stops the listener and joins (idempotent; also called by the dtor).
  void Stop();

  /// The bound port (resolves port 0 after Start), 0 before Start.
  uint16_t port() const { return bound_port_; }

  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void ListenLoop();

  const uint16_t requested_port_;
  Handler handler_;
  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> requests_{0};
  std::thread thread_;
};

}  // namespace obs
}  // namespace hybridjoin

#endif  // HYBRIDJOIN_OBS_METRICS_HTTP_H_
