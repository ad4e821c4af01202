#ifndef SIREP_MIDDLEWARE_METRICS_HTTP_H_
#define SIREP_MIDDLEWARE_METRICS_HTTP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "common/status.h"

namespace sirep::middleware {

/// Minimal per-middleware HTTP/1.0 listener for observability
/// exposition: GET /metrics (Prometheus text) and GET /flightrecorder
/// (human-readable black box), each backed by a caller-supplied
/// handler evaluated per request. Built on the same loopback socket
/// plumbing as the TCP sequencer transport (gcs/socket_util.h).
///
/// Scope: a scrape endpoint, not a web server — loopback only, one
/// serial accept loop, one request per connection, GET only. That is
/// exactly what `curl`/Prometheus need and keeps the surface small. A
/// client gets 2 s to send its request line (none once Stop() begins),
/// so a silent one cannot wedge later scrapes or Stop().
class MetricsHttpServer {
 public:
  /// Returns the response body for one request.
  using Handler = std::function<std::string()>;

  MetricsHttpServer() = default;
  ~MetricsHttpServer();

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// Registers `handler` for GET `path` (e.g. "/metrics"). Call before
  /// Start().
  void AddEndpoint(const std::string& path, const std::string& content_type,
                   Handler handler);

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral port, see
  /// port()) and starts the accept loop thread.
  Status Start(uint16_t port = 0);

  /// The bound port; 0 until Start() succeeds.
  uint16_t port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Stops the accept loop and closes the listen socket. Idempotent.
  void Stop();

 private:
  struct Endpoint {
    std::string content_type;
    Handler handler;
  };

  void AcceptLoop();
  void ServeConnection(int fd);

  std::map<std::string, Endpoint> endpoints_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
};

}  // namespace sirep::middleware

#endif  // SIREP_MIDDLEWARE_METRICS_HTTP_H_
