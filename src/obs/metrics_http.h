// Minimal single-threaded HTTP exporter for `GET /metrics`: one
// background thread, one connection at a time, Prometheus text
// exposition from a MetricRegistry. Deliberately tiny — it exists so
// an operator (or a scraper) can read the registry without linking a
// web stack; it is NOT a general HTTP server and is off by default
// everywhere (nothing starts one unless explicitly asked).
#ifndef S3_OBS_METRICS_HTTP_H_
#define S3_OBS_METRICS_HTTP_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "common/status.h"
#include "obs/metrics.h"

namespace s3::obs {

struct MetricsHttpOptions {
  // Loopback by default: this is an operator port, not a public one.
  std::string bind_address = "127.0.0.1";
  // 0 asks the kernel for an ephemeral port; read it back via port().
  uint16_t port = 0;
};

class MetricsHttpServer {
 public:
  // Serves `registry` (nullptr → MetricRegistry::Default()).
  explicit MetricsHttpServer(MetricRegistry* registry = nullptr);
  ~MetricsHttpServer();
  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  // Binds, listens, and starts the accept thread. Returns
  // UnavailableError if the socket can't be bound (sandboxes without
  // network namespaces) — callers degrade gracefully.
  Status Start(const MetricsHttpOptions& options = {});
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  uint16_t port() const { return port_; }

 private:
  void Serve();

  MetricRegistry* registry_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace s3::obs

#endif  // S3_OBS_METRICS_HTTP_H_
