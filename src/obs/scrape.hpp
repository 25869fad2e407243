// Minimal in-process HTTP scrape endpoint for `serve --listen HOST:PORT`.
//
// Two routes, nothing else:
//   GET /metrics  -> 200, Prometheus text format (the body comes from a
//                    caller-supplied callback, typically
//                    prometheus_text(snapshot_metrics()) plus lines derived
//                    from serve's double-buffered ReportBoard — so a
//                    scrape never touches the engine mutex);
//   GET /healthz  -> 200 "ok\n".
// Anything else is 404 (unknown path) or 405 (non-GET).  One request per
// connection (HTTP/1.0-style `Connection: close`), which is all a
// Prometheus scraper needs and keeps the listener a single poll loop.
//
// Plain POSIX sockets — no third-party dependency.  The accept loop runs
// on one background thread and polls with a short timeout so stop() (or
// destruction) takes effect within ~200ms.  Binding port 0 picks an
// ephemeral port, reported by port() — how the tests avoid collisions.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

namespace dpg::obs {

class ScrapeListener {
 public:
  /// Renders the /metrics body (called on the listener thread per scrape).
  using MetricsFn = std::function<std::string()>;

  /// Binds and starts serving immediately.  `host` is a dotted-quad IPv4
  /// address ("127.0.0.1", "0.0.0.0"); `port` 0 binds an ephemeral port.
  /// Throws IoError if the socket cannot be bound.
  ScrapeListener(const std::string& host, std::uint16_t port,
                 MetricsFn metrics);
  ~ScrapeListener();

  ScrapeListener(const ScrapeListener&) = delete;
  ScrapeListener& operator=(const ScrapeListener&) = delete;

  /// The actually bound port (resolves port 0 to the ephemeral choice).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Stops the accept loop and joins the thread.  Idempotent.
  void stop();

 private:
  void run();
  void handle_connection(int fd);

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  MetricsFn metrics_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Splits a "HOST:PORT" flag value.  Throws InvalidArgument on a missing
/// colon or an unparseable port.
void parse_listen_address(const std::string& value, std::string* host,
                          std::uint16_t* port);

}  // namespace dpg::obs
