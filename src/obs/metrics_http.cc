#include "obs/metrics_http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace s3::obs {

MetricsHttpServer::MetricsHttpServer(MetricRegistry* registry)
    : registry_(registry != nullptr ? registry : &MetricRegistry::Default()) {}

MetricsHttpServer::~MetricsHttpServer() { Stop(); }

Status MetricsHttpServer::Start(const MetricsHttpOptions& options) {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("metrics exporter already running");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable(std::string("socket(): ") +
                               std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address: " +
                                   options.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 8) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Unavailable("bind/listen on " + options.bind_address +
                               ": " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  listen_fd_ = fd;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Serve(); });
  return Status::OK();
}

void MetricsHttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // shutdown() wakes the poll/accept in Serve(); close happens there.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

void MetricsHttpServer::Serve() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready <= 0) continue;  // timeout or EINTR: re-check running_
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;

    // Read the request line; 4 KiB is plenty for "GET /metrics ...".
    char buf[4096];
    const ssize_t n = ::recv(conn, buf, sizeof(buf) - 1, 0);
    std::string body;
    std::string status_line = "HTTP/1.1 200 OK";
    std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
    if (n <= 0) {
      ::close(conn);
      continue;
    }
    buf[n] = '\0';
    const std::string request(buf);
    // Longest prefix first: /metrics.json shares the /metrics prefix.
    if (request.rfind("GET /metrics.json", 0) == 0) {
      body = registry_->RenderJson();
      content_type = "application/json";
    } else if (request.rfind("GET /metrics", 0) == 0) {
      body = registry_->RenderPrometheus();
    } else {
      status_line = "HTTP/1.1 404 Not Found";
      body = "try GET /metrics\n";
    }
    std::string response = status_line + "\r\nContent-Type: " + content_type +
                           "\r\nContent-Length: " +
                           std::to_string(body.size()) +
                           "\r\nConnection: close\r\n\r\n" + body;
    size_t sent = 0;
    while (sent < response.size()) {
      const ssize_t w =
          ::send(conn, response.data() + sent, response.size() - sent, 0);
      if (w <= 0) break;
      sent += static_cast<size_t>(w);
    }
    ::close(conn);
  }
}

}  // namespace s3::obs
