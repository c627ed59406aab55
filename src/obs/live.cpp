#include "obs/live.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/event_sink.h"
#include "obs/manifest.h"
#include "obs/timer.h"
#include "resil/guard.h"

namespace tx::obs::live {

double default_staleness_seconds() {
  static const double value = [] {
    const char* raw = std::getenv("TYXE_HEALTH_STALE_S");
    if (raw != nullptr && *raw != '\0') {
      char* end = nullptr;
      const double parsed = std::strtod(raw, &end);
      if (end != raw && *end == '\0' && std::isfinite(parsed) && parsed > 0.0) {
        return parsed;
      }
      std::fprintf(stderr,
                   "warning: ignoring TYXE_HEALTH_STALE_S=%s (want a positive "
                   "number of seconds)\n",
                   raw);
    }
    return 30.0;
  }();
  return value;
}

std::string prometheus_name(const std::string& name) {
  std::string out = "tx_";
  out.reserve(name.size() + 3);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

namespace {

std::string render_metric_number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string render_prometheus(MetricsRegistry& reg) {
  std::string out;
  for (const auto& [name, value] : reg.counters()) {
    const std::string pname = prometheus_name(name);
    out += "# TYPE " + pname + " counter\n";
    out += pname + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : reg.gauges()) {
    const std::string pname = prometheus_name(name);
    out += "# TYPE " + pname + " gauge\n";
    out += pname + " " + render_metric_number(value) + "\n";
  }
  for (const auto& [name, h] : reg.histograms()) {
    const std::string pname = prometheus_name(name);
    out += "# TYPE " + pname + " histogram\n";
    // Cumulative le-buckets. The overflow bucket's +inf bound folds into the
    // final +Inf line, which always equals the total count.
    std::int64_t cum = 0;
    for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
      cum += h.bucket_counts[i];
      if (std::isfinite(h.bounds[i])) {
        out += pname + "_bucket{le=\"" + render_metric_number(h.bounds[i]) +
               "\"} " + std::to_string(cum) + "\n";
      }
    }
    out += pname + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += pname + "_sum " + render_metric_number(h.sum) + "\n";
    out += pname + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::string render_healthz(double staleness_seconds, int& http_status,
                           MetricsRegistry& reg) {
  // The watchdog's verdict wins outright: it carries a structured reason
  // (what stalled, where) that a bare heartbeat-age comparison cannot, and
  // it clears itself on recovery.
  if (guard::health_overridden()) {
    http_status = 503;
    return "{\"status\": \"stalled\", \"reason\": \"" +
           escape_json(guard::health_override()) +
           "\", \"staleness_threshold_seconds\": " +
           render_json_number(staleness_seconds) + "}\n";
  }
  // gauges() (not gauge()) so probing health never creates the metric.
  const auto gauges = reg.gauges();
  const auto it = gauges.find("obs.heartbeat_seconds");
  std::string status;
  double age = -1.0;
  if (it == gauges.end()) {
    status = "idle";  // no inference driver has stepped yet
    http_status = 200;
  } else {
    age = now_seconds() - it->second;
    const bool stale = age > staleness_seconds;
    status = stale ? "stale" : "ok";
    http_status = stale ? 503 : 200;
  }
  std::string out = "{\"status\": \"" + status + "\"";
  if (age >= 0.0) {
    out += ", \"heartbeat_age_seconds\": " + render_json_number(age);
  }
  out += ", \"staleness_threshold_seconds\": " +
         render_json_number(staleness_seconds) + "}\n";
  return out;
}

Server::Server(Options opts) : opts_(std::move(opts)) {}

Server::~Server() { stop(); }

bool Server::start() {
  if (running()) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    std::fprintf(stderr, "obs::live: socket() failed: %s\n",
                 std::strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    std::fprintf(stderr, "obs::live: cannot listen on port %d: %s\n",
                 opts_.port, std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = static_cast<int>(ntohs(addr.sin_port));
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve(); });
  return true;
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::serve() {
  while (running_.load(std::memory_order_acquire)) {
    // Poll with a timeout so stop() is noticed without needing to wake the
    // accept call from another thread.
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;

    // Bound the read so a half-open client cannot wedge the loop.
    timeval tv{/*tv_sec=*/2, /*tv_usec=*/0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

    std::string req;
    char buf[2048];
    while (req.find("\r\n\r\n") == std::string::npos &&
           req.size() < 16 * 1024) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      req.append(buf, static_cast<std::size_t>(n));
    }

    std::string method, target;
    const std::size_t sp1 = req.find(' ');
    if (sp1 != std::string::npos) {
      method = req.substr(0, sp1);
      const std::size_t sp2 = req.find(' ', sp1 + 1);
      if (sp2 != std::string::npos) {
        target = req.substr(sp1 + 1, sp2 - sp1 - 1);
      }
    }

    std::string response;
    if (method != "GET") {
      response =
          "HTTP/1.1 405 Method Not Allowed\r\nContent-Length: 0\r\n"
          "Connection: close\r\n\r\n";
    } else {
      response = respond(target);
    }
    std::size_t sent = 0;
    while (sent < response.size()) {
      const ssize_t n =
          ::send(fd, response.data() + sent, response.size() - sent, 0);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

std::string Server::respond(const std::string& target) const {
  registry().counter("obs.http_requests").add(1);
  int status = 200;
  std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
  std::string body;
  if (target == "/metrics") {
    body = render_prometheus();
  } else if (target == "/healthz") {
    content_type = "application/json";
    body = render_healthz(opts_.health_staleness_seconds, status);
  } else if (target == "/snapshot") {
    content_type = "application/json";
    body = EventSink::render_snapshot_json(opts_.bench_name);
  } else if (target == "/manifest") {
    content_type = "application/json";
    body = manifest::json() + "\n";
  } else {
    registry().counter("obs.http_not_found").add(1);
    status = 404;
    content_type = "text/plain";
    body = "not found; try /metrics /healthz /snapshot /manifest\n";
  }
  const char* reason = status == 200   ? "OK"
                       : status == 404 ? "Not Found"
                                       : "Service Unavailable";
  std::string response = "HTTP/1.1 " + std::to_string(status) + " " + reason +
                         "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " + std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n";
  response += body;
  return response;
}

}  // namespace tx::obs::live
