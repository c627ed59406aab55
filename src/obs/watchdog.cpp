#include "obs/watchdog.h"

#include <chrono>
#include <cstdio>
#include <string>

#include "obs/diag.h"
#include "obs/registry.h"
#include "obs/timer.h"
#include "resil/guard.h"

namespace tx::obs {

void heartbeat() {
  registry().gauge("obs.heartbeat_seconds").set(now_seconds());
  if (guard::watchdog_interested()) guard::note_liveness(current_span_path());
}

Watchdog::Watchdog(Options opts) : opts_(std::move(opts)) {
  if (opts_.stale_after_seconds <= 0.0) opts_.stale_after_seconds = 30.0;
  if (opts_.poll_interval_seconds <= 0.0) opts_.poll_interval_seconds = 0.5;
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  guard::set_watchdog_interest(true);
  thread_ = std::thread([this] { run(); });
}

void Watchdog::stop() {
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      cv_.notify_all();
    }
    thread_.join();
    guard::set_watchdog_interest(false);
    // A 503 left behind by a dead watchdog would be unactionable — the
    // monitor that would clear it on recovery no longer exists.
    if (in_stall_) {
      guard::clear_health_override();
      in_stall_ = false;
    }
  } else if (thread_.joinable()) {
    thread_.join();
  }
}

void Watchdog::run() {
  const auto interval =
      std::chrono::duration<double>(opts_.poll_interval_seconds);
  std::unique_lock<std::mutex> lock(mu_);
  while (running_.load(std::memory_order_acquire)) {
    lock.unlock();
    poll_once();
    lock.lock();
    cv_.wait_for(lock, interval, [this] {
      return !running_.load(std::memory_order_acquire);
    });
  }
}

void Watchdog::poll_once() {
  // gauges() (not gauge()) so monitoring never creates the metric; no
  // heartbeat yet means the drivers simply have not started — not a stall.
  const auto gauges = registry().gauges();
  const auto it = gauges.find("obs.heartbeat_seconds");
  if (it == gauges.end()) return;
  // Real wall clock on purpose: fault clock-skew plans advance only the
  // guard virtual clock, and an injected deadline must not read as a hang.
  const double age = now_seconds() - it->second;
  if (age <= opts_.stale_after_seconds) {
    if (in_stall_) {
      in_stall_ = false;  // recovered: re-arm the per-episode forensic dump
      guard::clear_health_override();
      registry().counter("guard.watchdog.recoveries").add(1);
    }
    return;
  }
  if (in_stall_) return;  // one dump + override per stall episode
  in_stall_ = true;
  stalls_.fetch_add(1, std::memory_order_relaxed);
  registry().counter("guard.watchdog.stalls").add(1);

  const std::string blame = guard::last_liveness_span();
  char head[160];
  std::snprintf(head, sizeof(head),
                "heartbeat stalled for %.1fs (threshold %.1fs)", age,
                opts_.stale_after_seconds);
  std::string reason = head;
  if (!blame.empty()) reason += "; last live span: " + blame;

  diag::force_forensic_dump("watchdog_stall", blame);
  guard::set_health_override(reason);
  std::fprintf(stderr, "obs::watchdog: %s\n", reason.c_str());
  if (opts_.escalate_cancel) {
    const int cancelled = guard::cancel_all(guard::Reason::kWatchdog);
    registry().counter("guard.watchdog.cancels").add(cancelled);
  }
}

}  // namespace tx::obs
