// tx::obs watchdog — a liveness monitor for the inference drivers.
//
// A background thread samples the obs.heartbeat_seconds gauge (touched by
// every SVI step, MCMC transition, and predict batch) against the real
// wall clock. When the heartbeat goes older than the staleness threshold
// — the same TYXE_HEALTH_STALE_S knob /healthz uses — the watchdog:
//
//   1. writes a tx.diag.forensic.v1 bundle (diag::force_forensic_dump, so
//      it fires even when diag never ran or already spent its dump budget),
//      blaming the last span path a heartbeat touch point reported via
//      guard::note_liveness;
//   2. flips /healthz to 503 {"status": "stalled", "reason": ...} through
//      the guard health override, clearing it again if the heartbeat
//      recovers;
//   3. optionally escalates by hard-cancelling every live guard::Budget
//      with Reason::kWatchdog, so a wedged-but-polling driver unwinds.
//
// One forensic dump per stall episode: a recovery re-arms the dump, a
// still-stalled heartbeat only keeps the override in place. The watchdog
// deliberately uses the *real* clock (obs::now_seconds), not the guard
// virtual clock — fault clock-skew plans must not fake a stall.
//
// Off by default; benches enable it with --watchdog / TYXE_WATCHDOG
// (obs/flags.h). Deliberately one-per-concern: run a single Watchdog per
// process.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "obs/live.h"

namespace tx::obs {

/// Liveness pulse of the inference drivers (SVI step, MCMC transition,
/// predict batch): sets the obs.heartbeat_seconds gauge to now and, while a
/// watchdog is interested, records the current span path as the one to
/// blame for a later stall. Callers gate it on obs::enabled().
void heartbeat();

struct WatchdogOptions {
  /// Heartbeat age that counts as a stall (TYXE_HEALTH_STALE_S / 30s).
  double stale_after_seconds = live::default_staleness_seconds();
  /// How often the monitor thread samples the heartbeat.
  double poll_interval_seconds = 0.5;
  /// On a stall, hard-cancel every live Budget (Reason::kWatchdog) so
  /// cooperative checks unwind the stuck work instead of just reporting.
  bool escalate_cancel = false;
};

class Watchdog {
 public:
  using Options = WatchdogOptions;

  explicit Watchdog(Options opts = {});
  ~Watchdog();  // stops if still running
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Launch the monitor thread (idempotent). Turns on guard watchdog
  /// interest so heartbeat touch points start recording blame spans.
  void start();

  /// Join the thread and clear any stall override this watchdog set.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Stall episodes detected since start() (not reset by recovery).
  std::int64_t stalls() const {
    return stalls_.load(std::memory_order_relaxed);
  }

 private:
  void run();
  void poll_once();

  Options opts_;
  std::atomic<bool> running_{false};
  std::atomic<std::int64_t> stalls_{0};
  bool in_stall_ = false;  // monitor thread only
  std::mutex mu_;          // guards cv_ wakeups
  std::condition_variable cv_;
  std::thread thread_;
};

}  // namespace tx::obs
