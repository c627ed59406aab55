// tx::guard — deadlines, cooperative cancellation, and graceful degradation
// for the inference paths (the tx::resil::guard layer of docs/robustness.md).
//
// A Budget bounds one unit of work with a wall deadline plus optional step
// and MC-sample caps. Nothing is preemptive: the instrumented layers poll at
// their natural boundaries — tx::par at chunk claims, HMC/NUTS per leapfrog
// step, SVI per optimization step, SupervisedBNN::predict per posterior
// sample — and react in one of two ways:
//
//   * passive expiry (deadline reached, a cap consumed) is observed at
//     *driver* checkpoints: `SVI::fit` stops at the step boundary and
//     `predict` degrades to the prefix of completed samples (see
//     DegradedResult). Kernel-level hooks (par chunks) ignore passive
//     expiry so post-degradation work (aggregating the truncated stack,
//     computing metrics) still completes.
//   * a hard cancel (Budget::cancel(), the CancelToken, watchdog
//     escalation) throws guard::Cancelled from *every* hook, including par
//     chunk claims and mid-trajectory leapfrog steps, unwinding to the
//     caller as fast as cooperative checks allow.
//
// Budgets install with an RAII BudgetScope into a thread-local slot;
// tx::par propagates the installation into its workers the same way span
// bases are propagated, so a deadline set around `fit` is visible inside
// every parallel chunk of that fit. While no Budget is installed every hook
// is a single thread-local pointer test — the path is inert.
//
// Determinism: Budget time flows through guard::now_seconds(), a steady
// clock plus a virtual offset that tx::fault's `clock-skew` plans advance at
// exact counted hook calls (docs/robustness.md). A test that injects
// "advance the clock past the deadline at predict sample k" therefore
// cancels at exactly sample k on every run, every thread count — which is
// what makes the prefix-truncation contract of predict testable bitwise.
//
// This header lives in the tiny tx_fault layer (deps: tx_util only) so the
// low-level libraries (par, tensor, infer) can poll budgets without a
// dependency cycle. The watchdog that escalates into this layer lives in
// obs/watchdog.h.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>

#include "util/common.h"

namespace tx::guard {

/// Why a budget stopped being willing to do more work.
enum class Reason {
  kNone = 0,
  kDeadline,   // wall deadline passed (guard::now_seconds() based)
  kStepCap,    // step cap consumed
  kSampleCap,  // MC-sample cap consumed
  kCancelled,  // explicit Budget::cancel() / CancelToken::request()
  kWatchdog,   // watchdog escalation (obs/watchdog.h)
};

/// Stable spelling for reports, logs, and /healthz reasons.
const char* reason_name(Reason r);

/// Thrown by hooks on a hard cancel (and by driver-level checkpoints on any
/// expiry). Derives tx::Error so existing catch sites treat it as a library
/// error; drivers that can degrade catch it by this exact type.
class Cancelled : public Error {
 public:
  Cancelled(Reason reason, const char* where);
  Reason reason() const { return reason_; }

 private:
  Reason reason_;
};

/// Shared cancellation flag: the cooperative token a Budget carries. Sticky
/// (first reason wins) and safe to signal from any thread, including the
/// watchdog.
class CancelToken {
 public:
  void request(Reason r = Reason::kCancelled) {
    int expected = 0;
    reason_.compare_exchange_strong(expected, static_cast<int>(r),
                                    std::memory_order_acq_rel);
  }
  bool requested() const {
    return reason_.load(std::memory_order_relaxed) != 0;
  }
  Reason reason() const {
    return static_cast<Reason>(reason_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<int> reason_{0};
};

/// One unit of bounded work. Construct, optionally set caps, install with a
/// BudgetScope around the work. Non-copyable: hooks hold the address.
class Budget {
 public:
  static constexpr std::int64_t kUnlimited =
      std::numeric_limits<std::int64_t>::max();

  /// `wall_seconds` <= 0 or +inf means no deadline.
  explicit Budget(double wall_seconds =
                      std::numeric_limits<double>::infinity());
  /// Unregisters from the watchdog escalation registry (see cancel_all).
  ~Budget();

  Budget(const Budget&) = delete;
  Budget& operator=(const Budget&) = delete;

  Budget& set_step_cap(std::int64_t steps);
  Budget& set_sample_cap(std::int64_t samples);

  /// Hard cancel: every subsequent hook throws Cancelled.
  void cancel(Reason r = Reason::kCancelled) { token_.request(r); }
  CancelToken& token() { return token_; }

  /// Why the budget is unwilling to continue (kNone while still live).
  /// Checks, in order: the token, the deadline, then the caps.
  Reason exhausted() const;
  bool cancelled() const { return token_.requested(); }

  double deadline_seconds() const { return deadline_; }
  double start_seconds() const { return start_; }
  /// guard::now_seconds() minus start — includes injected clock skew, so a
  /// degraded run's reported elapsed time is deterministic under test plans.
  double elapsed_seconds() const;
  /// Seconds until the deadline (+inf when none, never negative).
  double remaining_seconds() const;

  std::int64_t steps() const {
    return steps_.load(std::memory_order_relaxed);
  }
  std::int64_t samples() const {
    return samples_.load(std::memory_order_relaxed);
  }
  void note_step() { steps_.fetch_add(1, std::memory_order_relaxed); }
  void note_sample() { samples_.fetch_add(1, std::memory_order_relaxed); }

 private:
  double start_;
  double deadline_;  // absolute on the guard clock; +inf = none
  std::int64_t step_cap_ = kUnlimited;
  std::int64_t sample_cap_ = kUnlimited;
  std::atomic<std::int64_t> steps_{0};
  std::atomic<std::int64_t> samples_{0};
  CancelToken token_;
};

/// What a budget-guarded predict() actually delivered. Thread-local; read it
/// with last_predict_status() right after the predict call.
struct DegradedResult {
  bool degraded = false;      // fewer samples than requested
  int completed = 0;          // k: posterior samples aggregated
  int requested = 0;          // n: samples asked for
  Reason reason = Reason::kNone;
  double elapsed_seconds = 0.0;  // budget elapsed at return (guard clock)
};

namespace detail {
extern constinit thread_local Budget* t_current;
/// Swap the calling thread's installed budget; returns the previous one.
/// Exposed for tx::par's context propagation into workers.
Budget* install(Budget* b);
void check_slow(const char* where, bool hard_only);
bool begin_sample_slow(const char* where);
bool begin_step_slow(const char* where);
}  // namespace detail

/// True while the calling thread has a Budget installed. One thread-local
/// pointer test — the whole guard layer costs this and nothing else when no
/// budget is supplied.
inline bool active() { return detail::t_current != nullptr; }

/// The calling thread's installed budget (nullptr when none).
inline Budget* current() { return detail::t_current; }

/// RAII installation of a budget for the calling thread (and, transitively,
/// for pool workers running chunks submitted while it is installed).
class BudgetScope {
 public:
  explicit BudgetScope(Budget& b) : prev_(detail::install(&b)) {}
  ~BudgetScope() { detail::install(prev_); }
  BudgetScope(const BudgetScope&) = delete;
  BudgetScope& operator=(const BudgetScope&) = delete;

 private:
  Budget* prev_;
};

// ---- hooks (called by the instrumented layers) -----------------------------

/// Kernel-level hook (par chunk claims): throws Cancelled on a hard cancel
/// only — passive deadline/cap expiry is a driver-level concern, so work
/// that runs *after* a graceful degradation still completes.
inline void check(const char* where) {
  if (active()) detail::check_slow(where, /*hard_only=*/true);
}

/// Driver-level hook (per leapfrog step, and for raw SVI::step users):
/// advances the fault clock, then throws Cancelled on any exhaustion —
/// deadline, cap, or cancel.
inline void check_expiry(const char* where) {
  if (active()) detail::check_slow(where, /*hard_only=*/false);
}

/// Per-step hook for SVI: advances the fault clock, throws Cancelled if the
/// budget is already exhausted, otherwise counts one step.
inline void begin_step(const char* where) {
  if (active()) detail::begin_step_slow(where);
}

/// Per-MC-sample hook for predict: advances the fault clock; returns true
/// (without counting) when the budget is exhausted so the caller can degrade,
/// otherwise counts one sample and returns false. Never throws.
inline bool begin_sample(const char* where) {
  return active() && detail::begin_sample_slow(where);
}

/// Non-throwing exhaustion poll for driver loops (SVI::fit).
Reason poll(const char* where);

// ---- predict degradation status --------------------------------------------

/// Status of the calling thread's most recent budget-guarded predict().
/// Reset (degraded=false) at the start of every guarded predict; untouched
/// by unguarded predicts, so the inert path stays inert.
const DegradedResult& last_predict_status();
void set_last_predict_status(const DegradedResult& status);

// ---- the guard clock -------------------------------------------------------

/// Steady seconds plus the accumulated virtual offset. All Budget deadline
/// math uses this clock.
double now_seconds();

/// Advance the virtual clock (fault clock-skew plans and tests).
void advance_clock_ms(std::int64_t ms);

/// Drop the virtual offset (tests; not thread-safe vs live budgets).
void reset_clock();

// ---- watchdog support (set by obs/watchdog.h, read by obs/live.h) ----------

/// Budget registry: every constructed Budget registers itself so the
/// watchdog can escalate a stall into cancellation without holding a
/// pointer. Returns the number of budgets cancelled.
int cancel_all(Reason r);

/// Health override: when non-empty, /healthz reports 503 "stalled" with this
/// reason. Set/cleared by the watchdog; empty() is one relaxed atomic load.
void set_health_override(const std::string& reason);
void clear_health_override();
bool health_overridden();
std::string health_override();

/// While true (the watchdog is running), heartbeat touch points record their
/// span path via note_liveness so a stall can be blamed on the last live
/// span. One relaxed load while false.
void set_watchdog_interest(bool on);
bool watchdog_interested();
void note_liveness(const std::string& span_path);
std::string last_liveness_span();

}  // namespace tx::guard
