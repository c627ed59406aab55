#include "resil/guard.h"

#include <chrono>
#include <mutex>
#include <vector>

#include "resil/fault.h"

namespace tx::guard {

namespace detail {
constinit thread_local Budget* t_current = nullptr;

Budget* install(Budget* b) {
  Budget* prev = t_current;
  t_current = b;
  return prev;
}
}  // namespace detail

namespace {

/// Virtual-clock offset in milliseconds (clock-skew plans / tests).
std::atomic<std::int64_t> g_skew_ms{0};

/// Live-budget registry for watchdog escalation. Leaked (like the fault
/// runtime) so hooks stay safe during static destruction.
struct BudgetRegistry {
  std::mutex mu;
  std::vector<Budget*> budgets;
};

BudgetRegistry& budget_registry() {
  static BudgetRegistry* reg = new BudgetRegistry();
  return *reg;
}

void register_budget(Budget* b) {
  auto& reg = budget_registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.budgets.push_back(b);
}

void unregister_budget(Budget* b) {
  auto& reg = budget_registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto it = reg.budgets.begin(); it != reg.budgets.end(); ++it) {
    if (*it == b) {
      reg.budgets.erase(it);
      return;
    }
  }
}

/// Watchdog blame state. The override string is read on the /healthz path
/// only, so a mutex is fine; the flags are relaxed atomics so the hot hooks
/// (heartbeat touches) stay one load while the watchdog is off.
std::atomic<bool> g_health_overridden{false};
std::atomic<bool> g_watchdog_interest{false};
std::mutex g_blame_mu;
std::string g_health_reason;
std::string g_liveness_span;

double steady_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

thread_local DegradedResult t_predict_status;

}  // namespace

const char* reason_name(Reason r) {
  switch (r) {
    case Reason::kNone:
      return "none";
    case Reason::kDeadline:
      return "deadline";
    case Reason::kStepCap:
      return "step-cap";
    case Reason::kSampleCap:
      return "sample-cap";
    case Reason::kCancelled:
      return "cancelled";
    case Reason::kWatchdog:
      return "watchdog";
  }
  return "unknown";
}

Cancelled::Cancelled(Reason reason, const char* where)
    : Error(std::string("guard: budget ") + reason_name(reason) + " at " +
            where),
      reason_(reason) {}

Budget::Budget(double wall_seconds) {
  start_ = now_seconds();
  deadline_ = (wall_seconds > 0.0 &&
               wall_seconds < std::numeric_limits<double>::infinity())
                  ? start_ + wall_seconds
                  : std::numeric_limits<double>::infinity();
  register_budget(this);
}

Budget::~Budget() { unregister_budget(this); }

Budget& Budget::set_step_cap(std::int64_t steps) {
  TX_CHECK(steps >= 1, "Budget: step cap must be >= 1, got ", steps);
  step_cap_ = steps;
  return *this;
}

Budget& Budget::set_sample_cap(std::int64_t samples) {
  TX_CHECK(samples >= 1, "Budget: sample cap must be >= 1, got ", samples);
  sample_cap_ = samples;
  return *this;
}

Reason Budget::exhausted() const {
  if (token_.requested()) return token_.reason();
  if (now_seconds() > deadline_) return Reason::kDeadline;
  if (steps_.load(std::memory_order_relaxed) >= step_cap_) {
    return Reason::kStepCap;
  }
  if (samples_.load(std::memory_order_relaxed) >= sample_cap_) {
    return Reason::kSampleCap;
  }
  return Reason::kNone;
}

double Budget::elapsed_seconds() const { return now_seconds() - start_; }

double Budget::remaining_seconds() const {
  if (deadline_ == std::numeric_limits<double>::infinity()) return deadline_;
  const double left = deadline_ - now_seconds();
  return left > 0.0 ? left : 0.0;
}

namespace detail {

void check_slow(const char* where, bool hard_only) {
  Budget* b = t_current;
  if (b == nullptr) return;
  if (hard_only) {
    // Kernel-level: respond to hard cancels only; no fault-clock advance
    // either, so a clock-skew plan targeting a driver site is never
    // consumed by unrelated par chunks.
    if (b->cancelled()) throw Cancelled(b->token().reason(), where);
    return;
  }
  if (const std::int64_t ms = fault::clock_skew(where)) advance_clock_ms(ms);
  const Reason r = b->exhausted();
  if (r != Reason::kNone) throw Cancelled(r, where);
}

bool begin_step_slow(const char* where) {
  Budget* b = t_current;
  if (b == nullptr) return false;
  if (const std::int64_t ms = fault::clock_skew(where)) advance_clock_ms(ms);
  const Reason r = b->exhausted();
  if (r != Reason::kNone) throw Cancelled(r, where);
  b->note_step();
  return true;
}

bool begin_sample_slow(const char* where) {
  Budget* b = t_current;
  if (b == nullptr) return false;
  if (const std::int64_t ms = fault::clock_skew(where)) advance_clock_ms(ms);
  if (b->exhausted() != Reason::kNone) return true;
  b->note_sample();
  return false;
}

}  // namespace detail

Reason poll(const char* where) {
  Budget* b = detail::t_current;
  if (b == nullptr) return Reason::kNone;
  if (const std::int64_t ms = fault::clock_skew(where)) advance_clock_ms(ms);
  return b->exhausted();
}

const DegradedResult& last_predict_status() { return t_predict_status; }

void set_last_predict_status(const DegradedResult& status) {
  t_predict_status = status;
}

double now_seconds() {
  return steady_seconds() +
         static_cast<double>(g_skew_ms.load(std::memory_order_relaxed)) *
             1e-3;
}

void advance_clock_ms(std::int64_t ms) {
  g_skew_ms.fetch_add(ms, std::memory_order_relaxed);
}

void reset_clock() { g_skew_ms.store(0, std::memory_order_relaxed); }

int cancel_all(Reason r) {
  auto& reg = budget_registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (Budget* b : reg.budgets) b->cancel(r);
  return static_cast<int>(reg.budgets.size());
}

void set_health_override(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(g_blame_mu);
    g_health_reason = reason;
  }
  g_health_overridden.store(!reason.empty(), std::memory_order_release);
}

void clear_health_override() { set_health_override(""); }

bool health_overridden() {
  return g_health_overridden.load(std::memory_order_acquire);
}

std::string health_override() {
  std::lock_guard<std::mutex> lock(g_blame_mu);
  return g_health_reason;
}

void set_watchdog_interest(bool on) {
  g_watchdog_interest.store(on, std::memory_order_relaxed);
}

bool watchdog_interested() {
  return g_watchdog_interest.load(std::memory_order_relaxed);
}

void note_liveness(const std::string& span_path) {
  std::lock_guard<std::mutex> lock(g_blame_mu);
  g_liveness_span = span_path;
}

std::string last_liveness_span() {
  std::lock_guard<std::mutex> lock(g_blame_mu);
  return g_liveness_span;
}

}  // namespace tx::guard
