#include "infer/svi.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>

#include "obs/obs.h"
#include "resil/fault.h"
#include "resil/guard.h"
#include "resil/io.h"
#include "tensor/alloc.h"
#include "util/textio.h"

namespace tx::infer {

namespace {

void bump(const char* name) {
  if (obs::enabled()) obs::registry().counter(name).add(1);
}

void gauge(const char* name, double value) {
  if (obs::enabled()) obs::registry().gauge(name).set(value);
}

}  // namespace

SVI::SVI(Program model, Program guide, std::shared_ptr<Optimizer> optimizer,
         std::shared_ptr<ELBO> loss, ppl::ParamStore* store, Generator* gen)
    : model_(std::move(model)),
      guide_(std::move(guide)),
      optimizer_(std::move(optimizer)),
      loss_(std::move(loss)),
      store_(store ? store : &ppl::param_store()),
      gen_(gen) {
  TX_CHECK(optimizer_ != nullptr && loss_ != nullptr,
           "SVI: optimizer and loss must be non-null");
}

double SVI::step() { return run_step(/*force_grad_norm=*/false).loss; }

SVI::StepResult SVI::run_step(bool force_grad_norm) {
  // Budget checkpoint: an exhausted budget (deadline, step cap, cancel)
  // throws guard::Cancelled before any state is touched, so a cancelled
  // step is always a clean no-op. The stall site lets fault plans wedge the
  // driver mid-run to exercise the watchdog.
  fault::check_stall("svi.step");
  guard::begin_step("svi.step");

  const bool instrument = force_grad_norm || obs::enabled() || callback_;
  const bool diag_on = obs::diag::enabled();
  const double t0 = instrument ? obs::now_seconds() : 0.0;

  std::optional<ppl::GeneratorScope> seed;
  if (gen_ != nullptr) seed.emplace(gen_);

  // Open the diag step before the loss evaluation so the
  // DiagnosticsMessenger (if attached) records the sites this step touches.
  obs::diag::svi_step_begin(steps_);

  // Recycle autograd temporaries for the whole step (forward, backward,
  // optimizer, instrumentation) instead of round-tripping them to the heap.
  alloc::StepScope arena_scope;

  obs::ScopedTimer step_span(
      "svi.step", obs::tracing()
                      ? obs::Event().set("step", steps_).to_json()
                      : std::string());
  // Zero stale gradients on everything currently registered.
  for (auto& [name, p] : store_->items()) p.zero_grad();
  Tensor loss = loss_->differentiable_loss(model_, guide_);
  {
    obs::ScopedTimer backward_span("svi.backward");
    loss.backward();
  }
  if (fault::armed()) {
    // Deterministic fault injection: overwrite matching gradients with NaN
    // after backward, before the optimizer consumes them.
    for (auto& [name, p] : store_->items()) {
      if (p.has_grad() && fault::poison_grad(name, steps_)) {
        auto& g = p.impl()->grad;
        std::fill(g.begin(), g.end(),
                  std::numeric_limits<float>::quiet_NaN());
      }
    }
  }
  {
    obs::ScopedTimer opt_span("svi.optimizer");
    // Lazily created params now exist; register (by name, so moment state
    // survives handle replacement) and update.
    for (auto& [name, p] : store_->items()) optimizer_->add_param(name, p);
    optimizer_->step();
  }
  const double loss_value = static_cast<double>(loss.item());
  const std::int64_t step_index = steps_++;

  double total_grad_sq = 0.0;
  if (instrument || diag_on) {
    NoGradGuard ng;
    for (const auto& [name, p] : store_->items()) {
      const Tensor g = p.grad();
      if (!g.defined()) continue;
      const double gsq = static_cast<double>(square_sum(g).item());
      total_grad_sq += gsq;
      // The extra sum(g) reduction (and its sync) is diag-only; the
      // instrument-only path stays at the single sum(square(g)).
      if (diag_on) {
        const double gsum = static_cast<double>(sum(g).item());
        // NaN propagates through both sums, so two finiteness checks cover
        // the whole gradient block.
        const bool finite = std::isfinite(gsum) && std::isfinite(gsq);
        const double n = static_cast<double>(g.numel());
        obs::diag::record_param_grad(name, n > 0 ? gsum / n : 0.0,
                                     std::sqrt(gsq), finite);
      }
    }
  }
  const double grad_norm = std::sqrt(total_grad_sq);
  obs::diag::svi_step_end(loss_value, grad_norm);
  obs::prof::on_step();

  if (instrument) {
    SVIStepInfo info;
    info.step = step_index;
    info.loss = loss_value;
    info.grad_norm = grad_norm;
    info.seconds = obs::now_seconds() - t0;
    if (obs::enabled()) {
      auto& reg = obs::registry();
      reg.counter("svi.steps").add(1);
      reg.gauge("svi.loss").set(info.loss);
      reg.gauge("svi.grad_norm").set(info.grad_norm);
      // Log-bucketed so per-worker step timings merge exactly (obs/hist.h);
      // the heartbeat feeds the live server's /healthz staleness check.
      reg.log_histogram("svi.step_seconds").record(info.seconds);
      obs::heartbeat();
    }
    if (callback_) callback_(info);
  }
  return {loss_value, grad_norm};
}

double SVI::evaluate_loss() {
  std::optional<ppl::GeneratorScope> seed;
  if (gen_ != nullptr) seed.emplace(gen_);
  NoGradGuard ng;
  alloc::StepScope arena_scope;
  return static_cast<double>(
      loss_->differentiable_loss(model_, guide_).item());
}

resil::Bundle SVI::make_bundle(const StepLR* scheduler) const {
  resil::Bundle b;
  std::ostringstream meta;
  meta << "svi steps " << steps_ << '\n';
  if (scheduler != nullptr) meta << "sched " << scheduler->count() << '\n';
  b.set("svi.meta", meta.str());
  b.set("store", ppl::param_store_bytes(*store_));
  b.set("optim", optimizer_bytes(*optimizer_));
  if (gen_ != nullptr) b.set("gen", resil::generator_bytes(*gen_));
  return b;
}

void SVI::apply_bundle(const resil::Bundle& b, StepLR* scheduler) {
  // Parse the meta section before mutating anything; the section appliers
  // each stage-then-swap internally.
  std::istringstream meta(b.get("svi.meta"));
  textio::expect_tag(meta, "svi");
  textio::expect_tag(meta, "steps");
  const std::int64_t steps = textio::read_int(meta, "svi steps");
  std::int64_t sched_count = -1;
  if (scheduler != nullptr) {
    textio::expect_tag(meta, "sched");
    sched_count = textio::read_int(meta, "sched count");
  }
  // prune_extra: the store must match the bundle exactly — a rolled-back
  // step may have lazily created (and NaN-poisoned) params the anchor has
  // never seen, and leaving them in place would defeat the rollback.
  ppl::apply_param_store_bytes(b.get("store"), *store_, /*prune_extra=*/true);
  apply_optimizer_bytes(b.get("optim"), *optimizer_);
  if (gen_ != nullptr && b.has("gen")) {
    resil::apply_generator_bytes(b.get("gen"), *gen_);
  }
  steps_ = steps;
  if (scheduler != nullptr) scheduler->set_count(sched_count);
}

FitReport SVI::fit(std::int64_t num_steps, const RetryPolicy& policy) {
  TX_CHECK(num_steps >= 0, "fit: num_steps must be >= 0");
  TX_CHECK(policy.checkpoint_every >= 1, "fit: checkpoint_every must be >= 1");
  TX_CHECK(policy.lr_decay > 0.0 && policy.lr_decay <= 1.0,
           "fit: lr_decay must be in (0, 1]");

  FitReport report;
  report.final_loss = std::numeric_limits<double>::quiet_NaN();
  const bool has_file = !policy.checkpoint_path.empty();

  if (has_file && policy.resume && resil::file_exists(policy.checkpoint_path)) {
    // A real but corrupt checkpoint throws here — silently restarting from
    // scratch would hide data loss. Crash-mid-write never corrupts the file
    // (the atomic writer leaves the previous complete version in place).
    apply_bundle(resil::Bundle::read_file(policy.checkpoint_path),
                 policy.scheduler);
    report.resumed = true;
    bump("resil.svi.resumes");
  }

  // The current state is the first rollback anchor, so even a failure on the
  // very first step has somewhere good to return to.
  resil::Bundle last_good = make_bundle(policy.scheduler);
  std::int64_t last_good_step = steps_;
  double anchor_lr = optimizer_->lr();

  // One budget governs the whole fit — steps, retries, and backoff sleeps.
  // An explicit policy.budget is installed here; otherwise any ambient
  // guard::BudgetScope the caller opened already covers the loop.
  std::optional<guard::BudgetScope> budget_scope;
  if (policy.budget != nullptr) budget_scope.emplace(*policy.budget);

  int consecutive_rollbacks = 0;
  while (steps_ < num_steps) {
    if (const guard::Reason stop = guard::poll("svi.fit");
        stop != guard::Reason::kNone) {
      // Graceful stop at a step boundary: state is the last completed step.
      report.cancelled = true;
      report.failure_reason = guard::reason_name(stop);
      bump("resil.svi.budget_stops");
      break;
    }
    // Loss AND grad norm gate every step. The loss at step t is computed
    // before the optimizer applies the gradients, so a finite loss with a
    // poisoned gradient would otherwise look "good" while the params are
    // already NaN.
    StepResult stat;
    try {
      stat = run_step(/*force_grad_norm=*/true);
    } catch (const guard::Cancelled& c) {
      // Cancellation landed mid-step (a par chunk or the step's own budget
      // checkpoint): a half-applied step must not leak, so restore the last
      // good anchor before reporting.
      apply_bundle(last_good, policy.scheduler);
      optimizer_->set_lr(anchor_lr);
      report.cancelled = true;
      report.failure_reason = guard::reason_name(c.reason());
      bump("resil.svi.budget_stops");
      break;
    }
    ++report.steps_run;
    if (policy.scheduler != nullptr) policy.scheduler->step();

    const bool good = std::isfinite(stat.loss) && std::isfinite(stat.grad_norm);
    if (!good) {
      ++report.rollbacks;
      ++consecutive_rollbacks;
      bump("resil.svi.rollbacks");
      if (consecutive_rollbacks > policy.max_retries) {
        // Retry budget for this segment exhausted: leave the process in the
        // last good state and report, with the diag forensics (which fired
        // on the same non-finite value) linked for the post-mortem.
        apply_bundle(last_good, policy.scheduler);
        optimizer_->set_lr(anchor_lr);
        report.exhausted = true;
        report.failure_reason = obs::diag::last_forensic_reason();
        if (report.failure_reason.empty()) {
          report.failure_reason = std::isfinite(stat.loss)
                                      ? "non-finite gradient"
                                      : "non-finite loss";
        }
        bump("resil.svi.retries_exhausted");
        break;
      }
      apply_bundle(last_good, policy.scheduler);
      const double lr =
          anchor_lr * std::pow(policy.lr_decay, consecutive_rollbacks);
      optimizer_->set_lr(lr);
      gauge("resil.svi.lr", lr);
      gauge("resil.svi.consecutive_rollbacks",
            static_cast<double>(consecutive_rollbacks));
      if (policy.backoff_seconds > 0.0) {
        double backoff = std::min(
            policy.backoff_seconds *
                std::pow(2.0, static_cast<double>(consecutive_rollbacks - 1)),
            policy.max_backoff_seconds);
        if (guard::active()) {
          // Retries respect the overall deadline: never sleep past it. The
          // loop-top poll then stops the fit instead of retrying.
          backoff = std::min(backoff, guard::current()->remaining_seconds());
        }
        if (backoff > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        }
      }
      continue;
    }

    report.final_loss = stat.loss;
    const bool due = steps_ - last_good_step >= policy.checkpoint_every ||
                     steps_ >= num_steps;
    if (due) {
      last_good = make_bundle(policy.scheduler);
      last_good_step = steps_;
      anchor_lr = optimizer_->lr();
      consecutive_rollbacks = 0;
      ++report.checkpoints;
      bump("resil.ckpt.snapshots");
      if (has_file) {
        if (last_good.write_file(policy.checkpoint_path)) {
          bump("resil.ckpt.writes");
        } else {
          // Keep going on the in-memory anchor: a failed write must never
          // take the run down, and the on-disk file is still the previous
          // complete checkpoint.
          ++report.checkpoint_failures;
          bump("resil.ckpt.write_failures");
        }
      }
      gauge("resil.svi.checkpoint_step", static_cast<double>(last_good_step));
    }
  }

  report.steps_completed = steps_;
  gauge("resil.svi.rollbacks_total", static_cast<double>(report.rollbacks));
  return report;
}

std::string optimizer_bytes(const Optimizer& opt) {
  std::ostringstream os;
  opt.save_state(os);
  return os.str();
}

void apply_optimizer_bytes(const std::string& bytes, Optimizer& opt) {
  std::istringstream is(bytes);
  opt.load_state(is);
}

}  // namespace tx::infer
