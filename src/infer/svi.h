// Stochastic variational inference driver (pyro.infer.SVI). An optional
// RetryPolicy turns fit() into the fault-tolerant driver: periodic crash-safe
// tx.ckpt.v1 checkpoints, rollback + lr decay + retry on a non-finite step,
// and exact resume from disk. Recovery activity is surfaced as resil.*
// metrics and, on failure, cross-linked to the tx::obs::diag forensic bundle.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "infer/elbo.h"
#include "infer/optim.h"

namespace tx::guard {
class Budget;
}
namespace tx::resil {
class Bundle;
}

namespace tx::infer {

/// Controls SVI::fit checkpointing and retry behaviour.
struct RetryPolicy {
  /// Checkpoint file ("" = keep the rollback anchor in memory only).
  std::string checkpoint_path;
  /// Steps between checkpoints (also the maximum work lost to a rollback).
  std::int64_t checkpoint_every = 100;
  /// Consecutive rollbacks tolerated per checkpoint segment before giving
  /// up; a successful checkpoint resets the budget.
  int max_retries = 3;
  /// lr multiplier applied per consecutive rollback (relative to the lr the
  /// last good checkpoint ran at).
  double lr_decay = 0.5;
  /// Capped exponential backoff between retries (0 = no sleep, the default:
  /// deterministic tests must not depend on wall clock).
  double backoff_seconds = 0.0;
  double max_backoff_seconds = 1.0;
  /// Resume from checkpoint_path when it already exists.
  bool resume = true;
  /// Optional LR schedule: stepped after every SVI step and captured in the
  /// checkpoint so a resumed run continues the decay exactly.
  StepLR* scheduler = nullptr;
  /// Optional overall budget (non-owning): fit installs it for the whole
  /// run, so retries, backoff sleeps, and the steps themselves all respect
  /// one deadline — backoff is clamped to the remaining budget and an
  /// exhausted budget stops the fit at the next step boundary (FitReport
  /// .cancelled). When null, an ambient guard::BudgetScope (if any) governs.
  guard::Budget* budget = nullptr;
};

/// What a fit actually did.
struct FitReport {
  std::int64_t steps_run = 0;        // steps executed, including retried ones
  std::int64_t steps_completed = 0;  // svi.steps_taken() at exit
  double final_loss = 0.0;           // last good loss (NaN if no step ran)
  bool resumed = false;              // started from an on-disk checkpoint
  bool exhausted = false;            // retry budget ran out; state = last good
  std::int64_t rollbacks = 0;
  std::int64_t checkpoints = 0;          // rollback anchors committed
  std::int64_t checkpoint_failures = 0;  // failed disk writes (state kept)
  std::string failure_reason;  // diag forensic reason when exhausted, or the
                               // guard reason when cancelled ("" otherwise)
  /// The budget expired or was cancelled: the run stopped early at a step
  /// boundary (or rolled back to the last good anchor if cancellation
  /// landed mid-step), with failure_reason naming the guard reason.
  bool cancelled = false;
};

// ---- tx.ckpt.v1 section serializers for SVI state --------------------------
// The "store" section is ppl::param_store_bytes. apply_optimizer_bytes stages
// the parsed state completely (throwing tx::Error on corruption) before the
// first mutation of the optimizer.

std::string optimizer_bytes(const Optimizer& opt);
void apply_optimizer_bytes(const std::string& bytes, Optimizer& opt);

/// Per-step instrumentation record handed to the step callback and mirrored
/// into the obs registry ("svi.steps", "svi.loss", "svi.grad_norm",
/// "svi.step_seconds").
struct SVIStepInfo {
  std::int64_t step = 0;    // 0-based index of the completed step
  double loss = 0.0;        // -ELBO estimate
  double grad_norm = 0.0;   // global L2 norm over all store parameters
  double seconds = 0.0;     // wall time of this step
};

using StepCallback = std::function<void(const SVIStepInfo&)>;

class SVI {
 public:
  /// Parameters are gathered from `store` after each loss evaluation, so
  /// lazily-initialized guides work without pre-registration. With `gen`
  /// non-null every sample drawn during step()/evaluate_loss() comes from
  /// that generator (matching MCMC::run), so runs are reproducible.
  SVI(Program model, Program guide, std::shared_ptr<Optimizer> optimizer,
      std::shared_ptr<ELBO> loss, ppl::ParamStore* store = nullptr,
      Generator* gen = nullptr);

  /// One optimization step; returns the loss value (-ELBO estimate).
  double step();

  /// Loss without an update (validation). Uses the same generator as step(),
  /// so seeded evaluations replay exactly.
  double evaluate_loss();

  /// Fault-tolerant driver: runs until steps_taken() reaches `num_steps`,
  /// with periodic crash-safe checkpoints, rollback + LR decay + retry on
  /// non-finite loss/grad, and exact resume from an existing checkpoint
  /// file. See docs/robustness.md.
  FitReport fit(std::int64_t num_steps, const RetryPolicy& policy);

  /// Invoked after every step with loss / grad-norm / timing.
  void set_step_callback(StepCallback cb) { callback_ = std::move(cb); }
  void set_generator(Generator* gen) { gen_ = gen; }

  std::int64_t steps_taken() const { return steps_; }

 private:
  struct StepResult {
    double loss = 0.0;
    double grad_norm = 0.0;  // 0 unless instrumented, diagnosed or forced
  };
  /// The body of step(); `force_grad_norm` computes the gradient norm even
  /// with obs, diag and the step callback all off (fit gates on it).
  StepResult run_step(bool force_grad_norm);
  resil::Bundle make_bundle(const StepLR* scheduler) const;
  void apply_bundle(const resil::Bundle& b, StepLR* scheduler);

  Program model_, guide_;
  std::shared_ptr<Optimizer> optimizer_;
  std::shared_ptr<ELBO> loss_;
  ppl::ParamStore* store_;
  Generator* gen_;
  StepCallback callback_;
  std::int64_t steps_ = 0;
};

}  // namespace tx::infer
