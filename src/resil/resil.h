// tx::resil — fault-tolerant SVI. Builds on the tx.ckpt.v1 bundles in
// resil/io.h and the section serializers in resil/checkpoint.h: SVI runs
// auto-checkpoint, roll back and retry with a decayed learning rate when a
// step goes non-finite, and resume bitwise-exactly from disk. (Checkpointed
// MCMC is infer::MCMC with an MCMCPolicy.) Recovery activity is surfaced as
// resil.* metrics and, on failure, cross-linked to the tx::obs::diag
// forensic bundle.
#pragma once

#include <cstdint>
#include <string>

#include "infer/svi.h"
#include "resil/checkpoint.h"
#include "resil/guard.h"

namespace tx::resil {

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
  infer::StepLR* scheduler = nullptr;
  /// Optional overall budget (non-owning): fit_svi installs it for the whole
  /// run, so retries, backoff sleeps, and the steps themselves all respect
  /// one deadline — backoff is clamped to the remaining budget and an
  /// exhausted budget stops the fit at the next step boundary (FitReport
  /// .cancelled). When null, an ambient guard::BudgetScope (if any) governs.
  guard::Budget* budget = nullptr;
};

/// What SVI::fit actually did.
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

/// Implementation behind infer::SVI::fit (lives here so tx_infer does not
/// depend on tx_resil).
FitReport fit_svi(infer::SVI& svi, std::int64_t num_steps,
                  const RetryPolicy& policy);

}  // namespace tx::resil
