// MCMC driver (pyro.infer.mcmc.MCMC): warmup with adaptation, then sampling;
// stores flattened draws and exposes them per site. An optional MCMCPolicy
// adds checkpoint/resume and divergence-storm backoff to the same run loop.
#pragma once

#include "infer/hmc.h"

namespace tx::resil {
class Bundle;
}

namespace tx::infer {

/// Per-transition progress record handed to the MCMC callback and mirrored
/// into the obs registry ("mcmc.warmup_steps", "mcmc.samples",
/// "mcmc.divergences", "mcmc.accept_prob", "mcmc.step_seconds"). The
/// "mcmc.accept_prob" gauge always holds MCMC::mean_accept_prob(): per
/// transition for one chain, at round barriers for several.
struct MCMCProgress {
  bool warmup = false;
  std::int64_t step = 0;         // 0-based within the phase
  std::int64_t total = 0;        // steps in this phase
  std::int64_t chain = 0;        // which chain made this transition
  double accept_prob = 0.0;      // this transition's acceptance statistic
  double mean_accept_prob = 0.0; // running mean over this chain's run
  std::int64_t divergences = 0;  // cumulative divergences in this chain
  double seconds = 0.0;          // wall time of this transition
};

using ProgressCallback = std::function<void(const MCMCProgress&)>;

/// Builds one independent kernel per chain for multi-chain runs.
using KernelFactory = std::function<std::shared_ptr<MCMCKernel>()>;

/// Checkpointing and divergence-storm handling for MCMC::run. The default
/// (no checkpoint_path, storm handling off) runs the chains in one round with
/// no snapshots and no file I/O.
struct MCMCPolicy {
  std::string checkpoint_path;  // "" = no persistence
  /// Transitions per round when checkpointing or storm handling is on;
  /// rounds are barriers, checkpoints happen at round ends, and a storm
  /// rollback loses at most one round.
  std::int64_t checkpoint_every = 50;
  /// Divergences within one round that count as a storm for a chain
  /// (-1 disables storm handling).
  std::int64_t storm_threshold = -1;
  /// Storm restarts tolerated per chain before run() throws.
  int max_restarts = 3;
  /// Step-size multiplier applied on each storm restart (HMC-family kernels).
  double step_size_factor = 0.5;
  /// Resume from checkpoint_path when it already exists.
  bool resume = true;
};

class MCMC {
 public:
  /// Single chain on the given kernel, stepping on the caller's generator.
  MCMC(std::shared_ptr<MCMCKernel> kernel, int num_samples, int warmup_steps);

  /// Factory constructor. A single chain builds its kernel once and steps on
  /// the caller's generator, exactly like the kernel constructor. With
  /// several chains each gets a fresh kernel from `factory` and its own
  /// Generator seeded sequentially from the caller's generator, so per-chain
  /// draws depend only on the seed — chains run concurrently via tx::par but
  /// results are identical at every TYXE_NUM_THREADS. Kept draws are
  /// concatenated in chain order. The model must be safe to evaluate
  /// concurrently (pure closures; no shared mutable module state).
  ///
  /// With a `policy` that checkpoints, chains advance in lockstep rounds and
  /// every round end writes a tx.ckpt.v1 bundle holding each chain's
  /// position, kernel adaptation and generator, so a resumed run is
  /// bitwise-identical to an uninterrupted one at any TYXE_NUM_THREADS. With
  /// storm handling on, a chain whose round saw more than storm_threshold
  /// divergences is restored to its round start with a smaller step size.
  MCMC(KernelFactory factory, int num_samples, int warmup_steps,
       int num_chains = 1, MCMCPolicy policy = {});

  /// Run the chain(s) on the given model. `progress` (if set) fires after
  /// every warmup and sampling transition, serialized across chains.
  void run(Program model, Generator* gen = nullptr,
           const ProgressCallback& progress = nullptr);

  int num_chains() const { return num_chains_; }
  /// The last run() started from an on-disk checkpoint.
  bool resumed() const { return resumed_; }
  /// Divergence-storm restarts across chains in the last run().
  std::int64_t restarts() const;
  /// Total kept draws across all chains.
  std::size_t num_samples() const { return draws_.size(); }
  /// Values of one site across all kept draws (chains concatenated).
  std::vector<Tensor> get_samples(const std::string& site) const;
  /// All site values for one kept draw.
  std::map<std::string, Tensor> sample_at(std::size_t i) const;
  /// Mean over chains of each chain's mean acceptance statistic.
  double mean_accept_prob() const;
  /// Total divergent transitions across chains.
  std::int64_t divergence_count() const;
  /// Scalar chain of one coordinate over all kept draws (for diagnostics).
  std::vector<double> coordinate_chain(std::size_t coord) const;
  /// Scalar chain of one coordinate restricted to one chain.
  std::vector<double> coordinate_chain(std::size_t coord, int chain) const;

 private:
  struct Chain {
    std::shared_ptr<MCMCKernel> kernel;
    Generator* gen = nullptr;  // what the kernel steps on (null = global)
    std::vector<double> q;
    std::int64_t done = 0;  // transitions completed (warmup + sampling)
    std::int64_t restarts = 0;
    Generator& rng() const { return gen ? *gen : global_generator(); }
  };

  resil::Bundle make_bundle() const;
  void apply_bundle(const resil::Bundle& b);

  std::shared_ptr<MCMCKernel> kernel_;  // single-chain kernel / first chain
  KernelFactory factory_;
  int num_samples_, warmup_;
  int num_chains_ = 1;
  MCMCPolicy policy_;
  std::vector<Generator> chain_gens_;  // outlive chains_ (kernels keep ptrs)
  std::vector<Chain> chains_;          // after run
  std::vector<std::vector<double>> draws_;  // chain-major
  bool resumed_ = false;
};

}  // namespace tx::infer
