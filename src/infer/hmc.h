// Hamiltonian Monte Carlo over the latent sites of a probabilistic program,
// with dual-averaging step-size adaptation (Hoffman & Gelman, 2014). The
// kernel works on a flattened coordinate vector; Potential maps it back to
// named sites and scores the model via the same autograd used by SVI.
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "infer/elbo.h"
#include "obs/diag.h"

namespace tx::infer {

/// Negative log-joint of a model as a function of a flat latent vector.
class Potential {
 public:
  explicit Potential(Program model);

  std::int64_t dim() const { return dim_; }
  const std::vector<std::pair<std::string, Shape>>& layout() const {
    return layout_;
  }

  /// Prior draw, flattened (the chain's initial position).
  std::vector<double> initial_position(Generator* gen = nullptr) const;

  /// U(q) = -log p(q, observations).
  double value(const std::vector<double>& q) const;
  /// U(q) and dU/dq; the gradient is recorded even under a NoGradGuard.
  double value_and_grad(const std::vector<double>& q,
                        std::vector<double>& grad) const;

  /// Named site values for a position (for predictives / inspection).
  std::map<std::string, Tensor> unflatten(const std::vector<double>& q) const;

 private:
  Tensor log_joint(const std::map<std::string, Tensor>& latents) const;

  Program model_;
  std::vector<std::pair<std::string, Shape>> layout_;
  std::vector<dist::DistPtr> priors_;  // aligned with layout_, for init draws
  std::int64_t dim_ = 0;
};

/// Flat-coordinate spans of the potential's named sites, in layout order —
/// the per-site attribution map handed to tx::obs::diag (transition
/// statistics, divergence localization, per-coordinate R̂/ESS grouping).
std::vector<obs::diag::SiteSpan> diag_layout(const Potential& potential);

/// Base interface shared by HMC and NUTS.
class MCMCKernel {
 public:
  virtual ~MCMCKernel() = default;
  virtual void setup(Program model, Generator* gen);
  virtual std::vector<double> initial_position();
  /// Advance the chain one transition; `warmup` enables adaptation.
  virtual std::vector<double> step(const std::vector<double>& q,
                                   bool warmup) = 0;
  const Potential& potential() const { return *potential_; }
  double mean_accept_prob() const {
    return accept_count_ > 0 ? accept_stat_ / accept_count_ : 0.0;
  }
  /// Accept probability of the most recent transition.
  double last_accept_prob() const { return last_accept_prob_; }
  /// Transitions whose energy error exceeded the divergence threshold
  /// (or went non-finite) — the classic silent-failure signal for BNN HMC.
  std::int64_t divergence_count() const { return divergences_; }

  /// Stable tag used in checkpoint headers ("hmc", "nuts").
  virtual const char* kind() const = 0;
  /// Serialize / restore the kernel's dynamic state — adaptation position,
  /// mass estimate, acceptance statistics — as stable hexfloat text. The
  /// chain position itself lives with the driver. load_state parses fully
  /// before mutating, so corrupt input throws without touching live state.
  virtual void save_state(std::ostream& os) const;
  virtual void load_state(std::istream& is);

 protected:
  std::shared_ptr<Potential> potential_;
  Generator* gen_ = nullptr;
  double accept_stat_ = 0.0;
  std::int64_t accept_count_ = 0;
  double last_accept_prob_ = 0.0;
  std::int64_t divergences_ = 0;
};

/// Dual-averaging adaptation of the leapfrog step size.
class DualAveraging {
 public:
  explicit DualAveraging(double initial_step, double target_accept = 0.8);
  void update(double accept_prob);
  /// Step size to use while still adapting.
  double current() const { return step_; }
  /// Smoothed step size to freeze after warmup.
  double final_step() const { return final_; }
  void freeze() { step_ = final_; }

  /// Exact state serialization for checkpoint resume.
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  double mu_, target_;
  double step_, final_;
  double h_bar_ = 0.0, log_eps_bar_ = 0.0;
  std::int64_t t_ = 0;
};

class HMC : public MCMCKernel {
 public:
  /// num_steps leapfrog steps of size step_size. With adapt_step_size the
  /// step size adapts during warmup and the trajectory length
  /// step_size * num_steps is preserved: a transition at step size eps takes
  /// max(1, floor(length / eps)) leapfrogs, as in Pyro. Without adaptation
  /// every transition takes exactly num_steps. With adapt_mass_matrix the
  /// diagonal mass is estimated from the first part of warmup (Stan-style
  /// regularized variances), which reconditions poorly scaled posteriors.
  HMC(double step_size, int num_steps, bool adapt_step_size = true,
      double target_accept = 0.8, bool adapt_mass_matrix = false);

  std::vector<double> step(const std::vector<double>& q, bool warmup) override;

  /// Current diagonal inverse mass (empty until adapted; identity before).
  const std::vector<double>& inverse_mass() const { return inv_mass_; }

  const char* kind() const override { return "hmc"; }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  double step_size() const { return step_size_; }
  /// Force a new step size (tx::resil divergence-storm backoff). While
  /// adaptation is still live the dual-averaging state is re-seeded from the
  /// new value so warmup continues from there instead of snapping back.
  void set_step_size(double eps);

 protected:
  /// One leapfrog integration; grad holds dU/dq at q on entry and exit.
  void leapfrog(std::vector<double>& q, std::vector<double>& p,
                std::vector<double>& grad, double eps, int steps) const;
  double kinetic(const std::vector<double>& p) const;
  /// Draw momenta matching the current mass matrix.
  std::vector<double> sample_momentum(std::size_t dim, Generator& g) const;
  /// Warmup-phase bookkeeping for the mass estimate.
  void accumulate_mass_sample(const std::vector<double>& q);

  /// Leapfrogs for one transition at step size eps.
  int num_steps_at(double eps) const;

  double step_size_;
  int num_steps_;
  double trajectory_length_;
  bool adapt_;
  double target_accept_;
  DualAveraging averager_;
  bool frozen_ = false;

  bool adapt_mass_;
  std::vector<double> inv_mass_;        // empty = identity
  std::vector<double> welford_mean_, welford_m2_;
  std::int64_t welford_count_ = 0;
  std::int64_t warmup_seen_ = 0;
};

}  // namespace tx::infer
