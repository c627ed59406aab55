#include "infer/nuts.h"

#include <cmath>

#include "obs/obs.h"
#include "resil/guard.h"

namespace tx::infer {

namespace {
constexpr double kDeltaMax = 1000.0;  // divergence threshold
}  // namespace

NUTS::NUTS(double step_size, int max_tree_depth, bool adapt_step_size,
           double target_accept)
    : HMC(step_size, /*num_steps=*/1, adapt_step_size, target_accept),
      max_depth_(max_tree_depth) {
  TX_CHECK(max_tree_depth >= 1 && max_tree_depth <= 12,
           "NUTS: max_tree_depth out of range");
}

bool NUTS::no_u_turn(const Tree& t) {
  double dot_minus = 0.0, dot_plus = 0.0;
  for (std::size_t i = 0; i < t.q_plus.size(); ++i) {
    const double dq = t.q_plus[i] - t.q_minus[i];
    dot_minus += dq * t.p_minus[i];
    dot_plus += dq * t.p_plus[i];
  }
  return dot_minus >= 0.0 && dot_plus >= 0.0;
}

NUTS::Tree NUTS::build_tree(const std::vector<double>& q,
                            const std::vector<double>& p,
                            const std::vector<double>& grad, double log_u,
                            int direction, int depth, double eps, double h0) {
  Generator& g = gen_ ? *gen_ : global_generator();
  if (depth == 0) {
    // One leapfrog step in the chosen direction; same per-leapfrog budget
    // checkpoint as HMC::leapfrog.
    guard::check_expiry("nuts.leapfrog");
    std::vector<double> q1 = q, p1 = p, grad1 = grad;
    const double step = direction * eps;
    for (std::size_t i = 0; i < p1.size(); ++i) p1[i] -= 0.5 * step * grad1[i];
    for (std::size_t i = 0; i < q1.size(); ++i) q1[i] += step * p1[i];
    const double u1 = potential_->value_and_grad(q1, grad1);
    for (std::size_t i = 0; i < p1.size(); ++i) p1[i] -= 0.5 * step * grad1[i];
    const double h1 = u1 + kinetic(p1);

    Tree t;
    t.q_minus = t.q_plus = t.q_proposal = q1;
    t.p_minus = t.p_plus = p1;
    t.grad_minus = t.grad_plus = grad1;
    t.n = (std::isfinite(h1) && log_u <= -h1) ? 1 : 0;
    t.valid = std::isfinite(h1) && (log_u < kDeltaMax - h1);
    if (!t.valid) {
      ++divergences_;  // leaf invalidity is exactly a divergence
      if (obs::diag::enabled()) {
        obs::diag::mcmc_record_divergence(diag_layout(*potential_), q1, p1,
                                          grad1, inv_mass_, h0, h1);
      }
    }
    t.alpha = std::isfinite(h1) ? std::min(1.0, std::exp(h0 - h1)) : 0.0;
    t.n_alpha = 1;
    return t;
  }

  Tree left = build_tree(q, p, grad, log_u, direction, depth - 1, eps, h0);
  if (!left.valid) return left;

  // Extend in the same direction from the appropriate edge.
  Tree right = direction == 1
                   ? build_tree(left.q_plus, left.p_plus, left.grad_plus,
                                log_u, direction, depth - 1, eps, h0)
                   : build_tree(left.q_minus, left.p_minus, left.grad_minus,
                                log_u, direction, depth - 1, eps, h0);

  Tree merged;
  if (direction == 1) {
    merged.q_minus = left.q_minus;
    merged.p_minus = left.p_minus;
    merged.grad_minus = left.grad_minus;
    merged.q_plus = right.q_plus;
    merged.p_plus = right.p_plus;
    merged.grad_plus = right.grad_plus;
  } else {
    merged.q_minus = right.q_minus;
    merged.p_minus = right.p_minus;
    merged.grad_minus = right.grad_minus;
    merged.q_plus = left.q_plus;
    merged.p_plus = left.p_plus;
    merged.grad_plus = left.grad_plus;
  }
  merged.n = left.n + right.n;
  const double p_right = merged.n > 0
                             ? static_cast<double>(right.n) /
                                   static_cast<double>(merged.n)
                             : 0.0;
  merged.q_proposal =
      (g.uniform() < p_right) ? right.q_proposal : left.q_proposal;
  merged.valid = left.valid && right.valid && no_u_turn(merged);
  merged.alpha = left.alpha + right.alpha;
  merged.n_alpha = left.n_alpha + right.n_alpha;
  return merged;
}

std::vector<double> NUTS::step(const std::vector<double>& q0, bool warmup) {
  Generator& g = gen_ ? *gen_ : global_generator();
  if (!warmup && adapt_ && !frozen_) {
    averager_.freeze();
    step_size_ = averager_.final_step();
    frozen_ = true;
  }
  const double eps = (warmup && adapt_) ? averager_.current() : step_size_;

  std::vector<double> p0(q0.size());
  g.normal_fill(p0.data(), p0.size());
  std::vector<double> grad0;
  const double u0 = potential_->value_and_grad(q0, grad0);
  const double h0 = u0 + kinetic(p0);
  const double log_u = std::log(g.uniform() + 1e-300) - h0;

  Tree state;
  state.q_minus = state.q_plus = q0;
  state.p_minus = state.p_plus = p0;
  state.grad_minus = state.grad_plus = grad0;
  state.q_proposal = q0;
  state.n = 1;
  state.valid = true;

  double alpha_sum = 0.0;
  std::int64_t n_alpha_sum = 0;
  obs::ScopedTimer trajectory_span(
      "nuts.trajectory",
      obs::tracing() ? obs::Event()
                           .set("dim", static_cast<std::int64_t>(q0.size()))
                           .set("warmup", warmup)
                           .to_json()
                     : std::string());
  for (int depth = 0; depth < max_depth_ && state.valid; ++depth) {
    const int direction = g.bernoulli(0.5) ? 1 : -1;
    // Trace-only: one slice per doubling, so the timeline shows how deep
    // each trajectory grew (2^depth leapfrog steps per slice).
    obs::TraceSpan tree_span(
        "nuts.tree", obs::tracing() ? obs::Event()
                                          .set("depth", depth)
                                          .set("direction", direction)
                                          .to_json()
                                    : std::string());
    Tree sub = direction == 1
                   ? build_tree(state.q_plus, state.p_plus, state.grad_plus,
                                log_u, direction, depth, eps, h0)
                   : build_tree(state.q_minus, state.p_minus, state.grad_minus,
                                log_u, direction, depth, eps, h0);
    alpha_sum += sub.alpha;
    n_alpha_sum += sub.n_alpha;
    if (sub.valid && sub.n > 0) {
      const double accept = std::min(
          1.0, static_cast<double>(sub.n) / static_cast<double>(state.n));
      if (g.uniform() < accept) state.q_proposal = sub.q_proposal;
    }
    if (direction == 1) {
      state.q_plus = sub.q_plus;
      state.p_plus = sub.p_plus;
      state.grad_plus = sub.grad_plus;
    } else {
      state.q_minus = sub.q_minus;
      state.p_minus = sub.p_minus;
      state.grad_minus = sub.grad_minus;
    }
    state.n += sub.n;
    state.valid = sub.valid && no_u_turn(state);
  }

  const double mean_alpha =
      n_alpha_sum > 0 ? alpha_sum / static_cast<double>(n_alpha_sum) : 0.0;
  accept_stat_ += mean_alpha;
  ++accept_count_;
  last_accept_prob_ = mean_alpha;
  if (warmup && adapt_) averager_.update(mean_alpha);
  return state.q_proposal;
}

}  // namespace tx::infer
