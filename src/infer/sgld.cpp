#include "infer/sgld.h"

#include <cmath>

#include "util/textio.h"

namespace tx::infer {

SGLD::SGLD(double a, double gamma, double b) : a_(a), gamma_(gamma), b_(b) {
  TX_CHECK(a > 0.0, "SGLD: step size must be positive");
  TX_CHECK(gamma >= 0.0 && gamma <= 1.0, "SGLD: gamma must be in [0, 1]");
  TX_CHECK(b > 0.0, "SGLD: b must be positive");
}

double SGLD::current_step_size() const {
  return a_ * std::pow(b_ + static_cast<double>(t_), -gamma_);
}

std::vector<double> SGLD::step(const std::vector<double>& q0, bool warmup) {
  (void)warmup;  // SGLD has no adaptation phase; warmup steps are burn-in.
  Generator& g = gen_ ? *gen_ : global_generator();
  const double eps = current_step_size();
  ++t_;
  std::vector<double> grad;
  potential_->value_and_grad(q0, grad);
  std::vector<double> q = q0;
  const double noise_std = std::sqrt(eps);
  std::vector<double> noise(q.size());
  g.normal_fill(noise.data(), noise.size());
  for (std::size_t i = 0; i < q.size(); ++i) {
    q[i] += -0.5 * eps * grad[i] + noise_std * noise[i];
  }
  // Langevin proposals are always "accepted".
  accept_stat_ += 1.0;
  ++accept_count_;
  return q;
}

void SGLD::save_state(std::ostream& os) const {
  MCMCKernel::save_state(os);
  // The schedule position t is the only mutable SGLD state; a, gamma, b are
  // construction constants the resuming caller reconstructs.
  os << "sgld_t " << t_ << '\n';
}

void SGLD::load_state(std::istream& is) {
  MCMCKernel::load_state(is);
  textio::expect_tag(is, "sgld_t");
  t_ = textio::read_int(is, "sgld t");
}

}  // namespace tx::infer
