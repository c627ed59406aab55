#include "infer/hmc.h"

#include <cmath>
#include <limits>

#include "obs/obs.h"
#include "resil/guard.h"
#include "tensor/alloc.h"
#include "util/textio.h"

namespace tx::infer {

namespace {
constexpr double kDivergenceThreshold = 1000.0;  // Stan/Pyro's delta_max
}  // namespace

Potential::Potential(Program model) : model_(std::move(model)) {
  NoGradGuard ng;
  ppl::Trace tr = ppl::trace_fn(model_);
  for (const auto& site : tr.sites()) {
    if (site.is_observed) continue;
    layout_.emplace_back(site.name, site.value.shape());
    priors_.push_back(site.distribution);
    dim_ += site.value.numel();
  }
  TX_CHECK(dim_ > 0, "Potential: model has no latent sites");
}

std::vector<double> Potential::initial_position(Generator* gen) const {
  NoGradGuard ng;
  std::vector<double> q;
  q.reserve(static_cast<std::size_t>(dim_));
  for (std::size_t i = 0; i < layout_.size(); ++i) {
    Tensor draw = priors_[i]->sample(gen);
    for (std::int64_t j = 0; j < draw.numel(); ++j) {
      q.push_back(static_cast<double>(draw.at(j)));
    }
  }
  return q;
}

std::map<std::string, Tensor> Potential::unflatten(
    const std::vector<double>& q) const {
  TX_CHECK(static_cast<std::int64_t>(q.size()) == dim_,
           "Potential: position size mismatch");
  std::map<std::string, Tensor> out;
  std::size_t offset = 0;
  for (const auto& [name, shape] : layout_) {
    const std::int64_t n = numel_of(shape);
    std::vector<float> buf = alloc::buffer_uninit(n);
    for (std::int64_t j = 0; j < n; ++j) {
      buf[static_cast<std::size_t>(j)] = static_cast<float>(q[offset + static_cast<std::size_t>(j)]);
    }
    out.emplace(name, Tensor(shape, std::move(buf)));
    offset += static_cast<std::size_t>(n);
  }
  return out;
}

Tensor Potential::log_joint(const std::map<std::string, Tensor>& latents) const {
  ppl::ConditionMessenger cond(latents);
  ppl::TraceMessenger tracer;
  {
    ppl::HandlerScope c(cond);
    ppl::HandlerScope t(tracer);
    model_();
  }
  return tracer.trace().log_prob_sum();
}

double Potential::value(const std::vector<double>& q) const {
  NoGradGuard ng;
  // Every leapfrog evaluation allocates and drops the same tensor shapes;
  // recycle them through the per-step arena (covers HMC, NUTS, and SGLD).
  alloc::StepScope arena_scope;
  return -static_cast<double>(log_joint(unflatten(q)).item());
}

double Potential::value_and_grad(const std::vector<double>& q,
                                 std::vector<double>& grad) const {
  // The gradient is the result, so record it whatever the caller's mode:
  // under an outer NoGradGuard it would be zero, and the adapted step size
  // would collapse while each trajectory kept its length.
  GradModeScope record(true);
  alloc::StepScope arena_scope;
  std::map<std::string, Tensor> latents = unflatten(q);
  for (auto& [name, t] : latents) t.set_requires_grad(true);
  Tensor lj = log_joint(latents);
  lj.backward();
  grad.assign(q.size(), 0.0);
  std::size_t offset = 0;
  for (const auto& [name, shape] : layout_) {
    const Tensor& t = latents.at(name);
    const Tensor g = t.grad();
    for (std::int64_t j = 0; j < t.numel(); ++j) {
      grad[offset + static_cast<std::size_t>(j)] = -static_cast<double>(g.at(j));
    }
    offset += static_cast<std::size_t>(t.numel());
  }
  return -static_cast<double>(lj.item());
}

std::vector<obs::diag::SiteSpan> diag_layout(const Potential& potential) {
  std::vector<obs::diag::SiteSpan> spans;
  spans.reserve(potential.layout().size());
  std::size_t offset = 0;
  for (const auto& [name, shape] : potential.layout()) {
    const auto n = static_cast<std::size_t>(numel_of(shape));
    spans.push_back({name, offset, offset + n});
    offset += n;
  }
  return spans;
}

void MCMCKernel::setup(Program model, Generator* gen) {
  potential_ = std::make_shared<Potential>(std::move(model));
  gen_ = gen;
}

void MCMCKernel::save_state(std::ostream& os) const {
  os << kind() << " v1\nstats ";
  textio::write_double(os, accept_stat_);
  os << ' ' << accept_count_ << ' ';
  textio::write_double(os, last_accept_prob_);
  os << ' ' << divergences_ << '\n';
}

void MCMCKernel::load_state(std::istream& is) {
  const std::string k = textio::next_token(is, "kernel kind");
  TX_CHECK(k == kind(), "kernel state: kind mismatch — state is '", k,
           "' but kernel is '", kind(), "'");
  textio::expect_tag(is, "v1");
  textio::expect_tag(is, "stats");
  const double accept_stat = textio::read_double(is, "accept_stat");
  const std::int64_t accept_count = textio::read_int(is, "accept_count");
  const double last_accept = textio::read_double(is, "last_accept_prob");
  const std::int64_t divergences = textio::read_int(is, "divergences");
  accept_stat_ = accept_stat;
  accept_count_ = accept_count;
  last_accept_prob_ = last_accept;
  divergences_ = divergences;
}

std::vector<double> MCMCKernel::initial_position() {
  TX_CHECK(potential_ != nullptr, "kernel not set up");
  return potential_->initial_position(gen_);
}

DualAveraging::DualAveraging(double initial_step, double target_accept)
    : mu_(std::log(10.0 * initial_step)),
      target_(target_accept),
      step_(initial_step),
      final_(initial_step) {}

void DualAveraging::update(double accept_prob) {
  constexpr double kGamma = 0.05, kT0 = 10.0, kKappa = 0.75;
  ++t_;
  const double t = static_cast<double>(t_);
  h_bar_ = (1.0 - 1.0 / (t + kT0)) * h_bar_ +
           (target_ - accept_prob) / (t + kT0);
  const double log_eps = mu_ - std::sqrt(t) / kGamma * h_bar_;
  const double eta = std::pow(t, -kKappa);
  log_eps_bar_ = eta * log_eps + (1.0 - eta) * log_eps_bar_;
  step_ = std::exp(log_eps);
  final_ = std::exp(log_eps_bar_);
}

void DualAveraging::save(std::ostream& os) const {
  os << "da ";
  textio::write_double(os, mu_);
  os << ' ';
  textio::write_double(os, target_);
  os << ' ';
  textio::write_double(os, step_);
  os << ' ';
  textio::write_double(os, final_);
  os << ' ';
  textio::write_double(os, h_bar_);
  os << ' ';
  textio::write_double(os, log_eps_bar_);
  os << ' ' << t_ << '\n';
}

void DualAveraging::load(std::istream& is) {
  textio::expect_tag(is, "da");
  const double mu = textio::read_double(is, "da.mu");
  const double target = textio::read_double(is, "da.target");
  const double step = textio::read_double(is, "da.step");
  const double fin = textio::read_double(is, "da.final");
  const double h_bar = textio::read_double(is, "da.h_bar");
  const double log_eps_bar = textio::read_double(is, "da.log_eps_bar");
  const std::int64_t t = textio::read_int(is, "da.t");
  mu_ = mu;
  target_ = target;
  step_ = step;
  final_ = fin;
  h_bar_ = h_bar;
  log_eps_bar_ = log_eps_bar;
  t_ = t;
}

HMC::HMC(double step_size, int num_steps, bool adapt_step_size,
         double target_accept, bool adapt_mass_matrix)
    : step_size_(step_size),
      num_steps_(num_steps),
      trajectory_length_(step_size * num_steps),
      adapt_(adapt_step_size),
      target_accept_(target_accept),
      averager_(step_size, target_accept),
      adapt_mass_(adapt_mass_matrix) {
  TX_CHECK(step_size > 0.0 && num_steps >= 1, "HMC: bad step_size/num_steps");
}

void HMC::set_step_size(double eps) {
  TX_CHECK(eps > 0.0, "HMC: step size must be positive");
  step_size_ = eps;
  // Re-seed adaptation around the forced value while warmup is still live,
  // so dual averaging does not immediately snap back to the old regime.
  if (adapt_ && !frozen_) averager_ = DualAveraging(eps, target_accept_);
}

void HMC::save_state(std::ostream& os) const {
  MCMCKernel::save_state(os);
  os << "hmc ";
  textio::write_double(os, step_size_);
  os << ' ' << (frozen_ ? 1 : 0) << ' ' << warmup_seen_ << '\n';
  averager_.save(os);
  os << "mass " << welford_count_ << ' ';
  textio::write_vec_d(os, inv_mass_);
  textio::write_vec_d(os, welford_mean_);
  textio::write_vec_d(os, welford_m2_);
}

void HMC::load_state(std::istream& is) {
  // Parse the whole stream (base fields included) into locals first, so a
  // truncated/corrupt stream throws before any member changes.
  const std::string k = textio::next_token(is, "kernel kind");
  TX_CHECK(k == kind(), "kernel state: kind mismatch — state is '", k,
           "' but kernel is '", kind(), "'");
  textio::expect_tag(is, "v1");
  textio::expect_tag(is, "stats");
  const double accept_stat = textio::read_double(is, "accept_stat");
  const std::int64_t accept_count = textio::read_int(is, "accept_count");
  const double last_accept = textio::read_double(is, "last_accept_prob");
  const std::int64_t divergences = textio::read_int(is, "divergences");
  textio::expect_tag(is, "hmc");
  const double step_size = textio::read_double(is, "step_size");
  const std::int64_t frozen = textio::read_int(is, "frozen");
  const std::int64_t warmup_seen = textio::read_int(is, "warmup_seen");
  DualAveraging averager = averager_;
  averager.load(is);
  textio::expect_tag(is, "mass");
  const std::int64_t welford_count = textio::read_int(is, "welford_count");
  std::vector<double> inv_mass = textio::read_vec_d(is, "inv_mass");
  std::vector<double> welford_mean = textio::read_vec_d(is, "welford_mean");
  std::vector<double> welford_m2 = textio::read_vec_d(is, "welford_m2");

  accept_stat_ = accept_stat;
  accept_count_ = accept_count;
  last_accept_prob_ = last_accept;
  divergences_ = divergences;
  step_size_ = step_size;
  frozen_ = frozen != 0;
  warmup_seen_ = warmup_seen;
  averager_ = averager;
  welford_count_ = welford_count;
  inv_mass_ = std::move(inv_mass);
  welford_mean_ = std::move(welford_mean);
  welford_m2_ = std::move(welford_m2);
}

double HMC::kinetic(const std::vector<double>& p) const {
  double k = 0.0;
  if (inv_mass_.empty()) {
    for (double v : p) k += v * v;
  } else {
    for (std::size_t i = 0; i < p.size(); ++i) k += inv_mass_[i] * p[i] * p[i];
  }
  return 0.5 * k;
}

std::vector<double> HMC::sample_momentum(std::size_t dim, Generator& g) const {
  std::vector<double> p(dim);
  g.normal_fill(p.data(), dim);
  if (!inv_mass_.empty()) {
    // p ~ N(0, M) with M = diag(1 / inv_mass).
    for (std::size_t i = 0; i < dim; ++i) p[i] /= std::sqrt(inv_mass_[i]);
  }
  return p;
}

void HMC::accumulate_mass_sample(const std::vector<double>& q) {
  if (welford_mean_.empty()) {
    welford_mean_.assign(q.size(), 0.0);
    welford_m2_.assign(q.size(), 0.0);
  }
  ++welford_count_;
  for (std::size_t i = 0; i < q.size(); ++i) {
    const double delta = q[i] - welford_mean_[i];
    welford_mean_[i] += delta / static_cast<double>(welford_count_);
    welford_m2_[i] += delta * (q[i] - welford_mean_[i]);
  }
}

void HMC::leapfrog(std::vector<double>& q, std::vector<double>& p,
                   std::vector<double>& grad, double eps, int steps) const {
  obs::ScopedTimer span(
      "hmc.leapfrog",
      obs::tracing() ? obs::Event()
                           .set("steps", steps)
                           .set("dim", static_cast<std::int64_t>(q.size()))
                           .to_json()
                     : std::string());
  // grad holds dU/dq at the current q on entry and on exit.
  for (int s = 0; s < steps; ++s) {
    // Per-leapfrog budget checkpoint: exhausted budgets abandon the
    // trajectory here (the finest useful granularity — one step is one
    // model gradient).
    guard::check_expiry("hmc.leapfrog");
    for (std::size_t i = 0; i < p.size(); ++i) p[i] -= 0.5 * eps * grad[i];
    if (inv_mass_.empty()) {
      for (std::size_t i = 0; i < q.size(); ++i) q[i] += eps * p[i];
    } else {
      for (std::size_t i = 0; i < q.size(); ++i) {
        q[i] += eps * inv_mass_[i] * p[i];
      }
    }
    potential_->value_and_grad(q, grad);
    for (std::size_t i = 0; i < p.size(); ++i) p[i] -= 0.5 * eps * grad[i];
  }
}

int HMC::num_steps_at(double eps) const {
  if (!adapt_) return num_steps_;
  // Written so a NaN ratio takes one step and a huge one cannot overflow.
  const double steps = std::floor(trajectory_length_ / eps);
  constexpr int kMax = std::numeric_limits<int>::max();
  if (!(steps >= 1.0)) return 1;
  return steps < kMax ? static_cast<int>(steps) : kMax;
}

std::vector<double> HMC::step(const std::vector<double>& q0, bool warmup) {
  Generator& g = gen_ ? *gen_ : global_generator();
  if (!warmup && adapt_ && !frozen_) {
    averager_.freeze();
    step_size_ = averager_.final_step();
    frozen_ = true;
  }
  const double eps = (warmup && adapt_) ? averager_.current() : step_size_;

  std::vector<double> p = sample_momentum(q0.size(), g);
  std::vector<double> q = q0;
  std::vector<double> grad;
  const double u0 = potential_->value_and_grad(q, grad);
  const double h0 = u0 + kinetic(p);

  leapfrog(q, p, grad, eps, num_steps_at(eps));
  const double u1 = potential_->value(q);
  const double h1 = u1 + kinetic(p);

  double accept_prob = std::exp(std::min(0.0, h0 - h1));
  if (!std::isfinite(h1)) accept_prob = 0.0;
  if (!std::isfinite(h1) || h1 - h0 > kDivergenceThreshold) {
    ++divergences_;
    if (obs::diag::enabled()) {
      obs::diag::mcmc_record_divergence(diag_layout(*potential_), q, p, grad,
                                        inv_mass_, h0, h1);
    }
  }
  accept_stat_ += accept_prob;
  ++accept_count_;
  last_accept_prob_ = accept_prob;
  if (warmup && adapt_) averager_.update(accept_prob);

  std::vector<double> result = g.uniform() < accept_prob ? q : q0;

  if (warmup && adapt_mass_) {
    ++warmup_seen_;
    accumulate_mass_sample(result);
    // One Stan-style regularized update once enough warmup draws exist.
    if (inv_mass_.empty() && welford_count_ >= 50) {
      const auto n = static_cast<double>(welford_count_);
      inv_mass_.resize(welford_m2_.size());
      for (std::size_t i = 0; i < welford_m2_.size(); ++i) {
        const double var = welford_m2_[i] / (n - 1.0);
        inv_mass_[i] = (n / (n + 5.0)) * var + 1e-3 * (5.0 / (n + 5.0));
      }
    }
  }
  return result;
}

}  // namespace tx::infer
