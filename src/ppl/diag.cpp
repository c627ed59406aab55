#include "ppl/diag.h"

#include <cmath>
#include <limits>
#include <vector>

#include "dist/kl.h"
#include "obs/diag.h"

namespace tx::ppl {

void DiagnosticsMessenger::postprocess_message(SampleMsg& msg) {
  namespace diag = tx::obs::diag;
  if (!diag::enabled() || !diag::in_svi_step()) return;
  if (msg.is_observed || !msg.value.defined()) return;

  const std::int64_t n = msg.value.numel();
  const float* data = msg.value.data();
  double sum = 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  bool finite = true;
  for (std::int64_t i = 0; i < n; ++i) {
    const double v = data[i];
    sum += v;
    if (v < lo) lo = v;
    if (v > hi) hi = v;
    if (!std::isfinite(v)) finite = false;
  }
  const double mean = n > 0 ? sum / static_cast<double>(n) : 0.0;

  std::vector<double> sample_values;
  if (!finite) {
    const std::size_t cap = diag::config().max_dump_values;
    for (std::int64_t i = 0; i < n && sample_values.size() < cap; ++i) {
      sample_values.push_back(data[i]);
    }
  }
  diag::record_site_value(msg.name, mean, lo, hi, n, finite, sample_values);

  // Pair the guide sighting (first, stores q) with the model replay
  // (second, carries p) for the analytic KL(q‖p). Entries are tagged with
  // the SVI step: a site sighted only once per step (guide-only or
  // model-only) would otherwise leave a stale q that pairs with a later
  // step's sighting — swapped q/p or KL across steps, silently wrong.
  const std::int64_t step = diag::current_svi_step();
  const auto key = std::make_pair(std::this_thread::get_id(), msg.name);
  dist::DistPtr q;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++sites_seen_;
    auto it = pending_q_.find(key);
    if (it == pending_q_.end() || it->second.svi_step != step) {
      pending_q_[key] = {msg.distribution, step};  // stale entries replaced
      return;
    }
    q = it->second.q;
    pending_q_.erase(it);
  }
  if (!q || !msg.distribution) return;
  if (!dist::has_analytic_kl(*q, *msg.distribution)) return;
  NoGradGuard no_grad;
  const double kl = dist::kl_divergence(*q, *msg.distribution).item();
  diag::record_site_kl(msg.name, kl);
}

std::int64_t DiagnosticsMessenger::sites_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sites_seen_;
}

}  // namespace tx::ppl
