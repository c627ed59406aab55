#include "ppl/trace.h"

namespace tx::ppl {

Tensor SiteRecord::log_prob_sum() const {
  TX_CHECK(distribution != nullptr, "site '", name, "' has no distribution");
  Tensor total;
  if (mask.defined()) {
    // Masked sites keep the elementwise chain: mask * log_prob, then sum.
    const Tensor lp = mul(distribution->log_prob(value), mask);
    total = lp.numel() == 1 && lp.rank() == 0 ? lp : sum(lp);
  } else {
    // The family's own scalar density: fused for Normal (gauss_logpdf_sum),
    // sum(log_prob) for every other family.
    total = distribution->log_prob_sum(value);
  }
  if (scale != 1.0) {
    total = mul(total, Tensor::scalar(static_cast<float>(scale)));
  }
  return total;
}

void Trace::add(SiteRecord site) {
  TX_CHECK(!contains(site.name), "duplicate site '", site.name, "' in trace");
  sites_.push_back(std::move(site));
}

bool Trace::contains(const std::string& name) const {
  for (const auto& s : sites_) {
    if (s.name == name) return true;
  }
  return false;
}

const SiteRecord& Trace::at(const std::string& name) const {
  for (const auto& s : sites_) {
    if (s.name == name) return s;
  }
  TX_THROW("no site named '", name, "' in trace");
}

SiteRecord& Trace::at(const std::string& name) {
  for (auto& s : sites_) {
    if (s.name == name) return s;
  }
  TX_THROW("no site named '", name, "' in trace");
}

Tensor Trace::log_prob_sum() const {
  Tensor total = Tensor::scalar(0.0f);
  for (const auto& s : sites_) total = tx::add(total, s.log_prob_sum());
  return total;
}

Tensor Trace::log_prob_sum(bool observed_only) const {
  Tensor total = Tensor::scalar(0.0f);
  for (const auto& s : sites_) {
    if (s.is_observed == observed_only) total = tx::add(total, s.log_prob_sum());
  }
  return total;
}

}  // namespace tx::ppl
