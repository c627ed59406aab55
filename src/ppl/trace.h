// Execution traces: the record of every sample site touched while a
// probabilistic program ran under a TraceMessenger.
#pragma once

#include <string>
#include <vector>

#include "ppl/messenger.h"

namespace tx::ppl {

/// One recorded sample site.
struct SiteRecord {
  std::string name;
  dist::DistPtr distribution;
  Tensor value;
  bool is_observed = false;
  double scale = 1.0;
  Tensor mask;  // undefined = unmasked

  /// scale * sum(mask * log_prob(value)); unmasked sites evaluate
  /// scale * distribution->log_prob_sum(value), the fused path for Normal.
  Tensor log_prob_sum() const;
};

class Trace {
 public:
  void add(SiteRecord site);
  bool contains(const std::string& name) const;
  const SiteRecord& at(const std::string& name) const;
  SiteRecord& at(const std::string& name);
  /// Sites in program (insertion) order.
  const std::vector<SiteRecord>& sites() const { return sites_; }
  std::size_t size() const { return sites_.size(); }
  void clear() { sites_.clear(); }

  /// Sum of log_prob_sum over all sites (the joint log-density).
  Tensor log_prob_sum() const;
  /// Same, restricted to (non-)observed sites.
  Tensor log_prob_sum(bool observed_only) const;

 private:
  std::vector<SiteRecord> sites_;
};

}  // namespace tx::ppl
