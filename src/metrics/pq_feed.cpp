#include "metrics/pq_feed.h"

#include <algorithm>

#include "metrics/metrics.h"
#include "obs/pq.h"
#include "obs/registry.h"
#include "util/common.h"

namespace tx::metrics {

void pq_observe_sample_stack(const Tensor& stacked_logits,
                             const Tensor& mean_probs) {
  if (!obs::pq::enabled()) return;
  TX_CHECK(stacked_logits.rank() == 3,
           "pq_observe_sample_stack: stack must be (S, N, classes)");
  TX_CHECK(mean_probs.rank() == 2 &&
               mean_probs.dim(0) == stacked_logits.dim(1) &&
               mean_probs.dim(1) == stacked_logits.dim(2),
           "pq_observe_sample_stack: mean_probs must be (N, classes) "
           "matching the stack");
  const std::int64_t samples = stacked_logits.dim(0);
  const std::int64_t n = mean_probs.dim(0);
  const std::int64_t classes = mean_probs.dim(1);
  const Tensor sample_probs = tx::softmax(stacked_logits, -1);

  double variance_sum = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float confidence = row_max(mean_probs, i).confidence;
    const double predictive = row_entropy(mean_probs, i);
    // Aleatoric: mean per-sample entropy. The gap to the predictive entropy
    // is the mutual information (epistemic part), derived in pq at snapshot
    // time so the decomposition sums exactly.
    double aleatoric = 0.0;
    for (std::int64_t s = 0; s < samples; ++s) {
      aleatoric += row_entropy(sample_probs, s * n + i);
    }
    aleatoric /= static_cast<double>(samples);
    obs::pq::record_prediction(confidence, predictive, aleatoric);

    // Across-sample variance of the class probabilities, averaged over
    // classes: E[p^2] - mean^2 around the aggregated mean (clamped at 0
    // against rounding).
    double var = 0.0;
    for (std::int64_t c = 0; c < classes; ++c) {
      double sq = 0.0;
      for (std::int64_t s = 0; s < samples; ++s) {
        const double p = sample_probs.at((s * n + i) * classes + c);
        sq += p * p;
      }
      const double mean = mean_probs.at(i * classes + c);
      var += std::max(0.0, sq / static_cast<double>(samples) - mean * mean);
    }
    variance_sum += var / static_cast<double>(classes);
  }
  obs::pq::record_sample_pool(samples, variance_sum, n);
  obs::pq::publish(obs::registry());
}

void pq_observe_probs(const Tensor& probs) {
  if (!obs::pq::enabled()) return;
  TX_CHECK(probs.rank() == 2, "pq_observe_probs: probs must be (N, classes)");
  const std::int64_t n = probs.dim(0);
  for (std::int64_t i = 0; i < n; ++i) {
    const double h = row_entropy(probs, i);
    obs::pq::record_prediction(row_max(probs, i).confidence, h, h);
  }
  obs::pq::record_sample_pool(1, 0.0, n);
  obs::pq::publish(obs::registry());
}

void pq_observe_labeled(const Tensor& probs, const Tensor& labels) {
  if (!obs::pq::enabled()) return;
  TX_CHECK(probs.rank() == 2 && labels.rank() == 1 &&
               labels.dim(0) == probs.dim(0),
           "pq_observe_labeled: want (N, classes) probs and (N,) labels");
  for (std::int64_t i = 0; i < probs.dim(0); ++i) {
    const RowOutcome o = row_outcome(probs, labels, i);
    obs::pq::record_outcome(o.confidence, o.correct, o.p_true, o.brier);
  }
  obs::pq::publish(obs::registry());
}

}  // namespace tx::metrics
