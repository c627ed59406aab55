// Tensor-to-scalar reduction layer feeding tx::obs::pq (obs/pq.h).
//
// tx_obs is tensor-free by design, so the reductions from probability
// tables and posterior sample stacks down to the per-example scalars pq
// accumulates live here, one layer up. Rows reduce through the same
// row_max / row_entropy / row_outcome helpers the batch tx::metrics
// functions use (metrics/metrics.h), and pq folds the labelled outcomes
// with the same add_outcome the batch metrics fold into a local
// accumulator — so a stream fed one table in one call agrees bitwise with
// the batch metrics on it.
//
// Every call is a no-op unless tx::obs::pq::enabled(); when it does record,
// it finishes with pq::publish() so live /metrics scrapes stay fresh.
// Examples land in the calling thread's current pq stream (StreamScope).
#pragma once

#include "tensor/tensor.h"

namespace tx::metrics {

/// Observe a categorical posterior-predictive batch from the full sample
/// stack: `stacked_logits` is (S, N, classes) raw network outputs and
/// `mean_probs` the (N, classes) aggregated mean probabilities
/// (Categorical::aggregate_predictions of the same stack). Records, per
/// example, the max-probability confidence, the predictive entropy of the
/// mean distribution, and the aleatoric entropy (mean per-sample entropy) —
/// plus one pool-health record (S, across-sample probability variance).
void pq_observe_sample_stack(const Tensor& stacked_logits,
                             const Tensor& mean_probs);

/// Observe an (N, classes) probability table with no sample stack behind it
/// (point estimates like the ML baseline): predictive == aleatoric entropy,
/// epistemic 0, MC sample count 1.
void pq_observe_probs(const Tensor& probs);

/// Observe labelled outcomes for an (N, classes) probability table and (N,)
/// float-encoded labels: streaming reliability bins, NLL, Brier, accuracy.
/// Labels out of range throw (row_outcome).
void pq_observe_labeled(const Tensor& probs, const Tensor& labels);

}  // namespace tx::metrics
