// Evaluation metrics used by the paper's tables and figures: expected
// calibration error, calibration curves, predictive entropy, empirical CDFs,
// and OOD detection AUROC from maximum predicted probability.
//
// The labelled metrics (calibration, ECE, accuracy, NLL, Brier) fold the
// table's rows, one row_outcome each, into a local tx::obs::pq accumulator
// and read it back, so they share one arithmetic with the streaming pq
// layer (metrics/pq_feed.h). They take an (N, classes) probability table
// and (N,) float-encoded labels, and throw on an empty table or a label
// outside [0, classes).
#pragma once

#include <vector>

#include "obs/pq.h"
#include "tensor/tensor.h"

namespace tx::metrics {

/// One calibration bin: mean confidence, empirical accuracy, sample count.
using CalibrationBin = obs::pq::ReliabilityBin;

/// Row `i` of a probability table (the last dim is the classes): its
/// first-max float probability and the first class attaining it.
struct RowMax {
  float confidence = -1.0f;
  std::int64_t pick = 0;
};
RowMax row_max(const Tensor& probs, std::int64_t i);

/// Shannon entropy of row `i` (terms with p <= 1e-12 skipped).
double row_entropy(const Tensor& probs, std::int64_t i);

/// The labelled terms of row `i`, the arguments of obs::pq::add_outcome:
/// row_max's confidence, whether its pick is the label, the true class's
/// probability and the squared one-hot error summed over classes.
struct RowOutcome {
  float confidence = 0.0f;
  bool correct = false;
  float p_true = 0.0f;
  double brier = 0.0;
};
RowOutcome row_outcome(const Tensor& probs, const Tensor& labels,
                       std::int64_t i);

/// Bins predictions by max predicted probability (equal-width bins on [0,1]).
std::vector<CalibrationBin> calibration_curve(const Tensor& probs,
                                              const Tensor& labels,
                                              int num_bins = 10);

/// Expected calibration error (weighted |accuracy - confidence|), in [0, 1].
double expected_calibration_error(const Tensor& probs, const Tensor& labels,
                                  int num_bins = 10);

/// Classification accuracy from a probability table.
double accuracy(const Tensor& probs, const Tensor& labels);

/// Mean negative log-likelihood from a probability table.
double nll(const Tensor& probs, const Tensor& labels);

/// Mean multi-class Brier score: per-example squared error between the
/// probability row and the one-hot label, summed over classes. In [0, 2].
double brier_score(const Tensor& probs, const Tensor& labels);

/// Per-example entropy of the predictive distribution, (N,) from (N, C).
std::vector<double> predictive_entropy(const Tensor& probs);

/// Per-example maximum predicted probability (the OOD score), (N,).
std::vector<double> max_probability(const Tensor& probs);

/// Area under the ROC curve where `positive_scores` should exceed
/// `negative_scores` (ties count half). For OOD detection the paper uses the
/// max predicted probability with in-distribution as positive.
double auroc(const std::vector<double>& positive_scores,
             const std::vector<double>& negative_scores);

/// Empirical CDF of `values` evaluated at `points` (for the entropy CDFs of
/// Fig. 2).
std::vector<double> empirical_cdf(std::vector<double> values,
                                  const std::vector<double>& points);

}  // namespace tx::metrics
