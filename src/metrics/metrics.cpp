#include "metrics/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/common.h"

namespace tx::metrics {

namespace {

/// Rows 0..N-1 of a labelled table folded into one pq accumulator.
obs::pq::StreamStats fold_labeled(const Tensor& probs, const Tensor& labels,
                                  int num_bins) {
  TX_CHECK(probs.rank() == 2, "metrics: probs must be (N, classes)");
  TX_CHECK(labels.rank() == 1 && labels.dim(0) == probs.dim(0),
           "metrics: labels must be (N,) matching probs");
  TX_CHECK(probs.dim(0) > 0, "metrics: empty probability table");
  TX_CHECK(num_bins >= 1, "metrics: num_bins must be >= 1");
  obs::pq::StreamStats s = obs::pq::empty_stream({num_bins});
  for (std::int64_t i = 0; i < probs.dim(0); ++i) {
    const RowOutcome o = row_outcome(probs, labels, i);
    obs::pq::add_outcome(s, o.confidence, o.correct, o.p_true, o.brier);
  }
  return s;
}

}  // namespace

RowMax row_max(const Tensor& probs, std::int64_t i) {
  const std::int64_t classes = probs.dim(-1);
  RowMax m;
  for (std::int64_t c = 0; c < classes; ++c) {
    const float p = probs.at(i * classes + c);
    if (p > m.confidence) {
      m.confidence = p;
      m.pick = c;
    }
  }
  return m;
}

double row_entropy(const Tensor& probs, std::int64_t i) {
  const std::int64_t classes = probs.dim(-1);
  double h = 0.0;
  for (std::int64_t c = 0; c < classes; ++c) {
    const double p = probs.at(i * classes + c);
    if (p > 1e-12) h -= p * std::log(p);
  }
  return h;
}

RowOutcome row_outcome(const Tensor& probs, const Tensor& labels,
                       std::int64_t i) {
  const std::int64_t classes = probs.dim(-1);
  const auto label = static_cast<std::int64_t>(std::llround(labels.at(i)));
  TX_CHECK(label >= 0 && label < classes, "metrics: label ", label,
           " out of range for ", classes, " classes");
  const RowMax m = row_max(probs, i);
  RowOutcome o;
  o.confidence = m.confidence;
  o.correct = m.pick == label;
  o.p_true = probs.at(i * classes + label);
  for (std::int64_t k = 0; k < classes; ++k) {
    const double d = probs.at(i * classes + k) - (k == label ? 1.0 : 0.0);
    o.brier += d * d;
  }
  return o;
}

std::vector<CalibrationBin> calibration_curve(const Tensor& probs,
                                              const Tensor& labels,
                                              int num_bins) {
  return obs::pq::reliability(fold_labeled(probs, labels, num_bins));
}

double expected_calibration_error(const Tensor& probs, const Tensor& labels,
                                  int num_bins) {
  return obs::pq::ece(fold_labeled(probs, labels, num_bins));
}

double accuracy(const Tensor& probs, const Tensor& labels) {
  return obs::pq::accuracy(fold_labeled(probs, labels, 1));
}

double nll(const Tensor& probs, const Tensor& labels) {
  return obs::pq::nll(fold_labeled(probs, labels, 1));
}

double brier_score(const Tensor& probs, const Tensor& labels) {
  return obs::pq::brier(fold_labeled(probs, labels, 1));
}

std::vector<double> predictive_entropy(const Tensor& probs) {
  TX_CHECK(probs.rank() == 2, "predictive_entropy: probs must be (N, classes)");
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(probs.dim(0)));
  for (std::int64_t i = 0; i < probs.dim(0); ++i) {
    out.push_back(row_entropy(probs, i));
  }
  return out;
}

std::vector<double> max_probability(const Tensor& probs) {
  TX_CHECK(probs.rank() == 2, "max_probability: probs must be (N, classes)");
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(probs.dim(0)));
  for (std::int64_t i = 0; i < probs.dim(0); ++i) {
    out.push_back(row_max(probs, i).confidence);
  }
  return out;
}

double auroc(const std::vector<double>& positive_scores,
             const std::vector<double>& negative_scores) {
  TX_CHECK(!positive_scores.empty() && !negative_scores.empty(),
           "auroc: empty score lists");
  // Mann-Whitney U statistic, O(n log n) via sorting the negatives.
  std::vector<double> neg = negative_scores;
  std::sort(neg.begin(), neg.end());
  double u = 0.0;
  for (double p : positive_scores) {
    const auto lower =
        std::lower_bound(neg.begin(), neg.end(), p) - neg.begin();
    const auto upper =
        std::upper_bound(neg.begin(), neg.end(), p) - neg.begin();
    u += static_cast<double>(lower) +
         0.5 * static_cast<double>(upper - lower);
  }
  return u / (static_cast<double>(positive_scores.size()) *
              static_cast<double>(neg.size()));
}

std::vector<double> empirical_cdf(std::vector<double> values,
                                  const std::vector<double>& points) {
  TX_CHECK(!values.empty(), "empirical_cdf: no values");
  std::sort(values.begin(), values.end());
  std::vector<double> out;
  out.reserve(points.size());
  for (double p : points) {
    const auto count =
        std::upper_bound(values.begin(), values.end(), p) - values.begin();
    out.push_back(static_cast<double>(count) /
                  static_cast<double>(values.size()));
  }
  return out;
}

}  // namespace tx::metrics
