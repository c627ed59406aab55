// Tests for evaluation metrics: ECE, calibration curves, entropy, AUROC,
// empirical CDFs — with hand-checkable fixtures and property sweeps.
#include <gtest/gtest.h>

#include <cmath>

#include "metrics/metrics.h"

namespace tx::metrics {
namespace {

TEST(Calibration, PerfectlyConfidentCorrectHasZeroEce) {
  Tensor probs(Shape{2, 2}, {1.0f, 0.0f, 0.0f, 1.0f});
  Tensor labels(Shape{2}, {0.0f, 1.0f});
  EXPECT_NEAR(expected_calibration_error(probs, labels), 0.0, 1e-6);
}

TEST(Calibration, ConfidentlyWrongHasEceNearOne) {
  Tensor probs(Shape{2, 2}, {1.0f, 0.0f, 0.0f, 1.0f});
  Tensor labels(Shape{2}, {1.0f, 0.0f});  // all wrong
  EXPECT_NEAR(expected_calibration_error(probs, labels), 1.0, 1e-3);
}

TEST(Calibration, KnownBinnedValue) {
  // Four predictions at confidence 0.8 with 50% accuracy: ECE = 0.3.
  Tensor probs(Shape{4, 2}, {0.8f, 0.2f, 0.8f, 0.2f, 0.8f, 0.2f, 0.8f, 0.2f});
  Tensor labels(Shape{4}, {0.0f, 0.0f, 1.0f, 1.0f});
  EXPECT_NEAR(expected_calibration_error(probs, labels, 10), 0.3, 1e-5);
}

TEST(Calibration, CurveBinsPopulateCorrectly) {
  Tensor probs(Shape{3, 2}, {0.95f, 0.05f, 0.55f, 0.45f, 0.65f, 0.35f});
  Tensor labels(Shape{3}, {0.0f, 0.0f, 1.0f});
  auto bins = calibration_curve(probs, labels, 10);
  ASSERT_EQ(bins.size(), 10u);
  EXPECT_EQ(bins[9].count, 1);            // 0.95
  EXPECT_EQ(bins[5].count, 1);            // 0.55
  EXPECT_EQ(bins[6].count, 1);            // 0.65
  EXPECT_NEAR(bins[9].accuracy, 1.0, 1e-9);
  EXPECT_NEAR(bins[6].accuracy, 0.0, 1e-9);  // predicted 0, label 1
  std::int64_t total = 0;
  for (const auto& b : bins) total += b.count;
  EXPECT_EQ(total, 3);
}

TEST(Metrics, AccuracyAndNll) {
  Tensor probs(Shape{2, 3}, {0.7f, 0.2f, 0.1f, 0.1f, 0.1f, 0.8f});
  Tensor labels(Shape{2}, {0.0f, 2.0f});
  EXPECT_NEAR(accuracy(probs, labels), 1.0, 1e-9);
  EXPECT_NEAR(nll(probs, labels),
              -(std::log(0.7) + std::log(0.8)) / 2.0, 1e-5);
  Tensor wrong_labels(Shape{2}, {1.0f, 2.0f});
  EXPECT_NEAR(accuracy(probs, wrong_labels), 0.5, 1e-9);
}

TEST(Metrics, EntropyExtremes) {
  Tensor uniform(Shape{1, 4}, {0.25f, 0.25f, 0.25f, 0.25f});
  Tensor peaked(Shape{1, 4}, {1.0f, 0.0f, 0.0f, 0.0f});
  EXPECT_NEAR(predictive_entropy(uniform)[0], std::log(4.0), 1e-5);
  EXPECT_NEAR(predictive_entropy(peaked)[0], 0.0, 1e-9);
}

TEST(Metrics, MaxProbability) {
  Tensor probs(Shape{2, 3}, {0.5f, 0.3f, 0.2f, 0.1f, 0.85f, 0.05f});
  auto mp = max_probability(probs);
  EXPECT_NEAR(mp[0], 0.5, 1e-6);
  EXPECT_NEAR(mp[1], 0.85, 1e-6);
}

TEST(Auroc, PerfectSeparation) {
  EXPECT_NEAR(auroc({0.9, 0.8, 0.7}, {0.3, 0.2, 0.1}), 1.0, 1e-9);
  EXPECT_NEAR(auroc({0.1, 0.2}, {0.8, 0.9}), 0.0, 1e-9);
}

TEST(Auroc, TiesAndOverlap) {
  // All equal scores: AUROC = 0.5 by tie convention.
  EXPECT_NEAR(auroc({0.5, 0.5}, {0.5, 0.5}), 0.5, 1e-9);
  // Hand-computable mix: pos {3, 1}, neg {2, 0}.
  // Pairs: (3>2),(3>0),(1<2),(1>0) -> 3/4.
  EXPECT_NEAR(auroc({3.0, 1.0}, {2.0, 0.0}), 0.75, 1e-9);
}

TEST(Auroc, RandomScoresNearHalf) {
  Generator gen(42);
  std::vector<double> a(2000), b(2000);
  for (auto& v : a) v = gen.uniform();
  for (auto& v : b) v = gen.uniform();
  EXPECT_NEAR(auroc(a, b), 0.5, 0.03);
}

TEST(EmpiricalCdf, StepsAndBounds) {
  std::vector<double> values{1.0, 2.0, 3.0, 4.0};
  auto cdf = empirical_cdf(values, {0.5, 1.0, 2.5, 4.0, 9.0});
  EXPECT_NEAR(cdf[0], 0.0, 1e-9);
  EXPECT_NEAR(cdf[1], 0.25, 1e-9);
  EXPECT_NEAR(cdf[2], 0.5, 1e-9);
  EXPECT_NEAR(cdf[3], 1.0, 1e-9);
  EXPECT_NEAR(cdf[4], 1.0, 1e-9);
}

TEST(Metrics, ValidationErrors) {
  Tensor probs(Shape{2, 2}, 0.5f);
  EXPECT_THROW(accuracy(probs, zeros({3})), Error);
  EXPECT_THROW(expected_calibration_error(zeros({4}), zeros({4})), Error);
  EXPECT_THROW(auroc({}, {1.0}), Error);
  EXPECT_THROW(calibration_curve(probs, zeros({2}), 0), Error);
  // Every labelled batch metric rejects an out-of-range label (above or
  // below) and an empty table, rather than counting it wrong or dividing
  // 0 by 0.
  const Tensor empty_probs(Shape{0, 2});
  const Tensor empty_labels(Shape{0});
  for (const Tensor& bad_labels : {Tensor(Shape{2}, {0.0f, 5.0f}),
                                   Tensor(Shape{2}, {-1.0f, 0.0f})}) {
    EXPECT_THROW(accuracy(probs, bad_labels), Error);
    EXPECT_THROW(nll(probs, bad_labels), Error);
    EXPECT_THROW(brier_score(probs, bad_labels), Error);
    EXPECT_THROW(calibration_curve(probs, bad_labels), Error);
    EXPECT_THROW(expected_calibration_error(probs, bad_labels), Error);
  }
  EXPECT_THROW(accuracy(empty_probs, empty_labels), Error);
  EXPECT_THROW(nll(empty_probs, empty_labels), Error);
  EXPECT_THROW(brier_score(empty_probs, empty_labels), Error);
  EXPECT_THROW(calibration_curve(empty_probs, empty_labels), Error);
  EXPECT_THROW(expected_calibration_error(empty_probs, empty_labels), Error);
}

TEST(Auroc, AllTiedScoresGiveHalf) {
  // Every comparison is a tie -> U counts half per pair -> exactly 0.5.
  EXPECT_EQ(auroc({0.3, 0.3, 0.3}, {0.3, 0.3}), 0.5);
}

TEST(Auroc, EmptySidesThrowEitherWay) {
  EXPECT_THROW(auroc({1.0}, {}), Error);
  EXPECT_THROW(auroc({}, {}), Error);
}

TEST(EmpiricalCdf, EmptyValuesThrow) {
  EXPECT_THROW(empirical_cdf({}, {0.0, 1.0}), Error);
}

TEST(Calibration, SingleBinConcentration) {
  // All four max-probs land in bin 7 of 10 ([0.7, 0.8)): one populated bin
  // with confidence mean 0.75 and accuracy 0.5, so ECE = |0.5 - 0.75|.
  Tensor probs(Shape{4, 2}, {0.72f, 0.28f, 0.74f, 0.26f, 0.76f, 0.24f, 0.78f,
                             0.22f});
  Tensor labels(Shape{4}, {1.0f, 0.0f, 0.0f, 1.0f});
  const auto bins = calibration_curve(probs, labels, 10);
  for (std::size_t b = 0; b < bins.size(); ++b) {
    EXPECT_EQ(bins[b].count, b == 7 ? 4 : 0);
  }
  EXPECT_DOUBLE_EQ(bins[7].accuracy, 0.5);
  EXPECT_DOUBLE_EQ(bins[7].confidence, 0.75);
  EXPECT_DOUBLE_EQ(expected_calibration_error(probs, labels, 10), 0.25);
}

TEST(Metrics, NllClampsZeroProbabilityTrueClass) {
  // p(true class) == 0 is clamped to 1e-12, keeping the NLL finite.
  Tensor probs(Shape{1, 2}, {1.0f, 0.0f});
  Tensor labels(Shape{1}, {1.0f});
  const double v = nll(probs, labels);
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_DOUBLE_EQ(v, -std::log(1e-12f));
}

TEST(Metrics, BrierScoreHandValue) {
  // Example 0, label 0: (0.8-1)^2 + 0.2^2 = 0.08.
  // Example 1, label 1: 0.7^2 + (0.3-1)^2 = 0.98. Mean = 0.53.
  Tensor probs(Shape{2, 2}, {0.8f, 0.2f, 0.7f, 0.3f});
  Tensor labels(Shape{2}, {0.0f, 1.0f});
  EXPECT_NEAR(brier_score(probs, labels), 0.53, 1e-6);
  // Perfect one-hot prediction scores 0; maximally wrong scores 2.
  Tensor onehot(Shape{1, 2}, {1.0f, 0.0f});
  EXPECT_DOUBLE_EQ(brier_score(onehot, zeros({1})), 0.0);
  Tensor wrong_label(Shape{1}, {1.0f});
  EXPECT_DOUBLE_EQ(brier_score(onehot, wrong_label), 2.0);
  Tensor bad_label(Shape{1}, {3.0f});
  EXPECT_THROW(brier_score(onehot, bad_label), Error);
}

class EceProperty : public ::testing::TestWithParam<int> {};

TEST_P(EceProperty, BoundedAndBinCountStable) {
  Generator gen(static_cast<std::uint64_t>(GetParam()));
  const std::int64_t n = 50, c = 5;
  Tensor logits = randn({n, c}, &gen);
  Tensor probs = softmax(logits, -1);
  Tensor labels = randint({n}, 0, c - 1, &gen);
  for (int bins : {5, 10, 20}) {
    const double ece = expected_calibration_error(probs, labels, bins);
    EXPECT_GE(ece, 0.0);
    EXPECT_LE(ece, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EceProperty, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace tx::metrics
