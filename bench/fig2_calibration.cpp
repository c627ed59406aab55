// Reproduces Figure 2 of the paper: calibration curves and empirical CDFs of
// the predictive entropy on test vs OOD data, per inference strategy. Shares
// the training harness with table1_resnet (DESIGN.md, FIG2).
#include <cstdio>

#include "metrics/metrics.h"
#include "obs/manifest.h"
#include "obs/pq.h"
#include "session.h"
#include "table1_harness.h"

int main(int argc, char** argv) {
  // Shared observability flags (bench/session.h, docs/observability.md).
  // One --diag snapshot spans every strategy's fit (monotone global steps).
  bench::Session session(argc, argv, "fig2_calibration");

  bench::Table1Config cfg;
  // A slightly lighter run than Table 1: the curves need the probability
  // tables, not tight estimates of scalar metrics.
  cfg.num_pred_samples = 8;
  cfg.metrics_path = "BENCH_fig2_calibration.json";
  cfg.events_path = "BENCH_fig2_calibration.jsonl";
  tx::obs::manifest::set_field("seed", static_cast<std::int64_t>(cfg.seed));
  std::printf("Figure 2 reproduction (seed %llu)\n",
              static_cast<unsigned long long>(cfg.seed));
  auto run = bench::run_table1(cfg);
  if (!run.metrics_written) return 1;

  std::printf("\n-- Calibration curves (10 bins; paper Fig. 2 top row) --\n");
  for (const auto& s : run.strategies) {
    std::printf("\n%s:\n  %10s %12s %10s %8s\n", s.name.c_str(), "bin",
                "confidence", "accuracy", "count");
    auto bins = tx::metrics::calibration_curve(s.test_probs, run.test_labels, 10);
    for (std::size_t b = 0; b < bins.size(); ++b) {
      if (bins[b].count == 0) continue;
      std::printf("  [%.1f,%.1f) %12.3f %10.3f %8lld\n",
                  0.1 * static_cast<double>(b),
                  0.1 * static_cast<double>(b + 1), bins[b].confidence,
                  bins[b].accuracy, static_cast<long long>(bins[b].count));
    }
  }

  std::printf("\n-- Empirical CDF of predictive entropy (paper Fig. 2 bottom "
              "row) --\n");
  const double max_h = std::log(10.0);
  std::vector<double> points;
  for (int i = 0; i <= 10; ++i) points.push_back(max_h * i / 10.0);
  std::printf("%-14s", "entropy");
  for (double p : points) std::printf(" %6.2f", p);
  std::printf("\n");
  for (const auto& s : run.strategies) {
    auto cdf_of = [&](const tx::Tensor& probs, const char* split) {
      auto cdf = tx::metrics::empirical_cdf(
          tx::metrics::predictive_entropy(probs), points);
      std::printf("%-9s %-4s", s.name.substr(0, 9).c_str(), split);
      for (double v : cdf) std::printf(" %6.2f", v);
      std::printf("\n");
    };
    cdf_of(s.test_probs, "test");
    cdf_of(s.ood_probs, "ood");
  }

  std::printf("\nShape to verify against the paper: Bayesian strategies shift "
              "OOD entropy CDFs right (more uncertainty on OOD)\nand MF gives "
              "the best-matching calibration curve (closest to the "
              "diagonal).\n");
  if (session.flags().pq) {
    std::printf("\n-- Streaming predictive quality (tx.pq.v1; binned OOD "
                "AUROC) --\n");
    for (const auto& s : run.strategies) {
      const std::string stream = s.name + "/test";
      std::printf("  %-14s ece %.4f  nll %.4f  acc %.4f  brier %.4f  "
                  "ood_auroc %.4f\n",
                  s.name.c_str(), tx::obs::pq::streaming_ece(stream),
                  tx::obs::pq::streaming_nll(stream),
                  tx::obs::pq::streaming_accuracy(stream),
                  tx::obs::pq::streaming_brier(stream),
                  tx::obs::pq::ood_auroc(stream, s.name + "/ood"));
    }
  }
  return session.finish() ? 0 : 1;
}
