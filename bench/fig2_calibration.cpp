// Reproduces Figure 2 of the paper: calibration curves and empirical CDFs of
// the predictive entropy on test vs OOD data, per inference strategy. Shares
// the training harness with table1_resnet (DESIGN.md, FIG2).
#include <cstdio>
#include <optional>

#include "metrics/metrics.h"
#include "obs/diag.h"
#include "obs/flags.h"
#include "obs/live.h"
#include "obs/manifest.h"
#include "obs/pq.h"
#include "ppl/diag.h"
#include "ppl/messenger.h"
#include "table1_harness.h"

int main(int argc, char** argv) {
  // --diag <path> (or TYXE_DIAG) streams inference health across every
  // strategy's SVI fit into one tx.diag.v1 snapshot (the snapshot's step
  // indices are the global diag sequence, so restarts between strategies
  // keep them monotone). --prof adds the kernel roofline / churn section to
  // the metrics snapshot. --pq streams predictive-quality telemetry (online
  // calibration / uncertainty decomposition / OOD scores) from the predict
  // path into a "pq" section and live pq.* metrics. See
  // docs/observability.md.
  const tx::obs::BenchFlags obs_flags = tx::obs::parse_bench_flags(argc, argv);
  const std::string& diag_path = obs_flags.diag_path;

  // --obs-http[=PORT] / TYXE_OBS_HTTP: live telemetry for the whole run
  // (/metrics, /healthz, /snapshot, /manifest); read-only, so results stay
  // bitwise-identical to a server-off run.
  tx::obs::live::Server live_server({obs_flags.http_port, "fig2_calibration"});
  if (obs_flags.http_port >= 0 && live_server.start()) {
    std::printf("obs-http: serving on http://127.0.0.1:%d\n",
                live_server.port());
  }

  tx::ppl::DiagnosticsMessenger diag_messenger;
  std::optional<tx::ppl::HandlerScope> diag_scope;
  if (!diag_path.empty()) {
    tx::obs::diag::set_enabled(true);
    diag_scope.emplace(diag_messenger);
  }

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
  if (obs_flags.pq) {
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
  if (!diag_path.empty()) {
    const bool ok =
        tx::obs::diag::write_snapshot(diag_path, "fig2_calibration");
    std::printf("diag: %s (%lld records, %lld nan trips)%s\n",
                diag_path.c_str(),
                static_cast<long long>(tx::obs::diag::records()),
                static_cast<long long>(tx::obs::diag::nan_trips()),
                ok ? "" : " [WRITE FAILED]");
    if (!ok) return 1;
  }
  return 0;
}
