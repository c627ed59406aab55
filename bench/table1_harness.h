// Shared harness for Table 1 and Figure 2: trains a ResNet on the synthetic
// CIFAR analogue under each of the paper's six inference strategies (ML, MAP,
// MF sd-only, MF, last-layer MF, last-layer low-rank) and collects predictive
// probabilities on the test and OOD sets.
#pragma once

#include <string>
#include <vector>

#include "core/tyxe.h"
#include "data/datasets.h"

namespace bench {

struct Table1Config {
  std::int64_t num_classes = 10;
  std::int64_t per_class_train = 40;
  std::int64_t per_class_test = 20;
  std::int64_t num_ood = 200;
  std::int64_t image_size = 16;
  std::int64_t base_width = 8;
  float noise = 1.3f;  // tuned so ML lands at ~94% test accuracy (the paper regime)
  int ml_epochs = 80;  // long enough for ML to become (over)confident
  int map_epochs = 15;
  int vi_epochs = 15;
  int num_pred_samples = 16;
  std::int64_t batch_size = 64;
  std::uint64_t seed = 0;
  // Observability output: per-step loss events stream to `events_path`
  // (JSONL) and the final registry snapshot (timing histograms + per-strategy
  // loss series) lands in `metrics_path`. Empty strings disable either.
  std::string metrics_path = "BENCH_table1_harness.json";
  std::string events_path = "BENCH_table1_harness.jsonl";
};

struct StrategyResult {
  std::string name;
  double nll = 0.0;
  double accuracy = 0.0;
  double ece = 0.0;
  double ood_auroc = 0.0;
  tx::Tensor test_probs;  // (N_test, classes)
  tx::Tensor ood_probs;   // (N_ood, classes)
};

struct Table1Run {
  std::vector<StrategyResult> strategies;
  tx::Tensor test_labels;
  bool metrics_written = true;  // false: metrics_path could not be written
};

/// Runs the full experiment. Strategy order matches the paper's Table 1.
Table1Run run_table1(const Table1Config& config);

}  // namespace bench
