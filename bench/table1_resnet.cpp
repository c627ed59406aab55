// Reproduces Table 1 of the paper: Bayesian ResNet predictive performance
// (NLL / Accuracy / ECE / OOD-AUROC) for six inference strategies, on the
// synthetic CIFAR analogue (DESIGN.md, TAB1). Absolute numbers differ from
// the paper (different data, CPU-scale network); the orderings are what is
// reproduced — see EXPERIMENTS.md.
#include <cstdio>

#include "obs/flags.h"
#include "obs/live.h"
#include "obs/manifest.h"
#include "table1_harness.h"
#include "util/table.h"

int main(int argc, char** argv) {
  // Shared observability switches (--trace/--diag/--prof/--pq/--obs-http),
  // same surface as fig1/fig2/par_scaling. parse_bench_flags also switches
  // prof/pq on, audits TYXE_* env vars and freezes the run manifest.
  const tx::obs::BenchFlags obs_flags = tx::obs::parse_bench_flags(argc, argv);
  tx::obs::live::Server live_server({obs_flags.http_port, "table1_resnet"});
  if (obs_flags.http_port >= 0 && live_server.start()) {
    std::printf("obs-http: serving on http://127.0.0.1:%d\n",
                live_server.port());
  }

  bench::Table1Config cfg;
  tx::obs::manifest::set_field("seed", static_cast<std::int64_t>(cfg.seed));
  std::printf("Table 1 reproduction (seed %llu): ResNet-8/width %lld on "
              "synthetic CIFAR-10 analogue\n",
              static_cast<unsigned long long>(cfg.seed),
              static_cast<long long>(cfg.base_width));
  auto run = bench::run_table1(cfg);

  tx::Table table({"Inference", "NLL(down)", "Acc(up, %)", "ECE(down, %)", "OOD(up)"});
  for (const auto& s : run.strategies) {
    table.add_row({s.name, tx::Table::fmt(s.nll, 2),
                   tx::Table::fmt(100.0 * s.accuracy, 2),
                   tx::Table::fmt(100.0 * s.ece, 2),
                   tx::Table::fmt(s.ood_auroc, 2)});
  }
  table.print("\nBayesian ResNet predictive performance (paper Table 1):");

  std::printf("\nPaper (CIFAR10/ResNet-18, for shape comparison):\n"
              "  ML   0.33 / 94.29 / 4.10 / 0.78\n"
              "  MAP  0.29 / 92.14 / 4.44 / 0.82\n"
              "  MF(sd only) 0.27 / 93.66 / 3.14 / 0.93\n"
              "  MF   0.20 / 93.28 / 0.97 / 0.94\n"
              "  LL MF 0.35 / 93.36 / 3.62 / 0.89\n"
              "  LL low rank 0.34 / 93.31 / 3.75 / 0.89\n");
  return 0;
}
