// Reproduces Figure 1 of the paper: Bayesian nonlinear regression on the
// Foong et al. (2019) setup, comparing (a) mean-field VI with local
// reparameterization, (b) the same posterior with shared weight samples, and
// (c) HMC. Prints the predictive mean and ±std band on a grid — the series
// behind the three panels — plus the in-between-uncertainty summary that
// distinguishes HMC from mean field (DESIGN.md, FIG1).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "core/tyxe.h"
#include "data/datasets.h"
#include "obs/obs.h"
#include "par/pool.h"
#include "ppl/diag.h"
#include "resil/fault.h"

using tx::Tensor;

namespace {

struct Band {
  std::vector<double> mean, std;
};

Band band_from(const Tensor& stacked, const tyxe::HomoskedasticGaussian& lik) {
  Band band;
  Tensor mean = tx::mean(stacked, {0});
  Tensor std = lik.predictive_std(stacked);
  for (std::int64_t i = 0; i < mean.numel(); ++i) {
    band.mean.push_back(mean.at(i));
    band.std.push_back(std.at(i));
  }
  return band;
}

/// Mean predictive std over a closed interval of the grid.
double mean_std_on(const Band& band, const Tensor& grid, double lo, double hi) {
  double total = 0.0;
  int count = 0;
  for (std::int64_t i = 0; i < grid.numel(); ++i) {
    if (grid.at(i) >= lo && grid.at(i) <= hi) {
      total += band.std[static_cast<std::size_t>(i)];
      ++count;
    }
  }
  return count > 0 ? total / count : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  // --seed <N> (default 0) seeds data, initialisation, VI and HMC; the shape
  // gate in CI sweeps several seeds, because one seed is not evidence.
  std::uint64_t seed = 0;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  tx::manual_seed(seed);
  tx::Generator gen(seed);
  std::printf("Figure 1 reproduction (seed %llu)\n",
              static_cast<unsigned long long>(seed));

  // Shared observability flags: --trace <path> records a Chrome-trace
  // timeline, --diag <path> streams inference health, --prof enables the
  // kernel roofline / allocator-churn profiler (its "prof" section lands in
  // BENCH_fig1_regression.json). Env fallbacks TYXE_TRACE/TYXE_DIAG/
  // TYXE_PROF. See docs/observability.md.
  const tx::obs::BenchFlags obs_flags = tx::obs::parse_bench_flags(argc, argv);
  const std::string& trace_path = obs_flags.trace_path;
  tx::obs::manifest::set_field("seed", static_cast<std::int64_t>(seed));

  // --obs-http[=PORT] / TYXE_OBS_HTTP: live telemetry for the whole run
  // (/metrics, /healthz, /snapshot, /manifest). Scraping is read-only, so
  // results stay bitwise-identical to a server-off run (CI enforces this).
  tx::obs::live::Server live_server({obs_flags.http_port, "fig1_regression"});
  if (obs_flags.http_port >= 0 && live_server.start()) {
    std::printf("obs-http: serving on http://127.0.0.1:%d\n",
                live_server.port());
  }
  if (!trace_path.empty()) {
    tx::obs::set_trace_thread_name("main");
    tx::obs::start_tracing();
  }
  // Every ppl sample/observe site becomes a timeline tick (no-op untraced).
  tx::ppl::TracingMessenger site_tracer;
  tx::ppl::HandlerScope site_scope(site_tracer);

  // --checkpoint-every <K> switches the VI fit onto the fault-tolerant
  // SVI::fit driver: a tx.ckpt.v1 checkpoint (--checkpoint <path>, default
  // fig1.ckpt) every K steps, resumed automatically when the file already
  // exists. A run interrupted mid-fit and re-launched with the same flags
  // produces bitwise-identical output to an uninterrupted one — see
  // docs/robustness.md. The printed vi_fit wall time quantifies the
  // checkpointing overhead against a flagless run.
  std::int64_t checkpoint_every = 0;
  std::string checkpoint_path = "fig1.ckpt";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--checkpoint-every" && i + 1 < argc) {
      checkpoint_every = std::atoll(argv[++i]);
    } else if (arg == "--checkpoint" && i + 1 < argc) {
      checkpoint_path = argv[++i];
    }
  }
  // Resilient and watchdog runs opt into the TYXE_FAULT injection harness,
  // so CI can exercise NaN-gradient rollback, failed-checkpoint-write
  // handling, and stall detection on this exact workload (fault plans are
  // inert without the env var).
  if ((checkpoint_every > 0 || obs_flags.watchdog) &&
      tx::fault::install_from_env()) {
    std::printf("fault plan installed from TYXE_FAULT\n");
  }

  // --watchdog / TYXE_WATCHDOG: monitor the driver heartbeat for the whole
  // run; a stall (TYXE_HEALTH_STALE_S) produces a tx.diag.forensic.v1 dump
  // and flips /healthz to 503 until the heartbeat recovers. A short poll
  // interval keeps the CI guard leg (sub-second thresholds) responsive.
  tx::obs::Watchdog watchdog(
      {tx::obs::live::default_staleness_seconds(),
       /*poll_interval_seconds=*/0.1, /*escalate_cancel=*/false});
  if (obs_flags.watchdog) {
    watchdog.start();
    std::printf("watchdog: monitoring heartbeat (stale after %.1fs)\n",
                tx::obs::live::default_staleness_seconds());
  }

  // Diagnostics (per-site variational drift/KL, gradient SNR, per-site
  // R̂/ESS and divergence blame for HMC) into a tx.diag.v1 snapshot.
  const std::string& diag_path = obs_flags.diag_path;
  tx::ppl::DiagnosticsMessenger diag_messenger;
  std::optional<tx::ppl::HandlerScope> diag_scope;
  if (!diag_path.empty()) {
    tx::obs::diag::set_enabled(true);
    diag_scope.emplace(diag_messenger);
  }

  if (!trace_path.empty()) {
    // Fig 1's MLP (1-50-1, batch 64) sits below the kernel fan-out
    // thresholds, so the model run alone would leave the per-worker tracks
    // empty. Run one labeled big matmul forward+backward over 4 threads so
    // the exported trace always demonstrates pool-worker attribution. A
    // private generator keeps the bench's own numbers untouched.
    tx::obs::ScopedTimer span("trace.kernel_preamble");
    const int prev_threads = tx::par::num_threads();
    tx::par::set_num_threads(std::max(4, prev_threads));
    tx::Generator pre_gen(123);
    Tensor a = tx::randn({256, 256}, &pre_gen).set_requires_grad(true);
    Tensor b = tx::randn({256, 256}, &pre_gen);
    tx::sum(tx::matmul(a, b)).backward();
    tx::par::set_num_threads(prev_threads);
  }

  // Observability: per-step VI losses and per-transition HMC acceptance
  // stream as JSONL; the registry snapshot (loss series + timing histograms)
  // is written as BENCH_fig1_regression.json at the end.
  tx::obs::EventSink sink("BENCH_fig1_regression.jsonl");
  std::vector<double> vi_losses, hmc_accepts;

  const std::int64_t n = 64;
  auto data = tx::data::make_foong_regression(n, gen);
  Tensor grid = tx::linspace(-1.5f, 1.5f, 41).reshape({41, 1});

  auto make_bnn = [&](tx::Generator& g) {
    auto net = tx::nn::make_mlp({1, 50, 1}, "tanh", &g);
    auto lik = std::make_shared<tyxe::HomoskedasticGaussian>(n, 0.1f);
    auto prior = std::make_shared<tyxe::IIDPrior>(
        std::make_shared<tx::dist::Normal>(0.0f, 1.0f));
    return std::make_pair(
        std::make_shared<tyxe::VariationalBNN>(
            net, prior, lik, tyxe::guides::auto_normal_factory()),
        lik);
  };

  // (a) mean-field VI trained with local reparameterization.
  auto [bnn, lik] = make_bnn(gen);
  bnn->set_step_callback([&](const tx::infer::SVIStepInfo& s) {
    vi_losses.push_back(s.loss);
    tx::obs::Event e;
    e.set("phase", "vi")
        .set("step", s.step)
        .set("loss", s.loss)
        .set("grad_norm", s.grad_norm)
        .set("seconds", s.seconds);
    sink.emit(e);
  });
  tx::Generator vi_gen(seed + 2);
  tx::infer::FitReport ckpt_report;
  double vi_seconds = 0.0;
  {
    tx::obs::ScopedTimer span("fig1.vi_fit");
    const auto t0 = std::chrono::steady_clock::now();
    tyxe::poutine::LocalReparameterization lr;
    auto optim = std::make_shared<tx::infer::Adam>(1e-2);
    if (checkpoint_every > 0) {
      // Resumable runs pin all fit-time sampling to a private generator so
      // the RNG stream is part of the checkpoint (docs/robustness.md).
      bnn->set_generator(&vi_gen);
      tx::infer::RetryPolicy policy;
      policy.checkpoint_path = checkpoint_path;
      policy.checkpoint_every = checkpoint_every;
      ckpt_report = bnn->fit({{{data.x}, data.y}}, optim, 2000, policy);
    } else {
      bnn->fit({{{data.x}, data.y}}, optim, 2000);
    }
    vi_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  Band lr_band, shared_band;
  {
    // Fig 1(a): predictions also drawn under local reparameterization —
    // per-point output samples.
    tyxe::poutine::LocalReparameterization lr;
    lr_band = band_from(bnn->predict(grid, 64, false), *lik);
  }
  // Fig 1(b): same posterior, same bnn object, shared weight samples —
  // just dedent the predict call out of the context.
  shared_band = band_from(bnn->predict(grid, 64, false), *lik);

  // (c) HMC on the same model.
  tx::Generator hmc_gen(seed + 1);
  auto hmc_net = tx::nn::make_mlp({1, 50, 1}, "tanh", &hmc_gen);
  auto hmc_lik = std::make_shared<tyxe::HomoskedasticGaussian>(n, 0.1f);
  tyxe::MCMC_BNN hmc_bnn(
      hmc_net,
      std::make_shared<tyxe::IIDPrior>(std::make_shared<tx::dist::Normal>(0.0f, 1.0f)),
      hmc_lik, [] { return std::make_shared<tx::infer::HMC>(5e-4, 30); });
  {
    tx::obs::ScopedTimer span("fig1.hmc_fit");
    hmc_bnn.fit({data.x}, data.y, /*num_samples=*/200, /*warmup=*/200,
                &hmc_gen, [&](const tx::infer::MCMCProgress& p) {
                  hmc_accepts.push_back(p.accept_prob);
                  tx::obs::Event e;
                  e.set("phase", p.warmup ? "hmc_warmup" : "hmc_sampling")
                      .set("step", p.step)
                      .set("accept_prob", p.accept_prob)
                      .set("mean_accept_prob", p.mean_accept_prob)
                      .set("divergences", p.divergences)
                      .set("seconds", p.seconds);
                  sink.emit(e);
                });
  }
  Band hmc_band = band_from(hmc_bnn.predict(grid, 64, false), *hmc_lik);

  std::printf("\n%8s | %9s %9s | %9s %9s | %9s %9s\n", "x", "LR mean",
              "LR std", "SW mean", "SW std", "HMC mean", "HMC std");
  for (std::int64_t i = 0; i < grid.numel(); ++i) {
    const auto u = static_cast<std::size_t>(i);
    std::printf("%8.3f | %9.4f %9.4f | %9.4f %9.4f | %9.4f %9.4f\n",
                grid.at(i), lr_band.mean[u], lr_band.std[u],
                shared_band.mean[u], shared_band.std[u], hmc_band.mean[u],
                hmc_band.std[u]);
  }

  // Shape checks mirroring the figure: uncertainty grows in the data gap
  // (-0.7, 0.5) and outside the data, and HMC shows the largest in-between
  // uncertainty (the Foong et al. observation).
  const double lr_gap = mean_std_on(lr_band, grid, -0.5, 0.3);
  const double lr_data = mean_std_on(lr_band, grid, -1.0, -0.7);
  const double hmc_gap = mean_std_on(hmc_band, grid, -0.5, 0.3);
  const double hmc_data = mean_std_on(hmc_band, grid, -1.0, -0.7);
  std::printf("\nsummary:\n");
  std::printf("  VI  std: data region %.3f, gap %.3f (ratio %.2f)\n", lr_data,
              lr_gap, lr_gap / lr_data);
  std::printf("  HMC std: data region %.3f, gap %.3f (ratio %.2f)\n", hmc_data,
              hmc_gap, hmc_gap / hmc_data);
  std::printf("  HMC acceptance %.2f\n", hmc_bnn.mcmc().mean_accept_prob());
  std::printf("  VI fit wall time %.3f s\n", vi_seconds);
  if (checkpoint_every > 0) {
    std::printf(
        "  checkpointing: every %lld steps -> %s (%lld snapshots, %lld "
        "rollbacks%s%s)\n",
        static_cast<long long>(checkpoint_every), checkpoint_path.c_str(),
        static_cast<long long>(ckpt_report.checkpoints),
        static_cast<long long>(ckpt_report.rollbacks),
        ckpt_report.resumed ? ", resumed" : "",
        ckpt_report.checkpoint_failures > 0 ? ", WRITE FAILURES" : "");
  }
  std::printf("  paper shape: both inflate uncertainty off-data; HMC's "
              "in-between band is widest.\n");
  // The figure's claim as two gauges: scripts/fig1_shape_gate.py fails a
  // seed sweep unless HMC's gap/data ratio exceeds VI's at every seed.
  tx::obs::registry().gauge("fig1.vi_gap_data_ratio").set(lr_gap / lr_data);
  tx::obs::registry().gauge("fig1.hmc_gap_data_ratio").set(hmc_gap / hmc_data);

  {
    tx::obs::Event e;
    e.set("event", "summary")
        .set("vi_gap_std", lr_gap)
        .set("vi_data_std", lr_data)
        .set("hmc_gap_std", hmc_gap)
        .set("hmc_data_std", hmc_data)
        .set("hmc_mean_accept", hmc_bnn.mcmc().mean_accept_prob())
        .set("hmc_divergences", hmc_bnn.mcmc().divergence_count())
        .set("vi_fit_seconds", vi_seconds)
        .set("checkpoint_every", checkpoint_every)
        .set("checkpoints", ckpt_report.checkpoints)
        .set("checkpoint_rollbacks", ckpt_report.rollbacks)
        .set("resumed", ckpt_report.resumed ? 1 : 0);
    sink.emit(e);
  }
  tx::obs::EventSink::write_snapshot(
      "BENCH_fig1_regression.json", "fig1_regression", tx::obs::registry(),
      {{"vi_loss", vi_losses}, {"hmc_accept_prob", hmc_accepts}});
  std::printf("  events:  %s (%lld lines)\n", sink.path().c_str(),
              static_cast<long long>(sink.events_written()));
  std::printf("  metrics: BENCH_fig1_regression.json\n");
  if (obs_flags.prof) {
    std::int64_t flops = 0;
    for (const auto& [name, ks] : tx::obs::prof::kernel_table()) {
      flops += ks.flops;
    }
    const std::int64_t window = tx::obs::prof::window_allocated_bytes();
    const double coverage =
        window > 0 ? 100.0 * static_cast<double>(
                                 tx::obs::prof::attributed_bytes()) /
                         static_cast<double>(window)
                   : 100.0;
    std::printf("  prof:    %zu kernels, %.3f GFLOP, churn coverage %.1f%%\n",
                tx::obs::prof::kernel_table().size(),
                static_cast<double>(flops) / 1e9, coverage);
  }
  if (!diag_path.empty()) {
    const bool ok = tx::obs::diag::write_snapshot(diag_path, "fig1_regression");
    std::printf("  diag:    %s (%lld records, %lld nan trips)%s\n",
                diag_path.c_str(),
                static_cast<long long>(tx::obs::diag::records()),
                static_cast<long long>(tx::obs::diag::nan_trips()),
                ok ? "" : " [WRITE FAILED]");
    if (!ok) return 1;
  }
  if (!trace_path.empty()) {
    tx::obs::stop_tracing();
    const bool ok = tx::obs::write_trace(trace_path);
    std::printf("  trace:   %s (%lld events, %lld dropped, %lld ppl sites)%s\n",
                trace_path.c_str(),
                static_cast<long long>(tx::obs::trace_event_count()),
                static_cast<long long>(tx::obs::trace_dropped_count()),
                static_cast<long long>(site_tracer.sites_traced()),
                ok ? "" : " [WRITE FAILED]");
    if (!ok) return 1;
  }
  return 0;
}
