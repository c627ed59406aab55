// tx::par scaling benchmark: wall-time of the two acceptance-criterion hot
// paths — a 512x512 matmul and a 4-chain MCMC run — at 1 vs 4 threads, plus
// a bitwise determinism cross-check between the two thread counts. Writes
// BENCH_par_scaling.json in the tx.obs.v1 snapshot schema.
//
// On single-core machines the speedup gauges will sit near (or below) 1.0;
// the determinism gauge must be 1.0 everywhere.
#include <cstdio>
#include <memory>
#include <vector>

#include "dist/distributions.h"
#include "infer/infer.h"
#include "obs/obs.h"
#include "par/par.h"
#include "ppl/ppl.h"

using tx::Tensor;

namespace {

/// Best-of-`reps` wall time of fn().
template <typename Fn>
double time_best(int reps, Fn fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = tx::obs::now_seconds();
    fn();
    const double dt = tx::obs::now_seconds() - t0;
    if (dt < best) best = dt;
  }
  return best;
}

std::vector<double> run_chains() {
  tx::infer::Program model = [] {
    Tensor z = tx::ppl::sample(
        "z", std::make_shared<tx::dist::Normal>(tx::zeros({8}), tx::ones({8})));
    tx::ppl::sample("obs",
                    std::make_shared<tx::dist::Normal>(z, Tensor::scalar(0.5f)),
                    tx::ones({8}));
  };
  tx::Generator gen(0);
  tx::infer::MCMC mcmc([] { return std::make_shared<tx::infer::HMC>(0.1, 10); },
                       /*num_samples=*/100, /*warmup_steps=*/50,
                       /*num_chains=*/4);
  mcmc.run(model, &gen);
  return mcmc.coordinate_chain(0);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("== par_scaling: tx::par hot paths at 1 vs 4 threads ==\n");
  auto& reg = tx::obs::registry();

  // --trace <path> (or TYXE_TRACE) records the whole comparison as a Chrome
  // trace: matmul slices with shape/FLOP args, par-worker chunk tracks, and
  // per-chain mcmc.chain / mcmc.step slices. --prof (or TYXE_PROF) adds the
  // kernel roofline / churn "prof" section to BENCH_par_scaling.json.
  const tx::obs::BenchFlags obs_flags = tx::obs::parse_bench_flags(argc, argv);
  const std::string& trace_path = obs_flags.trace_path;
  if (!trace_path.empty()) {
    tx::obs::set_trace_thread_name("main");
    tx::obs::start_tracing();
  }
  tx::obs::manifest::set_field("seed", std::int64_t{0});

  // --obs-http[=PORT] / TYXE_OBS_HTTP: live telemetry for the whole run
  // (/metrics, /healthz, /snapshot, /manifest); read-only, so the bitwise
  // determinism checks below hold with the server on or off.
  tx::obs::live::Server live_server({obs_flags.http_port, "par_scaling"});
  if (obs_flags.http_port >= 0 && live_server.start()) {
    std::printf("obs-http: serving on http://127.0.0.1:%d\n",
                live_server.port());
  }

  // --- 512x512 matmul.
  tx::Generator gen(0);
  const Tensor a = tx::randn({512, 512}, &gen);
  const Tensor b = tx::randn({512, 512}, &gen);
  tx::NoGradGuard ng;
  tx::par::set_num_threads(1);
  (void)tx::matmul(a, b);  // warm the pool/pages outside the timer
  const double mm_1t = time_best(5, [&] { (void)tx::matmul(a, b); });
  const std::vector<float> mm_ref = tx::matmul(a, b).to_vector();
  tx::par::set_num_threads(4);
  (void)tx::matmul(a, b);
  const double mm_4t = time_best(5, [&] { (void)tx::matmul(a, b); });
  const bool mm_same = tx::matmul(a, b).to_vector() == mm_ref;
  std::printf("  matmul 512x512: %.4fs @1t, %.4fs @4t, speedup %.2fx, "
              "bitwise %s\n",
              mm_1t, mm_4t, mm_1t / mm_4t, mm_same ? "same" : "DIFFERENT");

  // --- 4-chain MCMC.
  tx::par::set_num_threads(1);
  const std::vector<double> chain_ref = run_chains();
  const double mc_1t = time_best(2, [] { (void)run_chains(); });
  tx::par::set_num_threads(4);
  const double mc_4t = time_best(2, [] { (void)run_chains(); });
  const bool mc_same = run_chains() == chain_ref;
  std::printf("  mcmc 4 chains:  %.4fs @1t, %.4fs @4t, speedup %.2fx, "
              "bitwise %s\n",
              mc_1t, mc_4t, mc_1t / mc_4t, mc_same ? "same" : "DIFFERENT");

  reg.gauge("par_scaling.matmul.seconds_1t").set(mm_1t);
  reg.gauge("par_scaling.matmul.seconds_4t").set(mm_4t);
  reg.gauge("par_scaling.matmul.speedup").set(mm_1t / mm_4t);
  reg.gauge("par_scaling.mcmc.seconds_1t").set(mc_1t);
  reg.gauge("par_scaling.mcmc.seconds_4t").set(mc_4t);
  reg.gauge("par_scaling.mcmc.speedup").set(mc_1t / mc_4t);
  reg.gauge("par_scaling.deterministic").set(mm_same && mc_same ? 1.0 : 0.0);

  tx::obs::EventSink::write_snapshot(
      "BENCH_par_scaling.json", "par_scaling", reg,
      {{"matmul_seconds", {mm_1t, mm_4t}}, {"mcmc_seconds", {mc_1t, mc_4t}}});
  std::printf("  metrics: BENCH_par_scaling.json\n");
  if (!trace_path.empty()) {
    tx::obs::stop_tracing();
    const bool ok = tx::obs::write_trace(trace_path);
    std::printf("  trace:   %s (%lld events, %lld dropped)%s\n",
                trace_path.c_str(),
                static_cast<long long>(tx::obs::trace_event_count()),
                static_cast<long long>(tx::obs::trace_dropped_count()),
                ok ? "" : " [WRITE FAILED]");
    if (!ok) return 1;
  }
  return (mm_same && mc_same) ? 0 : 1;
}
