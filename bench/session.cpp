#include "session.h"

#include <cstdio>
#include <utility>

#include "obs/diag.h"
#include "obs/event_sink.h"
#include "obs/prof.h"
#include "obs/trace.h"

namespace bench {

namespace obs = tx::obs;

Session::Session(int& argc, char** argv, std::string bench_name)
    : flags_(obs::parse_bench_flags(argc, argv)),
      bench_name_(std::move(bench_name)),
      server_({flags_.http_port, bench_name_}),
      // A short poll keeps sub-second stall thresholds responsive.
      watchdog_({obs::live::default_staleness_seconds(), 0.1, false}) {
  if (flags_.http_port >= 0 && server_.start()) {
    std::printf("obs-http: serving on http://127.0.0.1:%d\n", server_.port());
  }
  if (!flags_.trace_path.empty()) {
    obs::set_trace_thread_name("main");
    obs::start_tracing();
    trace_scope_.emplace(tracer_);
  }
  if (!flags_.diag_path.empty()) {
    obs::diag::set_enabled(true);
    diag_scope_.emplace(diagnostics_);
  }
  if (flags_.watchdog) {
    watchdog_.start();
    std::printf("watchdog: monitoring heartbeat (stale after %.1fs)\n",
                obs::live::default_staleness_seconds());
  }
}

bool Session::finish() {
  watchdog_.stop();
  if (flags_.prof) {
    const auto kernels = obs::prof::kernel_table();
    std::int64_t flops = 0;
    for (const auto& [name, ks] : kernels) flops += ks.flops;
    const auto window = static_cast<double>(obs::prof::window_allocated_bytes());
    const double coverage =
        window > 0 ? 100.0 * static_cast<double>(obs::prof::attributed_bytes()) /
                         window
                   : 100.0;
    std::printf("  prof:    %zu kernels, %.3f GFLOP, churn coverage %.1f%%\n",
                kernels.size(), static_cast<double>(flops) / 1e9, coverage);
  }
  bool ok = true;
  if (!flags_.diag_path.empty()) {
    const bool wrote = obs::diag::write_snapshot(flags_.diag_path, bench_name_);
    std::printf("  diag:    %s (%lld records, %lld nan trips)%s\n",
                flags_.diag_path.c_str(),
                static_cast<long long>(obs::diag::records()),
                static_cast<long long>(obs::diag::nan_trips()),
                wrote ? "" : " [WRITE FAILED]");
    ok = ok && wrote;
  }
  if (!flags_.trace_path.empty()) {
    obs::stop_tracing();
    const bool wrote = obs::write_trace(flags_.trace_path);
    std::printf("  trace:   %s (%lld events, %lld dropped, %lld ppl sites)%s\n",
                flags_.trace_path.c_str(),
                static_cast<long long>(obs::trace_event_count()),
                static_cast<long long>(obs::trace_dropped_count()),
                static_cast<long long>(tracer_.sites_traced()),
                wrote ? "" : " [WRITE FAILED]");
    ok = ok && wrote;
  }
  return ok;
}

bool write_snapshot(const std::string& path, const std::string& bench_name,
                    const std::map<std::string, std::vector<double>>& series) {
  const bool ok =
      obs::EventSink::write_snapshot(path, bench_name, obs::registry(), series);
  if (!ok) {
    std::fprintf(stderr, "%s: snapshot write failed: %s\n",
                 bench_name.c_str(), path.c_str());
  }
  return ok;
}

}  // namespace bench
