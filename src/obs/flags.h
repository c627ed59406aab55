// Shared observability command-line flags for benchmark binaries.
//
// The benches take these switches through bench::Session (bench/session.h):
//
//   --trace <path>     write a Chrome-trace timeline (obs/trace.h)
//   --diag <path>      write streaming inference diagnostics (obs/diag.h)
//   --prof             enable the kernel/churn profiler (obs/prof.h); the
//                      "prof" section lands inside the bench's BENCH_*.json
//   --pq               enable streaming predictive-quality telemetry
//                      (obs/pq.h); the "pq" section lands inside the bench's
//                      BENCH_*.json
//   --obs-http[=PORT]  serve live telemetry over HTTP (obs/live.h); bare
//                      --obs-http binds an ephemeral port
//   --watchdog         run the stall watchdog (obs/watchdog.h): forensic
//                      dump + 503 /healthz when the heartbeat goes stale
//
// parse_bench_flags recognizes them in one place (replacing per-bench
// copies), warns on a path flag with no path (last, or followed by another
// --flag) instead of silently dropping it, falls back to the TYXE_TRACE /
// TYXE_DIAG / TYXE_PROF / TYXE_PQ / TYXE_WATCHDOG / TYXE_OBS_HTTP env vars,
// switches the prof and pq streams on itself, and *strips* everything it
// consumed from argv so the remaining arguments can be handed to another
// parser (e.g. google benchmark) without "unrecognized flag" failures.
//
// It is also the benches' startup hook: it audits the environment for
// unrecognized TYXE_* variables (util/env.h) and captures the tx.manifest.v1
// run manifest (obs/manifest.h), so every bench gets both for free.
#pragma once

#include <string>

namespace tx::obs {

/// Resolved observability flags for one bench invocation.
struct BenchFlags {
  std::string trace_path;  ///< "" when tracing is off
  std::string diag_path;   ///< "" when diagnostics are off
  bool prof = false;       ///< profiler on (--prof or TYXE_PROF=1)
  bool pq = false;         ///< predictive-quality telemetry (--pq / TYXE_PQ=1)
  /// Live telemetry server port: -1 = off, 0 = bind an ephemeral port,
  /// otherwise the literal TCP port. From --obs-http[=PORT] or, when that
  /// flag is absent, TYXE_OBS_HTTP (""/"off"/"0" off, "auto" ephemeral,
  /// number = port).
  int http_port = -1;
  bool watchdog = false;  ///< stall watchdog (--watchdog / TYXE_WATCHDOG=1)
};

/// Parse the flags above out of argv (see file comment) and enable
/// obs::prof / obs::pq when asked. Consumed arguments are removed in place
/// and argc is updated; argv[0] and unrecognized arguments are preserved in
/// order.
BenchFlags parse_bench_flags(int& argc, char** argv);

}  // namespace tx::obs
