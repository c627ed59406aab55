// bench::Session — the one place the shared bench flags (obs/flags.h) take
// effect. A bench main constructs one first and ends with
// `return session.finish() ? 0 : 1;`. Like a poutine handler it wraps the
// bench without the bench's code knowing: tracing and diagnostics ride on
// messengers it keeps on the caller's handler stack for its lifetime.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/flags.h"
#include "obs/live.h"
#include "obs/watchdog.h"
#include "ppl/diag.h"
#include "ppl/handlers.h"

namespace bench {

class Session {
 public:
  /// Parses and strips the shared flags, starts the --obs-http server, and
  /// under --trace / --diag / --watchdog starts tracing under a
  /// TracingMessenger, turns diagnostics on under a DiagnosticsMessenger,
  /// and starts the watchdog (TYXE_HEALTH_STALE_S, 0.1 s poll, no cancel).
  Session(int& argc, char** argv, std::string bench_name);

  const tx::obs::BenchFlags& flags() const { return flags_; }
  bool watchdog_running() const { return watchdog_.running(); }

  /// Stops the watchdog, prints the --prof summary, writes the --diag
  /// snapshot, then stops tracing and writes the --trace timeline. False if
  /// a write failed.
  bool finish();

 private:
  tx::obs::BenchFlags flags_;
  std::string bench_name_;
  tx::obs::live::Server server_;
  tx::ppl::TracingMessenger tracer_;
  tx::ppl::DiagnosticsMessenger diagnostics_;
  std::optional<tx::ppl::HandlerScope> trace_scope_, diag_scope_;
  tx::obs::Watchdog watchdog_;
};

/// obs::EventSink::write_snapshot of the global registry; a failed write is
/// named on stderr.
bool write_snapshot(
    const std::string& path, const std::string& bench_name,
    const std::map<std::string, std::vector<double>>& series = {});

}  // namespace bench
