#include "util/env.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>

extern char** environ;

namespace tx::env {

const std::vector<Var>& known_vars() {
  static const std::vector<Var> vars = {
      {"TYXE_ARENA", "on",
       "per-step buffer-recycling arena for autograd temporaries (off "
       "disables)"},
      {"TYXE_DIAG", "",
       "path for the tx.diag.v1 inference-health snapshot (enables diag)"},
      {"TYXE_FAULT", "",
       "deterministic fault-injection plan (resil harness; inert when unset)"},
      {"TYXE_HEALTH_STALE_S", "30",
       "heartbeat age in seconds before /healthz reports stale (also the "
       "watchdog stall threshold)"},
      {"TYXE_NUM_THREADS", "hardware",
       "tx::par pool size; results are bitwise-identical at every count"},
      {"TYXE_OBS_HTTP", "",
       "live telemetry HTTP port (/metrics, /healthz, /snapshot, /manifest); "
       "off|0 disables, auto = ephemeral"},
      {"TYXE_PQ", "0",
       "enable streaming predictive-quality telemetry (tx::obs::pq)"},
      {"TYXE_PROF", "0",
       "enable the kernel roofline / allocator-churn profiler"},
      {"TYXE_SANITIZE", "",
       "sanitizer preset consumed by CMake at configure time "
       "(address|thread|undefined)", /*build_time=*/true},
      {"TYXE_SIMD", "auto",
       "SIMD dispatch level override (off|scalar|avx2|neon|auto)"},
      {"TYXE_TRACE", "",
       "path for the tx.trace.v1 Chrome-trace timeline (enables tracing)"},
      {"TYXE_WATCHDOG", "0",
       "enable the stall watchdog (forensic dump + 503 /healthz on a stalled "
       "heartbeat)"},
  };
  return vars;
}

bool is_known(const std::string& name) {
  for (const Var& v : known_vars()) {
    if (name == v.name) return true;
  }
  return false;
}

std::vector<std::string> unknown_set_vars() {
  std::vector<std::string> out;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "TYXE_", 5) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    const std::string name =
        eq ? std::string(*e, static_cast<std::size_t>(eq - *e))
           : std::string(*e);
    if (!is_known(name)) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t warn_unknown_once() {
  static std::once_flag flag;
  static std::size_t count = 0;
  std::call_once(flag, [] {
    const auto unknown = unknown_set_vars();
    count = unknown.size();
    for (const auto& name : unknown) {
      std::fprintf(stderr,
                   "warning: unrecognized environment variable %s (no TYXE_* "
                   "knob by that name; typo? see docs/configuration.md)\n",
                   name.c_str());
    }
  });
  return count;
}

}  // namespace tx::env
