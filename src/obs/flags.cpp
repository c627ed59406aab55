#include "obs/flags.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/manifest.h"
#include "obs/pq.h"
#include "obs/prof.h"
#include "util/env.h"

namespace tx::obs {

namespace {

// ""/off/0 -> off (-1), auto -> ephemeral (0), else the literal port.
// Unparsable values warn and leave the server off rather than aborting a
// long run over a telemetry typo.
int parse_http_port(const char* spec, const char* origin) {
  if (spec == nullptr || *spec == '\0' || std::strcmp(spec, "off") == 0 ||
      std::strcmp(spec, "0") == 0) {
    return -1;
  }
  if (std::strcmp(spec, "auto") == 0) return 0;
  char* end = nullptr;
  const long port = std::strtol(spec, &end, 10);
  if (end == spec || *end != '\0' || port < 0 || port > 65535) {
    std::fprintf(stderr,
                 "warning: %s: bad port '%s' (want off, auto, or 1-65535); "
                 "telemetry server disabled\n",
                 origin, spec);
    return -1;
  }
  return static_cast<int>(port);
}

// The path operand of the path flag at argv[i], or nullptr when the flag is
// last or followed by another flag ("--trace --prof" forgot the path).
const char* path_operand(int argc, char** argv, int i) {
  if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) return nullptr;
  return argv[i + 1];
}

// Scan argv for `flag <path>`; a `flag` that is last or followed by another
// `--flag` has no path and prints a warning naming the env fallback.
// Returns the path, else the non-empty value of `env`, else "".
std::string path_flag(int argc, char** argv, const char* flag,
                      const char* env) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) != 0) continue;
    if (const char* path = path_operand(argc, argv, i)) return path;
    // The path was forgotten; say so instead of silently running with the
    // feature off.
    std::fprintf(stderr, "warning: %s given without a path; falling back to %s\n",
                 flag, env);
    break;
  }
  if (const char* v = std::getenv(env)) {
    if (*v != '\0') return v;
  }
  return "";
}

}  // namespace

BenchFlags parse_bench_flags(int& argc, char** argv) {
  BenchFlags flags;
  flags.trace_path = path_flag(argc, argv, "--trace", "TYXE_TRACE");
  flags.diag_path = path_flag(argc, argv, "--diag", "TYXE_DIAG");

  // Strip consumed arguments so downstream parsers never see them.
  bool http_flag = false;  // a given --obs-http wins over TYXE_OBS_HTTP
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 ||
        std::strcmp(argv[i], "--diag") == 0) {
      if (path_operand(argc, argv, i) != nullptr) ++i;  // and its path
      continue;
    }
    if (std::strcmp(argv[i], "--prof") == 0) {
      flags.prof = true;
      continue;
    }
    if (std::strcmp(argv[i], "--pq") == 0) {
      flags.pq = true;
      continue;
    }
    if (std::strcmp(argv[i], "--watchdog") == 0) {
      flags.watchdog = true;
      continue;
    }
    if (std::strcmp(argv[i], "--obs-http") == 0) {
      flags.http_port = 0;  // bare flag: ephemeral port
      http_flag = true;
      continue;
    }
    if (std::strncmp(argv[i], "--obs-http=", 11) == 0) {
      flags.http_port = parse_http_port(argv[i] + 11, "--obs-http");
      http_flag = true;
      continue;
    }
    argv[out++] = argv[i];
  }
  for (int i = out; i < argc; ++i) argv[i] = nullptr;
  argc = out;

  if (!flags.prof) {
    if (const char* v = std::getenv("TYXE_PROF")) {
      flags.prof = *v != '\0' && std::strcmp(v, "0") != 0;
    }
  }
  if (!flags.pq) {
    if (const char* v = std::getenv("TYXE_PQ")) {
      flags.pq = *v != '\0' && std::strcmp(v, "0") != 0;
    }
  }
  if (!flags.watchdog) {
    if (const char* v = std::getenv("TYXE_WATCHDOG")) {
      flags.watchdog = *v != '\0' && std::strcmp(v, "0") != 0;
    }
  }
  if (!http_flag) {
    if (const char* v = std::getenv("TYXE_OBS_HTTP")) {
      if (*v != '\0') flags.http_port = parse_http_port(v, "TYXE_OBS_HTTP");
    }
  }

  // Every bench passes through here, so this is the natural startup hook:
  // catch TYXE_* typos once, then freeze the run manifest.
  env::warn_unknown_once();
  manifest::capture();
  if (flags.prof) prof::set_enabled(true);
  if (flags.pq) pq::set_enabled(true);
  return flags;
}

}  // namespace tx::obs
