// RAII wall-clock spans feeding the metrics registry.
//
//   {
//     obs::ScopedTimer fit("fit");
//     ...
//     { obs::ScopedTimer step("step"); ... }   // records "span.fit/step"
//   }                                          // records "span.fit"
//
// Span names nest via a thread-local stack, so the histogram key encodes the
// call path. While the tracer (obs/trace.h) is active, every ScopedTimer also
// doubles as a Chrome-trace duration slice: the begin event can carry
// structured args (shapes, FLOPs — pass pre-rendered JSON via `trace_args`),
// and the end event reports the span's net tensor allocation ("net_bytes")
// plus a sample of the mem.live_bytes counter track.
//
// Cost when disabled: one relaxed atomic load (runtime switch). The trace
// plumbing adds one more relaxed load per span while metrics are on but
// tracing is off.
#pragma once

#include <chrono>
#include <string>

#include "obs/registry.h"

namespace tx::obs {

/// Monotonic wall-clock in seconds (steady_clock).
inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class ScopedTimer {
 public:
  /// `trace_args` is a pre-rendered JSON object (obs::Event::to_json)
  /// attached to the trace slice's begin event; ignored unless tracing.
  /// Build it behind a tracing() check so the cost is trace-only.
  explicit ScopedTimer(std::string name, std::string trace_args = {});
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Seconds since construction (live reading, also works when disabled).
  double elapsed() const { return armed_ ? now_seconds() - start_ : 0.0; }

 private:
  const char* leaf() const { return path_.c_str() + leaf_pos_; }

  bool armed_;
  bool tracing_ = false;
  std::string path_;  // full nested span path, "outer/inner"
  std::size_t leaf_pos_ = 0;
  std::int64_t live_bytes0_ = 0;
  double start_ = 0.0;
};

/// Depth of the active span stack on this thread (tests).
std::size_t span_depth();

/// Full "outer/inner" path of this thread's innermost open span ("" if none).
/// Used to hand a caller's span context to tx::par workers.
std::string current_span_path();

namespace detail {
/// Prefix prepended to this thread's next root-level span — how a tx::par
/// worker continues its submitter's span path. Returns the previous base so
/// scoped installers can restore it. Not part of the public API.
std::string set_span_base(std::string base);
}  // namespace detail

}  // namespace tx::obs
