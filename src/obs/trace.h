// Chrome-trace timeline recorder.
//
// A low-overhead, thread-safe tracer: each thread appends events to its own
// fixed-capacity ring buffer (one uncontended mutex per append, no global
// locks on the hot path), and write_trace() merges every buffer into Chrome
// trace-event JSON that loads in chrome://tracing and Perfetto.
//
//   tx::obs::start_tracing();
//   { tx::obs::TraceSpan s("svi.step"); ... }   // duration slice B/E pair
//   tx::obs::trace_counter("mem.live_bytes", 1.5e6);  // counter track
//   tx::obs::write_trace("run.trace.json");
//   tx::obs::stop_tracing();
//
// ScopedTimer (obs/timer.h) doubles as a trace slice while tracing is on, so
// every existing span in the stack appears on the timeline for free; tx::par
// names its worker threads so pool tasks land on attributed tracks.
//
// Cost when off: emission helpers check one relaxed atomic and return.
// Tracing rides the obs runtime switch: ScopedTimer only traces while
// obs::enabled() too.
#pragma once

#include <cstdint>
#include <string>

#include "obs/event_sink.h"

namespace tx::obs {

/// Is the recorder currently collecting events? (one relaxed atomic load).
bool tracing();

/// Clear all buffers, restart the trace clock, and begin collecting.
void start_tracing();

/// Stop collecting. Buffered events are retained until clear/start.
void stop_tracing();

/// Drop every buffered event (start_tracing also does this).
void clear_trace();

/// Export everything buffered so far as Chrome trace-event JSON. Works while
/// tracing is active or stopped. Per-(pid,tid) timestamps are monotone and
/// B/E pairs are balanced on export: an E orphaned by ring-buffer wrap is
/// dropped, a B still open at export gets a synthetic closing E. Returns
/// false (and counts obs.sink_errors) if the file cannot be written.
bool write_trace(const std::string& path);

/// Events buffered across all threads (after ring-buffer drops; tests).
std::int64_t trace_event_count();
/// Events lost to ring-buffer wrap since the last clear.
std::int64_t trace_dropped_count();

/// Name this thread's track in exported traces ("main", "par-worker-3", …).
/// Callable any time; the last name wins.
void set_trace_thread_name(const std::string& name);

// ---- emission (each is a no-op unless tracing() is true) -------------------

/// Open a duration slice on this thread. `args_json` is a pre-rendered JSON
/// object (use obs::Event::to_json) or empty.
void trace_begin(const std::string& name, std::string args_json = {});
/// Close the most recent open slice. Args attach to the closing event (shown
/// merged onto the slice by Chrome/Perfetto).
void trace_end(const std::string& name, std::string args_json = {});
/// Thread-scoped instant event (a vertical tick on the thread's track).
void trace_instant(const std::string& name, std::string args_json = {});
/// Sample of a counter track (rendered as a stacked area chart).
void trace_counter(const std::string& name, double value);

/// RAII B/E pair.
class TraceSpan {
 public:
  explicit TraceSpan(std::string name, std::string args_json = {})
      : armed_(tracing()), name_(std::move(name)) {
    if (armed_) trace_begin(name_, std::move(args_json));
  }
  ~TraceSpan() {
    if (armed_) trace_end(name_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  bool armed_;
  std::string name_;
};

}  // namespace tx::obs
