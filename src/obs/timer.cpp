#include "obs/timer.h"

#include <vector>

#include "obs/event_sink.h"
#include "obs/hist.h"
#include "obs/mem.h"
#include "obs/trace.h"

namespace tx::obs {

namespace {
thread_local std::vector<const std::string*> g_spans;
// Span-path prefix inherited from another thread (tx::par installs the
// submitter's path here around each worker task).
thread_local std::string g_span_base;
}  // namespace

std::size_t span_depth() { return g_spans.size(); }

std::string current_span_path() {
  return g_spans.empty() ? g_span_base : *g_spans.back();
}

namespace detail {
std::string set_span_base(std::string base) {
  std::string prev = std::move(g_span_base);
  g_span_base = std::move(base);
  return prev;
}
}  // namespace detail

ScopedTimer::ScopedTimer(std::string name, std::string trace_args)
    : armed_(enabled()) {
  if (!armed_) return;
  const std::size_t leaf_len = name.size();
  if (!g_spans.empty()) {
    path_ = *g_spans.back() + "/" + name;
  } else if (!g_span_base.empty()) {
    path_ = g_span_base + "/" + name;
  } else {
    path_ = std::move(name);
  }
  leaf_pos_ = path_.size() - leaf_len;
  g_spans.push_back(&path_);
  tracing_ = tracing();
  if (tracing_) {
    live_bytes0_ = mem::live_bytes();
    trace_begin(leaf(), std::move(trace_args));
  }
  start_ = now_seconds();
}

ScopedTimer::~ScopedTimer() {
  if (!armed_) return;
  const double seconds = now_seconds() - start_;
  TX_CHECK(!g_spans.empty() && g_spans.back() == &path_,
           "span stack corrupted (unbalanced ScopedTimer scopes)");
  g_spans.pop_back();
  if (tracing_) {
    const std::int64_t net = mem::live_bytes() - live_bytes0_;
    Event end_args;
    end_args.set("net_bytes", net);
    trace_end(leaf(), end_args.to_json());
    trace_counter("mem.live_bytes",
                  static_cast<double>(mem::live_bytes()));
  }
  registry().log_histogram("span." + path_).record(seconds);
}

}  // namespace tx::obs
