#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/registry.h"

namespace tx::obs {

namespace {

struct TraceEvent {
  char phase = 'i';  // 'B', 'E', 'i', 'C'
  double ts_us = 0.0;
  std::string name;
  std::string args;  // pre-rendered JSON object, or empty
};

/// Events retained per thread; the oldest are overwritten past this. Sized
/// so a full fig1_regression run (~300k events on the main thread) fits
/// without eviction; at ~100 bytes/event the worst case is ~50 MB per
/// *emitting* thread, paid only while tracing (buffers grow on demand).
constexpr std::size_t kRingCapacity = std::size_t{1} << 19;

/// One thread's ring buffer. The owning thread appends under the buffer's
/// own (uncontended) mutex; the exporter takes the same mutex briefly while
/// draining. Buffers are owned by the global recorder, so events survive the
/// thread itself (pool workers die on every set_num_threads).
struct ThreadBuffer {
  int tid = 0;
  std::string thread_name;
  std::mutex mu;
  std::vector<TraceEvent> ring;
  std::size_t head = 0;  // overwrite cursor once the ring is full
  std::int64_t dropped = 0;

  void append(TraceEvent ev) {
    std::lock_guard<std::mutex> lock(mu);
    if (ring.size() < kRingCapacity) {
      ring.push_back(std::move(ev));
    } else {
      ring[head] = std::move(ev);
      head = (head + 1) % kRingCapacity;
      ++dropped;
    }
  }

  /// Events oldest-first (unwraps the ring).
  std::vector<TraceEvent> drain_copy() {
    std::lock_guard<std::mutex> lock(mu);
    std::vector<TraceEvent> out;
    out.reserve(ring.size());
    for (std::size_t i = 0; i < ring.size(); ++i) {
      out.push_back(ring[(head + i) % ring.size()]);
    }
    return out;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu);
    ring.clear();
    head = 0;
    dropped = 0;
  }
};

struct Recorder {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  int next_tid = 0;
};

Recorder& recorder() {
  static Recorder* rec = new Recorder();  // never destroyed
  return *rec;
}

std::atomic<bool> g_tracing{false};
std::atomic<std::int64_t> g_epoch_ns{0};

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double trace_now_us() {
  return static_cast<double>(steady_ns() -
                             g_epoch_ns.load(std::memory_order_relaxed)) /
         1e3;
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Recorder& rec = recorder();
    std::lock_guard<std::mutex> lock(rec.mu);
    b->tid = rec.next_tid++;
    b->thread_name = "thread-" + std::to_string(b->tid);
    rec.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

void emit(char phase, const std::string& name, std::string args) {
  TraceEvent ev;
  ev.phase = phase;
  ev.ts_us = trace_now_us();
  ev.name = name;
  ev.args = std::move(args);
  local_buffer().append(std::move(ev));
}

void render_event(std::ofstream& out, int tid, const TraceEvent& ev) {
  char ts[40];
  std::snprintf(ts, sizeof(ts), "%.3f", ev.ts_us);
  out << "{\"ph\": \"" << ev.phase << "\", \"pid\": 1, \"tid\": " << tid
      << ", \"ts\": " << ts << ", \"name\": \"" << escape_json(ev.name)
      << "\", \"cat\": \"tx\"";
  if (!ev.args.empty()) out << ", \"args\": " << ev.args;
  out << "}";
}

void render_thread_meta(std::ofstream& out, int tid, const std::string& name) {
  out << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
      << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
      << escape_json(name) << "\"}},\n";
  // Perfetto sorts tracks by sort_index; tid order keeps main on top.
  out << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
      << ", \"name\": \"thread_sort_index\", \"args\": {\"sort_index\": "
      << tid << "}}";
}

}  // namespace

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

void start_tracing() {
  clear_trace();
  g_epoch_ns.store(steady_ns(), std::memory_order_relaxed);
  g_tracing.store(true, std::memory_order_relaxed);
}

void stop_tracing() { g_tracing.store(false, std::memory_order_relaxed); }

void clear_trace() {
  Recorder& rec = recorder();
  std::lock_guard<std::mutex> lock(rec.mu);
  for (auto& b : rec.buffers) b->clear();
}

std::int64_t trace_event_count() {
  Recorder& rec = recorder();
  std::lock_guard<std::mutex> lock(rec.mu);
  std::int64_t n = 0;
  for (auto& b : rec.buffers) {
    std::lock_guard<std::mutex> blk(b->mu);
    n += static_cast<std::int64_t>(b->ring.size());
  }
  return n;
}

std::int64_t trace_dropped_count() {
  Recorder& rec = recorder();
  std::lock_guard<std::mutex> lock(rec.mu);
  std::int64_t n = 0;
  for (auto& b : rec.buffers) {
    std::lock_guard<std::mutex> blk(b->mu);
    n += b->dropped;
  }
  return n;
}

void set_trace_thread_name(const std::string& name) {
  ThreadBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.thread_name = name;
}

void trace_begin(const std::string& name, std::string args_json) {
  if (!tracing()) return;
  emit('B', name, std::move(args_json));
}

void trace_end(const std::string& name, std::string args_json) {
  if (!tracing()) return;
  emit('E', name, std::move(args_json));
}

void trace_instant(const std::string& name, std::string args_json) {
  if (!tracing()) return;
  emit('i', name, std::move(args_json));
}

void trace_counter(const std::string& name, double value) {
  if (!tracing()) return;
  Event args;
  args.set("value", value);
  emit('C', name, args.to_json());
}

bool write_trace(const std::string& path) {
  // Snapshot every buffer first (brief per-buffer locks), then render with
  // no locks held.
  struct Track {
    int tid;
    std::string name;
    std::vector<TraceEvent> events;
    std::int64_t dropped;
  };
  std::vector<Track> tracks;
  {
    Recorder& rec = recorder();
    std::lock_guard<std::mutex> lock(rec.mu);
    tracks.reserve(rec.buffers.size());
    for (auto& b : rec.buffers) {
      Track t;
      t.events = b->drain_copy();
      std::lock_guard<std::mutex> blk(b->mu);
      t.tid = b->tid;
      t.name = b->thread_name;
      t.dropped = b->dropped;
      tracks.push_back(std::move(t));
    }
  }

  // Balance B/E per track: ring wrap can strand an E whose B was overwritten
  // (dropped here), and spans still open at export need a synthetic close so
  // the file loads as complete slices.
  std::int64_t dropped_total = 0;
  for (Track& t : tracks) {
    dropped_total += t.dropped;
    std::vector<std::size_t> open;  // indices of unmatched B events
    std::vector<TraceEvent> balanced;
    balanced.reserve(t.events.size());
    double last_ts = 0.0;
    for (TraceEvent& ev : t.events) {
      last_ts = std::max(last_ts, ev.ts_us);
      if (ev.phase == 'E') {
        if (open.empty()) continue;  // B lost to ring wrap
        open.pop_back();
      } else if (ev.phase == 'B') {
        open.push_back(balanced.size());
      }
      balanced.push_back(std::move(ev));
    }
    for (auto it = open.rbegin(); it != open.rend(); ++it) {
      TraceEvent close;
      close.phase = 'E';
      close.ts_us = last_ts;
      close.name = balanced[*it].name;
      balanced.push_back(std::move(close));
    }
    t.events = std::move(balanced);
  }

  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    registry().counter("obs.sink_errors").add(1);
    return false;
  }
  out << "{\n\"displayTimeUnit\": \"ms\",\n";
  out << "\"otherData\": {\"schema\": \"tx.trace.v1\", \"dropped_events\": "
      << dropped_total << "},\n";
  out << "\"traceEvents\": [\n";
  out << "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
         "\"process_name\", \"args\": {\"name\": \"tyxe\"}}";
  for (const Track& t : tracks) {
    out << ",\n";
    render_thread_meta(out, t.tid, t.name);
    for (const TraceEvent& ev : t.events) {
      out << ",\n";
      render_event(out, t.tid, ev);
    }
  }
  out << "\n]}\n";
  out.flush();
  if (!out.good()) {
    registry().counter("obs.sink_errors").add(1);
    return false;
  }
  return true;
}

}  // namespace tx::obs
