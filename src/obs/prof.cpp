#include "obs/prof.h"

#include <atomic>
#include <mutex>

#include "obs/event_sink.h"
#include "obs/mem.h"
#include "obs/registry.h"
#include "obs/shard.h"

namespace tx::obs::prof {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_any_data{false};
std::atomic<std::int64_t> g_steps{0};
// obs::mem total-allocated baseline captured when profiling was switched on.
std::atomic<std::int64_t> g_mem_baseline{0};
// Accumulated enabled wall-time across enable/disable windows, plus the
// start of the currently open window (0 when disabled).
std::atomic<double> g_seconds_accum{0.0};
std::atomic<double> g_window_start{0.0};

std::size_t size_class_of(std::int64_t bytes) {
  for (std::size_t i = 0; i < kSizeClassBounds.size(); ++i) {
    if (bytes <= kSizeClassBounds[i]) return i;
  }
  return kSizeClassBounds.size();
}

void merge_churn(SpanChurn& dst, const SpanChurn& src) {
  dst.allocs += src.allocs;
  dst.bytes += src.bytes;
  for (std::size_t i = 0; i < kNumSizeClasses; ++i) {
    dst.size_classes[i] += src.size_classes[i];
  }
}

using Churn = ShardedTable<SpanChurn, merge_churn>;

// Kernel aggregates need no shard: kernel scopes are coarse, so one lock
// per scope is cheap next to the kernel it times.
std::mutex g_kernel_mu;
std::map<std::string, KernelStats> g_kernels;

double seconds_enabled_now() {
  const double accum = g_seconds_accum.load(std::memory_order_relaxed);
  const double start = g_window_start.load(std::memory_order_relaxed);
  return start > 0.0 ? accum + (now_seconds() - start) : accum;
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  const bool was = g_enabled.exchange(on, std::memory_order_relaxed);
  if (on && !was) {
    g_mem_baseline.store(mem::total_allocated_bytes(),
                         std::memory_order_relaxed);
    g_window_start.store(now_seconds(), std::memory_order_relaxed);
    g_any_data.store(true, std::memory_order_relaxed);
  } else if (!on && was) {
    const double start = g_window_start.load(std::memory_order_relaxed);
    if (start > 0.0) {
      const double accum = g_seconds_accum.load(std::memory_order_relaxed);
      g_seconds_accum.store(accum + (now_seconds() - start),
                            std::memory_order_relaxed);
      g_window_start.store(0.0, std::memory_order_relaxed);
    }
  }
}

void reset() {
  {
    std::lock_guard<std::mutex> lock(g_kernel_mu);
    g_kernels.clear();
  }
  Churn::clear();
  g_steps.store(0, std::memory_order_relaxed);
  g_seconds_accum.store(0.0, std::memory_order_relaxed);
  g_mem_baseline.store(mem::total_allocated_bytes(), std::memory_order_relaxed);
  if (enabled()) {
    g_window_start.store(now_seconds(), std::memory_order_relaxed);
  } else {
    g_window_start.store(0.0, std::memory_order_relaxed);
    g_any_data.store(false, std::memory_order_relaxed);
  }
}

bool has_data() {
  return enabled() || g_any_data.load(std::memory_order_relaxed);
}

void on_kernel(const char* kernel, std::int64_t flops, std::int64_t bytes,
               double seconds) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(g_kernel_mu);
  KernelStats& ks = g_kernels[kernel];
  ks.calls += 1;
  ks.flops += flops;
  ks.bytes += bytes;
  ks.seconds += seconds;
}

void on_alloc(std::int64_t bytes) {
  if (!enabled() || bytes <= 0) return;
  std::string path = current_span_path();
  if (path.empty()) path = "(root)";
  SpanChurn& churn = Churn::local(path);
  churn.allocs += 1;
  churn.bytes += bytes;
  churn.size_classes[size_class_of(bytes)] += 1;
}

void on_step() {
  if (!enabled()) return;
  g_steps.fetch_add(1, std::memory_order_relaxed);
}

void flush_thread_cache() { Churn::flush(); }

std::int64_t steps() { return g_steps.load(std::memory_order_relaxed); }

std::map<std::string, KernelStats> kernel_table() {
  std::lock_guard<std::mutex> lock(g_kernel_mu);
  return g_kernels;
}

std::map<std::string, SpanChurn> churn_table() { return Churn::snapshot(); }

std::int64_t attributed_bytes() {
  std::int64_t total = 0;
  for (const auto& [path, churn] : churn_table()) total += churn.bytes;
  return total;
}

std::int64_t window_allocated_bytes() {
  return mem::total_allocated_bytes() -
         g_mem_baseline.load(std::memory_order_relaxed);
}

std::string section_json(const std::string& indent) {
  if (!has_data()) return "";
  const std::string in1 = indent + "  ";
  const std::string in2 = in1 + "  ";
  const auto kernels = kernel_table();
  const auto churn = churn_table();
  const std::int64_t nsteps = steps();

  std::string out = "{\n";
  out += in1 + "\"schema\": \"tx.prof.v1\",\n";
  out += in1 + "\"seconds_enabled\": " +
         render_json_number(seconds_enabled_now()) + ",\n";
  out += in1 + "\"steps\": " + std::to_string(nsteps) + ",\n";

  const auto render_kernel = [](const KernelStats& ks) {
    const double gflops =
        ks.seconds > 0.0 ? static_cast<double>(ks.flops) / ks.seconds / 1e9
                         : 0.0;
    const double gbps =
        ks.seconds > 0.0 ? static_cast<double>(ks.bytes) / ks.seconds / 1e9
                         : 0.0;
    const double intensity =
        ks.bytes > 0 ? static_cast<double>(ks.flops) /
                           static_cast<double>(ks.bytes)
                     : 0.0;
    std::string o = "{\"calls\": " + std::to_string(ks.calls);
    o += ", \"flops\": " + std::to_string(ks.flops);
    o += ", \"bytes\": " + std::to_string(ks.bytes);
    o += ", \"seconds\": " + render_json_number(ks.seconds);
    o += ", \"gflops\": " + render_json_number(gflops);
    o += ", \"gbps\": " + render_json_number(gbps);
    o += ", \"intensity\": " + render_json_number(intensity);
    return o + "}";
  };
  out += in1 + "\"kernels\": " +
         render_json_object(kernels, in1, render_kernel) + ",\n";

  std::int64_t total_allocs = 0, total_bytes = 0;
  for (const auto& [path, c] : churn) {
    total_allocs += c.allocs;
    total_bytes += c.bytes;
  }
  const std::int64_t window = window_allocated_bytes();
  const double coverage =
      window > 0 ? static_cast<double>(total_bytes) /
                       static_cast<double>(window)
                 : (total_bytes == 0 ? 1.0 : 0.0);

  out += in1 + "\"churn\": {\n";
  out += in2 + "\"attributed_allocs\": " + std::to_string(total_allocs) + ",\n";
  out += in2 + "\"attributed_bytes\": " + std::to_string(total_bytes) + ",\n";
  out += in2 + "\"window_allocated_bytes\": " + std::to_string(window) + ",\n";
  out += in2 + "\"coverage\": " + render_json_number(coverage) + ",\n";
  const auto render_churn = [nsteps](const SpanChurn& c) {
    std::string o = "{\"allocs\": " + std::to_string(c.allocs);
    o += ", \"bytes\": " + std::to_string(c.bytes);
    o += ", \"bytes_per_step\": " +
         render_json_number(nsteps > 0 ? static_cast<double>(c.bytes) /
                                             static_cast<double>(nsteps)
                                       : 0.0);
    o += ", \"size_classes\": [";
    for (std::size_t i = 0; i < kNumSizeClasses; ++i) {
      if (i > 0) o += ", ";
      o += "{\"le\": ";
      o += i < kSizeClassBounds.size() ? std::to_string(kSizeClassBounds[i])
                                       : std::string("\"inf\"");
      o += ", \"count\": " + std::to_string(c.size_classes[i]) + "}";
    }
    return o + "]}";
  };
  out += in2 + "\"spans\": " + render_json_object(churn, in2, render_churn) +
         "\n";
  out += in1 + "}\n";
  out += indent + "}";
  return out;
}

void publish(MetricsRegistry& reg) {
  const auto kernels = kernel_table();
  std::int64_t flops = 0;
  for (const auto& [name, ks] : kernels) flops += ks.flops;
  reg.gauge("prof.kernels").set(static_cast<double>(kernels.size()));
  reg.gauge("prof.kernel_flops").set(static_cast<double>(flops));
  reg.gauge("prof.attributed_bytes")
      .set(static_cast<double>(attributed_bytes()));
  reg.gauge("prof.steps").set(static_cast<double>(steps()));
}

}  // namespace tx::obs::prof
