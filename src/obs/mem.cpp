#include "obs/mem.h"

#include <atomic>

#include "obs/registry.h"

namespace tx::obs::mem {

namespace {

std::atomic<std::int64_t> g_live_tensors{0};
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_bytes{0};
std::atomic<std::int64_t> g_total_allocated{0};

void raise_peak(std::int64_t candidate) {
  std::int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (peak < candidate &&
         !g_peak_bytes.compare_exchange_weak(peak, candidate,
                                             std::memory_order_relaxed)) {
  }
}

}  // namespace

void on_tensor_create() {
  g_live_tensors.fetch_add(1, std::memory_order_relaxed);
}

void on_tensor_destroy() {
  g_live_tensors.fetch_sub(1, std::memory_order_relaxed);
}

void on_bytes_delta(std::int64_t delta) {
  if (delta == 0) return;
  const std::int64_t live =
      g_live_bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
  if (delta > 0) {
    g_total_allocated.fetch_add(delta, std::memory_order_relaxed);
    raise_peak(live);
  }
}

std::int64_t live_tensors() {
  return g_live_tensors.load(std::memory_order_relaxed);
}

std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

std::int64_t peak_bytes() {
  return g_peak_bytes.load(std::memory_order_relaxed);
}

std::int64_t total_allocated_bytes() {
  return g_total_allocated.load(std::memory_order_relaxed);
}

void reset_peak() {
  g_peak_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}

void publish(MetricsRegistry& reg) {
  reg.gauge("mem.live_tensors").set(static_cast<double>(live_tensors()));
  reg.gauge("mem.live_bytes").set(static_cast<double>(live_bytes()));
  reg.gauge("mem.peak_bytes").set(static_cast<double>(peak_bytes()));
  reg.gauge("mem.total_allocated_bytes")
      .set(static_cast<double>(total_allocated_bytes()));
}

}  // namespace tx::obs::mem
