#include "obs/registry.h"

#include <algorithm>

#include "obs/hist.h"

namespace tx::obs {

namespace {
std::atomic<bool> g_enabled{true};
}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

namespace detail {

void atomic_add_double(std::atomic<std::uint64_t>& cell, double delta) {
  std::uint64_t expected = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(
      expected, pack_double(unpack_double(expected) + delta),
      std::memory_order_relaxed)) {
  }
}

void atomic_min_double(std::atomic<std::uint64_t>& cell, double v) {
  std::uint64_t expected = cell.load(std::memory_order_relaxed);
  while (unpack_double(expected) > v &&
         !cell.compare_exchange_weak(expected, pack_double(v),
                                     std::memory_order_relaxed)) {
  }
}

void atomic_max_double(std::atomic<std::uint64_t>& cell, double v) {
  std::uint64_t expected = cell.load(std::memory_order_relaxed);
  while (unpack_double(expected) < v &&
         !cell.compare_exchange_weak(expected, pack_double(v),
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace detail

double HistogramSnapshot::quantile(double q) const {
  // Locate the bucket holding the nearest-rank (lower) order statistic and
  // return its midpoint, clamped to the observed range. Relative error vs
  // the exact order statistic is bounded by LogHistogram::kMaxRelativeError.
  if (count <= 0 || representatives.empty()) return 0.0;
  const std::int64_t rank =
      static_cast<std::int64_t>(q * static_cast<double>(count - 1));
  std::int64_t cum = 0;
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    cum += bucket_counts[i];
    if (cum > rank) {
      return std::clamp(representatives[i], min, max);
    }
  }
  return max;
}

// Out of line so unique_ptr<LogHistogram> members destroy where the type is
// complete (the header only forward-declares it).
MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

std::map<std::string, std::int64_t> MetricsRegistry::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, c] : counters_) out.emplace(name, c->value());
  return out;
}

std::map<std::string, double> MetricsRegistry::gauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, g] : gauges_) out.emplace(name, g->value());
  return out;
}

LogHistogram& MetricsRegistry::log_histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<LogHistogram>();
  return *slot;
}

std::map<std::string, HistogramSnapshot> MetricsRegistry::histograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [name, h] : histograms_) out.emplace(name, h->snapshot());
  return out;
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

MetricsRegistry& registry() {
  static MetricsRegistry* reg = new MetricsRegistry();  // never destroyed
  return *reg;
}

}  // namespace tx::obs
