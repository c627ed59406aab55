// Process-global metrics: counters, gauges, and log-bucketed histograms
// (obs/hist.h).
//
// Updates are lock-free (relaxed atomics; doubles live in bit-cast uint64
// cells updated by CAS); only the first registration of a name takes the
// registry mutex. References returned by the registry stay valid for the
// process lifetime, so hot paths resolve a metric once and then update it
// without ever touching the map again.
//
// The whole subsystem has a runtime kill switch (set_enabled) that disarms
// ScopedTimer; metric objects themselves stay functional either way so
// tests can poke them directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/common.h"

namespace tx::obs {

/// Runtime switch consulted by the instrumentation hooks (timers, SVI/MCMC
/// emission). Defaults to on.
bool enabled();
void set_enabled(bool on);

namespace detail {

inline std::uint64_t pack_double(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

inline double unpack_double(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// CAS-add into a bit-cast double cell.
void atomic_add_double(std::atomic<std::uint64_t>& cell, double delta);
/// CAS-min / CAS-max into a bit-cast double cell.
void atomic_min_double(std::atomic<std::uint64_t>& cell, double v);
void atomic_max_double(std::atomic<std::uint64_t>& cell, double v);

}  // namespace detail

/// Monotonic event count.
class Counter {
 public:
  void add(std::int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins scalar (e.g. current loss, current accept probability).
class Gauge {
 public:
  void set(double v) {
    bits_.store(detail::pack_double(v), std::memory_order_relaxed);
  }
  double value() const {
    return detail::unpack_double(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<std::uint64_t> bits_{detail::pack_double(0.0)};
};

/// Point-in-time view of a LogHistogram (obs/hist.h), safe to keep after the
/// fact. bounds/bucket_counts/representatives hold the non-empty buckets
/// only, in ascending order, and have equal length; the overflow bucket's
/// bound is +inf.
struct HistogramSnapshot {
  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // undefined (0) when count == 0
  double max = 0.0;
  std::vector<double> bounds;               // ascending bucket upper edges
  std::vector<std::int64_t> bucket_counts;  // one per bound
  std::vector<double> representatives;      // bucket midpoints

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  /// Quantile estimate from the bucket counts via `representatives`, clamped
  /// to the observed [min, max] (relative error bounded by
  /// LogHistogram::kMaxRelativeError).
  double quantile(double q) const;
};

class LogHistogram;  // obs/hist.h

/// Name -> metric map. get-or-create takes a mutex; returned references are
/// stable until clear() (metrics are heap-allocated).
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Log-bucketed histogram (obs/hist.h): O(1) record, bounded relative
  /// error. The duration metrics (svi.step_seconds, mcmc.step_seconds,
  /// span.*) and pq.confidence.* live here.
  LogHistogram& log_histogram(const std::string& name);

  /// Snapshot views (each takes the registration mutex once).
  std::map<std::string, std::int64_t> counters() const;
  std::map<std::string, double> gauges() const;
  std::map<std::string, HistogramSnapshot> histograms() const;

  /// Drop every registered metric (tests and bench isolation).
  void clear();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LogHistogram>> histograms_;
};

/// The process-global registry every instrumentation hook feeds.
MetricsRegistry& registry();

}  // namespace tx::obs
