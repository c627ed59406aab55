// Process-global metrics: counters, gauges, and fixed-bucket histograms.
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

/// Point-in-time view of a histogram, safe to keep after the fact. Produced
/// by both histogram kinds: fixed-bucket Histogram (raw-value reservoir,
/// `representatives` empty) and log-bucketed LogHistogram (obs/hist.h;
/// `samples` empty, `representatives` carries per-bucket midpoints and
/// bounds/bucket_counts are trimmed to the non-empty range).
struct HistogramSnapshot {
  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // undefined (0) when count == 0
  double max = 0.0;
  std::vector<double> bounds;               // ascending upper bounds
  std::vector<std::int64_t> bucket_counts;  // bounds.size() + 1 (last = +inf)
                                            // (log kind: bounds.size())
  std::vector<double> samples;              // sorted reservoir of raw values
  std::vector<double> representatives;      // log kind: bucket midpoints

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  /// Quantile estimate: from the raw-value reservoir when present (util
  /// quantile_of), else from the bucket counts via `representatives`,
  /// clamped to the observed [min, max] (relative error bounded by
  /// LogHistogram::kMaxRelativeError).
  double quantile(double q) const;
};

/// Fixed-bucket histogram with a lock-free ring reservoir of raw values for
/// quantile estimation. Bucket i counts values <= bounds[i]; the final
/// overflow bucket counts everything above the last bound.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  /// Geometric bucket ladder: start, start*factor, ... (count bounds).
  static std::vector<double> exponential_bounds(double start, double factor,
                                                int count);
  /// Default ladder for wall-clock seconds: 1us .. ~17s.
  static std::vector<double> default_time_bounds();

  void record(double v);
  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  HistogramSnapshot snapshot() const;

 private:
  static constexpr std::size_t kReservoirSize = 512;

  std::vector<double> bounds_;
  std::vector<std::atomic<std::int64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{detail::pack_double(0.0)};
  std::atomic<std::uint64_t> min_bits_;
  std::atomic<std::uint64_t> max_bits_;
  std::vector<std::atomic<std::uint64_t>> reservoir_;
  std::atomic<std::uint64_t> reservoir_next_{0};
};

class LogHistogram;  // obs/hist.h — log-bucketed, mergeable duration metrics

/// Name -> metric map. get-or-create takes a mutex; returned references are
/// stable (metrics are heap-allocated and never removed, only reset).
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` is only consulted on first creation; empty = time ladder.
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = {});
  /// Log-bucketed histogram (obs/hist.h): O(1) record, bounded relative
  /// error, exact merge. The duration metrics (svi.step_seconds,
  /// mcmc.step_seconds, span.*) live here; names must not collide with
  /// fixed-bucket histograms (the merged snapshot view keeps one namespace).
  LogHistogram& log_histogram(const std::string& name);

  /// Snapshot views (each takes the registration mutex once). histograms()
  /// merges both histogram kinds into one map.
  std::map<std::string, std::int64_t> counters() const;
  std::map<std::string, double> gauges() const;
  std::map<std::string, HistogramSnapshot> histograms() const;

  /// Drop every registered metric (tests and bench isolation).
  void clear();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<LogHistogram>> log_histograms_;
};

/// The process-global registry every instrumentation hook feeds.
MetricsRegistry& registry();

}  // namespace tx::obs
