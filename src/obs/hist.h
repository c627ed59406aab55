// Deterministic log-bucketed (HDR-style) histograms, the registry's one
// histogram kind (MetricsRegistry::log_histogram()).
//
//   * Every instance shares ONE fixed bucket layout: the seconds axis from
//     2^kMinExp (~0.93 ns) to 2^kMaxExp (1024 s) is split into octaves
//     [2^e, 2^(e+1)), each divided into kSub = 2^kSubBits linear subbuckets,
//     plus an underflow bucket (<= 0, NaN, and anything below the range) and
//     an overflow bucket. The value -> index map is a pure O(1) function of
//     the double's exponent and top mantissa bits (std::frexp), identical on
//     every platform, so bucket counts are bitwise-reproducible.
//   * record() is lock-free: one fetch_add on the bucket plus relaxed
//     count/sum/min/max cells, so tx::par workers record into one shared
//     histogram and its bucket counts do not depend on the schedule.
//   * Quantiles come from the buckets: the estimate is the midpoint of the
//     bucket containing the target rank, clamped to the observed [min, max].
//     Relative error is bounded by half a subbucket width over the bucket's
//     lower edge: kMaxRelativeError = 1 / (2 * kSub) (1.5625% at kSubBits
//     = 5). The bound is enforced against exact sorted quantiles by the
//     property tests in tests/hist_test.cpp.
//
// Snapshots are trimmed to the non-empty bucket range, which is the shape the
// tx.obs.v1 schema, the Prometheus renderer, and bench_diff.py read.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>

#include "obs/registry.h"

namespace tx::obs {

class LogHistogram {
 public:
  // Layout constants, shared by every instance.
  static constexpr int kSubBits = 5;
  static constexpr int kSub = 1 << kSubBits;  // subbuckets per octave
  static constexpr int kMinExp = -30;         // lowest octave: [2^-30, 2^-29)
  static constexpr int kMaxExp = 10;          // first out-of-range power: 2^10 s
  static constexpr int kOctaves = kMaxExp - kMinExp;
  static constexpr int kBuckets = kOctaves * kSub + 2;  // + under/overflow
  /// Worst-case relative error of a bucket-midpoint quantile estimate for
  /// in-range values: half a subbucket width over the bucket's lower edge.
  static constexpr double kMaxRelativeError = 1.0 / (2 * kSub);

  LogHistogram() = default;
  LogHistogram(const LogHistogram&) = delete;
  LogHistogram& operator=(const LogHistogram&) = delete;

  /// O(1), lock-free. v <= 0, NaN, and v < 2^kMinExp land in the underflow
  /// bucket (represented as 0); v >= 2^kMaxExp lands in the overflow bucket.
  void record(double v);

  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Point-in-time view: bounds are the upper edges of the non-empty
  /// buckets, representatives their midpoints.
  HistogramSnapshot snapshot() const;

  // ---- the pure value <-> bucket mapping (unit-tested directly) ----------
  static int index_of(double v);
  static double lower_edge_of(int index);      // 0 for the underflow bucket
  static double upper_edge_of(int index);      // +inf for the overflow bucket
  static double representative_of(int index);  // midpoint; 0 for underflow

 private:
  std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{detail::pack_double(0.0)};
  std::atomic<std::uint64_t> min_bits_{
      detail::pack_double(std::numeric_limits<double>::infinity())};
  std::atomic<std::uint64_t> max_bits_{
      detail::pack_double(-std::numeric_limits<double>::infinity())};
};

}  // namespace tx::obs
