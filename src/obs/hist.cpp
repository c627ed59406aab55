#include "obs/hist.h"

#include <cmath>

namespace tx::obs {

void LogHistogram::record(double v) {
  buckets_[static_cast<std::size_t>(index_of(v))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add_double(sum_bits_, v);
  detail::atomic_min_double(min_bits_, v);
  detail::atomic_max_double(max_bits_, v);
}

int LogHistogram::index_of(double v) {
  if (!(v > 0.0)) return 0;               // <= 0 and NaN -> underflow
  if (std::isinf(v)) return kBuckets - 1; // frexp(inf) is unspecified
  int exp = 0;
  const double m = std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
  const int octave = exp - 1;            // v in [2^octave, 2^(octave+1))
  if (octave < kMinExp) return 0;
  if (octave >= kMaxExp) return kBuckets - 1;
  // Linear position within the octave. m - 0.5 is exact (both are dyadic
  // with the same scale) and the edges land on exact integers, so the map
  // is deterministic across platforms.
  int sub = static_cast<int>((m - 0.5) * (2 * kSub));
  if (sub >= kSub) sub = kSub - 1;  // guard against rounding at m -> 1
  return 1 + (octave - kMinExp) * kSub + sub;
}

double LogHistogram::lower_edge_of(int index) {
  if (index <= 0) return 0.0;
  if (index >= kBuckets - 1) return std::ldexp(1.0, kMaxExp);
  const int j = index - 1;
  const double base = std::ldexp(1.0, kMinExp + j / kSub);
  return base + base * static_cast<double>(j % kSub) / kSub;
}

double LogHistogram::upper_edge_of(int index) {
  if (index <= 0) return std::ldexp(1.0, kMinExp);
  if (index >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  const int j = index - 1;
  const double base = std::ldexp(1.0, kMinExp + j / kSub);
  return base + base * static_cast<double>(j % kSub + 1) / kSub;
}

double LogHistogram::representative_of(int index) {
  if (index <= 0) return 0.0;  // underflow stands in for "effectively zero"
  if (index >= kBuckets - 1) return std::ldexp(1.0, kMaxExp);
  return 0.5 * (lower_edge_of(index) + upper_edge_of(index));
}

HistogramSnapshot LogHistogram::snapshot() const {
  HistogramSnapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = detail::unpack_double(sum_bits_.load(std::memory_order_relaxed));
  if (snap.count > 0) {
    snap.min = detail::unpack_double(min_bits_.load(std::memory_order_relaxed));
    snap.max = detail::unpack_double(max_bits_.load(std::memory_order_relaxed));
  }
  // Only the non-empty buckets: the layout is fixed, so each upper edge
  // names its bucket, and a dense dump would be mostly zeros.
  for (int i = 0; i < kBuckets; ++i) {
    const std::int64_t c =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    if (c == 0) continue;
    snap.bounds.push_back(upper_edge_of(i));
    snap.bucket_counts.push_back(c);
    snap.representatives.push_back(representative_of(i));
  }
  return snap;
}

}  // namespace tx::obs
