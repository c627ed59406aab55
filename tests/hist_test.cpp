// Property tests for the log-bucketed LogHistogram (obs/hist.h): quantile
// estimates must stay within the documented relative-error bound of the
// exact sorted-order statistics across adversarial shapes, and threads
// recording into one shared histogram must leave exactly the bucket counts
// of one sequential stream.
#include "obs/hist.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "util/random.h"

namespace {

using tx::obs::HistogramSnapshot;
using tx::obs::LogHistogram;

/// Exact nearest-rank (lower) order statistic — the quantile definition the
/// bucket fallback approximates.
double exact_quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(xs.size() - 1));
  return xs[rank];
}

/// Assert p50/p90/p99 of `h` match the exact order statistics of `values`
/// within the documented bound. The estimate is the bucket midpoint clamped
/// to [min, max], and the exact value lies in the same bucket, so
/// |est - exact| <= kMaxRelativeError * exact.
void expect_quantiles_close(const LogHistogram& h,
                            const std::vector<double>& values,
                            const char* label) {
  const HistogramSnapshot snap = h.snapshot();
  for (const double q : {0.5, 0.9, 0.99}) {
    const double exact = exact_quantile(values, q);
    const double est = snap.quantile(q);
    EXPECT_LE(std::abs(est - exact),
              LogHistogram::kMaxRelativeError * exact + 1e-300)
        << label << ": q=" << q << " exact=" << exact << " est=" << est;
  }
}

TEST(LogHistogramTest, IndexBucketsAreConsistent) {
  // Every recorded value must land in a bucket whose [lower, upper) range
  // contains it, with the midpoint within the error bound.
  tx::Generator gen(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = std::exp(gen.uniform(-18.0, 6.0));
    const int idx = LogHistogram::index_of(v);
    ASSERT_GT(idx, 0) << v;
    ASSERT_LT(idx, LogHistogram::kBuckets - 1) << v;
    EXPECT_GE(v, LogHistogram::lower_edge_of(idx)) << v;
    EXPECT_LT(v, LogHistogram::upper_edge_of(idx)) << v;
    const double mid = LogHistogram::representative_of(idx);
    EXPECT_LE(std::abs(mid - v) / v, LogHistogram::kMaxRelativeError) << v;
  }
}

TEST(LogHistogramTest, UnderflowAndOverflowBuckets) {
  EXPECT_EQ(LogHistogram::index_of(0.0), 0);
  EXPECT_EQ(LogHistogram::index_of(-1.0), 0);
  EXPECT_EQ(LogHistogram::index_of(std::nan("")), 0);
  EXPECT_EQ(LogHistogram::index_of(1e-300), 0);
  EXPECT_EQ(LogHistogram::index_of(1e300), LogHistogram::kBuckets - 1);
  EXPECT_EQ(LogHistogram::index_of(std::numeric_limits<double>::infinity()),
            LogHistogram::kBuckets - 1);
  // The range edges themselves.
  EXPECT_EQ(LogHistogram::index_of(std::ldexp(1.0, LogHistogram::kMaxExp)),
            LogHistogram::kBuckets - 1);
  EXPECT_EQ(LogHistogram::index_of(std::ldexp(1.0, LogHistogram::kMinExp)), 1);
}

TEST(LogHistogramTest, QuantileErrorBoundConstant) {
  // Constant stream: every value in one bucket; clamping to [min, max] makes
  // the estimate exact.
  LogHistogram h;
  std::vector<double> values(1000, 0.0137);
  for (const double v : values) h.record(v);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0137);
  EXPECT_DOUBLE_EQ(snap.quantile(0.99), 0.0137);
  expect_quantiles_close(h, values, "constant");
}

TEST(LogHistogramTest, QuantileErrorBoundBimodal) {
  // Two tight modes four orders of magnitude apart — the shape that breaks
  // fixed-bucket reservoirs.
  tx::Generator gen(11);
  LogHistogram h;
  std::vector<double> values;
  for (int i = 0; i < 4000; ++i) {
    const double mode = (i % 4 == 0) ? 1.5 : 1.2e-4;
    const double v = mode * (1.0 + 0.01 * gen.uniform(-1.0, 1.0));
    values.push_back(v);
    h.record(v);
  }
  expect_quantiles_close(h, values, "bimodal");
}

TEST(LogHistogramTest, QuantileErrorBoundHeavyTail) {
  // Log-normal-ish heavy tail spanning many octaves.
  tx::Generator gen(13);
  LogHistogram h;
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    double g = 0.0;
    for (int k = 0; k < 6; ++k) g += gen.uniform(-1.0, 1.0);
    const double v = 1e-3 * std::exp(1.7 * g);
    values.push_back(v);
    h.record(v);
  }
  expect_quantiles_close(h, values, "heavy-tail");
}

TEST(LogHistogramTest, ConcurrentRecordEqualsSequentialBitwise) {
  // Workers share one histogram: recording a stream split across threads
  // leaves exactly the bucket counts of the stream recorded in order.
  tx::Generator gen(17);
  constexpr int kWorkers = 5;
  std::vector<double> values;
  for (int i = 0; i < 30000; ++i) {
    values.push_back(std::exp(gen.uniform(-16.0, 4.0)));
  }
  LogHistogram shared;
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (auto i = static_cast<std::size_t>(w); i < values.size();
           i += kWorkers) {
        shared.record(values[i]);
      }
    });
  }
  for (auto& t : workers) t.join();
  LogHistogram sequential;
  for (const double v : values) sequential.record(v);

  EXPECT_EQ(shared.count(), sequential.count());
  const HistogramSnapshot a = shared.snapshot();
  const HistogramSnapshot b = sequential.snapshot();
  ASSERT_EQ(a.bucket_counts.size(), b.bucket_counts.size());
  for (std::size_t i = 0; i < a.bucket_counts.size(); ++i) {
    EXPECT_EQ(a.bucket_counts[i], b.bucket_counts[i]) << "bucket " << i;
  }
  ASSERT_EQ(a.bounds.size(), b.bounds.size());
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  // Quantiles agree exactly (same buckets, same counts, same clamp range).
  EXPECT_EQ(a.quantile(0.5), b.quantile(0.5));
  EXPECT_EQ(a.quantile(0.99), b.quantile(0.99));
}

TEST(LogHistogramTest, SnapshotTrimsToNonEmptyRange) {
  LogHistogram h;
  h.record(0.001);
  h.record(0.002);
  h.record(0.002);
  h.record(1000.0);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 4);
  // Three occupied buckets, far apart: only those three are listed, none of
  // the empty ones between them.
  const int b1 = LogHistogram::index_of(0.001);
  const int b2 = LogHistogram::index_of(0.002);
  const int b3 = LogHistogram::index_of(1000.0);
  ASSERT_EQ(snap.bucket_counts, (std::vector<std::int64_t>{1, 2, 1}));
  EXPECT_EQ(snap.bounds, (std::vector<double>{LogHistogram::upper_edge_of(b1),
                                              LogHistogram::upper_edge_of(b2),
                                              LogHistogram::upper_edge_of(b3)}));
  EXPECT_EQ(snap.representatives,
            (std::vector<double>{LogHistogram::representative_of(b1),
                                 LogHistogram::representative_of(b2),
                                 LogHistogram::representative_of(b3)}));

  // An empty histogram trims to nothing, with zeroed summaries rather than
  // the +/-inf min/max sentinels.
  const HistogramSnapshot empty = LogHistogram().snapshot();
  EXPECT_EQ(empty.count, 0);
  EXPECT_TRUE(empty.bucket_counts.empty());
  EXPECT_DOUBLE_EQ(empty.sum, 0.0);
  EXPECT_DOUBLE_EQ(empty.min, 0.0);
  EXPECT_DOUBLE_EQ(empty.max, 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST(LogHistogramTest, SumMinMaxTracked) {
  LogHistogram h;
  h.record(0.25);
  h.record(1.0);
  h.record(4.0);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 3);
  EXPECT_DOUBLE_EQ(snap.sum, 5.25);
  EXPECT_DOUBLE_EQ(snap.min, 0.25);
  EXPECT_DOUBLE_EQ(snap.max, 4.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 1.75);
}

TEST(LogHistogramTest, RegistrySnapshotCarriesOneBoundPerBucket) {
  // The JSON and Prometheus renderers index bounds by bucket, so every
  // registry snapshot, overflow bucket included, has one bound per count.
  auto& reg = tx::obs::registry();
  reg.clear();
  reg.log_histogram("one.kind").record(0.5);
  reg.log_histogram("one.kind").record(4096.0);
  const auto hists = reg.histograms();
  ASSERT_EQ(hists.count("one.kind"), 1u);
  const HistogramSnapshot& snap = hists.at("one.kind");
  EXPECT_EQ(snap.count, 2);
  ASSERT_FALSE(snap.bucket_counts.empty());
  EXPECT_EQ(snap.bounds.size(), snap.bucket_counts.size());
  EXPECT_EQ(snap.representatives.size(), snap.bucket_counts.size());
  EXPECT_TRUE(std::isinf(snap.bounds.back()));
  EXPECT_EQ(snap.bucket_counts.back(), 1);
  reg.clear();
}

}  // namespace
