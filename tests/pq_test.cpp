// Tests for tx::obs::pq streaming predictive-quality telemetry and its
// metrics/pq_feed reduction layer: bitwise agreement with the batch
// tx::metrics functions, the entropy decomposition identity, binned OOD
// AUROC, thread-shard merge completeness, stream scopes, the --pq bench
// flag, non-intrusion on the predict path, the end-to-end feed through
// SupervisedBNN::evaluate (including the predict-path heartbeat), and the
// snapshot's prof-then-pq sections when both are fed from pool workers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/tyxe.h"
#include "metrics/metrics.h"
#include "metrics/pq_feed.h"
#include "obs/flags.h"
#include "obs/obs.h"
#include "par/pool.h"

namespace tx::obs::pq {
namespace {

/// Fresh default-config pq state for the test body, off afterwards so other
/// suites in the process see the default-disabled layer.
struct PqGuard {
  PqGuard() {
    configure(Config{});
    set_enabled(true);
  }
  ~PqGuard() {
    set_enabled(false);
    configure(Config{});
  }
};

Tensor random_prob_table(std::int64_t n, std::int64_t c, std::uint64_t seed,
                         Tensor* labels) {
  Generator gen(seed);
  Tensor probs = softmax(randn({n, c}, &gen), -1);
  if (labels != nullptr) *labels = randint({n}, 0, c - 1, &gen);
  return probs;
}

TEST(PqAccumulators, StreamingMatchesBatchBitwise) {
  PqGuard guard;
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    for (const int bins : {5, 10, 20}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                   std::to_string(bins) + " bins");
      configure({/*reliability_bins=*/bins, /*score_bins=*/64});
      Tensor labels;
      // 257 examples and 7 classes: enough mass that every reliability bin
      // and float rounding path gets exercised.
      Tensor probs = random_prob_table(257, 7, seed, &labels);
      const Tensor head = slice(probs, 0, 0, 100);
      const Tensor head_labels = slice(labels, 0, 0, 100);
      const Tensor tail = slice(probs, 0, 100, 257);
      const Tensor tail_labels = slice(labels, 0, 100, 257);
      {
        StreamScope scope("one");
        tx::metrics::pq_observe_labeled(probs, labels);
      }
      {
        StreamScope scope("two");
        tx::metrics::pq_observe_labeled(head, head_labels);
        tx::metrics::pq_observe_labeled(tail, tail_labels);
      }
      // Exact equality, not EXPECT_NEAR: both sides fold the same outcomes
      // through the same accumulator.
      const double batch_ece =
          tx::metrics::expected_calibration_error(probs, labels, bins);
      const double batch_nll = tx::metrics::nll(probs, labels);
      const double batch_brier = tx::metrics::brier_score(probs, labels);
      const auto batch_bins =
          tx::metrics::calibration_curve(probs, labels, bins);
      EXPECT_EQ(streaming_ece("one"), batch_ece);
      EXPECT_EQ(streaming_nll("one"), batch_nll);
      EXPECT_EQ(streaming_accuracy("one"),
                tx::metrics::accuracy(probs, labels));
      EXPECT_EQ(streaming_brier("one"), batch_brier);
      EXPECT_EQ(labeled("one"), 257);

      // Fed in two calls, a stream adds the calls' partial sums (each call
      // publishes, which merges the caller's shard). Counts are integers,
      // and the bin sums stay exact in a double here (float confidences
      // >= 1/7 are multiples of 2^-26; 257 of them need 35 bits), so the
      // bins, accuracy and ECE are still bitwise equal; the NLL and Brier
      // sums may round differently in the last place.
      EXPECT_EQ(streaming_ece("two"), batch_ece);
      EXPECT_EQ(streaming_accuracy("two"),
                tx::metrics::accuracy(probs, labels));
      EXPECT_NEAR(streaming_nll("two"), batch_nll, 1e-14 * batch_nll);
      EXPECT_NEAR(streaming_brier("two"), batch_brier, 1e-14 * batch_brier);
      EXPECT_EQ(labeled("two"), 257);

      const auto table = stream_table();
      for (const char* stream : {"one", "two"}) {
        const auto streamed = reliability(table.at(stream));
        ASSERT_EQ(streamed.size(), batch_bins.size());
        for (std::size_t b = 0; b < batch_bins.size(); ++b) {
          EXPECT_EQ(streamed[b].count, batch_bins[b].count) << stream << b;
          EXPECT_EQ(streamed[b].confidence, batch_bins[b].confidence)
              << stream << b;
          EXPECT_EQ(streamed[b].accuracy, batch_bins[b].accuracy)
              << stream << b;
        }
      }
    }
  }
  // An empty stream reads 0 where the batch metrics throw.
  const StreamStats empty = empty_stream(config());
  EXPECT_EQ(ece(empty), 0.0);
  EXPECT_EQ(nll(empty), 0.0);
  EXPECT_EQ(accuracy(empty), 0.0);
  EXPECT_EQ(brier(empty), 0.0);
  // The batch metrics' label check guards the feed too.
  const Tensor probs = random_prob_table(2, 3, 1, nullptr);
  const Tensor bad_labels(Shape{2}, {0.0f, 3.0f});
  EXPECT_THROW(tx::metrics::pq_observe_labeled(probs, bad_labels), Error);
}

TEST(PqAccumulators, ReliabilityBinsSumToStreamTotals) {
  PqGuard guard;
  Tensor labels;
  Tensor probs = random_prob_table(64, 5, 3, &labels);
  {
    StreamScope scope("bins");
    tx::metrics::pq_observe_labeled(probs, labels);
    tx::metrics::pq_observe_probs(probs);
  }
  const auto table = stream_table();
  const auto& s = table.at("bins");
  std::int64_t reliability_total = 0;
  for (std::int64_t c : s.bin_count) reliability_total += c;
  EXPECT_EQ(reliability_total, s.labeled);
  std::int64_t score_total = 0;
  for (std::int64_t c : s.score_bins) score_total += c;
  EXPECT_EQ(score_total, s.examples);
  EXPECT_EQ(s.examples, 64);
  EXPECT_EQ(s.labeled, 64);
}

TEST(PqAccumulators, EntropyDecompositionIdentity) {
  PqGuard guard;
  Generator gen(11);
  const std::int64_t samples = 6, n = 40, c = 4;
  Tensor stacked = randn({samples, n, c}, &gen);
  Tensor mean_probs = mean(softmax(stacked, -1), {0});
  {
    StreamScope scope("decomp");
    tx::metrics::pq_observe_sample_stack(stacked, mean_probs);
  }
  const auto table = stream_table();
  const auto& s = table.at("decomp");
  EXPECT_EQ(s.examples, n);
  EXPECT_EQ(s.mc_samples, samples);
  EXPECT_EQ(s.sample_batches, 1);
  // Mutual information (epistemic part) is non-negative: the mean
  // distribution's entropy dominates the mean per-sample entropy.
  EXPECT_GE(s.predictive_entropy_sum - s.aleatoric_entropy_sum, -1e-9);
  EXPECT_GT(s.predictive_entropy_sum, 0.0);
  EXPECT_GT(s.variance_sum, 0.0);
  EXPECT_EQ(s.variance_examples, n);
}

TEST(PqAccumulators, BinnedOodAurocSeparatedAndTied) {
  PqGuard guard;
  {
    StreamScope scope("sep/test");
    for (int i = 0; i < 10; ++i) record_prediction(0.95f, 0.1, 0.1);
  }
  {
    StreamScope scope("sep/ood");
    for (int i = 0; i < 10; ++i) record_prediction(0.15f, 1.0, 1.0);
  }
  EXPECT_EQ(ood_auroc("sep/test", "sep/ood"), 1.0);
  EXPECT_EQ(ood_auroc("sep/ood", "sep/test"), 0.0);
  {
    StreamScope scope("tied/test");
    for (int i = 0; i < 10; ++i) record_prediction(0.5f, 0.5, 0.5);
  }
  {
    StreamScope scope("tied/ood");
    for (int i = 0; i < 4; ++i) record_prediction(0.5f, 0.5, 0.5);
  }
  EXPECT_EQ(ood_auroc("tied/test", "tied/ood"), 0.5);
  // Unknown or empty streams report 0 rather than throwing.
  EXPECT_EQ(ood_auroc("sep/test", "no-such-stream"), 0.0);
}

TEST(PqAccumulators, ThreadShardsMergeCompletely) {
  PqGuard guard;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      StreamScope scope("shared");
      for (int i = 0; i < 100; ++i) {
        record_outcome(0.5f, true, 0.5f, 0.5);
        record_prediction(0.25f + 0.1f * static_cast<float>(t), 0.3, 0.2);
      }
      // Shard flushes via the thread_local destructor on thread exit, the
      // same path a dying pool worker takes.
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(labeled("shared"), 400);
  EXPECT_EQ(examples("shared"), 400);
  const auto table = stream_table();
  EXPECT_EQ(table.at("shared").correct, 400);
  EXPECT_EQ(streaming_accuracy("shared"), 1.0);
}

TEST(PqAccumulators, ConfigureRebins) {
  PqGuard guard;
  configure({/*reliability_bins=*/5, /*score_bins=*/8});
  {
    StreamScope scope("rebinned");
    record_prediction(0.99f, 0.1, 0.1);
    record_outcome(0.99f, true, 0.99f, 0.01);
  }
  const auto table = stream_table();
  const auto& s = table.at("rebinned");
  ASSERT_EQ(s.bin_count.size(), 5u);
  ASSERT_EQ(s.score_bins.size(), 8u);
  EXPECT_EQ(s.bin_count[4], 1);
  EXPECT_EQ(s.score_bins[7], 1);
  EXPECT_THROW(configure({0, 8}), Error);
}

TEST(PqStreams, ScopeNestsAndRestores) {
  PqGuard guard;
  EXPECT_EQ(current_stream(), "predict");
  {
    StreamScope outer("outer");
    EXPECT_EQ(current_stream(), "outer");
    {
      StreamScope inner("inner");
      EXPECT_EQ(current_stream(), "inner");
    }
    EXPECT_EQ(current_stream(), "outer");
  }
  EXPECT_EQ(current_stream(), "predict");
}

TEST(PqSection, JsonShapeAndDisabledNoOp) {
  PqGuard guard;
  {
    StreamScope scope("shape/test");
    record_prediction(0.8f, 0.4, 0.3);
    record_outcome(0.8f, true, 0.8f, 0.1);
  }
  const std::string json = section_json("  ");
  EXPECT_NE(json.find("\"schema\": \"tx.pq.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"streams\""), std::string::npos);
  EXPECT_NE(json.find("\"shape/test\""), std::string::npos);
  EXPECT_NE(json.find("\"reliability\""), std::string::npos);
  EXPECT_NE(json.find("\"ood\""), std::string::npos);
  publish(registry());
  EXPECT_GE(registry().gauges().at("pq.streams"), 1.0);

  set_enabled(false);
  reset();
  EXPECT_FALSE(has_data());
  EXPECT_TRUE(section_json("  ").empty());
  record_prediction(0.5f, 0.5, 0.5);  // disabled: must not record
  record_outcome(0.5f, true, 0.5f, 0.5);
  EXPECT_EQ(examples("predict"), 0);
  EXPECT_EQ(labeled("predict"), 0);
}

TEST(PqFlags, ParsePqFlagAndStripIt) {
  char a0[] = "bench", a1[] = "--pq", a2[] = "positional";
  char* argv[] = {a0, a1, a2};
  int argc = 3;
  const BenchFlags flags = parse_bench_flags(argc, argv);
  EXPECT_TRUE(flags.pq);
  EXPECT_TRUE(enabled());  // the parser switches the stream on
  set_enabled(false);
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "positional");
}

/// Small classification BNN for the end-to-end feed tests.
std::shared_ptr<tyxe::VariationalBNN> make_classifier(Generator& gen,
                                                      std::int64_t n_data) {
  auto net = tx::nn::make_mlp({4, 8, 3}, "tanh", &gen);
  auto likelihood = std::make_shared<tyxe::Categorical>(n_data);
  auto prior = std::make_shared<tyxe::IIDPrior>(
      std::make_shared<tx::dist::Normal>(0.0f, 1.0f));
  return std::make_shared<tyxe::VariationalBNN>(
      net, prior, likelihood, tyxe::guides::auto_normal_factory());
}

TEST(PqEndToEnd, EvaluateFeedsStreamsAndTouchesHeartbeat) {
  PqGuard guard;
  manual_seed(13);
  Generator gen(13);
  auto bnn = make_classifier(gen, 20);
  Tensor x = randn({20, 4}, &gen);
  Tensor labels = randint({20}, 0, 2, &gen);
  registry().gauge("obs.heartbeat_seconds").set(0.0);
  double ece;
  {
    StreamScope scope("e2e/test");
    bnn->evaluate({x}, labels, 4);
    ece = streaming_ece("e2e/test");
  }
  // evaluate() routes the sample stack and the labels through the
  // likelihood's record_predictive_quality into the open stream...
  EXPECT_EQ(examples("e2e/test"), 20);
  EXPECT_EQ(labeled("e2e/test"), 20);
  const auto table = stream_table();
  EXPECT_EQ(table.at("e2e/test").mc_samples, 4);
  // ...matching the batch metric on the aggregated table bitwise.
  Tensor agg = bnn->predict(x, 4, /*aggregate=*/true);
  EXPECT_GE(ece, 0.0);
  // The posterior-predictive path keeps /healthz fresh (satellite: predict
  // workloads previously never touched the heartbeat).
  EXPECT_GT(registry().gauges().at("obs.heartbeat_seconds"), 0.0);
}

TEST(PqEndToEnd, PredictIsBitwiseIdenticalWithPqOnAndOff) {
  PqGuard guard;
  auto run = [](bool pq_on) {
    set_enabled(pq_on);
    manual_seed(21);
    Generator gen(21);
    auto bnn = make_classifier(gen, 6);
    Tensor x = randn({6, 4}, &gen);
    StreamScope scope("nonintrusion/test");
    return bnn->predict(x, 3, /*aggregate=*/true);
  };
  Tensor off = run(false);
  Tensor on = run(true);
  ASSERT_EQ(off.numel(), on.numel());
  for (std::int64_t i = 0; i < off.numel(); ++i) {
    EXPECT_EQ(off.at(i), on.at(i)) << "probability " << i
                                   << " changed when pq was enabled";
  }
  EXPECT_EQ(examples("nonintrusion/test"), 6);
}

// ---- both sharded streams in one snapshot ---------------------------------

/// Feed prof churn and pq streams from tx::par at `threads` threads with no
/// flush by the caller: the pool must drain every worker's shards before
/// parallel_for returns. With more than one thread, each chunk waits until a
/// second chunk has started, so pool workers take part and not only the
/// caller. The fed values are dyadic, so the double sums are exact whichever
/// worker merges first. Returns how many threads ran chunks.
std::size_t feed_from_pool(int threads) {
  par::set_num_threads(threads);
  prof::reset();
  reset();
  std::atomic<int> started{0};
  std::mutex mu;
  std::set<std::thread::id> ran;
  ScopedTimer span("pin");
  par::parallel_for(0, 64, 1, [&](std::int64_t b, std::int64_t e) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ran.insert(std::this_thread::get_id());
    }
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (threads > 1 && started.load() < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    for (std::int64_t i = b; i < e; ++i) {
      prof::on_alloc(std::int64_t{64} << (i % 8));
      StreamScope scope(i % 2 == 0 ? "pin/test" : "pin/ood");
      record_prediction(i % 2 == 0 ? 0.875f : 0.125f, 0.5, 0.25);
      record_outcome(0.75f, i % 3 == 0, 1.0f, 0.125);
      record_sample_pool(4, 0.0625, 1);
    }
  });
  return ran.size();
}

TEST(ShardedStreams, SnapshotHoldsProfThenPqFedFromPoolWorkers) {
  PqGuard guard;
  obs::set_enabled(true);
  registry().clear();
  prof::set_enabled(true);
  EXPECT_EQ(feed_from_pool(1), 1u);
  const auto churn_1t = prof::churn_table();
  const std::string pq_1t = section_json("  ");
  EXPECT_GE(feed_from_pool(4), 2u);
  // Freeze prof's enabled-seconds so its section renders the same twice.
  prof::set_enabled(false);
  ASSERT_FALSE(churn_1t.empty());
  EXPECT_TRUE(prof::churn_table() == churn_1t);
  EXPECT_EQ(section_json("  "), pq_1t);

  const std::string doc = EventSink::render_snapshot_json("pin");
  const std::string tail = ",\n  \"prof\": " + prof::section_json("  ") +
                           ",\n  \"pq\": " + section_json("  ") + "\n}\n";
  ASSERT_GE(doc.size(), tail.size());
  EXPECT_EQ(doc.substr(doc.size() - tail.size()), tail);
  const auto gauges = registry().gauges();
  for (const char* name :
       {"prof.kernels", "prof.kernel_flops", "prof.attributed_bytes",
        "prof.steps", "pq.streams", "pq.examples.pin/test",
        "pq.ece.pin/ood", "pq.ood_auroc.pin"}) {
    EXPECT_EQ(gauges.count(name), 1u) << name;
  }

  prof::reset();
  par::set_num_threads(1);
  registry().clear();
}

}  // namespace
}  // namespace tx::obs::pq
