// Tests for tx::obs (metrics registry, scoped timers, JSONL event sink),
// including the disabled-overhead bound the subsystem promises.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "dist/distributions.h"
#include "infer/infer.h"
#include "obs/obs.h"
#include "ppl/ppl.h"

namespace tx {
namespace {

/// Fresh registry state + obs enabled for every test in this file.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::registry().clear();
  }
  void TearDown() override {
    obs::set_enabled(true);
    obs::registry().clear();
    ppl::clear_param_store();
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

TEST_F(ObsTest, CounterGaugeBasics) {
  auto& c = obs::registry().counter("test.count");
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  // Same name resolves to the same metric object.
  EXPECT_EQ(&obs::registry().counter("test.count"), &c);
  c.reset();
  EXPECT_EQ(c.value(), 0);

  auto& g = obs::registry().gauge("test.gauge");
  g.set(-2.5);
  EXPECT_DOUBLE_EQ(g.value(), -2.5);
  g.set(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST_F(ObsTest, CounterIsThreadSafe) {
  auto& c = obs::registry().counter("test.mt");
  constexpr int kThreads = 8, kAdds = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kAdds);
}

TEST_F(ObsTest, ScopedTimerRecordsNestedSpans) {
  {
    obs::ScopedTimer outer("outer");
    EXPECT_EQ(obs::span_depth(), 1u);
    {
      obs::ScopedTimer inner("inner");
      EXPECT_EQ(obs::span_depth(), 2u);
    }
  }
  EXPECT_EQ(obs::span_depth(), 0u);
  const auto hists = obs::registry().histograms();
  ASSERT_TRUE(hists.count("span.outer"));
  ASSERT_TRUE(hists.count("span.outer/inner"));
  EXPECT_EQ(hists.at("span.outer").count, 1);
  EXPECT_EQ(hists.at("span.outer/inner").count, 1);
  EXPECT_GE(hists.at("span.outer").sum, hists.at("span.outer/inner").sum);
}

TEST_F(ObsTest, ScopedTimerDisabledRecordsNothing) {
  obs::set_enabled(false);
  {
    obs::ScopedTimer t("ghost");
    EXPECT_EQ(obs::span_depth(), 0u);
  }
  obs::set_enabled(true);
  EXPECT_EQ(obs::registry().histograms().count("span.ghost"), 0u);
}

TEST_F(ObsTest, EventJsonRendering) {
  obs::Event e;
  e.set("step", std::int64_t{3})
      .set("loss", 1.5)
      .set("phase", "warm\"up\n")
      .set("ok", true)
      .set("bad", std::nan(""));
  EXPECT_EQ(e.to_json(),
            "{\"step\": 3, \"loss\": 1.5, \"phase\": \"warm\\\"up\\n\", "
            "\"ok\": true, \"bad\": null}");
}

TEST_F(ObsTest, EscapeJsonEdgeCases) {
  // Quotes and backslashes.
  EXPECT_EQ(obs::escape_json("a\"b\\c"), "a\\\"b\\\\c");
  // Named control escapes.
  EXPECT_EQ(obs::escape_json("x\ny\rz\tw"), "x\\ny\\rz\\tw");
  // Remaining control characters render as \u00XX, including embedded NUL.
  EXPECT_EQ(obs::escape_json(std::string("a\0b", 3)), "a\\u0000b");
  EXPECT_EQ(obs::escape_json("\x01\x1f"), "\\u0001\\u001f");
  // Multi-byte UTF-8 passes through untouched (bytes >= 0x80 are not
  // control characters and must not be sign-extended into \uffXX).
  EXPECT_EQ(obs::escape_json("\xce\xbc=0.5"), "\xce\xbc=0.5");
  EXPECT_EQ(obs::escape_json(""), "");
}

TEST_F(ObsTest, EventNonFiniteValuesRenderAsNull) {
  obs::Event e;
  e.set("nan", std::nan(""))
      .set("pinf", std::numeric_limits<double>::infinity())
      .set("ninf", -std::numeric_limits<double>::infinity());
  EXPECT_EQ(e.to_json(), "{\"nan\": null, \"pinf\": null, \"ninf\": null}");
}

TEST_F(ObsTest, EventSinkBadPathIsHarmless) {
  obs::EventSink sink("/nonexistent-dir/obs_events.jsonl");
  EXPECT_FALSE(sink.ok());
  EXPECT_EQ(obs::registry().counters().at("obs.sink_errors"), 1);
  // Emitting into a failed sink is a silent no-op, never a throw.
  obs::Event e;
  e.set("step", 1);
  EXPECT_NO_THROW(sink.emit(e));
  EXPECT_EQ(sink.events_written(), 0);
  // The failure was counted once at the open, not again per emit.
  EXPECT_EQ(obs::registry().counters().at("obs.sink_errors"), 1);
}

TEST_F(ObsTest, WriteSnapshotReportsFailure) {
  EXPECT_FALSE(obs::EventSink::write_snapshot("/nonexistent-dir/BENCH_x.json",
                                              "unit_bench"));
  EXPECT_EQ(obs::registry().counters().at("obs.sink_errors"), 1);
  const std::string good = temp_path("obs_snapshot_ok.json");
  EXPECT_TRUE(obs::EventSink::write_snapshot(good, "unit_bench"));
  std::remove(good.c_str());
}

TEST_F(ObsTest, EventSinkJsonlRoundTrip) {
  const std::string path = temp_path("obs_events.jsonl");
  {
    obs::EventSink sink(path);
    for (int i = 0; i < 3; ++i) {
      obs::Event e;
      e.set("step", i).set("loss", 10.0 - i);
      sink.emit(e);
    }
    EXPECT_EQ(sink.events_written(), 3);
  }
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"step\": " + std::to_string(lines)),
              std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, 3);
  std::remove(path.c_str());
}

TEST_F(ObsTest, SnapshotWritesBenchSchema) {
  obs::registry().counter("unit.count").add(7);
  obs::registry().gauge("unit.gauge").set(0.25);
  // A lone value clamps its bucket's midpoint to itself, so p50 is exact;
  // a value past 2^10 lands in the overflow bucket, whose bound is "inf".
  obs::registry().log_histogram("unit.hist").record(1.5);
  obs::registry().log_histogram("unit.overflow").record(2048.0);
  const std::string path = temp_path("obs_snapshot.json");
  obs::EventSink::write_snapshot(path, "unit_bench", obs::registry(),
                                 {{"loss", {3.0, 2.0, 1.0}}});
  const std::string doc = read_file(path);
  EXPECT_NE(doc.find("\"bench\": \"unit_bench\""), std::string::npos);
  EXPECT_NE(doc.find("\"schema\": \"tx.obs.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"unit.count\": 7"), std::string::npos);
  EXPECT_NE(doc.find("\"unit.gauge\": 0.25"), std::string::npos);
  EXPECT_NE(doc.find("\"p50\": 1.5, "), std::string::npos);
  EXPECT_NE(doc.find("\"le\": \"inf\""), std::string::npos);
  EXPECT_NE(doc.find("\"loss\": [3, 2, 1]"), std::string::npos);
  // Braces balance, i.e. the document is at least structurally JSON.
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
  std::remove(path.c_str());
}

/// Toy program: three latent sites, one observed site, one param.
void toy_model() {
  auto normal = std::make_shared<dist::Normal>(0.0f, 1.0f);
  ppl::sample("a", normal);
  ppl::sample("b", normal);
  ppl::sample("c", normal);
  ppl::param("theta", Tensor::scalar(1.0f));
  ppl::sample("obs", normal, Tensor::scalar(0.5f));
}

/// CPU time of the calling thread. Unlike wall time it does not stretch
/// when the VM is descheduled or the host steals cycles mid-test.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// The acceptance bound: with the runtime switch off, running a model inside
/// a timer span costs < 5% over the bare model. Best-of-N per-thread CPU
/// time on both sides, block-interleaved, to shake scheduler and VM noise.
TEST_F(ObsTest, DisabledInstrumentationOverheadUnderFivePercent) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "timing bound is for plain builds; sanitizers dilate it";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "timing bound is for plain builds; sanitizers dilate it";
#endif
#endif
  // ~8 ms of model calls per side and repeat, so the 50us floor below is
  // under 1% of the timed work and a 5% overhead cannot hide inside it.
  constexpr int kIters = 6000, kRepeats = 7, kBlock = 10;
  const auto time_block = [](const std::function<void()>& fn) {
    const double t0 = thread_cpu_seconds();
    for (int i = 0; i < kBlock; ++i) fn();
    return thread_cpu_seconds() - t0;
  };
  const auto bare_fn = [] { toy_model(); };
  const auto instrumented_fn = [] {
    obs::ScopedTimer span("overhead.model");
    toy_model();
  };

  // Each repeat times kIters calls per side in kBlock-call blocks that
  // alternate between the sides (and which side goes first), so a change in
  // machine speed during the test lands on both sums alike instead of on
  // whichever side happened to run during it.
  obs::set_enabled(false);
  double bare = 1e300, instrumented = 1e300;
  for (int r = 0; r < kRepeats; ++r) {
    double bare_r = 0.0, instrumented_r = 0.0;
    for (int k = 0; k < kIters / kBlock; ++k) {
      if (k % 2 == 0) bare_r += time_block(bare_fn);
      instrumented_r += time_block(instrumented_fn);
      if (k % 2 == 1) bare_r += time_block(bare_fn);
    }
    bare = std::min(bare, bare_r);
    instrumented = std::min(instrumented, instrumented_r);
  }
  obs::set_enabled(true);

  // 5% relative plus a 50us absolute floor so a sub-microsecond toy model on
  // a noisy machine cannot flake the suite.
  EXPECT_LT(instrumented, bare * 1.05 + 50e-6)
      << "bare=" << bare << "s instrumented=" << instrumented << "s";
}

TEST_F(ObsTest, SviEmitsMetricsAndCallback) {
  ppl::clear_param_store();
  auto model = [] {
    ppl::sample("z", std::make_shared<dist::Normal>(0.0f, 1.0f),
                Tensor::scalar(0.3f));
  };
  auto guide = [] {};
  auto svi = infer::SVI(model, guide,
                        std::make_shared<infer::Adam>(1e-2),
                        std::make_shared<infer::TraceELBO>());
  std::vector<infer::SVIStepInfo> seen;
  svi.set_step_callback([&](const infer::SVIStepInfo& s) { seen.push_back(s); });
  for (int i = 0; i < 3; ++i) svi.step();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].step, 0);
  EXPECT_EQ(seen[2].step, 2);
  EXPECT_GT(seen[0].seconds, 0.0);
  EXPECT_EQ(obs::registry().counters().at("svi.steps"), 3);
  EXPECT_EQ(obs::registry().histograms().at("svi.step_seconds").count, 3);
  EXPECT_DOUBLE_EQ(obs::registry().gauges().at("svi.loss"), seen[2].loss);
}

}  // namespace
}  // namespace tx
