// Tests for the Chrome-trace recorder (obs/trace.h), tensor memory
// accounting (obs/mem.h), and the span-path propagation into tx::par
// workers, including a python round-trip against validate_bench.py when a
// python3 interpreter is available.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "par/pool.h"
#include "tensor/tensor.h"

namespace tx {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::registry().clear();
    obs::stop_tracing();
    obs::clear_trace();
  }
  void TearDown() override {
    obs::stop_tracing();
    obs::clear_trace();
    obs::set_enabled(true);
    obs::registry().clear();
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

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST_F(TraceTest, OffByDefaultAndEmissionIsGated) {
  EXPECT_FALSE(obs::tracing());
  obs::trace_begin("ignored");
  obs::trace_end("ignored");
  obs::trace_instant("ignored");
  obs::trace_counter("ignored", 1.0);
  EXPECT_EQ(obs::trace_event_count(), 0);
}

TEST_F(TraceTest, RecordsAndExportsSlices) {
  obs::start_tracing();
  obs::set_trace_thread_name("main");
  {
    obs::TraceSpan outer("outer");
    obs::TraceSpan inner("inner");
    obs::trace_instant("tick");
    obs::trace_counter("gauge", 2.5);
  }
  obs::stop_tracing();
  EXPECT_EQ(obs::trace_event_count(), 6);  // 2 B + 2 E + i + C

  const std::string path = temp_path("trace_slices.json");
  ASSERT_TRUE(obs::write_trace(path));
  const std::string text = read_file(path);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"outer\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"inner\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"main\""), std::string::npos);
  EXPECT_NE(text.find("\"tx.trace.v1\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TraceTest, BalancesOrphanedAndUnclosedEvents) {
  obs::start_tracing();
  obs::trace_end("orphan");     // B lost (simulates ring wrap): dropped
  obs::trace_begin("unclosed"); // still open at export: synthetic close
  obs::stop_tracing();

  const std::string path = temp_path("trace_balance.json");
  ASSERT_TRUE(obs::write_trace(path));
  const std::string text = read_file(path);
  EXPECT_EQ(count_occurrences(text, "\"orphan\""), 0u);
  // One B plus one synthesized E.
  EXPECT_EQ(count_occurrences(text, "\"unclosed\""), 2u);
  std::remove(path.c_str());
}

TEST_F(TraceTest, ConcurrentSlicesFromPoolThreads) {
  const int prev = par::num_threads();
  par::set_num_threads(8);
  obs::start_tracing();
  constexpr std::int64_t kItems = 256;
  par::parallel_for(0, kItems, 1, [](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      obs::TraceSpan span("work_item");
      obs::trace_instant("work_tick");
    }
  });
  obs::stop_tracing();
  par::set_num_threads(prev);

  // Every item emitted one B + one E + one instant, with no loss across the
  // 8 racing threads (plus par.chunk slices from the pool itself).
  const std::string path = temp_path("trace_mt.json");
  ASSERT_TRUE(obs::write_trace(path));
  const std::string text = read_file(path);
  EXPECT_EQ(count_occurrences(text, "\"work_item\""),
            static_cast<std::size_t>(2 * kItems));
  EXPECT_EQ(count_occurrences(text, "\"work_tick\""),
            static_cast<std::size_t>(kItems));
  // Worker threads appear as named tracks.
  EXPECT_NE(text.find("\"par-worker-1\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TraceTest, StartTracingClearsPreviousEvents) {
  obs::start_tracing();
  obs::trace_instant("first_run");
  obs::stop_tracing();
  EXPECT_GT(obs::trace_event_count(), 0);
  obs::start_tracing();
  obs::stop_tracing();
  EXPECT_EQ(obs::trace_event_count(), 0);
}

TEST_F(TraceTest, WriteTraceFailureCountsSinkError) {
  obs::start_tracing();
  obs::trace_instant("x");
  obs::stop_tracing();
  const std::int64_t before =
      obs::registry().counter("obs.sink_errors").value();
  EXPECT_FALSE(obs::write_trace("/nonexistent-dir/trace.json"));
  EXPECT_EQ(obs::registry().counter("obs.sink_errors").value(), before + 1);
}

TEST_F(TraceTest, ScopedTimerDoublesAsTraceSlice) {
  obs::start_tracing();
  {
    obs::ScopedTimer outer("fit");
    obs::ScopedTimer inner("step");
  }
  obs::stop_tracing();
  const std::string path = temp_path("trace_timer.json");
  ASSERT_TRUE(obs::write_trace(path));
  const std::string text = read_file(path);
  // Slices use the leaf name; histograms keep the full nested path.
  EXPECT_EQ(count_occurrences(text, "\"name\": \"fit\""), 2u);
  EXPECT_EQ(count_occurrences(text, "\"name\": \"step\""), 2u);
  // The slice end carries net allocation; live bytes tick as a counter.
  EXPECT_NE(text.find("\"net_bytes\""), std::string::npos);
  EXPECT_NE(text.find("\"mem.live_bytes\""), std::string::npos);
  auto hists = obs::registry().histograms();
  EXPECT_EQ(hists.count("span.fit/step"), 1u);
  std::remove(path.c_str());
}

TEST_F(TraceTest, TraceArgsAttachToSlice) {
  obs::start_tracing();
  { obs::TraceSpan s("op", obs::Event().set("m", 32).set("flops", 1024).to_json()); }
  obs::stop_tracing();
  const std::string path = temp_path("trace_args.json");
  ASSERT_TRUE(obs::write_trace(path));
  const std::string text = read_file(path);
  EXPECT_NE(text.find("\"flops\": 1024"), std::string::npos);
  std::remove(path.c_str());
}

// ---- span-path propagation into workers (the PR's bugfix) ------------------

TEST_F(TraceTest, SpanPathPropagatesIntoPoolWorkers) {
  const int prev = par::num_threads();
  par::set_num_threads(4);
  {
    obs::ScopedTimer outer("outer_fit");
    par::parallel_for(0, 64, 1, [](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        obs::ScopedTimer inner("worker_op");
        (void)inner;
      }
    });
  }
  par::set_num_threads(prev);
  // Worker-side spans must nest under the submitter's path, not start a
  // fresh root — on every thread that ran a chunk.
  auto hists = obs::registry().histograms();
  EXPECT_EQ(hists.count("span.outer_fit/worker_op"), 1u);
  EXPECT_EQ(hists.count("span.worker_op"), 0u);
  EXPECT_EQ(hists.at("span.outer_fit/worker_op").count, 64);
}

TEST_F(TraceTest, SpanBaseRestoredAfterJob) {
  const int prev = par::num_threads();
  par::set_num_threads(2);
  {
    obs::ScopedTimer outer("job_a");
    par::parallel_for(0, 8, 1, [](std::int64_t, std::int64_t) {});
  }
  // A second job with no open span must not inherit job_a's stale base.
  par::parallel_for(0, 8, 1, [](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) obs::ScopedTimer t("rootless");
  });
  par::set_num_threads(prev);
  auto hists = obs::registry().histograms();
  EXPECT_EQ(hists.count("span.rootless"), 1u);
  EXPECT_EQ(hists.count("span.job_a/rootless"), 0u);
}

// ---- memory accounting -----------------------------------------------------

TEST_F(TraceTest, MemAccountingTracksLiveAndPeak) {
  const std::int64_t tensors0 = obs::mem::live_tensors();
  const std::int64_t bytes0 = obs::mem::live_bytes();
  obs::mem::reset_peak();
  {
    Tensor t(Shape{1024});
    EXPECT_EQ(obs::mem::live_tensors(), tensors0 + 1);
    EXPECT_GE(obs::mem::live_bytes(), bytes0 + 4096);
    EXPECT_GE(obs::mem::peak_bytes(), bytes0 + 4096);
  }
  EXPECT_EQ(obs::mem::live_tensors(), tensors0);
  EXPECT_EQ(obs::mem::live_bytes(), bytes0);
  // The high-water mark survives the free.
  EXPECT_GE(obs::mem::peak_bytes(), bytes0 + 4096);
}

TEST_F(TraceTest, MemAccountingCoversGradBuffers) {
  const std::int64_t bytes0 = obs::mem::live_bytes();
  Tensor w(Shape{256});
  w.set_requires_grad(true);
  const std::int64_t after_data = obs::mem::live_bytes();
  EXPECT_GE(after_data, bytes0 + 1024);
  sum(square(w)).backward();
  EXPECT_GE(obs::mem::live_bytes(), after_data + 1024);  // grad buffer live
  w.zero_grad();
  EXPECT_LT(obs::mem::live_bytes(), after_data + 1024);  // released
}

TEST_F(TraceTest, MemHighWaterUnderChurn) {
  obs::mem::reset_peak();
  const std::int64_t base = obs::mem::live_bytes();
  for (int i = 0; i < 8; ++i) {
    Tensor big(Shape{64, 64});  // 16 KiB each, freed every iteration
  }
  EXPECT_EQ(obs::mem::live_bytes(), base);
  EXPECT_GE(obs::mem::peak_bytes(), base + 16384);
  // Peak reflects one-at-a-time churn, not the sum of all eight.
  EXPECT_LT(obs::mem::peak_bytes(), base + 8 * 16384);
}

TEST_F(TraceTest, SnapshotCarriesMemGauges) {
  Tensor keep(Shape{128});
  const std::string path = temp_path("trace_snapshot.json");
  ASSERT_TRUE(obs::EventSink::write_snapshot(path, "trace_test"));
  const std::string text = read_file(path);
  EXPECT_NE(text.find("\"mem.live_tensors\""), std::string::npos);
  EXPECT_NE(text.find("\"mem.live_bytes\""), std::string::npos);
  EXPECT_NE(text.find("\"mem.peak_bytes\""), std::string::npos);
  EXPECT_NE(text.find("\"mem.total_allocated_bytes\""), std::string::npos);
  std::remove(path.c_str());
}

// ---- bench flag parsing ----------------------------------------------------

// The trace path from the command line: `--trace <path>` wins, else
// TYXE_TRACE, else "" (tracing off).
std::string trace_path_of(std::vector<const char*> args) {
  std::vector<char*> argv;
  for (const char* a : args) argv.push_back(const_cast<char*>(a));
  int argc = static_cast<int>(argv.size());
  return obs::parse_bench_flags(argc, argv.data()).trace_path;
}

TEST_F(TraceTest, TracePathFromArgsPrefersFlag) {
  ::setenv("TYXE_TRACE", "env.json", 1);
  EXPECT_EQ(trace_path_of({"bench", "--trace", "out.json"}), "out.json");
  EXPECT_EQ(trace_path_of({"bench"}), "env.json");
  ::unsetenv("TYXE_TRACE");
  EXPECT_EQ(trace_path_of({"bench"}), "");
  // A trailing --trace with no value falls through to the env/default.
  EXPECT_EQ(trace_path_of({"bench", "--trace"}), "");
}

// ---- round-trip through the python validator -------------------------------

TEST_F(TraceTest, ExportedTracePassesPythonValidator) {
  if (std::system("python3 -c 'import json' >/dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  const int prev = par::num_threads();
  par::set_num_threads(4);
  obs::start_tracing();
  obs::set_trace_thread_name("main");
  {
    obs::ScopedTimer fit("roundtrip_fit");
    Tensor a = randn(Shape{96, 96});
    Tensor b = randn(Shape{96, 96});
    par::parallel_for(0, 32, 1, [](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) obs::TraceSpan s("rt_item");
    });
    (void)matmul(a, b);
    obs::trace_counter("mem.live_bytes",
                       static_cast<double>(obs::mem::live_bytes()));
  }
  obs::stop_tracing();
  par::set_num_threads(prev);

  const std::string path = temp_path("trace_roundtrip.trace.json");
  ASSERT_TRUE(obs::write_trace(path));
  const std::string cmd = std::string("python3 ") + TX_SOURCE_DIR +
                          "/scripts/validate_bench.py --trace " + path +
                          " >/dev/null 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << "validate_bench.py rejected "
                                         << path;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tx
