// Tests for the kernel roofline profiler and allocator-churn attribution
// (obs/prof.h): closed-form FLOP/byte counts for matmul/bmm/conv2d
// forward+backward, churn attribution that is bitwise-identical at 1 vs 4
// pool threads and accounts for (essentially all of) the obs::mem window,
// the shared bench flag parser, and python round-trips of
// validate_bench.py --prof and bench_diff.py on synthetic
// regressed/improved/noisy snapshot pairs.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "infer/infer.h"
#include "obs/obs.h"
#include "par/pool.h"
#include "ppl/ppl.h"
#include "tensor/tensor.h"

namespace tx {
namespace {

class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::registry().clear();
    obs::prof::reset();
    obs::prof::set_enabled(true);
    obs::prof::reset();
  }
  void TearDown() override {
    obs::prof::set_enabled(false);
    obs::prof::reset();
    par::set_num_threads(1);
    obs::registry().clear();
  }
};

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool python3_available() {
  static const bool ok =
      std::system("python3 -c 'import json' > /dev/null 2>&1") == 0;
  return ok;
}

// ---- kernel stream: closed-form FLOP/byte counts -------------------------

TEST_F(ProfTest, OffByDefaultAndHooksAreGated) {
  obs::prof::set_enabled(false);
  obs::prof::reset();
  EXPECT_FALSE(obs::prof::enabled());
  EXPECT_FALSE(obs::prof::has_data());
  obs::prof::on_kernel("matmul", 100, 100, 0.1);
  obs::prof::on_alloc(64);
  obs::prof::on_step();
  EXPECT_TRUE(obs::prof::kernel_table().empty());
  EXPECT_TRUE(obs::prof::churn_table().empty());
  EXPECT_EQ(obs::prof::steps(), 0);
  EXPECT_EQ(obs::prof::section_json(), "");
}

TEST_F(ProfTest, MatmulForwardBackwardClosedForm) {
  const std::int64_t m = 6, k = 5, n = 4;
  tx::Generator gen(0);
  Tensor a = tx::randn({m, k}, &gen).set_requires_grad(true);
  Tensor b = tx::randn({k, n}, &gen).set_requires_grad(true);
  tx::sum(tx::matmul(a, b)).backward();

  const auto table = obs::prof::kernel_table();
  ASSERT_TRUE(table.count("matmul"));
  ASSERT_TRUE(table.count("matmul_bwd"));
  const auto& fwd = table.at("matmul");
  EXPECT_EQ(fwd.calls, 1);
  EXPECT_EQ(fwd.flops, 2 * m * k * n);
  EXPECT_EQ(fwd.bytes, 4 * (m * k + k * n + m * n));
  EXPECT_GE(fwd.seconds, 0.0);
  const auto& bwd = table.at("matmul_bwd");
  EXPECT_EQ(bwd.calls, 1);
  EXPECT_EQ(bwd.flops, 4 * m * k * n);
  EXPECT_EQ(bwd.bytes, 8 * (m * n + m * k + k * n));
}

TEST_F(ProfTest, BmmForwardBackwardClosedForm) {
  const std::int64_t batch = 3, m = 4, k = 6, n = 5;
  tx::Generator gen(0);
  Tensor a = tx::randn({batch, m, k}, &gen).set_requires_grad(true);
  Tensor b = tx::randn({batch, k, n}, &gen).set_requires_grad(true);
  tx::sum(tx::bmm(a, b)).backward();

  const auto table = obs::prof::kernel_table();
  ASSERT_TRUE(table.count("bmm"));
  ASSERT_TRUE(table.count("bmm_bwd"));
  EXPECT_EQ(table.at("bmm").flops, 2 * batch * m * k * n);
  EXPECT_EQ(table.at("bmm").bytes, 4 * batch * (m * k + k * n + m * n));
  EXPECT_EQ(table.at("bmm_bwd").flops, 4 * batch * m * k * n);
  EXPECT_EQ(table.at("bmm_bwd").bytes, 8 * batch * (m * n + m * k + k * n));
}

TEST_F(ProfTest, Conv2dForwardBackwardClosedFormWithBias) {
  const std::int64_t N = 2, ic = 3, ih = 8, iw = 8, oc = 4, kh = 3, kw = 3;
  const std::int64_t stride = 1, padding = 1;
  const std::int64_t oh = (ih + 2 * padding - kh) / stride + 1;
  const std::int64_t ow = (iw + 2 * padding - kw) / stride + 1;
  const std::int64_t patch = ic * kh * kw;
  const std::int64_t spatial = oh * ow;
  const std::int64_t x_numel = N * ic * ih * iw;
  const std::int64_t w_numel = oc * ic * kh * kw;
  const std::int64_t out_numel = N * oc * spatial;

  tx::Generator gen(0);
  Tensor x = tx::randn({N, ic, ih, iw}, &gen).set_requires_grad(true);
  Tensor w = tx::randn({oc, ic, kh, kw}, &gen).set_requires_grad(true);
  Tensor bias = tx::randn({oc}, &gen).set_requires_grad(true);
  tx::sum(tx::conv2d(x, w, bias, stride, padding)).backward();

  const auto table = obs::prof::kernel_table();
  ASSERT_TRUE(table.count("conv2d"));
  ASSERT_TRUE(table.count("conv2d_bwd"));
  const auto& fwd = table.at("conv2d");
  EXPECT_EQ(fwd.calls, 1);
  EXPECT_EQ(fwd.flops, 2 * N * patch * spatial * oc + N * oc * spatial);
  EXPECT_EQ(fwd.bytes, 4 * (x_numel + w_numel + out_numel) +
                           4 * (oc + out_numel));
  const auto& bwd = table.at("conv2d_bwd");
  EXPECT_EQ(bwd.calls, 1);
  EXPECT_EQ(bwd.flops, 4 * N * patch * spatial * oc + N * oc * spatial);
  EXPECT_EQ(bwd.bytes, 4 * (2 * x_numel + 2 * w_numel + 2 * out_numel) +
                           4 * (out_numel + oc));
}

// A backward counts only the products that run: an input that does not
// require grad (data, or a frozen operand) costs neither flops nor bytes.
TEST_F(ProfTest, BackwardCountsOnlyTheGradientsThatRun) {
  const std::int64_t m = 6, k = 5, n = 4;
  tx::Generator gen(0);
  Tensor a = tx::randn({m, k}, &gen);
  Tensor b = tx::randn({k, n}, &gen).set_requires_grad(true);
  tx::sum(tx::matmul(a, b)).backward();
  const std::int64_t batch = 3;
  Tensor ba = tx::randn({batch, m, k}, &gen).set_requires_grad(true);
  Tensor bb = tx::randn({batch, k, n}, &gen);
  tx::sum(tx::bmm(ba, bb)).backward();
  const std::int64_t N = 2, ic = 3, ih = 8, iw = 8, oc = 4;
  const std::int64_t patch = ic * 3 * 3, spatial = ih * iw;
  const std::int64_t x_numel = N * ic * ih * iw, w_numel = oc * patch;
  const std::int64_t out_numel = N * oc * spatial;
  Tensor x = tx::randn({N, ic, ih, iw}, &gen);
  Tensor w = tx::randn({oc, ic, 3, 3}, &gen).set_requires_grad(true);
  Tensor bias = tx::randn({oc}, &gen);
  tx::sum(tx::conv2d(x, w, bias, 1, 1)).backward();

  const auto table = obs::prof::kernel_table();
  EXPECT_EQ(table.at("matmul_bwd").flops, 2 * m * k * n);
  EXPECT_EQ(table.at("matmul_bwd").bytes, 4 * (m * n + m * k + k * n));
  EXPECT_EQ(table.at("bmm_bwd").flops, 2 * batch * m * k * n);
  EXPECT_EQ(table.at("bmm_bwd").bytes, 4 * batch * (m * n + m * k + k * n));
  const auto& conv = table.at("conv2d_bwd");
  EXPECT_EQ(conv.calls, 1);
  EXPECT_EQ(conv.flops, 2 * N * patch * spatial * oc);
  EXPECT_EQ(conv.bytes, 4 * (x_numel + w_numel + out_numel));
}

TEST_F(ProfTest, Conv2dNoBiasDropsBiasTerms) {
  const std::int64_t N = 1, ic = 2, ih = 6, iw = 6, oc = 3, kh = 3, kw = 3;
  const std::int64_t oh = ih - kh + 1, ow = iw - kw + 1;
  const std::int64_t patch = ic * kh * kw;
  const std::int64_t spatial = oh * ow;
  tx::Generator gen(0);
  Tensor x = tx::randn({N, ic, ih, iw}, &gen);
  Tensor w = tx::randn({oc, ic, kh, kw}, &gen);
  tx::NoGradGuard ng;
  (void)tx::conv2d(x, w, Tensor(), 1, 0);
  const auto table = obs::prof::kernel_table();
  ASSERT_TRUE(table.count("conv2d"));
  EXPECT_EQ(table.at("conv2d").flops, 2 * N * patch * spatial * oc);
  EXPECT_EQ(table.at("conv2d").bytes,
            4 * (N * ic * ih * iw + oc * patch + N * oc * spatial));
}

TEST_F(ProfTest, ThresholdGatedKernelsRecordAboveThreshold) {
  const std::int64_t n = std::int64_t{1} << 16;  // above kElemParThreshold
  tx::Generator gen(0);
  Tensor a = tx::randn({n}, &gen);
  Tensor b = tx::randn({n}, &gen);
  tx::NoGradGuard ng;
  (void)tx::add(a, b);
  (void)tx::exp(a);
  (void)tx::sum(tx::reshape(a, {256, 256}), {0});

  const auto table = obs::prof::kernel_table();
  ASSERT_TRUE(table.count("elementwise"));
  EXPECT_EQ(table.at("elementwise").flops, n);
  EXPECT_EQ(table.at("elementwise").bytes, 12 * n);
  ASSERT_TRUE(table.count("unary"));
  EXPECT_EQ(table.at("unary").flops, n);
  EXPECT_EQ(table.at("unary").bytes, 8 * n);
  ASSERT_TRUE(table.count("reduce_sum"));
  EXPECT_EQ(table.at("reduce_sum").flops, n);
  EXPECT_EQ(table.at("reduce_sum").bytes, 4 * (n + 256));
}

TEST_F(ProfTest, KernelAggregatesAreThreadCountInvariant) {
  const std::int64_t m = 64, k = 64, n = 64;  // above the par flop threshold
  auto run = [&](int threads) {
    par::set_num_threads(threads);
    obs::prof::reset();
    tx::Generator gen(0);
    Tensor a = tx::randn({m, k}, &gen).set_requires_grad(true);
    Tensor b = tx::randn({k, n}, &gen).set_requires_grad(true);
    tx::sum(tx::matmul(a, b)).backward();
    return obs::prof::kernel_table();
  };
  const auto t1 = run(1);
  const auto t4 = run(4);
  ASSERT_EQ(t1.size(), t4.size());
  for (const auto& [name, ks] : t1) {
    ASSERT_TRUE(t4.count(name)) << name;
    EXPECT_EQ(ks.calls, t4.at(name).calls) << name;
    EXPECT_EQ(ks.flops, t4.at(name).flops) << name;
    EXPECT_EQ(ks.bytes, t4.at(name).bytes) << name;
  }
}

// ---- churn stream --------------------------------------------------------

TEST_F(ProfTest, ChurnAttributesToSpanPathWithSizeClasses) {
  {
    obs::ScopedTimer outer("prof_test_outer");
    obs::ScopedTimer inner("prof_test_inner");
    Tensor t = tx::zeros({16});  // 64 bytes -> first size class
  }
  Tensor big = tx::zeros({1024});  // 4096 bytes at root -> third class
  const auto churn = obs::prof::churn_table();
  ASSERT_TRUE(churn.count("prof_test_outer/prof_test_inner"));
  const auto& nested = churn.at("prof_test_outer/prof_test_inner");
  EXPECT_EQ(nested.allocs, 1);
  EXPECT_EQ(nested.bytes, 64);
  EXPECT_EQ(nested.size_classes[0], 1);
  ASSERT_TRUE(churn.count("(root)"));
  const auto& root = churn.at("(root)");
  EXPECT_GE(root.allocs, 1);
  EXPECT_GE(root.bytes, 4096);
  EXPECT_GE(root.size_classes[2], 1);  // 4096 <= 16384
}

TEST_F(ProfTest, ChurnCoversAllocWindow) {
  obs::prof::set_enabled(false);
  obs::prof::set_enabled(true);  // re-captures the mem baseline
  obs::prof::reset();
  tx::Generator gen(0);
  {
    obs::ScopedTimer span("prof_test_window");
    for (int i = 0; i < 50; ++i) {
      Tensor t = tx::randn({257}, &gen);
      (void)tx::add(t, t);
    }
  }
  const std::int64_t window = obs::prof::window_allocated_bytes();
  ASSERT_GT(window, 0);
  // Every positive account() delta is attributed somewhere, so attribution
  // should cover (at least) 95% of the window — in this self-contained test
  // it is exact.
  EXPECT_GE(obs::prof::attributed_bytes(), window * 95 / 100);
  EXPECT_LE(obs::prof::attributed_bytes(), window);
}

// The multi-particle ELBO fans particles out across pool workers
// (particle 0 inline, the rest via par::run_tasks), so worker threads
// allocate tensors under the submitter's span path. Aggregated churn must be
// bitwise-identical between 1 and 4 threads.
TEST_F(ProfTest, ChurnIsBitwiseIdenticalAcrossPoolThreadCounts) {
  auto run = [&](int threads) {
    par::set_num_threads(threads);
    obs::prof::reset();
    tx::manual_seed(0);
    tx::ppl::ParamStore store;
    Tensor data = tx::randn({32}, nullptr);
    tx::infer::Program model = [data] {
      Tensor z =
          tx::ppl::sample("z", std::make_shared<tx::dist::Normal>(0.0f, 1.0f));
      tx::ppl::sample(
          "obs", std::make_shared<tx::dist::Normal>(z, Tensor::scalar(0.5f)),
          data);
    };
    auto guide = std::make_shared<tx::infer::AutoNormal>(
        model, tx::infer::AutoNormalConfig{}, "g", &store);
    tx::infer::TraceELBO elbo(8);
    {
      obs::ScopedTimer span("prof_test_elbo");
      (void)elbo.differentiable_loss(model, [guide] { (*guide)(); });
    }
    return obs::prof::churn_table();
  };
  const auto c1 = run(1);
  const auto c4 = run(4);
  ASSERT_FALSE(c1.empty());
  ASSERT_EQ(c1.size(), c4.size());
  for (const auto& [path, churn] : c1) {
    ASSERT_TRUE(c4.count(path)) << path;
    EXPECT_TRUE(churn == c4.at(path)) << "churn differs for span " << path;
  }
}

TEST_F(ProfTest, StepsCountFromSvi) {
  tx::manual_seed(0);
  tx::ppl::ParamStore store;
  Tensor data = tx::randn({8}, nullptr);
  tx::infer::Program model = [data] {
    Tensor z =
        tx::ppl::sample("z", std::make_shared<tx::dist::Normal>(0.0f, 1.0f));
    tx::ppl::sample(
        "obs", std::make_shared<tx::dist::Normal>(z, Tensor::scalar(0.5f)),
        data);
  };
  auto guide = std::make_shared<tx::infer::AutoNormal>(
      model, tx::infer::AutoNormalConfig{}, "g", &store);
  tx::infer::SVI svi(model, [guide] { (*guide)(); },
                     std::make_shared<tx::infer::Adam>(1e-2),
                     std::make_shared<tx::infer::TraceELBO>(1), &store);
  for (int i = 0; i < 3; ++i) (void)svi.step();
  EXPECT_EQ(obs::prof::steps(), 3);
}

// ---- snapshot section ----------------------------------------------------

TEST_F(ProfTest, SnapshotEmbedsProfSectionOnlyWhenProfiled) {
  tx::Generator gen(0);
  Tensor a = tx::randn({8, 8}, &gen);
  tx::NoGradGuard ng;
  (void)tx::matmul(a, a);
  const std::string with = temp_path("prof_snapshot_on.json");
  ASSERT_TRUE(obs::EventSink::write_snapshot(with, "prof_test"));
  EXPECT_NE(read_file(with).find("\"prof\""), std::string::npos);
  EXPECT_NE(read_file(with).find("tx.prof.v1"), std::string::npos);

  obs::prof::set_enabled(false);
  obs::prof::reset();
  const std::string without = temp_path("prof_snapshot_off.json");
  ASSERT_TRUE(obs::EventSink::write_snapshot(without, "prof_test"));
  EXPECT_EQ(read_file(without).find("\"prof\""), std::string::npos);
  std::remove(with.c_str());
  std::remove(without.c_str());
}

TEST_F(ProfTest, SectionJsonCarriesKernelAndChurnTables) {
  tx::Generator gen(0);
  {
    obs::ScopedTimer span("prof_test_section");
    Tensor a = tx::randn({16, 16}, &gen);
    tx::NoGradGuard ng;
    (void)tx::matmul(a, a);
  }
  const std::string json = obs::prof::section_json();
  EXPECT_NE(json.find("\"schema\": \"tx.prof.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"matmul\""), std::string::npos);
  EXPECT_NE(json.find("\"flops\": " + std::to_string(2 * 16 * 16 * 16)),
            std::string::npos);
  EXPECT_NE(json.find("prof_test_section"), std::string::npos);
  EXPECT_NE(json.find("\"size_classes\""), std::string::npos);
}

// ---- bench flag parser ---------------------------------------------------

TEST(BenchFlagsTest, ParsesAndStripsRecognizedFlags) {
  const char* raw[] = {"bench",     "--trace", "t.json", "--keep",
                       "--diag",    "d.json",  "--prof", "--also-keep"};
  std::vector<char*> argv;
  for (const char* a : raw) argv.push_back(const_cast<char*>(a));
  int argc = static_cast<int>(argv.size());
  const obs::BenchFlags flags = obs::parse_bench_flags(argc, argv.data());
  EXPECT_EQ(flags.trace_path, "t.json");
  EXPECT_EQ(flags.diag_path, "d.json");
  EXPECT_TRUE(flags.prof);
  EXPECT_TRUE(obs::prof::enabled());  // the parser switches the stream on
  obs::prof::set_enabled(false);
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[0], "bench");
  EXPECT_STREQ(argv[1], "--keep");
  EXPECT_STREQ(argv[2], "--also-keep");
}

// A path flag followed by another flag has no path: it warns, falls back to
// the environment, and leaves the next flag to be parsed normally.
TEST(BenchFlagsTest, PathFlagFollowedByAFlagHasNoPath) {
  unsetenv("TYXE_TRACE");
  unsetenv("TYXE_DIAG");
  unsetenv("TYXE_PROF");
  const char* raw[] = {"bench", "--trace", "--prof", "--keep"};
  std::vector<char*> argv;
  for (const char* a : raw) argv.push_back(const_cast<char*>(a));
  int argc = static_cast<int>(argv.size());
  obs::BenchFlags flags = obs::parse_bench_flags(argc, argv.data());
  obs::prof::set_enabled(false);
  EXPECT_EQ(flags.trace_path, "");
  EXPECT_TRUE(flags.prof);
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "--keep");

  const char* raw2[] = {"bench", "--diag", "--trace", "t.json"};
  argv.clear();
  for (const char* a : raw2) argv.push_back(const_cast<char*>(a));
  argc = static_cast<int>(argv.size());
  flags = obs::parse_bench_flags(argc, argv.data());
  EXPECT_EQ(flags.diag_path, "");
  EXPECT_EQ(flags.trace_path, "t.json");
  EXPECT_EQ(argc, 1);
}

TEST(BenchFlagsTest, DefaultsAndEnvFallback) {
  unsetenv("TYXE_TRACE");
  unsetenv("TYXE_DIAG");
  unsetenv("TYXE_PROF");
  const char* raw[] = {"bench"};
  std::vector<char*> argv{const_cast<char*>(raw[0])};
  int argc = 1;
  obs::BenchFlags flags = obs::parse_bench_flags(argc, argv.data());
  EXPECT_EQ(flags.trace_path, "");
  EXPECT_EQ(flags.diag_path, "");
  EXPECT_FALSE(flags.prof);

  setenv("TYXE_PROF", "1", 1);
  argc = 1;
  flags = obs::parse_bench_flags(argc, argv.data());
  EXPECT_TRUE(flags.prof);
  obs::prof::set_enabled(false);
  setenv("TYXE_PROF", "0", 1);
  argc = 1;
  flags = obs::parse_bench_flags(argc, argv.data());
  EXPECT_FALSE(flags.prof);
  unsetenv("TYXE_PROF");
}

TEST(BenchFlagsTest, TrailingPathFlagWarnsAndIsStripped) {
  unsetenv("TYXE_TRACE");
  unsetenv("TYXE_DIAG");
  const char* raw[] = {"bench", "--trace"};
  std::vector<char*> argv;
  for (const char* a : raw) argv.push_back(const_cast<char*>(a));
  int argc = 2;
  const obs::BenchFlags flags = obs::parse_bench_flags(argc, argv.data());
  EXPECT_EQ(flags.trace_path, "");
  EXPECT_EQ(argc, 1);
}

// TYXE_TRACE / TYXE_DIAG fill in a path flag that is absent, and a flag
// that is present wins over its variable.
TEST(BenchFlagsTest, PathFlagsWinOverTheirEnvFallbacks) {
  setenv("TYXE_TRACE", "env_t.json", 1);
  setenv("TYXE_DIAG", "env_d.json", 1);
  const char* raw[] = {"bench", "--diag", "y.json"};
  std::vector<char*> argv;
  for (const char* a : raw) argv.push_back(const_cast<char*>(a));
  int argc = static_cast<int>(argv.size());
  const obs::BenchFlags flags = obs::parse_bench_flags(argc, argv.data());
  EXPECT_EQ(flags.trace_path, "env_t.json");
  EXPECT_EQ(flags.diag_path, "y.json");
  EXPECT_EQ(argc, 1);
  unsetenv("TYXE_TRACE");
  unsetenv("TYXE_DIAG");
}

// --obs-http=SPEC: off/0/"" leave the server off, auto binds an ephemeral
// port, 1-65535 is the literal port; anything else warns and leaves the
// server off rather than aborting the run.
TEST(BenchFlagsTest, ObsHttpPortSpecs) {
  unsetenv("TYXE_OBS_HTTP");
  struct Case {
    const char* arg;
    int port;
    bool warns;
  };
  const Case cases[] = {
      {"--obs-http", 0, false},
      {"--obs-http=off", -1, false},
      {"--obs-http=0", -1, false},
      {"--obs-http=auto", 0, false},
      {"--obs-http=8080", 8080, false},
      {"--obs-http=65535", 65535, false},
      {"--obs-http=65536", -1, true},
      {"--obs-http=-1", -1, true},
      {"--obs-http=12ab", -1, true},
      {"--obs-http=", -1, false},
  };
  for (const Case& c : cases) {
    std::vector<char*> argv{const_cast<char*>("bench"),
                            const_cast<char*>(c.arg)};
    int argc = 2;
    testing::internal::CaptureStderr();
    const obs::BenchFlags flags = obs::parse_bench_flags(argc, argv.data());
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(flags.http_port, c.port) << c.arg;
    EXPECT_EQ(err.find("bad port") != std::string::npos, c.warns)
        << c.arg << ": " << err;
    EXPECT_EQ(argc, 1) << c.arg;  // consumed either way
  }
}

// TYXE_OBS_HTTP and TYXE_WATCHDOG fill in absent flags; a bad port in the
// variable warns under its own name, and a given --obs-http wins, even when
// it says off or is bad.
TEST(BenchFlagsTest, ObsHttpAndWatchdogEnvFallbacks) {
  const auto parse = [](std::vector<const char*> raw) {
    std::vector<char*> argv;
    for (const char* a : raw) argv.push_back(const_cast<char*>(a));
    int argc = static_cast<int>(argv.size());
    return obs::parse_bench_flags(argc, argv.data());
  };
  unsetenv("TYXE_OBS_HTTP");
  unsetenv("TYXE_WATCHDOG");
  obs::BenchFlags flags = parse({"bench"});
  EXPECT_EQ(flags.http_port, -1);
  EXPECT_FALSE(flags.watchdog);
  EXPECT_TRUE(parse({"bench", "--watchdog"}).watchdog);

  const struct {
    const char* value;
    int port;
  } ports[] = {{"auto", 0}, {"9090", 9090}, {"off", -1}, {"0", -1}, {"", -1}};
  for (const auto& p : ports) {
    setenv("TYXE_OBS_HTTP", p.value, 1);
    EXPECT_EQ(parse({"bench"}).http_port, p.port) << p.value;
  }
  setenv("TYXE_OBS_HTTP", "bogus", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(parse({"bench"}).http_port, -1);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("TYXE_OBS_HTTP: bad port 'bogus'"), std::string::npos)
      << err;
  setenv("TYXE_OBS_HTTP", "9090", 1);
  EXPECT_EQ(parse({"bench", "--obs-http=7070"}).http_port, 7070);
  EXPECT_EQ(parse({"bench", "--obs-http=off"}).http_port, -1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(parse({"bench", "--obs-http=12ab"}).http_port, -1);
  testing::internal::GetCapturedStderr();
  unsetenv("TYXE_OBS_HTTP");

  const struct {
    const char* value;
    bool on;
  } watchdogs[] = {{"1", true}, {"yes", true}, {"0", false}, {"", false}};
  for (const auto& w : watchdogs) {
    setenv("TYXE_WATCHDOG", w.value, 1);
    EXPECT_EQ(parse({"bench"}).watchdog, w.on) << w.value;
  }
  unsetenv("TYXE_WATCHDOG");
}

// ---- python round-trips --------------------------------------------------

#ifdef TX_SOURCE_DIR

TEST_F(ProfTest, PythonRoundTripValidateProf) {
  if (!python3_available()) GTEST_SKIP() << "python3 not available";
  tx::Generator gen(0);
  {
    obs::ScopedTimer span("prof_test_py");
    Tensor a = tx::randn({16, 16}, &gen);
    tx::NoGradGuard ng;
    (void)tx::matmul(a, a);
  }
  const std::string path = temp_path("prof_roundtrip.json");
  ASSERT_TRUE(obs::EventSink::write_snapshot(path, "prof_test"));
  const std::string cmd = "python3 " TX_SOURCE_DIR
                          "/scripts/validate_bench.py --prof " +
                          path + " > /dev/null 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << "validate_bench.py --prof failed";

  // A snapshot without a prof section must fail under --prof.
  obs::prof::set_enabled(false);
  obs::prof::reset();
  const std::string bare = temp_path("prof_roundtrip_bare.json");
  ASSERT_TRUE(obs::EventSink::write_snapshot(bare, "prof_test"));
  const std::string cmd2 = "python3 " TX_SOURCE_DIR
                           "/scripts/validate_bench.py --prof " +
                           bare + " > /dev/null 2>&1";
  EXPECT_NE(std::system(cmd2.c_str()), 0);
  std::remove(path.c_str());
  std::remove(bare.c_str());
}

TEST_F(ProfTest, PythonRoundTripBenchDiff) {
  if (!python3_available()) GTEST_SKIP() << "python3 not available";
  tx::Generator gen(0);
  {
    obs::ScopedTimer span("prof_test_diff");
    Tensor a = tx::randn({16, 16}, &gen);
    tx::NoGradGuard ng;
    (void)tx::matmul(a, a);
  }
  const std::string base = temp_path("prof_diff_base.json");
  ASSERT_TRUE(obs::EventSink::write_snapshot(base, "prof_test"));

  auto run_diff = [&](const std::string& args) {
    const std::string cmd = "python3 " TX_SOURCE_DIR "/scripts/bench_diff.py " +
                            args + " > /dev/null 2>&1";
    return std::system(cmd.c_str());
  };
  // Identical pair passes.
  EXPECT_EQ(run_diff(base + " " + base), 0);

  // A regressed FLOP count (EXACT class) fails even within any tolerance.
  const std::string doctored = temp_path("prof_diff_regressed.json");
  const std::string doctor_cmd =
      "python3 -c \"import json; d=json.load(open('" + base +
      "')); d['prof']['kernels']['matmul']['flops'] = "
      "int(d['prof']['kernels']['matmul']['flops']*1.1); "
      "json.dump(d, open('" +
      doctored + "','w'))\"";
  ASSERT_EQ(std::system(doctor_cmd.c_str()), 0);
  EXPECT_NE(run_diff(base + " " + doctored), 0);
  // Improvements drift the EXACT metric too: the baseline must be updated,
  // not silently beaten.
  EXPECT_NE(run_diff(doctored + " " + base), 0);

  // Timing noise alone is warn-only: doctor a timing metric by 2x.
  const std::string noisy = temp_path("prof_diff_noisy.json");
  const std::string noise_cmd =
      "python3 -c \"import json; d=json.load(open('" + base +
      "')); d['prof']['kernels']['matmul']['seconds'] = "
      "d['prof']['kernels']['matmul']['seconds']*2 + 1.0; "
      "json.dump(d, open('" +
      noisy + "','w'))\"";
  ASSERT_EQ(std::system(noise_cmd.c_str()), 0);
  EXPECT_EQ(run_diff(base + " " + noisy), 0);
  // ... and gates under --gate-timing.
  EXPECT_NE(run_diff("--gate-timing " + base + " " + noisy), 0);

  // Median-of-N: one noisy run among three sane ones is absorbed.
  EXPECT_EQ(run_diff(base + " " + noisy + " " + base + " " + base), 0);

  std::remove(base.c_str());
  std::remove(doctored.c_str());
  std::remove(noisy.c_str());
}

// validate_bench.py's histogram invariants: finite `le` strictly ascend,
// "inf" only on the last bucket, non-negative integer counts, and
// p50 <= p90 <= p99. A real snapshot passes; each doctored one fails.
TEST_F(ProfTest, PythonValidatorChecksHistogramInvariants) {
  if (!python3_available()) GTEST_SKIP() << "python3 not available";
  obs::prof::set_enabled(false);
  auto& h = obs::registry().log_histogram("unit.hist");
  for (const double v : {0.001, 0.002, 0.5, 2048.0}) h.record(v);
  const std::string base = temp_path("hist_invariants.json");
  ASSERT_TRUE(obs::EventSink::write_snapshot(base, "hist_test"));
  const auto validate = [](const std::string& path) {
    const std::string cmd = "python3 " TX_SOURCE_DIR
                            "/scripts/validate_bench.py " +
                            path + " > /dev/null 2>&1";
    return std::system(cmd.c_str());
  };
  EXPECT_EQ(validate(base), 0);

  const std::string doctored = temp_path("hist_invariants_bad.json");
  const char* edits[] = {
      "b[0]['le'], b[1]['le'] = b[1]['le'], b[0]['le']",
      "b[0]['le'] = 'inf'",
      "b[1]['count'] = -1",
      "h['p50'] = h['p90'] + 1",
  };
  for (const char* edit : edits) {
    const std::string cmd =
        "python3 -c \"import json; d=json.load(open('" + base +
        "')); h=d['histograms']['unit.hist']; b=h['buckets']; " + edit +
        "; json.dump(d, open('" + doctored + "','w'))\"";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << edit;
    EXPECT_NE(validate(doctored), 0) << edit;
  }
  std::remove(base.c_str());
  std::remove(doctored.c_str());
}

#endif  // TX_SOURCE_DIR

}  // namespace
}  // namespace tx
