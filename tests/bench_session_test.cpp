// bench::Session (bench/session.h): the one place the shared bench flags
// take effect. Runs a session around a few SVI steps with --trace, --diag
// and --watchdog and checks the artifacts, including a python round-trip
// against validate_bench.py when python3 exists; a flagless session must
// leave no trace of itself.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "infer/infer.h"
#include "obs/diag.h"
#include "obs/trace.h"
#include "ppl/ppl.h"
#include "session.h"

namespace tx {
namespace {

namespace fs = std::filesystem;

// Only what the test passes on the command line may switch a flag on.
void clear_flag_env() {
  for (const char* v : {"TYXE_TRACE", "TYXE_DIAG", "TYXE_PROF", "TYXE_PQ",
                        "TYXE_WATCHDOG", "TYXE_OBS_HTTP"}) {
    unsetenv(v);
  }
}

/// Mutable argv over `args`, null-terminated like main's.
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    for (auto& a : storage) ptrs.push_back(a.data());
    ptrs.push_back(nullptr);
    argc = static_cast<int>(storage.size());
  }
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  int argc;
};

void run_svi_steps(int steps) {
  ppl::ParamStore store;
  Tensor data(Shape{4}, {1.2f, 0.8f, 1.1f, 0.9f});
  infer::Program model = [data] {
    Tensor z = ppl::sample("z", std::make_shared<dist::Normal>(0.0f, 1.0f));
    ppl::sample("obs",
                std::make_shared<dist::Normal>(z, Tensor::scalar(0.5f)), data);
  };
  auto guide = std::make_shared<infer::AutoNormal>(
      model, infer::AutoNormalConfig{}, "g", &store);
  infer::SVI svi(model, [guide] { (*guide)(); },
                 std::make_shared<infer::Adam>(0.05),
                 std::make_shared<infer::TraceELBO>(1), &store);
  for (int i = 0; i < steps; ++i) svi.step();
}

bool validator_accepts(const char* mode, const std::string& path) {
  const std::string cmd = std::string("python3 ") + TX_SOURCE_DIR +
                          "/scripts/validate_bench.py " + mode + " " + path +
                          " >/dev/null 2>&1";
  return std::system(cmd.c_str()) == 0;
}

TEST(BenchSession, SharedFlagsTakeEffectAndAreStripped) {
  clear_flag_env();
  manual_seed(7);
  const std::string trace_path = ::testing::TempDir() + "session.trace.json";
  const std::string diag_path = ::testing::TempDir() + "session.diag.json";
  std::remove(trace_path.c_str());
  std::remove(diag_path.c_str());
  Argv args({"bench", "--seed", "3", "--trace", trace_path, "--diag",
             diag_path, "--watchdog", "--other"});
  const std::size_t depth = ppl::handler_depth();
  {
    bench::Session session(args.argc, args.ptrs.data(), "session_test");
    ASSERT_EQ(args.argc, 4);
    EXPECT_STREQ(args.ptrs[1], "--seed");
    EXPECT_STREQ(args.ptrs[2], "3");
    EXPECT_STREQ(args.ptrs[3], "--other");
    EXPECT_EQ(args.ptrs[4], nullptr);
    EXPECT_EQ(session.flags().trace_path, trace_path);
    EXPECT_EQ(session.flags().diag_path, diag_path);
    // The tracing and diagnostics messengers wrap the caller's programs.
    EXPECT_EQ(ppl::handler_depth(), depth + 2);
    EXPECT_TRUE(obs::tracing());
    EXPECT_TRUE(obs::diag::enabled());

    run_svi_steps(5);
    EXPECT_TRUE(session.watchdog_running());
    EXPECT_TRUE(session.finish());
    EXPECT_FALSE(session.watchdog_running());
    EXPECT_FALSE(obs::tracing());
  }
  EXPECT_EQ(ppl::handler_depth(), depth);
  obs::diag::set_enabled(false);
  obs::diag::reset();

  ASSERT_TRUE(fs::exists(trace_path));
  ASSERT_TRUE(fs::exists(diag_path));
  if (std::system("python3 -c 'import json' >/dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  EXPECT_TRUE(validator_accepts("--trace", trace_path));
  EXPECT_TRUE(validator_accepts("--diag", diag_path));
  std::remove(trace_path.c_str());
  std::remove(diag_path.c_str());
}

TEST(BenchSession, FlaglessSessionWritesNothing) {
  clear_flag_env();
  const fs::path dir = fs::path(::testing::TempDir()) / "session_flagless";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path cwd = fs::current_path();
  fs::current_path(dir);
  Argv args({"bench", "--seed", "3"});
  const std::size_t depth = ppl::handler_depth();
  {
    bench::Session session(args.argc, args.ptrs.data(), "session_test");
    EXPECT_EQ(args.argc, 3);
    EXPECT_EQ(ppl::handler_depth(), depth);
    EXPECT_FALSE(session.watchdog_running());
    run_svi_steps(2);
    EXPECT_TRUE(session.finish());
  }
  EXPECT_EQ(ppl::handler_depth(), depth);
  fs::current_path(cwd);
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

TEST(BenchSession, FailedWritesFailTheRun) {
  clear_flag_env();
  const std::string missing = ::testing::TempDir() + "no_such_dir/x.json";
  Argv args({"bench", "--diag", missing});
  {
    bench::Session session(args.argc, args.ptrs.data(), "session_test");
    EXPECT_FALSE(session.finish());
  }
  obs::diag::set_enabled(false);
  obs::diag::reset();
  EXPECT_FALSE(bench::write_snapshot(missing, "session_test"));
}

}  // namespace
}  // namespace tx
