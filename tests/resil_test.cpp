// tx::resil tests: fault-plan grammar, crash-safe checkpoint I/O, tx.ckpt.v1
// bundle integrity, bitwise-exact SVI/MCMC resume at multiple thread counts,
// NaN-gradient rollback/retry, retry exhaustion with forensics, and
// divergence-storm restarts. Registered under the ctest label "fault" so the
// CI fault job can run exactly this binary under a TYXE_FAULT matrix.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>

#include "dist/distributions.h"
#include "infer/infer.h"
#include "obs/obs.h"
#include "par/pool.h"
#include "resil/fault.h"
#include "resil/io.h"

namespace tx {
namespace {

using dist::Normal;

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// ---- fault plan grammar ----------------------------------------------------

TEST(FaultPlan, ParsesEveryClauseKind) {
  fault::Plan plan = fault::parse(
      "nan-grad=z@5x2; write-open=3@2; write-rename=1; "
      "bad-alloc=matmul@4x3; stall=par.worker@1,ms=10");
  ASSERT_EQ(plan.specs.size(), 5u);

  EXPECT_EQ(plan.specs[0].kind, fault::Kind::kNanGrad);
  EXPECT_EQ(plan.specs[0].target, "z");
  EXPECT_EQ(plan.specs[0].at, 5);
  EXPECT_EQ(plan.specs[0].times, 2);

  EXPECT_EQ(plan.specs[1].kind, fault::Kind::kWriteOpen);
  EXPECT_EQ(plan.specs[1].at, 2);
  EXPECT_EQ(plan.specs[1].times, 3);

  EXPECT_EQ(plan.specs[2].kind, fault::Kind::kWriteRename);
  EXPECT_EQ(plan.specs[2].at, 1);
  EXPECT_EQ(plan.specs[2].times, 1);

  EXPECT_EQ(plan.specs[3].kind, fault::Kind::kBadAlloc);
  EXPECT_EQ(plan.specs[3].target, "matmul");
  EXPECT_EQ(plan.specs[3].at, 4);
  EXPECT_EQ(plan.specs[3].times, 3);

  EXPECT_EQ(plan.specs[4].kind, fault::Kind::kStall);
  EXPECT_EQ(plan.specs[4].target, "par.worker");
  EXPECT_EQ(plan.specs[4].ms, 10);
}

TEST(FaultPlan, RejectsBadSyntax) {
  EXPECT_THROW(fault::parse("bogus=1"), Error);
  EXPECT_THROW(fault::parse("nan-grad"), Error);
  EXPECT_THROW(fault::parse("nan-grad=z"), Error);          // missing @step
  EXPECT_THROW(fault::parse("bad-alloc=x"), Error);         // missing @nth
  EXPECT_THROW(fault::parse("stall=x@1"), Error);           // missing ms
  EXPECT_THROW(fault::parse("write-open=zero"), Error);
  EXPECT_THROW(fault::parse("nan-grad=z@5xq"), Error);
}

TEST(FaultPlan, InstallFromEnvIsExplicitOptIn) {
  ::unsetenv("TYXE_FAULT");
  EXPECT_FALSE(fault::install_from_env());
  EXPECT_FALSE(fault::armed());

  ::setenv("TYXE_FAULT", "bad-alloc=tensor.matmul@1", 1);
  EXPECT_TRUE(fault::install_from_env());
  EXPECT_TRUE(fault::armed());
  Tensor a = ones({4, 4});
  EXPECT_THROW(matmul(a, a), std::bad_alloc);
  EXPECT_EQ(fault::fires(fault::Kind::kBadAlloc), 1);
  // The single-shot spec is spent; the next call succeeds.
  EXPECT_NO_THROW(matmul(a, a));

  fault::clear();
  ::unsetenv("TYXE_FAULT");
  EXPECT_FALSE(fault::armed());
}

TEST(FaultPlan, BadAllocFiresOnExactCallCounts) {
  fault::ScopedPlan plan("bad-alloc=tensor.matmul@2x2");
  Tensor a = ones({2, 2});
  EXPECT_NO_THROW(matmul(a, a));           // match 1: before the window
  EXPECT_THROW(matmul(a, a), std::bad_alloc);  // match 2
  EXPECT_THROW(matmul(a, a), std::bad_alloc);  // match 3
  EXPECT_NO_THROW(matmul(a, a));           // window exhausted
  EXPECT_EQ(fault::fires(fault::Kind::kBadAlloc), 2);
}

TEST(FaultPlan, StallDoesNotBreakParallelWork) {
  const int prev = par::num_threads();
  par::set_num_threads(2);
  fault::ScopedPlan plan("stall=par.worker@1,ms=5");
  Tensor a = ones({1 << 16});
  Tensor b = add(a, a);  // large enough to fan out over the pool
  EXPECT_FLOAT_EQ(b.at(0), 2.0f);
  EXPECT_FLOAT_EQ(b.at((1 << 16) - 1), 2.0f);
  par::set_num_threads(prev);
}

// ---- crash-safe writes -----------------------------------------------------

TEST(AtomicWrite, WriteOpenFaultLeavesOldContentIntact) {
  const std::string path = tmp_path("aw_open.txt");
  ASSERT_TRUE(resil::atomic_write_file(path, "old content"));

  {
    fault::ScopedPlan plan("write-open=1");
    EXPECT_FALSE(resil::atomic_write_file(path, "new content"));
  }
  std::string got;
  ASSERT_TRUE(resil::read_file(path, &got));
  EXPECT_EQ(got, "old content");  // torn temp write never reached the target

  ASSERT_TRUE(resil::atomic_write_file(path, "new content"));
  ASSERT_TRUE(resil::read_file(path, &got));
  EXPECT_EQ(got, "new content");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(AtomicWrite, KillBetweenWriteAndRenameLeavesOldContentIntact) {
  const std::string path = tmp_path("aw_rename.txt");
  ASSERT_TRUE(resil::atomic_write_file(path, "old content"));

  {
    fault::ScopedPlan plan("write-rename=1");
    EXPECT_FALSE(resil::atomic_write_file(path, "new content"));
  }
  std::string got;
  ASSERT_TRUE(resil::read_file(path, &got));
  EXPECT_EQ(got, "old content");
  // The simulated kill leaves a complete temp file behind — debris, not
  // corruption; the next write replaces it.
  ASSERT_TRUE(resil::read_file(path + ".tmp", &got));
  EXPECT_EQ(got, "new content");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// ---- tx.ckpt.v1 bundles ----------------------------------------------------

resil::Bundle sample_bundle() {
  resil::Bundle b;
  b.set("alpha", "first section\nwith two lines\n");
  b.set("zeta", std::string("binary\0bytes", 12));
  b.set("meta", "svi steps 42\n");
  return b;
}

TEST(Bundle, SerializeRoundTripsExactly) {
  resil::Bundle b = sample_bundle();
  const std::string wire = b.serialize();
  EXPECT_EQ(wire.rfind("tx.ckpt.v1 3\n", 0), 0u);

  resil::Bundle back = resil::Bundle::deserialize(wire);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back.get("alpha"), b.get("alpha"));
  EXPECT_EQ(back.get("zeta"), b.get("zeta"));
  EXPECT_EQ(back.get("meta"), b.get("meta"));
  EXPECT_EQ(back.serialize(), wire);
}

TEST(Bundle, RejectsTruncationAndBitFlips) {
  const std::string wire = sample_bundle().serialize();
  for (std::size_t cut :
       {std::size_t{0}, std::size_t{5}, wire.size() / 2, wire.size() - 1}) {
    EXPECT_THROW(resil::Bundle::deserialize(wire.substr(0, cut)), Error)
        << "truncation at " << cut << " was accepted";
  }
  for (std::size_t flip : {std::size_t{3}, wire.size() / 3, wire.size() / 2}) {
    std::string corrupt = wire;
    corrupt[flip] = static_cast<char>(corrupt[flip] ^ 0x20);
    EXPECT_THROW(resil::Bundle::deserialize(corrupt), Error)
        << "bit flip at " << flip << " was accepted";
  }
}

TEST(Bundle, RejectsMalformedFramingUnderAValidChecksum) {
  // serialize() never writes these, so only a hand-edited file can hold
  // them. A duplicate section would otherwise replace the first silently.
  const auto with_checksum = [](const std::string& body) {
    char footer[32];
    std::snprintf(footer, sizeof(footer), "@checksum %016llx\n",
                  static_cast<unsigned long long>(resil::fnv1a64(body)));
    return body + footer;
  };
  EXPECT_NO_THROW(resil::Bundle::deserialize(
      with_checksum("tx.ckpt.v1 2\n@ a 1\nx\n@ b 1\ny\n")));
  EXPECT_THROW(resil::Bundle::deserialize(
                   with_checksum("tx.ckpt.v1 2\n@ a 1\nx\n@ a 1\ny\n")),
               Error);
  EXPECT_THROW(resil::Bundle::deserialize(
                   with_checksum("tx.ckpt.v1 2\n@ b 1\nx\n@ a 1\ny\n")),
               Error);
  // Header fields are whole tokens with nothing after them, as
  // scripts/validate_bench.py --ckpt reads them.
  for (const char* body :
       {"tx.ckpt.v1 1junk\n@ a 1\nx\n", "tx.ckpt.v1 1 2\n@ a 1\nx\n",
        "tx.ckpt.v1 1\n@ a 1 extra\nx\n", "tx.ckpt.v1 1\n@ a 1x\nx\n",
        "tx.ckpt.v1 1\n@a 1\nx\n"}) {
    EXPECT_THROW(resil::Bundle::deserialize(with_checksum(body)), Error)
        << body;
  }
}

TEST(Bundle, FooterOneByteShortIsRejectedInMemoryAndOnDisk) {
  // The nastiest truncation: everything up to the "@checksum <16 hex>\n"
  // footer's last byte survives, so a parser that stops verifying at the
  // last complete line would accept a silently shortened checkpoint.
  const std::string wire = sample_bundle().serialize();
  const std::size_t footer = wire.rfind("@checksum ");
  ASSERT_NE(footer, std::string::npos);
  for (std::size_t cut = footer; cut < wire.size(); ++cut) {
    EXPECT_THROW(resil::Bundle::deserialize(wire.substr(0, cut)), Error)
        << "footer cut at byte " << cut << " of " << wire.size()
        << " was accepted";
  }

  // Same contract at the file level: a checkpoint file exactly one byte
  // short must throw from read_file, never yield a partial Bundle.
  const std::string path = tmp_path("bundle_footer_short.ckpt");
  ASSERT_TRUE(resil::atomic_write_file(path, wire.substr(0, wire.size() - 1)));
  EXPECT_THROW(resil::Bundle::read_file(path), Error);
  std::remove(path.c_str());
}

TEST(Bundle, InterruptedRewriteAlwaysLeavesLoadableFile) {
  const std::string path = tmp_path("bundle_interrupt.ckpt");
  std::remove(path.c_str());
  resil::Bundle first = sample_bundle();
  ASSERT_TRUE(first.write_file(path));

  resil::Bundle second = sample_bundle();
  second.set("meta", "svi steps 43\n");

  // Whatever write step dies — open/short-write or between write and rename
  // — the destination must still load as a complete bundle.
  for (const char* spec : {"write-open=1", "write-rename=1"}) {
    {
      fault::ScopedPlan plan(spec);
      EXPECT_FALSE(second.write_file(path));
    }
    resil::Bundle loaded = resil::Bundle::read_file(path);
    EXPECT_EQ(loaded.get("meta"), first.get("meta")) << "after " << spec;
  }
  ASSERT_TRUE(second.write_file(path));
  EXPECT_EQ(resil::Bundle::read_file(path).get("meta"), second.get("meta"));
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// ---- optimizer state -------------------------------------------------------

TEST(OptimState, SaveLoadResumesAdamBitwise) {
  // Reference: 6 uninterrupted Adam steps on a quadratic.
  infer::Adam ref(0.1);
  Tensor xr = Tensor::scalar(5.0f).set_requires_grad(true);
  ref.add_param("x", xr);
  for (int i = 0; i < 6; ++i) {
    ref.zero_grad();
    square(xr - 3.0f).backward();
    ref.step();
  }

  // Interrupted: 3 steps, serialize, rebuild everything, 3 more steps.
  infer::Adam first(0.1);
  Tensor x1 = Tensor::scalar(5.0f).set_requires_grad(true);
  first.add_param("x", x1);
  for (int i = 0; i < 3; ++i) {
    first.zero_grad();
    square(x1 - 3.0f).backward();
    first.step();
  }
  std::ostringstream saved;
  first.save_state(saved);

  infer::Adam second(0.5);  // wrong lr on purpose; load_state restores it
  Tensor x2 = Tensor::scalar(x1.item()).set_requires_grad(true);
  second.add_param("x", x2);
  std::istringstream in(saved.str());
  second.load_state(in);
  EXPECT_DOUBLE_EQ(second.lr(), 0.1);
  for (int i = 0; i < 3; ++i) {
    second.zero_grad();
    square(x2 - 3.0f).backward();
    second.step();
  }
  EXPECT_EQ(xr.item(), x2.item());  // bitwise: moments survived the round trip
}

TEST(OptimState, CorruptStreamThrowsWithoutMutation) {
  infer::Adam opt(0.1);
  Tensor x = Tensor::scalar(5.0f).set_requires_grad(true);
  opt.add_param("x", x);
  opt.zero_grad();
  square(x).backward();
  opt.step();
  std::ostringstream before;
  opt.save_state(before);

  const std::string good = before.str();
  std::istringstream truncated(good.substr(0, good.size() / 2));
  EXPECT_THROW(opt.load_state(truncated), Error);
  std::istringstream wrong_kind("sgd v1\nlr 0x1p-1\nvelocity 0\n");
  EXPECT_THROW(opt.load_state(wrong_kind), Error);
  // A moment size read from the stream sizes no allocation: the stream ends
  // long before 4e12 values, so this is a truncation error, not bad_alloc.
  std::istringstream huge_moment(
      "adam v1\nlr 0x1p-1\nmoments 1\nx 1 4000000000000 0x1p+0\n");
  EXPECT_THROW(opt.load_state(huge_moment), Error);

  std::ostringstream after;
  opt.save_state(after);
  EXPECT_EQ(after.str(), good);  // failed loads left the state untouched
}

// ---- SVI fit: resume determinism -------------------------------------------

// Conjugate Normal-Normal model (z ~ N(0,1); x_i ~ N(z, 0.5) observed).
struct ConjModel {
  Tensor data;
  void operator()() const {
    Tensor z = ppl::sample("z", std::make_shared<Normal>(0.0f, 1.0f));
    ppl::sample("x",
                std::make_shared<Normal>(broadcast_to(z, data.shape()),
                                         full(data.shape(), 0.5f)),
                data);
  }
};

ConjModel make_model() {
  return ConjModel{
      Tensor(Shape{8}, {1.2f, 0.8f, 1.1f, 0.9f, 1.3f, 1.0f, 0.7f, 1.4f})};
}

struct SviRun {
  std::map<std::int64_t, double> losses;
  std::map<std::string, std::vector<float>> params;
  infer::FitReport report;
};

/// Runs `total` steps (optionally split at `split` with a full teardown and
/// resume-from-disk in between) and returns every loss plus the final params.
SviRun run_svi(std::int64_t total, std::int64_t split,
               const std::string& ckpt_path) {
  SviRun out;
  auto one_leg = [&](std::int64_t target, unsigned gen_seed) {
    // Pin the global generator: guide warm-up/param init draws from it, and
    // both the uninterrupted and the split run must start identically.
    manual_seed(42);
    ppl::ParamStore store;
    auto model = make_model();
    auto guide = std::make_shared<infer::AutoNormal>(
        [model] { model(); }, infer::AutoNormalConfig{}, "g", &store);
    // Warm the guide once so lazy site discovery runs now, not inside the
    // first resumed step where it would consume the restored RNG stream.
    (*guide)();
    auto optimizer = std::make_shared<infer::Adam>(0.05);
    infer::StepLR sched(*optimizer, 40, 0.5);
    Generator gen(gen_seed);
    infer::SVI svi([model] { model(); }, [guide] { (*guide)(); }, optimizer,
                   std::make_shared<infer::TraceELBO>(1), &store, &gen);
    svi.set_step_callback([&out](const infer::SVIStepInfo& info) {
      out.losses[info.step] = info.loss;
    });
    infer::RetryPolicy policy;
    policy.checkpoint_path = ckpt_path;
    policy.checkpoint_every = 25;
    policy.scheduler = &sched;
    out.report = svi.fit(target, policy);
    out.params.clear();
    for (const auto& [name, p] : store.items()) {
      out.params[name] = p.detach().to_vector();
    }
  };
  if (split > 0) {
    one_leg(split, 1234);
    one_leg(total, 999);  // fresh seed: resume must overwrite the generator
  } else {
    one_leg(total, 1234);
  }
  return out;
}

TEST(SviResume, BitwiseIdenticalAtEveryThreadCount) {
  const int prev = par::num_threads();
  for (int threads : {1, 4}) {
    par::set_num_threads(threads);
    const std::string base =
        tmp_path("svi_resume_t" + std::to_string(threads));
    std::remove((base + "_a.ckpt").c_str());
    std::remove((base + "_b.ckpt").c_str());

    SviRun full = run_svi(200, /*split=*/0, base + "_a.ckpt");
    SviRun split = run_svi(200, /*split=*/100, base + "_b.ckpt");

    EXPECT_FALSE(full.report.resumed);
    EXPECT_TRUE(split.report.resumed) << "threads=" << threads;
    EXPECT_EQ(split.report.steps_completed, 200);

    // Every post-resume step must replay the uninterrupted run bit for bit.
    for (std::int64_t s = 100; s < 200; ++s) {
      ASSERT_TRUE(split.losses.count(s)) << "threads=" << threads;
      EXPECT_EQ(full.losses.at(s), split.losses.at(s))
          << "loss diverged at step " << s << " threads=" << threads;
    }
    ASSERT_EQ(full.params.size(), split.params.size());
    for (const auto& [name, values] : full.params) {
      ASSERT_TRUE(split.params.count(name)) << name;
      EXPECT_EQ(values, split.params.at(name))
          << "param " << name << " diverged, threads=" << threads;
    }
    EXPECT_EQ(full.report.final_loss, split.report.final_loss);

    std::remove((base + "_a.ckpt").c_str());
    std::remove((base + "_b.ckpt").c_str());
  }
  par::set_num_threads(prev);
}

TEST(SviResume, CorruptCheckpointThrowsInsteadOfSilentRestart) {
  const std::string path = tmp_path("svi_corrupt.ckpt");
  ASSERT_TRUE(resil::atomic_write_file(path, "tx.ckpt.v1 1\n@ junk 3\nabc\n"));
  SviRun out;
  EXPECT_THROW(out = run_svi(10, 0, path), Error);
  std::remove(path.c_str());
}

// ---- SVI fit: NaN-gradient recovery ----------------------------------------

TEST(SviFit, NanGradRollsBackDecaysLrAndFinishes) {
  obs::diag::reset();
  fault::ScopedPlan plan("nan-grad=g.@5");  // poison every guide param once
  ppl::ParamStore store;
  auto model = make_model();
  auto guide = std::make_shared<infer::AutoNormal>(
      [model] { model(); }, infer::AutoNormalConfig{}, "g", &store);
  auto optimizer = std::make_shared<infer::Adam>(0.05);
  Generator gen(7);
  infer::SVI svi([model] { model(); }, [guide] { (*guide)(); }, optimizer,
                 std::make_shared<infer::TraceELBO>(1), &store, &gen);

  infer::RetryPolicy policy;
  policy.checkpoint_every = 10;
  policy.max_retries = 3;
  policy.lr_decay = 0.5;
  infer::FitReport report = svi.fit(30, policy);

  EXPECT_FALSE(report.exhausted);
  EXPECT_EQ(report.steps_completed, 30);
  EXPECT_GE(report.rollbacks, 1);
  // A rollback rewinds to the anchor and replays the good steps since it, so
  // steps_run exceeds the net progress by at least the rollback count.
  EXPECT_GE(report.steps_run, 30 + report.rollbacks);
  EXPECT_TRUE(std::isfinite(report.final_loss));
  EXPECT_GT(fault::fires(fault::Kind::kNanGrad), 0);
  // The retried segment runs at a decayed lr relative to the 0.05 start.
  EXPECT_LT(optimizer->lr(), 0.05);
  for (const auto& [name, p] : store.items()) {
    for (float v : p.detach().to_vector()) {
      EXPECT_TRUE(std::isfinite(v)) << name << " left non-finite by recovery";
    }
  }
}

TEST(SviFit, RetriesExhaustedReportsForensicsAndKeepsLastGoodState) {
  obs::diag::Config cfg;
  cfg.forensic_path = tmp_path("svi_forensic.jsonl");
  std::remove(cfg.forensic_path.c_str());
  obs::diag::configure(cfg);
  obs::diag::reset();
  obs::diag::set_enabled(true);

  // Every retry re-poisons, so the retry budget must run out.
  fault::ScopedPlan plan("nan-grad=g.@5x100000");
  ppl::ParamStore store;
  auto model = make_model();
  auto guide = std::make_shared<infer::AutoNormal>(
      [model] { model(); }, infer::AutoNormalConfig{}, "g", &store);
  auto optimizer = std::make_shared<infer::Adam>(0.05);
  Generator gen(7);
  infer::SVI svi([model] { model(); }, [guide] { (*guide)(); }, optimizer,
                 std::make_shared<infer::TraceELBO>(1), &store, &gen);

  infer::RetryPolicy policy;
  policy.checkpoint_every = 10;
  policy.max_retries = 2;
  infer::FitReport report = svi.fit(30, policy);
  obs::diag::set_enabled(false);

  EXPECT_TRUE(report.exhausted);
  EXPECT_EQ(report.rollbacks, 3);  // max_retries + the final failing attempt
  EXPECT_LT(report.steps_completed, 30);
  EXPECT_FALSE(report.failure_reason.empty());
  EXPECT_GT(obs::diag::nan_trips(), 0);
  // The failure left the last good (finite) state in place, at the anchor lr.
  EXPECT_DOUBLE_EQ(optimizer->lr(), 0.05);
  for (const auto& [name, p] : store.items()) {
    for (float v : p.detach().to_vector()) {
      EXPECT_TRUE(std::isfinite(v)) << name << " non-finite after exhaustion";
    }
  }
  std::remove(cfg.forensic_path.c_str());
}

// ---- MCMC driver: resume determinism and storms ----------------------------

/// Model whose evaluation count is observable — and which can simulate a
/// process crash by throwing once the count passes `limit`.
infer::Program counting_model(std::shared_ptr<std::atomic<long long>> count,
                              long long limit) {
  return [count, limit] {
    if (count->fetch_add(1) + 1 > limit) {
      throw std::runtime_error("injected crash");
    }
    Tensor z = ppl::sample("z", std::make_shared<Normal>(0.0f, 1.0f));
    ppl::sample("obs", std::make_shared<Normal>(z, Tensor::scalar(0.5f)),
                Tensor::scalar(1.0f));
  };
}

TEST(McmcResume, TwoChainNutsBitwiseIdenticalAtEveryThreadCount) {
  constexpr long long kNoLimit = 1LL << 60;
  const int prev = par::num_threads();
  std::vector<std::vector<double>> reference;  // per chain, from threads=1

  for (int threads : {1, 4}) {
    par::set_num_threads(threads);
    auto factory = [] {
      return std::shared_ptr<infer::MCMCKernel>(
          std::make_shared<infer::NUTS>(0.1, 6));
    };
    infer::MCMCPolicy policy;
    policy.checkpoint_every = 20;

    // Uninterrupted reference run (no persistence).
    auto count_a = std::make_shared<std::atomic<long long>>(0);
    Generator gen_a(2024);
    infer::MCMC a(factory, /*num_samples=*/60, /*warmup=*/30,
                  /*num_chains=*/2, policy);
    a.run(counting_model(count_a, kNoLimit), &gen_a);
    ASSERT_EQ(a.num_samples(), 120u);

    // Crash mid-run (after roughly half the model evaluations), then resume
    // from the last round checkpoint in a fresh driver.
    infer::MCMCPolicy persisted = policy;
    persisted.checkpoint_path =
        tmp_path("mcmc_resume_t" + std::to_string(threads) + ".ckpt");
    std::remove(persisted.checkpoint_path.c_str());

    auto count_b = std::make_shared<std::atomic<long long>>(0);
    Generator gen_b(2024);
    infer::MCMC b1(factory, 60, 30, 2, persisted);
    EXPECT_THROW(b1.run(counting_model(count_b, count_a->load() / 2), &gen_b),
                 std::runtime_error);
    ASSERT_TRUE(resil::file_exists(persisted.checkpoint_path))
        << "crash before the first round checkpoint";

    auto count_c = std::make_shared<std::atomic<long long>>(0);
    Generator gen_c(555);  // different seed: resume must restore generators
    infer::MCMC b2(factory, 60, 30, 2, persisted);
    b2.run(counting_model(count_c, kNoLimit), &gen_c);
    EXPECT_TRUE(b2.resumed());
    ASSERT_EQ(b2.num_samples(), 120u);

    for (int chain = 0; chain < 2; ++chain) {
      const auto want = a.coordinate_chain(0, chain);
      const auto got = b2.coordinate_chain(0, chain);
      ASSERT_EQ(want.size(), got.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i], got[i])
            << "chain " << chain << " draw " << i << " threads=" << threads;
      }
      if (threads == 1) {
        reference.push_back(want);
      } else {
        // Thread count must not perturb the trajectories either.
        const auto& base = reference[static_cast<std::size_t>(chain)];
        ASSERT_EQ(base.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(base[i], want[i]) << "chain " << chain << " draw " << i;
        }
      }
    }
    std::remove(persisted.checkpoint_path.c_str());
    std::remove((persisted.checkpoint_path + ".tmp").c_str());
  }
  par::set_num_threads(prev);
}

// A single chain steps on the caller's generator; checkpoints carry that
// generator, so a crashed and resumed run replays the uninterrupted one.
TEST(McmcResume, SingleChainHmcOnCallerGeneratorBitwiseIdentical) {
  constexpr long long kNoLimit = 1LL << 60;
  auto factory = [] {
    return std::shared_ptr<infer::MCMCKernel>(
        std::make_shared<infer::HMC>(0.1, 5));
  };
  infer::MCMCPolicy policy;
  policy.checkpoint_every = 7;
  policy.checkpoint_path = tmp_path("mcmc_resume_single.ckpt");
  std::remove(policy.checkpoint_path.c_str());

  // Uninterrupted reference: the plain kernel constructor, no policy.
  manual_seed(3);
  auto count_a = std::make_shared<std::atomic<long long>>(0);
  Generator gen_a(77);
  infer::MCMC a(factory(), /*num_samples=*/25, /*warmup=*/20);
  a.run(counting_model(count_a, kNoLimit), &gen_a);
  const std::uint64_t gen_a_next = gen_a.engine()();

  manual_seed(3);
  auto count_b = std::make_shared<std::atomic<long long>>(0);
  Generator gen_b(77);
  infer::MCMC b1(factory, 25, 20, 1, policy);
  EXPECT_THROW(b1.run(counting_model(count_b, count_a->load() / 2), &gen_b),
               std::runtime_error);
  ASSERT_TRUE(resil::file_exists(policy.checkpoint_path))
      << "crash before the first round checkpoint";
  EXPECT_FALSE(b1.resumed());

  manual_seed(3);
  auto count_c = std::make_shared<std::atomic<long long>>(0);
  Generator gen_c(555);  // different seed: resume must restore it
  infer::MCMC b2(factory, 25, 20, 1, policy);
  b2.run(counting_model(count_c, kNoLimit), &gen_c);
  EXPECT_TRUE(b2.resumed());
  EXPECT_LT(count_c->load(), count_a->load());  // did not start over
  ASSERT_EQ(b2.num_samples(), 25u);
  EXPECT_EQ(a.coordinate_chain(0), b2.coordinate_chain(0));
  EXPECT_EQ(a.mean_accept_prob(), b2.mean_accept_prob());
  EXPECT_EQ(a.divergence_count(), b2.divergence_count());
  // The resumed chain stepped on the caller's generator to the same state.
  EXPECT_EQ(gen_c.engine()(), gen_a_next);
  std::remove(policy.checkpoint_path.c_str());
  std::remove((policy.checkpoint_path + ".tmp").c_str());
}

TEST(McmcResume, MismatchedCheckpointThrowsCleanly) {
  auto factory = [] {
    return std::shared_ptr<infer::MCMCKernel>(
        std::make_shared<infer::HMC>(0.1, 5));
  };
  infer::MCMCPolicy policy;
  policy.checkpoint_every = 5;
  policy.checkpoint_path = tmp_path("mcmc_mismatch.ckpt");
  std::remove(policy.checkpoint_path.c_str());
  auto count = std::make_shared<std::atomic<long long>>(0);
  Generator gen(5);
  infer::MCMC(factory, 10, 5, 1, policy)
      .run(counting_model(count, 1LL << 60), &gen);
  const auto good = resil::Bundle::read_file(policy.checkpoint_path);

  // A model with more latent coordinates than the checkpointed chain.
  const infer::Program wider = [] {
    ppl::sample("z", std::make_shared<Normal>(0.0f, 1.0f));
    ppl::sample("y", std::make_shared<Normal>(0.0f, 1.0f));
  };
  EXPECT_THROW(infer::MCMC(factory, 10, 5, 1, policy).run(wider, &gen),
               Error);

  // Progress that disagrees with the number of stored draws.
  auto bad = good;
  std::string state = bad.get("chain0.state");
  ASSERT_EQ(state.rfind("done 15 ", 0), 0u) << state;
  state.replace(0, 7, "done 12");
  bad.set("chain0.state", state);
  ASSERT_TRUE(bad.write_file(policy.checkpoint_path));
  EXPECT_THROW(infer::MCMC(factory, 10, 5, 1, policy)
                   .run(counting_model(count, 1LL << 60), &gen),
               Error);
  std::remove(policy.checkpoint_path.c_str());
  std::remove((policy.checkpoint_path + ".tmp").c_str());
}

TEST(McmcStorm, HalvesStepSizeAndRecovers) {
  auto factory = [] {
    // Absurd step size: every transition diverges until storms shrink it.
    return std::shared_ptr<infer::MCMCKernel>(
        std::make_shared<infer::HMC>(1000.0, 10, /*adapt=*/false));
  };
  infer::MCMCPolicy policy;
  policy.checkpoint_every = 50;  // whole run = one round
  policy.storm_threshold = 0;
  policy.max_restarts = 30;
  policy.step_size_factor = 0.5;

  Generator gen(31);
  auto count = std::make_shared<std::atomic<long long>>(0);
  infer::MCMC driver(factory, /*num_samples=*/20, /*warmup=*/0,
                     /*num_chains=*/1, policy);
  driver.run(counting_model(count, 1LL << 60), &gen);

  EXPECT_GE(driver.restarts(), 5);
  EXPECT_EQ(driver.num_samples(), 20u);
  for (double x : driver.coordinate_chain(0, 0)) {
    EXPECT_TRUE(std::isfinite(x));
  }
}

TEST(McmcStorm, ExhaustedRestartsThrowCleanly) {
  auto factory = [] {
    return std::shared_ptr<infer::MCMCKernel>(
        std::make_shared<infer::HMC>(1000.0, 10, /*adapt=*/false));
  };
  infer::MCMCPolicy policy;
  policy.checkpoint_every = 50;
  policy.storm_threshold = 0;
  policy.max_restarts = 1;
  policy.step_size_factor = 1.0;  // never improves, so the budget must blow

  Generator gen(31);
  auto count = std::make_shared<std::atomic<long long>>(0);
  infer::MCMC driver(factory, 20, 0, 1, policy);
  EXPECT_THROW(driver.run(counting_model(count, 1LL << 60), &gen), Error);
}

// ---- resil.* metrics -------------------------------------------------------

TEST(ResilMetrics, RecoveryActivityIsCounted) {
  obs::set_enabled(true);
  obs::registry().clear();
  fault::ScopedPlan plan("nan-grad=g.@3");

  ppl::ParamStore store;
  auto model = make_model();
  auto guide = std::make_shared<infer::AutoNormal>(
      [model] { model(); }, infer::AutoNormalConfig{}, "g", &store);
  auto optimizer = std::make_shared<infer::Adam>(0.05);
  Generator gen(7);
  infer::SVI svi([model] { model(); }, [guide] { (*guide)(); }, optimizer,
                 std::make_shared<infer::TraceELBO>(1), &store, &gen);
  infer::RetryPolicy policy;
  policy.checkpoint_path = tmp_path("resil_metrics.ckpt");
  std::remove(policy.checkpoint_path.c_str());
  policy.checkpoint_every = 5;
  svi.fit(10, policy);

  auto& reg = obs::registry();
  EXPECT_GE(reg.counter("resil.svi.rollbacks").value(), 1);
  EXPECT_GE(reg.counter("resil.ckpt.snapshots").value(), 2);
  EXPECT_GE(reg.counter("resil.ckpt.writes").value(), 2);
  EXPECT_EQ(reg.counter("resil.ckpt.write_failures").value(), 0);
  obs::set_enabled(false);
  std::remove(policy.checkpoint_path.c_str());
  std::remove((policy.checkpoint_path + ".tmp").c_str());
}

}  // namespace
}  // namespace tx
