// Tests for tx::guard (resil/guard.h) and the obs watchdog: budget caps and
// exhaustion ordering, deterministic clock-skew cancellation, the bitwise
// prefix-truncation contract of a deadline-degraded predict(), SVI::fit budget
// integration (graceful stop, mid-step rollback, backoff clamping), hard
// cancellation through tx::par, pq degraded-batch tagging, and the watchdog's
// forensic-dump / healthz-override / escalation ladder. See docs/robustness.md.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/tyxe.h"
#include "obs/obs.h"
#include "par/pool.h"
#include "resil/fault.h"
#include "resil/guard.h"

namespace tyxe {
namespace {

namespace fault = tx::fault;
namespace guard = tx::guard;
namespace nd = tx::dist;
using tx::Shape;
using tx::Tensor;

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// The paper's regression data (Foong et al., 2019) — same recipe as
/// core_bnn_test.cpp so predict paths run on realistic shapes.
std::pair<Tensor, Tensor> make_regression_data(std::int64_t n,
                                               tx::Generator& gen) {
  std::vector<float> xs, ys;
  for (std::int64_t i = 0; i < n; ++i) {
    const float x = static_cast<float>(
        i % 2 == 0 ? gen.uniform(-1.0, -0.7) : gen.uniform(0.5, 1.0));
    xs.push_back(x);
    ys.push_back(static_cast<float>(std::cos(4.0f * x + 0.8f) +
                                    gen.normal(0.0, 0.1)));
  }
  return {Tensor(Shape{n, 1}, std::move(xs)),
          Tensor(Shape{n, 1}, std::move(ys))};
}

std::shared_ptr<VariationalBNN> make_regression_bnn(tx::Generator& gen,
                                                    std::int64_t n_data) {
  auto net = tx::nn::make_mlp({1, 20, 1}, "tanh", &gen);
  auto likelihood = std::make_shared<HomoskedasticGaussian>(n_data, 0.1f);
  auto prior =
      std::make_shared<IIDPrior>(std::make_shared<nd::Normal>(0.0f, 1.0f));
  return std::make_shared<VariationalBNN>(net, prior, likelihood,
                                          guides::auto_normal_factory());
}

/// One full predict run from a fixed seed: fresh data, fresh BNN, identical
/// construction every call, so two runs differ only in num_predictions and
/// the (optional) installed budget.
Tensor seeded_predict(int threads, int num_predictions, guard::Budget* budget) {
  tx::par::set_num_threads(threads);
  tx::manual_seed(77);
  tx::Generator gen(77);
  auto [x, y] = make_regression_data(16, gen);
  (void)y;
  auto bnn = make_regression_bnn(gen, 16);
  if (budget != nullptr) {
    guard::BudgetScope scope(*budget);
    return bnn->predict({x}, num_predictions, /*aggregate=*/true);
  }
  return bnn->predict({x}, num_predictions, /*aggregate=*/true);
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.numel(), b.numel());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<std::size_t>(a.numel())),
            0);
}

/// Spin (up to ~5s real time) until `pred` holds; the watchdog tests use
/// this instead of fixed sleeps so they pass on loaded CI machines.
template <typename Pred>
bool wait_until(Pred pred) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

class GuardTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = tx::par::num_threads(); }
  void TearDown() override {
    // Every global knob a test can flip, restored unconditionally so one
    // failing assertion cannot poison the rest of the suite.
    fault::clear();
    guard::reset_clock();
    guard::clear_health_override();
    tx::obs::pq::set_enabled(false);
    tx::obs::pq::reset();
    tx::par::set_num_threads(saved_threads_);
  }

  int saved_threads_ = 1;
};

// ---- hooks and the Budget object -------------------------------------------

TEST_F(GuardTest, HooksAreInertWithoutBudget) {
  ASSERT_FALSE(guard::active());
  EXPECT_EQ(guard::current(), nullptr);
  EXPECT_NO_THROW(guard::check("par.chunk"));
  EXPECT_NO_THROW(guard::check_expiry("hmc.leapfrog"));
  EXPECT_NO_THROW(guard::begin_step("svi.step"));
  EXPECT_FALSE(guard::begin_sample("predict.sample"));
  EXPECT_EQ(guard::poll("svi.fit"), guard::Reason::kNone);
}

TEST_F(GuardTest, BudgetCapsAndExhaustionOrder) {
  guard::Budget b(3600.0);
  EXPECT_EQ(b.exhausted(), guard::Reason::kNone);
  b.set_step_cap(2);
  b.note_step();
  EXPECT_EQ(b.exhausted(), guard::Reason::kNone);
  b.note_step();
  EXPECT_EQ(b.exhausted(), guard::Reason::kStepCap);
  // The token outranks caps, and is sticky: the first reason wins.
  b.cancel(guard::Reason::kWatchdog);
  EXPECT_EQ(b.exhausted(), guard::Reason::kWatchdog);
  b.cancel(guard::Reason::kCancelled);
  EXPECT_EQ(b.exhausted(), guard::Reason::kWatchdog);
}

TEST_F(GuardTest, ClockSkewTripsTheDeadlineAtTheExactCountedCall) {
  fault::ScopedPlan plan("clock-skew=unit.site@2,ms=7200000");
  guard::Budget b(1800.0);
  guard::BudgetScope scope(b);
  EXPECT_NO_THROW(guard::check_expiry("unit.site"));  // matching call #1
  // Non-matching sites and hard-only kernel hooks (par chunk claims) never
  // consume clock-skew counts, so unrelated work cannot shift the firing
  // point of a targeted plan.
  EXPECT_NO_THROW(guard::check_expiry("other.site"));
  EXPECT_NO_THROW(guard::check("unit.site"));
  try {
    guard::check_expiry("unit.site");  // matching call #2: +7200s > deadline
    FAIL() << "expected guard::Cancelled";
  } catch (const guard::Cancelled& c) {
    EXPECT_EQ(c.reason(), guard::Reason::kDeadline);
  }
  EXPECT_EQ(fault::fires(fault::Kind::kClockSkew), 1);
  EXPECT_GT(b.elapsed_seconds(), 7000.0);
}

TEST_F(GuardTest, HardCancelThrowsFromParChunks) {
  guard::Budget b;
  guard::BudgetScope scope(b);
  b.cancel();
  EXPECT_THROW(tx::par::parallel_for(0, 1024, 64,
                                     [](std::int64_t, std::int64_t) {}),
               guard::Cancelled);
}

TEST_F(GuardTest, PassiveExpiryDoesNotStopParChunks) {
  // Deadline/cap expiry is a driver-level concern: kernel work issued after
  // a graceful degradation (aggregating the truncated stack) must complete.
  guard::Budget b(0.001);
  guard::advance_clock_ms(1000);
  guard::BudgetScope scope(b);
  ASSERT_EQ(b.exhausted(), guard::Reason::kDeadline);
  std::vector<int> hit(256, 0);
  EXPECT_NO_THROW(
      tx::par::parallel_for(0, 256, 32, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) hit[i] = 1;
      }));
  for (int h : hit) EXPECT_EQ(h, 1);
}

// ---- predict prefix-truncation ----------------------------------------------

TEST_F(GuardTest, DeadlineTruncatedPredictIsBitwiseEqualToHonestShortRun) {
  // The acceptance contract: a predict asked for n samples that hits its
  // deadline after k returns exactly what an honest num_predictions=k run
  // returns — bitwise, at every thread count. The deadline is huge and real;
  // the clock-skew plan advances the guard clock past it at begin_sample
  // call k+1, so truncation lands at exactly k deterministically.
  const int n = 8;
  const int k = 3;
  const Tensor honest = seeded_predict(1, k, nullptr);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    fault::ScopedPlan plan("clock-skew=predict.sample@4,ms=7200000");
    guard::Budget budget(3600.0);
    const Tensor truncated = seeded_predict(threads, n, &budget);
    const guard::DegradedResult& status = guard::last_predict_status();
    EXPECT_TRUE(status.degraded);
    EXPECT_EQ(status.completed, k);
    EXPECT_EQ(status.requested, n);
    EXPECT_EQ(status.reason, guard::Reason::kDeadline);
    EXPECT_GT(status.elapsed_seconds, 7000.0);
    expect_bitwise_equal(honest, truncated);
    guard::reset_clock();
  }
}

TEST_F(GuardTest, SampleCapTruncatesWithoutAnyFaultPlan) {
  const Tensor honest = seeded_predict(1, 2, nullptr);
  guard::Budget budget;
  budget.set_sample_cap(2);
  const Tensor truncated = seeded_predict(1, 6, &budget);
  const guard::DegradedResult& status = guard::last_predict_status();
  EXPECT_TRUE(status.degraded);
  EXPECT_EQ(status.completed, 2);
  EXPECT_EQ(status.requested, 6);
  EXPECT_EQ(status.reason, guard::Reason::kSampleCap);
  expect_bitwise_equal(honest, truncated);
}

TEST_F(GuardTest, ExpiredBudgetStillDeliversTheFirstSample) {
  // Degradation floor: even a budget that is exhausted before the first
  // sample yields k=1 — callers always get a usable (if minimal) posterior
  // aggregate rather than an empty result.
  const Tensor honest = seeded_predict(1, 1, nullptr);
  guard::Budget budget(0.001);
  guard::advance_clock_ms(1000);  // deadline already passed
  const Tensor truncated = seeded_predict(1, 5, &budget);
  const guard::DegradedResult& status = guard::last_predict_status();
  EXPECT_TRUE(status.degraded);
  EXPECT_EQ(status.completed, 1);
  EXPECT_EQ(status.reason, guard::Reason::kDeadline);
  expect_bitwise_equal(honest, truncated);
}

TEST_F(GuardTest, TruncatedPredictIsTheBitwisePrefixOfTheFullDraws) {
  // predict() reuses one draw program across its samples; after a few SVI
  // steps every guide parameter exists, so the draws after the first only
  // sample the distributions the first one built. A truncated run must
  // still return exactly the first k draws of the full run.
  tx::par::set_num_threads(1);
  tx::manual_seed(41);
  tx::Generator gen(41);
  auto [x, y] = make_regression_data(16, gen);
  auto bnn = make_regression_bnn(gen, 16);
  bnn->fit({{{x}, y}}, std::make_shared<tx::infer::Adam>(1e-2), 3);
  tx::manual_seed(42);
  const Tensor full = bnn->predict({x}, 6, /*aggregate=*/false);
  guard::Budget budget;
  budget.set_sample_cap(2);
  tx::manual_seed(42);
  Tensor truncated;
  {
    guard::BudgetScope scope(budget);
    truncated = bnn->predict({x}, 6, /*aggregate=*/false);
  }
  EXPECT_TRUE(guard::last_predict_status().degraded);
  EXPECT_EQ(guard::last_predict_status().completed, 2);
  ASSERT_EQ(truncated.dim(0), 2);
  expect_bitwise_equal(truncated, tx::slice(full, 0, 0, 2));
  EXPECT_FALSE(std::memcmp(full.data(), full.data() + x.numel(),
                           sizeof(float) * static_cast<std::size_t>(x.numel())) ==
               0);
}

TEST_F(GuardTest, GuardedPredictWithinBudgetIsNotDegraded) {
  guard::Budget budget(3600.0);
  const std::int64_t dropped_before =
      tx::obs::registry().counter("guard.predict.degraded").value();
  (void)seeded_predict(1, 3, &budget);
  const guard::DegradedResult& status = guard::last_predict_status();
  EXPECT_FALSE(status.degraded);
  EXPECT_EQ(status.completed, 3);
  EXPECT_EQ(status.requested, 3);
  EXPECT_EQ(status.reason, guard::Reason::kNone);
  EXPECT_EQ(budget.samples(), 3);
  EXPECT_EQ(tx::obs::registry().counter("guard.predict.degraded").value(),
            dropped_before);
}

TEST_F(GuardTest, DegradedPredictTagsThePqStreamAndBumpsCounters) {
  tx::obs::pq::set_enabled(true);
  tx::obs::pq::reset();
  auto& degraded = tx::obs::registry().counter("guard.predict.degraded");
  auto& dropped = tx::obs::registry().counter("guard.predict.samples_dropped");
  const std::int64_t degraded_before = degraded.value();
  const std::int64_t dropped_before = dropped.value();
  guard::Budget budget;
  budget.set_sample_cap(1);
  (void)seeded_predict(1, 4, &budget);
  auto table = tx::obs::pq::stream_table();
  ASSERT_EQ(table.count("predict"), 1u);
  EXPECT_EQ(table["predict"].degraded_batches, 1);
  EXPECT_EQ(degraded.value(), degraded_before + 1);
  EXPECT_EQ(dropped.value(), dropped_before + 3);  // 4 asked, 1 delivered
}

// ---- SVI::fit budget integration --------------------------------------------

struct FitFixture {
  Tensor x, y;
  std::shared_ptr<VariationalBNN> bnn;
  std::shared_ptr<tx::infer::Adam> optim;
  std::vector<Batch> data;

  FitFixture() {
    tx::manual_seed(11);
    tx::Generator gen(11);
    std::tie(x, y) = make_regression_data(32, gen);
    bnn = make_regression_bnn(gen, 32);
    optim = std::make_shared<tx::infer::Adam>(1e-2);
    data = {{{x}, y}};
  }
};

TEST_F(GuardTest, FitStopsGracefullyAtTheStepCap) {
  FitFixture f;
  guard::Budget budget;
  budget.set_step_cap(5);
  tx::infer::RetryPolicy policy;
  policy.checkpoint_every = 2;
  policy.budget = &budget;
  const tx::infer::FitReport report = f.bnn->fit(f.data, f.optim, 20, policy);
  EXPECT_TRUE(report.cancelled);
  EXPECT_FALSE(report.exhausted);
  EXPECT_EQ(report.failure_reason, "step-cap");
  EXPECT_EQ(report.steps_completed, 5);
}

TEST_F(GuardTest, FitDeadlineStopsAtAStepBoundary) {
  FitFixture f;
  // The third loop-top poll advances the guard clock past the deadline, so
  // exactly two steps complete and the stop is graceful (no rollback).
  fault::ScopedPlan plan("clock-skew=svi.fit@3,ms=7200000");
  guard::Budget budget(1800.0);
  tx::infer::RetryPolicy policy;
  policy.budget = &budget;
  const tx::infer::FitReport report = f.bnn->fit(f.data, f.optim, 20, policy);
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.failure_reason, "deadline");
  EXPECT_EQ(report.steps_completed, 2);
  EXPECT_EQ(report.rollbacks, 0);
}

TEST_F(GuardTest, MidStepCancellationRollsBackToTheLastAnchor) {
  FitFixture f;
  // Step 2's begin_step hook trips the deadline and throws mid-step; the
  // driver rolls back to the post-step-1 anchor instead of keeping a
  // half-applied optimizer state.
  fault::ScopedPlan plan("clock-skew=svi.step@2,ms=7200000");
  guard::Budget budget(1800.0);
  tx::infer::RetryPolicy policy;
  policy.checkpoint_every = 1;
  policy.budget = &budget;
  const tx::infer::FitReport report = f.bnn->fit(f.data, f.optim, 20, policy);
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.failure_reason, "deadline");
  EXPECT_EQ(report.steps_completed, 1);
}

TEST_F(GuardTest, RetryBackoffIsClampedToTheRemainingDeadline) {
  FitFixture f;
  // Every step's gradients are poisoned, so the driver would retry with a
  // 30s exponential backoff forever; the budget clamps each sleep to the
  // time remaining and the deadline stops the fit in well under one
  // unclamped backoff period.
  fault::ScopedPlan plan("nan-grad=@0x1000");
  guard::Budget budget(0.3);
  tx::infer::RetryPolicy policy;
  policy.checkpoint_every = 1;
  policy.max_retries = 1000;
  policy.backoff_seconds = 30.0;
  policy.max_backoff_seconds = 30.0;
  policy.budget = &budget;
  const auto t0 = std::chrono::steady_clock::now();
  const tx::infer::FitReport report = f.bnn->fit(f.data, f.optim, 50, policy);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.failure_reason, "deadline");
  EXPECT_LT(elapsed, 10.0);
  EXPECT_EQ(report.steps_completed, 0);
}

// ---- watchdog ---------------------------------------------------------------

TEST_F(GuardTest, WatchdogDumpsForensicsFlipsHealthzAndRecovers) {
  tx::obs::diag::Config cfg;
  cfg.forensic_path = tmp_path("guard_watchdog_forensic.jsonl");
  std::remove(cfg.forensic_path.c_str());
  tx::obs::diag::configure(cfg);
  tx::obs::diag::reset();

  guard::note_liveness("fit/step");
  auto& heartbeat = tx::obs::registry().gauge("obs.heartbeat_seconds");
  heartbeat.set(tx::obs::now_seconds() - 100.0);

  tx::obs::WatchdogOptions opts;
  opts.stale_after_seconds = 1.0;
  opts.poll_interval_seconds = 0.01;
  tx::obs::Watchdog dog(opts);
  dog.start();
  EXPECT_TRUE(guard::watchdog_interested());
  ASSERT_TRUE(wait_until([&] { return dog.stalls() >= 1; }));

  EXPECT_TRUE(guard::health_overridden());
  int http_status = 0;
  const std::string body = tx::obs::live::render_healthz(1.0, http_status);
  EXPECT_EQ(http_status, 503);
  EXPECT_NE(body.find("\"stalled\""), std::string::npos);
  EXPECT_NE(body.find("fit/step"), std::string::npos) << body;
  EXPECT_TRUE(std::ifstream(cfg.forensic_path).good())
      << "expected a forced forensic bundle at " << cfg.forensic_path;

  // A fresh heartbeat clears the override; the episode count stays.
  heartbeat.set(tx::obs::now_seconds());
  ASSERT_TRUE(wait_until([&] { return !guard::health_overridden(); }));
  EXPECT_EQ(dog.stalls(), 1);
  dog.stop();
  EXPECT_FALSE(guard::watchdog_interested());
}

TEST_F(GuardTest, WatchdogEscalationCancelsLiveBudgets) {
  tx::obs::diag::Config cfg;
  cfg.forensic_path = tmp_path("guard_watchdog_escalate_forensic.jsonl");
  tx::obs::diag::configure(cfg);
  tx::obs::diag::reset();

  guard::Budget budget(3600.0);
  tx::obs::registry().gauge("obs.heartbeat_seconds")
      .set(tx::obs::now_seconds() - 100.0);

  tx::obs::WatchdogOptions opts;
  opts.stale_after_seconds = 1.0;
  opts.poll_interval_seconds = 0.01;
  opts.escalate_cancel = true;
  tx::obs::Watchdog dog(opts);
  dog.start();
  ASSERT_TRUE(wait_until([&] { return budget.cancelled(); }));
  EXPECT_EQ(budget.exhausted(), guard::Reason::kWatchdog);

  // stop() while still stalled clears the override this watchdog set.
  dog.stop();
  EXPECT_FALSE(guard::health_overridden());
  tx::obs::registry().gauge("obs.heartbeat_seconds").set(tx::obs::now_seconds());
}

TEST_F(GuardTest, McmcTransitionsNoteLivenessForTheWatchdog) {
  // Like SVI steps and predicts, MCMC transitions must move the blame span
  // off a stale one, or a stall mid-chain is blamed on the wrong driver.
  guard::note_liveness("stale");
  guard::set_watchdog_interest(true);
  tx::manual_seed(5);
  tx::Generator gen(5);
  tx::infer::MCMC mcmc(std::make_shared<tx::infer::HMC>(0.1, 3, false),
                       /*num_samples=*/2, /*warmup_steps=*/0);
  mcmc.run(
      [] {
        tx::ppl::sample("z", std::make_shared<nd::Normal>(tx::zeros({2}),
                                                          tx::ones({2})));
      },
      &gen);
  guard::set_watchdog_interest(false);
  const std::string blamed = guard::last_liveness_span();
  EXPECT_EQ(blamed.rfind("mcmc.run", 0), 0u) << blamed;
}

}  // namespace
}  // namespace tyxe
