// Tests for the streaming inference-health diagnostics (obs/diag.h +
// ppl::DiagnosticsMessenger): Welford accumulators, the disabled-is-inert
// contract, per-site SVI health on a conjugate model, the NaN sentinel /
// flight recorder on a poisoned learning rate, MCMC per-site R̂/ESS and
// divergence localization, multi-chain diag under tx::par (the TSan target),
// and a python round-trip against validate_bench.py --diag.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "infer/infer.h"
#include "obs/obs.h"
#include "par/pool.h"
#include "ppl/diag.h"
#include "ppl/ppl.h"

namespace tx {
namespace {

namespace diag = obs::diag;
using dist::Normal;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::size_t count_lines(const std::string& text) {
  std::size_t n = 0;
  for (char c : text) n += c == '\n';
  return n;
}

class DiagTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::registry().clear();
    diag::reset();
    diag::Config cfg;
    // ctest runs every case in its own process, possibly concurrently: a
    // per-case, per-process dump keeps cases from deleting each other's.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    cfg.forensic_path = temp_path(std::string("tx_forensic_") + info->name() +
                                  "_" + std::to_string(::getpid()) + ".jsonl");
    cfg.refresh_interval = 8;
    diag::configure(cfg);
    diag::reset();
    std::remove(cfg.forensic_path.c_str());
  }
  void TearDown() override {
    diag::set_enabled(false);
    std::remove(diag::config().forensic_path.c_str());
    diag::reset();
    obs::registry().clear();
  }
};

/// data ~ Normal(z, 0.5), z ~ Normal(0, 1): the conjugate setup the SVI
/// tests use, small enough that per-step diagnostics dominate runtime.
infer::Program make_model() {
  Tensor data(Shape{8},
              {1.2f, 0.8f, 1.1f, 0.9f, 1.3f, 1.0f, 0.7f, 1.4f});
  return [data] {
    Tensor z = ppl::sample("z", std::make_shared<Normal>(0.0f, 1.0f));
    ppl::sample("obs", std::make_shared<Normal>(z, Tensor::scalar(0.5f)),
                data);
  };
}

TEST(DiagWelford, MatchesClosedFormMoments) {
  diag::Welford w;
  EXPECT_TRUE(std::isnan(w.variance()));
  w.add(1.0);
  EXPECT_DOUBLE_EQ(w.mean, 1.0);
  EXPECT_TRUE(std::isnan(w.variance()));  // one sample: undefined
  w.add(3.0);
  w.add(5.0);
  EXPECT_DOUBLE_EQ(w.mean, 3.0);
  EXPECT_DOUBLE_EQ(w.variance(), 4.0);  // sample variance of {1,3,5}
  EXPECT_DOUBLE_EQ(w.stddev(), 2.0);
}

TEST(DiagWelford, MergeMatchesOneAccumulator) {
  const double xs[] = {0.5, -1.25, 2.0, 3.5, -0.75, 1.0, 4.25};
  diag::Welford all, a, b, empty;
  for (int i = 0; i < 7; ++i) {
    all.add(xs[i]);
    (i < 3 ? a : b).add(xs[i]);
  }
  diag::Welford merged;
  merged.merge(a);
  EXPECT_EQ(merged.mean, a.mean);  // into empty: an exact copy
  EXPECT_EQ(merged.m2, a.m2);
  merged.merge(empty);
  merged.merge(b);
  EXPECT_EQ(merged.count, 7);
  EXPECT_NEAR(merged.mean, all.mean, 1e-12);
  EXPECT_NEAR(merged.variance(), all.variance(), 1e-12);
}

TEST_F(DiagTest, DisabledHooksAreInert) {
  EXPECT_FALSE(diag::enabled());
  diag::svi_step_begin(0);
  EXPECT_FALSE(diag::in_svi_step());
  diag::record_site_value("z", 1.0, 0.0, 2.0, 4, true);
  diag::record_site_kl("z", 0.5);
  diag::record_param_grad("g.loc", 0.1, 1.0, true);
  diag::svi_step_end(1.0, 1.0);
  diag::mcmc_update_site_health("z", 100.0, 1.01);
  EXPECT_EQ(diag::records(), 0);
  EXPECT_EQ(diag::nan_trips(), 0);
  EXPECT_EQ(diag::forensic_dumps(), 0);
}

TEST_F(DiagTest, SviStreamsSiteKlAndGradientHealth) {
  manual_seed(7);
  diag::set_enabled(true);
  ppl::DiagnosticsMessenger messenger;
  ppl::HandlerScope scope(messenger);

  ppl::ParamStore store;
  auto model = make_model();
  auto guide = std::make_shared<infer::AutoNormal>(
      model, infer::AutoNormalConfig{}, "g", &store);
  infer::SVI svi(model, [guide] { (*guide)(); },
                 std::make_shared<infer::Adam>(0.05),
                 std::make_shared<infer::TraceELBO>(1), &store);
  for (int i = 0; i < 50; ++i) svi.step();

  EXPECT_EQ(diag::records(), 50);
  EXPECT_EQ(diag::nan_trips(), 0);
  // Guide + model sightings for the latent site, every step.
  EXPECT_EQ(messenger.sites_seen(), 100);

  diag::publish(obs::registry());
  const auto gauges = obs::registry().gauges();
  ASSERT_TRUE(gauges.count("diag.svi.steps"));
  EXPECT_DOUBLE_EQ(gauges.at("diag.svi.steps"), 50.0);
  ASSERT_TRUE(gauges.count("diag.svi.elbo_mean"));
  EXPECT_TRUE(std::isfinite(gauges.at("diag.svi.elbo_mean")));

  const std::string path = temp_path("diag_svi_snapshot.json");
  ASSERT_TRUE(diag::write_snapshot(path, "diag_svi"));
  const std::string doc = read_file(path);
  EXPECT_NE(doc.find("\"schema\": \"tx.diag.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"z\""), std::string::npos);
  // Normal||Normal has a registered closed form, so the site carries KL.
  EXPECT_NE(doc.find("\"kl_mean\""), std::string::npos);
  // AutoNormal's parameters show up with gradient statistics.
  EXPECT_NE(doc.find("\"grad_norm_mean\""), std::string::npos);
  EXPECT_NE(doc.find("\"grad_snr\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(DiagTest, KlPairingNeverCrossesStepBoundaries) {
  diag::set_enabled(true);
  ppl::DiagnosticsMessenger messenger;
  auto sight = [&](const std::string& name, dist::DistPtr d) {
    ppl::SampleMsg msg;
    msg.name = name;
    msg.distribution = std::move(d);
    msg.value = Tensor::scalar(0.5f);
    messenger.postprocess_message(msg);
  };

  // A site present in only one of guide/model is sighted once per step; its
  // stale pending entry must be replaced at the next step, never paired
  // (which would record KL(q_step_n ‖ q_step_n+1) or swap q/p).
  diag::svi_step_begin(0);
  sight("lonely", std::make_shared<Normal>(0.0f, 1.0f));
  diag::svi_step_end(1.0, 1.0);
  diag::svi_step_begin(1);
  sight("lonely", std::make_shared<Normal>(5.0f, 2.0f));
  diag::svi_step_end(1.0, 1.0);

  // A guide/model pair inside a single step still records KL.
  diag::svi_step_begin(2);
  sight("paired", std::make_shared<Normal>(0.0f, 1.0f));
  sight("paired", std::make_shared<Normal>(0.0f, 1.0f));
  diag::svi_step_end(1.0, 1.0);

  const std::string path = temp_path("diag_kl_pairing.json");
  ASSERT_TRUE(diag::write_snapshot(path, "kl_pairing"));
  const std::string doc = read_file(path);
  const auto lonely_pos = doc.find("\"lonely\"");
  ASSERT_NE(lonely_pos, std::string::npos);
  const auto lonely_end = doc.find('}', lonely_pos);
  EXPECT_EQ(doc.substr(lonely_pos, lonely_end - lonely_pos).find("kl_"),
            std::string::npos);
  EXPECT_NE(doc.find("\"kl_count\": 1"), std::string::npos);  // paired only
  std::remove(path.c_str());
}

TEST_F(DiagTest, NonFiniteCoordinatesDoNotCountAsMoved) {
  diag::set_enabled(true);
  const std::vector<diag::SiteSpan> spans{{"z", 0, 1}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // NaN != NaN is true, so without the finiteness guard a broken chain
  // would report a perfect moved-fraction.
  diag::mcmc_record_transition(spans, /*chain=*/0, /*step=*/0,
                               /*warmup=*/false, /*accept_prob=*/0.25,
                               /*divergent=*/false, {nan}, {nan});
  const std::string path = temp_path("diag_moved.json");
  ASSERT_TRUE(diag::write_snapshot(path, "diag_moved"));
  const std::string doc = read_file(path);
  EXPECT_NE(doc.find("\"moved\": 0"), std::string::npos);
  EXPECT_NE(doc.find("\"moved_fraction\": 0"), std::string::npos);
  EXPECT_NE(doc.find("\"accept_prob_mean\": 0.25"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(DiagTest, PoisonedLearningRateTripsForensicDump) {
  manual_seed(11);
  diag::set_enabled(true);
  ppl::DiagnosticsMessenger messenger;
  ppl::HandlerScope scope(messenger);

  ppl::ParamStore store;
  auto model = make_model();
  auto guide = std::make_shared<infer::AutoNormal>(
      model, infer::AutoNormalConfig{}, "g", &store);
  // A learning rate this size blows the variational parameters out within a
  // few steps: exp() of the exploded scale parameter overflows, the next
  // sampled site value is non-finite, and the sentinel trips.
  infer::SVI svi(model, [guide] { (*guide)(); },
                 std::make_shared<infer::Adam>(1e25),
                 std::make_shared<infer::TraceELBO>(1), &store);
  for (int i = 0; i < 30 && diag::nan_trips() == 0; ++i) svi.step();

  ASSERT_GT(diag::nan_trips(), 0);
  EXPECT_EQ(diag::forensic_dumps(), 1);
  EXPECT_FALSE(diag::last_forensic_reason().empty());

  const std::string dump = read_file(diag::config().forensic_path);
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("tx.diag.forensic.v1"), std::string::npos);
  EXPECT_NE(dump.find(diag::last_forensic_reason()), std::string::npos);
  // The bundle names the offending site when the trip came from a site or
  // parameter value (a bare loss trip has no site to blame).
  if (!diag::last_offending_site().empty()) {
    EXPECT_NE(dump.find(diag::last_offending_site()), std::string::npos);
  }
  // Header + detail + the recorded steps leading up to the failure.
  EXPECT_GE(count_lines(dump), 3u);
  EXPECT_NE(dump.find("\"kind\": \"svi\""), std::string::npos);

  // Later trips only bump counters (max_forensic_dumps = 1).
  for (int i = 0; i < 3; ++i) svi.step();
  EXPECT_EQ(diag::forensic_dumps(), 1);
}

TEST_F(DiagTest, McmcRefreshPublishesPerSiteHealth) {
  manual_seed(21);
  diag::set_enabled(true);
  Generator gen(21);
  auto kernel = std::make_shared<infer::HMC>(0.1, 5);
  infer::MCMC mcmc(kernel, /*num_samples=*/64, /*warmup=*/32);
  mcmc.run(make_model(), &gen);

  EXPECT_GT(diag::records(), 0);
  diag::publish(obs::registry());
  const auto gauges = obs::registry().gauges();
  ASSERT_TRUE(gauges.count("diag.mcmc.transitions"));
  EXPECT_DOUBLE_EQ(gauges.at("diag.mcmc.transitions"), 96.0);
  ASSERT_TRUE(gauges.count("diag.mcmc.ess_min"));
  EXPECT_GT(gauges.at("diag.mcmc.ess_min"), 0.0);
  ASSERT_TRUE(gauges.count("diag.mcmc.rhat_max"));
  EXPECT_GT(gauges.at("diag.mcmc.rhat_max"), 0.5);

  const std::string path = temp_path("diag_mcmc_snapshot.json");
  ASSERT_TRUE(diag::write_snapshot(path, "diag_mcmc"));
  const std::string doc = read_file(path);
  EXPECT_NE(doc.find("\"ess\""), std::string::npos);
  EXPECT_NE(doc.find("\"rhat\""), std::string::npos);
  EXPECT_NE(doc.find("\"moved_fraction\""), std::string::npos);
  EXPECT_NE(doc.find("\"accept_prob_mean\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(DiagTest, DivergenceIsLocalizedToTheBlowupSite) {
  manual_seed(31);
  diag::set_enabled(true);
  Generator gen(31);
  // An enormous frozen step size makes every trajectory blow up.
  auto kernel =
      std::make_shared<infer::HMC>(1e8, 3, /*adapt_step_size=*/false);
  infer::MCMC mcmc(kernel, /*num_samples=*/10, /*warmup=*/0);
  mcmc.run(make_model(), &gen);

  EXPECT_GT(mcmc.divergence_count(), 0);
  EXPECT_EQ(diag::last_forensic_reason(), "divergence");
  EXPECT_EQ(diag::last_offending_site(), "z");
  const std::string dump = read_file(diag::config().forensic_path);
  EXPECT_NE(dump.find("\"reason\": \"divergence\""), std::string::npos);
  EXPECT_NE(dump.find("\"offending_site\": \"z\""), std::string::npos);
}

TEST_F(DiagTest, MultiChainMcmcStreamsUnderParWorkers) {
  manual_seed(41);
  diag::set_enabled(true);
  ppl::DiagnosticsMessenger messenger;
  ppl::HandlerScope scope(messenger);  // propagated into tx::par workers
  Generator gen(41);
  infer::MCMC mcmc([] { return std::make_shared<infer::HMC>(0.1, 5); },
                   /*num_samples=*/32, /*warmup_steps=*/16, /*num_chains=*/2);
  mcmc.run(make_model(), &gen);

  diag::publish(obs::registry());
  const auto gauges = obs::registry().gauges();
  ASSERT_TRUE(gauges.count("diag.mcmc.chains"));
  EXPECT_DOUBLE_EQ(gauges.at("diag.mcmc.chains"), 2.0);
  EXPECT_DOUBLE_EQ(gauges.at("diag.mcmc.transitions"), 96.0);
  // The post-join cross-chain refresh produced per-site health.
  ASSERT_TRUE(gauges.count("diag.mcmc.ess_min"));
  EXPECT_GT(gauges.at("diag.mcmc.ess_min"), 0.0);
}

// Per-site mean/std and the accept-prob mean come from per-chain
// accumulators merged in chain order, so the snapshot does not depend on how
// the pool interleaved the chains' transitions.
TEST_F(DiagTest, MultiChainSiteStatsIndependentOfThreads) {
  const infer::Program model = [] {
    Tensor a = ppl::sample("a", std::make_shared<Normal>(0.0f, 1.0f));
    Tensor w =
        ppl::sample("w", std::make_shared<Normal>(zeros({2}), ones({2})));
    ppl::sample("obs",
                std::make_shared<Normal>(add(broadcast_to(a, Shape{2}), w),
                                         full({2}, 0.3f)),
                Tensor(Shape{2}, {0.8f, -0.4f}));
  };
  const int prev = par::num_threads();
  std::string reference;
  for (int threads : {1, 2, 4}) {
    par::set_num_threads(threads);
    diag::reset();
    diag::set_enabled(true);
    manual_seed(51);
    Generator gen(51);
    infer::MCMC mcmc([] { return std::make_shared<infer::NUTS>(0.1, 4); },
                     /*num_samples=*/24, /*warmup_steps=*/12,
                     /*num_chains=*/3);
    mcmc.run(model, &gen);
    const std::string path =
        temp_path("diag_chains_t" + std::to_string(threads) + ".json");
    ASSERT_TRUE(diag::write_snapshot(path, "diag_chains"));
    const std::string doc = read_file(path);
    std::remove(path.c_str());
    const auto begin = doc.find("\"mcmc\": {");
    const auto end = doc.find("\"events\"");
    ASSERT_NE(begin, std::string::npos);
    ASSERT_NE(end, std::string::npos);
    const std::string mcmc_doc = doc.substr(begin, end - begin);
    EXPECT_NE(mcmc_doc.find("\"accept_prob_mean\""), std::string::npos);
    EXPECT_NE(mcmc_doc.find("\"std\""), std::string::npos);
    if (reference.empty()) {
      reference = mcmc_doc;
    } else {
      EXPECT_EQ(mcmc_doc, reference) << "threads=" << threads;
    }
  }
  par::set_num_threads(prev);
}

TEST_F(DiagTest, SnapshotPassesPythonValidator) {
  if (std::system("python3 -c 'import json' >/dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  manual_seed(51);
  diag::set_enabled(true);
  ppl::DiagnosticsMessenger messenger;
  ppl::HandlerScope scope(messenger);

  ppl::ParamStore store;
  auto model = make_model();
  auto guide = std::make_shared<infer::AutoNormal>(
      model, infer::AutoNormalConfig{}, "g", &store);
  infer::SVI svi(model, [guide] { (*guide)(); },
                 std::make_shared<infer::Adam>(0.05),
                 std::make_shared<infer::TraceELBO>(1), &store);
  for (int i = 0; i < 20; ++i) svi.step();
  Generator gen(51);
  auto kernel = std::make_shared<infer::HMC>(0.1, 5);
  infer::MCMC mcmc(kernel, /*num_samples=*/32, /*warmup=*/16);
  mcmc.run(model, &gen);

  const std::string path = temp_path("diag_roundtrip.diag.json");
  ASSERT_TRUE(diag::write_snapshot(path, "diag_roundtrip"));
  const std::string cmd = std::string("python3 ") + TX_SOURCE_DIR +
                          "/scripts/validate_bench.py --diag " + path +
                          " >/dev/null 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << "validate_bench.py rejected "
                                         << path;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tx
