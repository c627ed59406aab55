// MCMC equivalence: single-chain HMC (kernel and factory constructors) and
// 2-chain NUTS at 1 and 4 threads must reproduce draws captured as hexfloats
// from the reference infer::MCMC run loop, bit for bit. Any change to the
// driver that perturbs a chain — a different generator, an extra draw at
// setup, a reordered chain — fails here first.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dist/distributions.h"
#include "infer/infer.h"
#include "obs/obs.h"
#include "par/pool.h"

namespace tx {
namespace {

using dist::Normal;

constexpr int kSamples = 8;
constexpr int kWarmup = 8;
constexpr std::size_t kDim = 3;  // a (scalar) + w (2)

infer::Program equiv_model() {
  return [] {
    Tensor a = ppl::sample("a", std::make_shared<Normal>(0.0f, 1.0f));
    Tensor w = ppl::sample("w", std::make_shared<Normal>(zeros({2}), ones({2})));
    ppl::sample("obs",
                std::make_shared<Normal>(add(broadcast_to(a, Shape{2}), w),
                                         full({2}, 0.3f)),
                Tensor(Shape{2}, {0.8f, -0.4f}));
  };
}

// Captured from infer::MCMC with every site density on the fused Gaussian
// node (gauss_logpdf_sum), and re-captured once when normal draws moved to
// the block Box-Muller transform and adapted HMC started keeping its
// trajectory length; identical across TYXE_SIMD off/auto x 1/4 threads:
// manual_seed(7), Generator(2021), HMC(0.2, 5), 8 warmup + 8 kept draws.
// kHmcDraws[coord][draw].
const double kHmcDraws[kDim][kSamples] = {
    {0x1.3aeb874a91b45p-2, 0x1.1d19776fc498cp-3, 0x1.b25a8312f7c4ap-1,
     0x1.ddb871c3c9375p-2, 0x1.145e51b4d5d0dp-3, -0x1.a43eece3ee2f5p-5,
     0x1.78094c096ea35p-1, 0x1.7bc7279c2883p-2},
    {0x1.54dd04f04a4e5p+0, -0x1.afda70f5ffb37p-3, 0x1.ad7783cbe3965p-1,
     -0x1.31055b70ff314p-2, 0x1.5e95fc50b8251p+0, -0x1.17e730d85ec8p-7,
     0x1.bd2c4670afff3p-1, -0x1.c0c7b23be03bap-2},
    {-0x1.6a40e9e2e275cp+0, 0x1.5f20a25366d3bp-2, -0x1.ea7115c96cad1p+0,
     0x1.fd8948ebe7a6ap-3, -0x1.62484dabd374dp+0, 0x1.09be4ab245c57p-1,
     -0x1.dca36430e1c1dp+0, 0x1.a6a772985701cp-4}
};
const double kHmcMeanAccept = 0x1.a7869b4ee181p-1;
const std::int64_t kHmcDivergences = 2;
// First engine output of the caller's generator after the run: the kernel
// consumed exactly the caller's stream, no derived generator.
const std::uint64_t kHmcGenNext = 0xd7b2533f3f8da5c2ULL;

// manual_seed(7), Generator(2022), NUTS(0.1, 4), 2 chains, 8 warmup + 8
// kept draws each. kNutsDraws[chain][coord][draw].
const double kNutsDraws[2][kDim][kSamples] = {
    {
        {0x1.0b741bfef874ep-2, 0x1.95437cbecadd6p-4, 0x1.dc4760045f35ep-2,
         0x1.320b14c58fff1p-1, 0x1.9269e00da898bp-3, 0x1.33d732922276p-7,
         -0x1.386aab50beb8ep-2, -0x1.8dff558e8fb29p-2},
        {0x1.4d97b2ce2ac5ap-2, 0x1.b8459644f7fb2p-3, 0x1.d56286a6bf074p-2,
         0x1.83108ac74e064p-2, 0x1.5ebc34d7b79acp-2, 0x1.e72c0d0aaa80cp-1,
         0x1.b758e871c14cdp-1, 0x1.9dc0f45120a03p-1},
        {-0x1.e3504c367c7b2p-1, -0x1.12cd977a865f3p-1, -0x1.3677e547019abp-1,
         -0x1.f115a588603d1p-1, -0x1.f8aecfc12227bp-2, -0x1.ac60d4b87186fp-2,
         -0x1.3ecf9619b916p-5, -0x1.79bcd80d8d151p-3}
    },
    {
        {0x1.022d5b328bc55p+0, 0x1.cbd471c9fd084p-2, 0x1.38428780fc314p-1,
         0x1.0a3fc43d6939ep-1, 0x1.2e8becdb9a4aep-1, 0x1.0caacea0539bp-2,
         -0x1.5f615954f81bp-6, -0x1.928d37a6a6ee4p-2},
        {-0x1.2bcc5b26c5d57p-3, 0x1.56694419bc0ecp-2, 0x1.716a1869e264ep-3,
         0x1.5f48249454d44p-5, 0x1.3684cbcb006e8p-2, 0x1.19fd00ac44984p-4,
         0x1.548d893db5f18p-1, 0x1.2b8339a2fcd74p+0},
        {-0x1.7e8c3d806f729p+0, -0x1.2af9c4a23331fp+0, -0x1.24bfe9ca2c52ap+0,
         -0x1.63a07952db10cp+0, -0x1.e4bb89c4dbee6p-2, -0x1.12d045a9c6d9ap-1,
         -0x1.1b1d281b0623ap-3, -0x1.f4c0982766941p-5}
    }
};
const double kNutsMeanAccept = 0x1.ade8489ff60f2p-1;
const std::int64_t kNutsDivergences = 2;

infer::KernelFactory hmc_factory(int* calls = nullptr) {
  return [calls] {
    if (calls) ++*calls;
    return std::shared_ptr<infer::MCMCKernel>(
        std::make_shared<infer::HMC>(0.2, 5));
  };
}

infer::KernelFactory nuts_factory() {
  return [] {
    return std::shared_ptr<infer::MCMCKernel>(
        std::make_shared<infer::NUTS>(0.1, 4));
  };
}

void expect_hmc_draws(const infer::MCMC& mcmc) {
  ASSERT_EQ(mcmc.num_samples(), static_cast<std::size_t>(kSamples));
  for (std::size_t c = 0; c < kDim; ++c) {
    const auto chain = mcmc.coordinate_chain(c);
    const auto chain0 = mcmc.coordinate_chain(c, 0);
    ASSERT_EQ(chain.size(), static_cast<std::size_t>(kSamples));
    EXPECT_EQ(chain, chain0);
    for (int i = 0; i < kSamples; ++i) {
      EXPECT_EQ(chain[static_cast<std::size_t>(i)], kHmcDraws[c][i])
          << "coord " << c << " draw " << i;
    }
  }
  for (int i = 0; i < kSamples; ++i) {
    const auto values = mcmc.sample_at(static_cast<std::size_t>(i));
    EXPECT_EQ(values.at("a").item(), static_cast<float>(kHmcDraws[0][i]));
    const auto w = values.at("w").to_vector();
    ASSERT_EQ(w.size(), 2u);
    EXPECT_EQ(w[0], static_cast<float>(kHmcDraws[1][i]));
    EXPECT_EQ(w[1], static_cast<float>(kHmcDraws[2][i]));
  }
  EXPECT_EQ(mcmc.mean_accept_prob(), kHmcMeanAccept);
  EXPECT_EQ(mcmc.divergence_count(), kHmcDivergences);
}

void expect_nuts_draws(const infer::MCMC& mcmc, int threads) {
  ASSERT_EQ(mcmc.num_chains(), 2);
  ASSERT_EQ(mcmc.num_samples(), static_cast<std::size_t>(2 * kSamples));
  for (std::size_t c = 0; c < kDim; ++c) {
    const auto all = mcmc.coordinate_chain(c);
    for (int chain = 0; chain < 2; ++chain) {
      const auto got = mcmc.coordinate_chain(c, chain);
      ASSERT_EQ(got.size(), static_cast<std::size_t>(kSamples));
      for (int i = 0; i < kSamples; ++i) {
        const std::size_t at =
            static_cast<std::size_t>(chain * kSamples + i);
        EXPECT_EQ(got[static_cast<std::size_t>(i)], kNutsDraws[chain][c][i])
            << "chain " << chain << " coord " << c << " draw " << i
            << " threads=" << threads;
        EXPECT_EQ(all[at], kNutsDraws[chain][c][i]);
        if (c == 0) {
          EXPECT_EQ(mcmc.sample_at(at).at("a").item(),
                    static_cast<float>(kNutsDraws[chain][0][i]));
        }
      }
    }
  }
  EXPECT_EQ(mcmc.mean_accept_prob(), kNutsMeanAccept);
  EXPECT_EQ(mcmc.divergence_count(), kNutsDivergences);
}

TEST(McmcEquivalence, SingleChainHmcKernelCtor) {
  manual_seed(7);
  Generator gen(2021);
  infer::MCMC mcmc(std::make_shared<infer::HMC>(0.2, 5), kSamples, kWarmup);
  mcmc.run(equiv_model(), &gen);
  expect_hmc_draws(mcmc);
  EXPECT_EQ(gen.engine()(), kHmcGenNext);
}

TEST(McmcEquivalence, SingleChainHmcFactoryCtor) {
  manual_seed(7);
  Generator gen(2021);
  int calls = 0;
  infer::MCMC mcmc(hmc_factory(&calls), kSamples, kWarmup, /*num_chains=*/1);
  mcmc.run(equiv_model(), &gen);
  EXPECT_EQ(calls, 1);
  expect_hmc_draws(mcmc);
  EXPECT_EQ(gen.engine()(), kHmcGenNext);
}

TEST(McmcEquivalence, TwoChainNutsAtOneAndFourThreads) {
  const int prev = par::num_threads();
  for (int threads : {1, 4}) {
    par::set_num_threads(threads);
    manual_seed(7);
    Generator gen(2022);
    infer::MCMC mcmc(nuts_factory(), kSamples, kWarmup, /*num_chains=*/2);
    mcmc.run(equiv_model(), &gen);
    expect_nuts_draws(mcmc, threads);
  }
  par::set_num_threads(prev);
}

// The accept-prob gauge of a multi-chain run is the chain-ordered mean, not
// the running mean of whichever chain happened to emit last.
TEST(McmcEquivalence, TwoChainAcceptGaugeIndependentOfThreads) {
  const int prev = par::num_threads();
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  for (int threads : {1, 4}) {
    par::set_num_threads(threads);
    obs::registry().clear();
    manual_seed(7);
    Generator gen(2022);
    infer::MCMC mcmc(nuts_factory(), kSamples, kWarmup, /*num_chains=*/2);
    mcmc.run(equiv_model(), &gen);
    EXPECT_EQ(obs::registry().gauges().at("mcmc.accept_prob"), kNutsMeanAccept)
        << "threads=" << threads;
  }
  obs::registry().clear();
  obs::set_enabled(was_enabled);
  par::set_num_threads(prev);
}

// A policy that checkpoints every few transitions and watches for storms
// (threshold never reached) walks the same chains as the default policy:
// round barriers, snapshots and bundle writes change nothing.
TEST(McmcEquivalence, CheckpointedPolicyMatchesDefault) {
  const int prev = par::num_threads();
  for (int threads : {1, 4}) {
    par::set_num_threads(threads);
    infer::MCMCPolicy policy;
    policy.checkpoint_path = ::testing::TempDir() + "mcmc_equiv_t" +
                             std::to_string(threads) + ".ckpt";
    policy.checkpoint_every = 3;
    policy.storm_threshold = 1000;
    std::remove(policy.checkpoint_path.c_str());
    manual_seed(7);
    Generator gen(2022);
    infer::MCMC mcmc(nuts_factory(), kSamples, kWarmup, /*num_chains=*/2,
                     policy);
    mcmc.run(equiv_model(), &gen);
    EXPECT_FALSE(mcmc.resumed());
    EXPECT_EQ(mcmc.restarts(), 0);
    expect_nuts_draws(mcmc, threads);
    std::remove(policy.checkpoint_path.c_str());
  }
  par::set_num_threads(prev);
}

}  // namespace
}  // namespace tx
