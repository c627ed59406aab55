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

// Captured from infer::MCMC before the run loops were merged:
// manual_seed(7), Generator(2021), HMC(0.2, 5), 8 warmup + 8 kept draws.
// kHmcDraws[coord][draw].
const double kHmcDraws[kDim][kSamples] = {
    {0x1.8bc451ca3994ep-2, 0x1.6bff707cea17ep-2, -0x1.8fb80449ed076p-1,
     -0x1.0a712f6991e6ep-3, 0x1.3bee0243dfbb4p-2, -0x1.0101adce6024dp-2,
     0x1.3da89f19a8536p-3, 0x1.0a20d4ea9239ap-1},
    {0x1.ee48ac3322444p-3, 0x1.f76b8ef07b60dp-1, 0x1.cb48d99f67df7p-1,
     0x1.077d8d70d5b05p+0, 0x1.4643997489e03p-1, 0x1.021347c3f0b42p-1,
     0x1.ec07b9ec6315dp-1, -0x1.22fea55939d7ap-4},
    {-0x1.35167f933b6fep-1, -0x1.b338200ea7cbbp-1, 0x1.61d59011770b6p-1,
     -0x1.fc0d49388c0fep-2, -0x1.a2a4fd1875ap-8, -0x1.0940e4325d943p-1,
     -0x1.cb6726a747fb6p-4, -0x1.f65fb34c8010cp-1},
};
const double kHmcMeanAccept = 0x1.93c2f8812b731p-1;
const std::int64_t kHmcDivergences = 2;
// First engine output of the caller's generator after the run: the kernel
// consumed exactly the caller's stream, no derived generator.
const std::uint64_t kHmcGenNext = 0xd83b4b7788df9063ULL;

// manual_seed(7), Generator(2022), NUTS(0.1, 4), 2 chains, 8 warmup + 8
// kept draws each. kNutsDraws[chain][coord][draw].
const double kNutsDraws[2][kDim][kSamples] = {
    {
        {0x1.99e08212a3e2cp-2, 0x1.52f161fbba0fbp-2, 0x1.5bdf847a4fe58p-2,
         0x1.085c823d9cbe4p-1, 0x1.68ae93128a294p-2, 0x1.e591d935cbe3fp-3,
         0x1.aafdecc22bdc4p-1, 0x1.9bd226b082ea5p-1},
        {0x1.400e03557f957p-4, 0x1.a56d152fff27cp-1, 0x1.b1d55b56433f9p-1,
         0x1.6f37c16a5968cp-5, 0x1.534f208998278p-3, 0x1.0fa0ecbd04f02p-4,
         0x1.a8510c6971547p-2, 0x1.88721781855d9p-2},
        {-0x1.dedcbf0f5ecbp-2, -0x1.60294a2861678p-1, -0x1.76548c6c73c1cp-1,
         -0x1.4b435b0e7710dp-1, -0x1.0bb4e030acfd9p-1, -0x1.d588eae053ad9p-2,
         -0x1.83c6c2520196dp+0, -0x1.851a23b6ea46fp+0},
    },
    {
        {0x1.8538ee987a2c6p-1, 0x1.5bb46cdfca3d7p-1, 0x1.f8c8a9a965b04p-1,
         0x1.53b8f72a751f7p-1, 0x1.70da93a4b89acp-3, 0x1.3943a554aacfbp-1,
         0x1.58cbbe45b5e5cp-3, -0x1.e25d4d4ca8dbcp-3},
        {-0x1.20a6572137318p-5, 0x1.4b7a92493ddd1p-4, -0x1.4a7fca38e0f18p-3,
         0x1.931d12ee3d9e4p-4, -0x1.b6bf84b1dc806p-4, 0x1.5ee6bb351383p-5,
         0x1.220511c0ed8d5p-2, 0x1.56ae375a85f34p-1},
        {-0x1.6050545b2d4d2p+0, -0x1.97de619f77d8ep-1, -0x1.6b8cf14431669p+0,
         -0x1.1b329985197cp+0, -0x1.f2a949dc28558p-2, -0x1.533d5576fcd75p-2,
         -0x1.274e67a5c3a6ap-1, -0x1.95caec059d566p-3},
    },
};
const double kNutsMeanAccept = 0x1.a00d51d18fcc8p-1;
const std::int64_t kNutsDivergences = 3;

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
