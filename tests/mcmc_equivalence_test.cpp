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
// node (gauss_logpdf_sum), identical across TYXE_SIMD off/auto x 1/4 threads:
// manual_seed(7), Generator(2021), HMC(0.2, 5), 8 warmup + 8 kept draws.
// kHmcDraws[coord][draw].
const double kHmcDraws[kDim][kSamples] = {
    {0x1.8bc452d3fe01cp-2, 0x1.6bff6239d1d88p-2, -0x1.8fb7f14d784acp-1,
     -0x1.0a70d7e80c314p-3, 0x1.3bedc8154836cp-2, -0x1.0101c8be8bc3p-2,
     0x1.3da90ef4a1262p-3, 0x1.0a20992e7bd6fp-1},
    {0x1.ee48af447bf17p-3, 0x1.f76b921caca29p-1, 0x1.cb48b324e595dp-1,
     0x1.077d86f029585p+0, 0x1.4643a624936aap-1, 0x1.02131afb1384ep-1,
     0x1.ec07e697261c3p-1, -0x1.22ffba2ae82bcp-4},
    {-0x1.3516813a02c15p-1, -0x1.b3383d29e7fecp-1, 0x1.61d57dc550ffcp-1,
     -0x1.fc0d0569e3383p-2, -0x1.a2b3cfcfed04p-8, -0x1.0940b736f8327p-1,
     -0x1.cb67a106dcd44p-4, -0x1.f65f904862a2ap-1}
};
const double kHmcMeanAccept = 0x1.93c2f66ade633p-1;
const std::int64_t kHmcDivergences = 2;
// First engine output of the caller's generator after the run: the kernel
// consumed exactly the caller's stream, no derived generator.
const std::uint64_t kHmcGenNext = 0xd83b4b7788df9063ULL;

// manual_seed(7), Generator(2022), NUTS(0.1, 4), 2 chains, 8 warmup + 8
// kept draws each. kNutsDraws[chain][coord][draw].
const double kNutsDraws[2][kDim][kSamples] = {
    {
        {0x1.99e07b090e1b6p-2, 0x1.52f178585757fp-2, 0x1.5bdf96e3e0936p-2,
         0x1.085c84a0d9fefp-1, 0x1.68ae996200dddp-2, 0x1.e591e484087c1p-3,
         0x1.aafdee6eebfa9p-1, 0x1.9bd2289000ba9p-1},
        {0x1.400dc639ba0edp-4, 0x1.a56d148a07b1ep-1, 0x1.b1d559f9ca9c8p-1,
         0x1.6f37906ead474p-5, 0x1.534f1fe810876p-3, 0x1.0fa0e8f613ad1p-4,
         0x1.a85106086eebep-2, 0x1.887210e67d38dp-2},
        {-0x1.dedcd7df17a9p-2, -0x1.60294a2b2cddp-1,
         -0x1.76548d8b8f717p-1, -0x1.4b435de5da0f7p-1,
         -0x1.0bb4e351095a6p-1, -0x1.d588f0b77603cp-2,
         -0x1.83c6c331b1845p+0, -0x1.851a246cdc51ep+0}
    },
    {
        {0x1.853919e089a6p-1, 0x1.5bb43fd2a9495p-1, 0x1.f8c87904169d3p-1,
         0x1.53b901d182db6p-1, 0x1.70dad6a0d4afcp-3, 0x1.39439f6c1f8d3p-1,
         0x1.58cbec0b6cf3p-3, -0x1.e25cd0ad4dd44p-3},
        {-0x1.20a74aa506c3cp-5, 0x1.4b7aa5c72f5b8p-4,
         -0x1.4a8075161e0bep-3, 0x1.931ce2e22d544p-4,
         -0x1.b6bf581dadc3p-4, 0x1.5ee63658bffc4p-5, 0x1.2205075f9dca8p-2,
         0x1.56ae3c07933d9p-1},
        {-0x1.60502b8d7cc93p+0, -0x1.97de8817fc794p-1,
         -0x1.6b8cee71fa7dfp+0, -0x1.1b329087eb2f3p+0,
         -0x1.f2a946539ebbp-2, -0x1.533d635710d97p-2,
         -0x1.274e64d5a69b4p-1, -0x1.95cadf7220541p-3}
    }
};
const double kNutsMeanAccept = 0x1.a00d509974904p-1;
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
