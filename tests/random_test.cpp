// Tests for tx::Generator. The engine and the std primitives (uniform,
// randint, bernoulli, gamma, shuffle, saved state text) must equal
// std::mt19937_64 and the std distributions word for word. Normal draws are
// the library's own block Box-Muller transform (tx::simd::box_muller_n):
// the same bits at every SIMD level, exactly ceil(n / 2) engine words per
// fill of n, each fill the prefix of a longer one, polynomials within a
// stated error of libm, and the right distribution at a fixed seed. Values
// are compared as bit patterns, so -0.0 vs +0.0 and last-ulp differences
// both fail.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "resil/io.h"
#include "tensor/simd.h"
#include "util/common.h"
#include "util/random.h"

namespace tx {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::uint32_t bits(float v) {
  std::uint32_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::string std_text(const std::mt19937_64& e) {
  std::ostringstream os;
  os << e;
  return os.str();
}

std::string gen_text(const Generator& g) {
  std::ostringstream os;
  g.save(os);
  return os.str();
}

const std::size_t kSizes[] = {0, 1, 2, 7, 8, 9, 17, 311, 312, 313, 4097};

// The reference for n draws: box_muller_n over the std engine's next
// ceil(n / 2) outputs.
std::vector<float> kernel_draws(std::mt19937_64& ref, std::size_t n) {
  std::vector<std::uint64_t> w((n + 1) / 2);
  for (std::uint64_t& x : w) x = ref();
  std::vector<float> out(n);
  simd::box_muller_n(w.data(), out.data(), static_cast<std::int64_t>(n));
  return out;
}

// Runs body at each SIMD level this machine has, then restores the level
// chosen at startup.
template <typename Body>
void at_each_level(Body body) {
  const simd::Level startup = simd::active_level();
  for (simd::Level level : {simd::Level::kScalar, simd::Level::kAVX2,
                            simd::Level::kNEON}) {
    if (!simd::level_available(level)) continue;
    simd::set_level_for_testing(level);
    body(level);
  }
  simd::set_level_for_testing(startup);
}

// Moves both streams by the same odd number of engine words, through the
// uniform and integer paths, so fills start at every parity and position.
void offset(std::size_t k, Generator& g, std::mt19937_64& ref) {
  for (std::size_t i = 0; i < k; ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(bits(g.uniform()),
                bits(std::uniform_real_distribution<double>(0.0, 1.0)(ref)));
    } else {
      EXPECT_EQ(g.randint(-3, 1000),
                (std::uniform_int_distribution<std::int64_t>(-3, 1000)(ref)));
    }
  }
}

TEST(RandomNormal, FillIsBitwiseEqualAtEverySimdLevel) {
  // Per size, at an odd word offset: the scalar level's float and double
  // fills, then every other level's, from copies of one generator.
  for (std::uint64_t seed : {0ULL, 0x5eed5eedULL}) {
    Generator g(seed);
    for (std::size_t n : kSizes) {
      for (int i = 0; i < 3; ++i) g.engine()();
      std::vector<float> want_f;
      std::vector<double> want_d;
      std::string want_state;
      at_each_level([&](simd::Level level) {
        Generator gf = g, gd = g;
        std::vector<float> f(n);
        std::vector<double> d(n);
        gf.normal_fill(f.data(), n);
        gd.normal_fill(d.data(), n);
        ASSERT_EQ(gen_text(gf), gen_text(gd));
        if (level == simd::Level::kScalar) {
          want_f = f;
          want_d = d;
          want_state = gen_text(gf);
          return;
        }
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(bits(f[i]), bits(want_f[i])) << "n " << n << " i " << i;
          ASSERT_EQ(bits(d[i]), bits(want_d[i])) << "n " << n << " i " << i;
        }
        EXPECT_EQ(gen_text(gf), want_state) << "n " << n;
      });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(want_d[i]), bits(static_cast<double>(want_f[i])));
      }
      g.normal_fill(want_f.data(), n);
    }
  }
}

TEST(RandomNormal, FillConsumesCeilHalfWords) {
  // After a fill of n the engine equals a std::mt19937_64 that discarded
  // ceil(n / 2) words, and the values are box_muller_n of exactly those.
  Generator g(21);
  std::mt19937_64 ref(21);
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t n : kSizes) {
      offset(2 * round + 1, g, ref);
      std::vector<float> got(n);
      g.normal_fill(got.data(), n);
      const std::vector<float> want = kernel_draws(ref, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(got[i]), bits(want[i])) << "n " << n << " i " << i;
      }
      ASSERT_EQ(gen_text(g), std_text(ref)) << "n " << n;
    }
  }
  // normal() and normal(mean, stddev) are one-element fills: one word each.
  for (int i = 0; i < 700; ++i) {
    const float z = kernel_draws(ref, 1)[0];
    ASSERT_EQ(bits(g.normal()), bits(static_cast<double>(z)));
    const float z2 = kernel_draws(ref, 1)[0];
    ASSERT_EQ(bits(g.normal(-1.5, 0.25)),
              bits(static_cast<double>(z2) * 0.25 + -1.5));
  }
  EXPECT_EQ(gen_text(g), std_text(ref));
}

TEST(RandomNormal, FillIsPrefixOfLongerFill) {
  // Includes lengths on both sides of the fill's 512-draw rounds.
  const std::size_t lengths[] = {0, 1, 2, 3, 17, 511, 512, 513, 1024, 1537};
  Generator g(8);
  g.engine()();
  std::vector<float> longest(1537);
  Generator(g).normal_fill(longest.data(), longest.size());
  for (std::size_t n : lengths) {
    Generator copy = g;
    std::vector<float> got(n);
    copy.normal_fill(got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits(got[i]), bits(longest[i])) << "n " << n << " i " << i;
    }
  }
  EXPECT_EQ(bits(Generator(g).normal()), bits(static_cast<double>(longest[0])));
}

TEST(RandomNormal, SaveLoadRoundTripsMidStream) {
  Generator g(1234);
  std::vector<double> skip(313);
  g.normal_fill(skip.data(), skip.size());  // odd: ends mid-word
  std::ostringstream saved;
  g.save(saved);
  std::vector<float> first(1001);
  g.normal_fill(first.data(), first.size());
  const double first_scalar = g.normal();

  Generator resumed(99);
  std::istringstream is(saved.str());
  resumed.load(is);
  ASSERT_FALSE(is.fail());
  std::vector<float> again(1001);
  resumed.normal_fill(again.data(), again.size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    ASSERT_EQ(bits(again[i]), bits(first[i])) << "i " << i;
  }
  EXPECT_EQ(bits(resumed.normal()), bits(first_scalar));
  EXPECT_EQ(gen_text(resumed), gen_text(g));
}

TEST(RandomNormal, PolynomialsWithinStatedError) {
  // Every u1 the transform can form: log_poly is within 2^-23 relative of
  // log, and negative, so every radius is real and at most
  // sqrt(-2 log 2^-25) ~ 5.887.
  const double kLogTol = 0x1p-23;
  const double kMaxRadius = std::sqrt(-2.0 * std::log(0x1p-25));
  double worst_log = 0.0, max_radius = 0.0;
  for (std::uint32_t a = 0; a < (1u << 24); ++a) {
    const float v = static_cast<float>(static_cast<std::int32_t>(2 * a + 1)) *
                    0x1p-25f;
    const float u1 = std::min(v, 0x1.fffffep-1f);
    const float l = simd::log_poly(u1);
    ASSERT_LT(l, 0.0f) << "a " << a;
    const double ref = std::log(static_cast<double>(u1));
    worst_log = std::max(worst_log, std::fabs(l - ref) / std::fabs(ref));
    max_radius = std::max(max_radius, std::sqrt(-2.0 * l));
  }
  EXPECT_LE(worst_log, kLogTol);
  EXPECT_LE(max_radius, kMaxRadius * (1.0 + 0x1p-22));
  // log_poly on other normal floats, across the exponent range.
  for (float x = 0x1p-126f; x < 0x1p127f; x *= 1.37f) {
    const double ref = std::log(static_cast<double>(x));
    EXPECT_LE(std::fabs(simd::log_poly(x) - ref),
              kLogTol * std::max(1.0, std::fabs(ref)))
        << "x " << x;
  }
  // Every 24-bit angle: sin and cos within 2^-23 of libm's.
  const double kTrigTol = 0x1p-23;
  const double kTwoPi = 6.283185307179586476925;
  double worst_sin = 0.0, worst_cos = 0.0;
  for (std::uint32_t b = 0; b < (1u << 24); ++b) {
    float s, c;
    simd::sincos_turn24(b, &s, &c);
    const double theta = kTwoPi * static_cast<double>(b) * 0x1p-24;
    worst_sin = std::max(worst_sin, std::fabs(s - std::sin(theta)));
    worst_cos = std::max(worst_cos, std::fabs(c - std::cos(theta)));
  }
  EXPECT_LE(worst_sin, kTrigTol);
  EXPECT_LE(worst_cos, kTrigTol);
}

TEST(RandomNormal, DistributionAtFixedSeed) {
  // 10^7 draws: mean, variance and the two tail masses within 5 standard
  // errors, and the Kolmogorov-Smirnov distance to Phi below the 0.1%
  // critical value 1.95 / sqrt(n).
  const std::size_t n = 10'000'000;
  Generator g(20261020);
  std::vector<float> z(n);
  g.normal_fill(z.data(), n);
  double sum = 0.0, sumsq = 0.0;
  std::size_t beyond3 = 0, beyond4 = 0;
  for (float v : z) {
    sum += v;
    sumsq += static_cast<double>(v) * v;
    beyond3 += std::fabs(v) > 3.0f;
    beyond4 += std::fabs(v) > 4.0f;
  }
  const double dn = static_cast<double>(n);
  const double mean = sum / dn;
  const double var = sumsq / dn - mean * mean;
  EXPECT_LE(std::fabs(mean), 5.0 / std::sqrt(dn));
  EXPECT_LE(std::fabs(var - 1.0), 5.0 * std::sqrt(2.0 / dn));
  const auto tail_ok = [&](std::size_t count, double t) {
    const double p = std::erfc(t / std::sqrt(2.0));  // P(|z| > t)
    const double se = std::sqrt(p * (1.0 - p) / dn);
    EXPECT_LE(std::fabs(static_cast<double>(count) / dn - p), 5.0 * se)
        << "t " << t << " count " << count;
  };
  tail_ok(beyond3, 3.0);
  tail_ok(beyond4, 4.0);
  std::sort(z.begin(), z.end());
  double d = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double phi = 0.5 * std::erfc(-static_cast<double>(z[i]) /
                                       std::sqrt(2.0));
    d = std::max({d, phi - static_cast<double>(i) / dn,
                  static_cast<double>(i + 1) / dn - phi});
  }
  EXPECT_LT(d, 1.95 / std::sqrt(dn));
}

TEST(RandomOracle, MixedDrawsLeaveStdIdenticalState) {
  Generator g(2024);
  std::mt19937_64 ref(2024);
  std::vector<double> buf;
  for (int i = 0; i < 10000; ++i) {
    switch (i % 6) {
      case 0:
        ASSERT_EQ(bits(g.normal()),
                  bits(static_cast<double>(kernel_draws(ref, 1)[0])));
        break;
      case 1:
        ASSERT_EQ(bits(g.uniform(-2.0, 3.0)),
                  bits(std::uniform_real_distribution<double>(-2.0, 3.0)(ref)));
        break;
      case 2:
        ASSERT_EQ(g.bernoulli(0.3), std::bernoulli_distribution(0.3)(ref));
        break;
      case 3:
        ASSERT_EQ(bits(g.gamma(2.5, 0.5)),
                  bits(std::gamma_distribution<double>(2.5, 0.5)(ref)));
        break;
      case 4:
        buf.resize(static_cast<std::size_t>(i % 37));
        g.normal_fill(buf.data(), buf.size());
        {
          const std::vector<float> want = kernel_draws(ref, buf.size());
          for (std::size_t k = 0; k < buf.size(); ++k) {
            ASSERT_EQ(bits(buf[k]), bits(static_cast<double>(want[k])));
          }
        }
        break;
      default:
        ASSERT_EQ(g.randint(0, 9),
                  (std::uniform_int_distribution<std::int64_t>(0, 9)(ref)));
    }
  }
  EXPECT_EQ(gen_text(g), std_text(ref));
}

// Inverts MT19937-64 tempering so a test can place chosen outputs in the
// state; each xor-shift step is undone by fixed-point iteration.
std::uint64_t untemper(std::uint64_t z) {
  const auto undo_right = [](std::uint64_t y, int s, std::uint64_t mask) {
    std::uint64_t x = y;
    for (int i = 0; i < 64; ++i) x = y ^ ((x >> s) & mask);
    return x;
  };
  const auto undo_left = [](std::uint64_t y, int s, std::uint64_t mask) {
    std::uint64_t x = y;
    for (int i = 0; i < 64; ++i) x = y ^ ((x << s) & mask);
    return x;
  };
  z = undo_right(z, 43, ~std::uint64_t(0));
  z = undo_left(z, 37, 0xfff7eee000000000ULL);
  z = undo_left(z, 17, 0x71d67fffeda60000ULL);
  return undo_right(z, 29, 0x5555555555555555ULL);
}

// Engine state text whose next output is `first`.
std::string state_with_output(std::uint64_t first) {
  std::mt19937_64 seeded(5);
  std::ostringstream os;
  for (std::size_t i = 0; i < 312; ++i) {
    std::uint64_t w = seeded();
    if (i == 0) w = untemper(first);
    os << w << ' ';
  }
  os << 0;
  std::mt19937_64 probe;
  std::istringstream(os.str()) >> probe;
  EXPECT_EQ(probe(), first);
  return os.str();
}

// The first draw from `state` through normal(), the double fill and the
// float fill, each bitwise equal to `want`.
void expect_first_draw(const std::string& state, double want) {
  for (int path = 0; path < 3; ++path) {
    Generator g;
    std::istringstream is(state);
    g.load(is);
    ASSERT_FALSE(is.fail());
    if (path == 0) {
      EXPECT_EQ(bits(g.normal()), bits(want));
    } else if (path == 1) {
      double d[3];
      g.normal_fill(d, 3);
      EXPECT_EQ(bits(d[0]), bits(want));
    } else {
      float f[3];
      g.normal_fill(f, 3);
      EXPECT_EQ(bits(f[0]), bits(static_cast<float>(want)));
    }
  }
}

TEST(RandomOracle, TopWordClampsBelowOne) {
  // A word of all ones has a = 2^24 - 1: (2a + 1) * 2^-25 rounds to 1.0,
  // which would make r = 0; kept below 1, u1 = 1 - 2^-24 and the draw is
  // small but nonzero, r cos(2 pi (1 - 2^-24)) with r ~ sqrt(2^-23).
  const std::uint64_t top = ~std::uint64_t(0);
  const std::string state = state_with_output(top);
  float want;
  simd::box_muller_n(&top, &want, 1);
  EXPECT_NEAR(want, std::sqrt(-2.0 * std::log1p(-0x1p-24)), 1e-8);
  expect_first_draw(state, want);
}

TEST(RandomState, SaveMatchesStdTextAtEveryPosition) {
  Generator g(77);
  std::mt19937_64 ref(77);
  EXPECT_EQ(gen_text(g), std_text(ref));  // fresh seed: position 312
  for (std::size_t words : {1, 310, 1, 312, 5}) {
    for (std::size_t i = 0; i < words; ++i) ASSERT_EQ(g.engine()(), ref());
    EXPECT_EQ(gen_text(g), std_text(ref));
  }
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(g.engine()(), ref());
  EXPECT_EQ(gen_text(g), std_text(ref));
}

TEST(RandomState, LoadsStdWrittenText) {
  std::mt19937_64 ref(31337);
  for (int i = 0; i < 401; ++i) ref();
  std::istringstream is(std_text(ref));
  Generator g;
  g.load(is);
  ASSERT_FALSE(is.fail());
  EXPECT_EQ(gen_text(g), std_text(ref));
  std::vector<double> got(700);
  g.normal_fill(got.data(), got.size());
  const std::vector<float> want = kernel_draws(ref, got.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(bits(got[i]), bits(static_cast<double>(want[i]))) << "i " << i;
  }
  EXPECT_EQ(g.engine()(), ref());
}

TEST(RandomState, CorruptTextFailsAndLeavesGeneratorUnchanged) {
  Generator g(9);
  g.uniform();
  const std::string good = gen_text(g);
  const std::string truncated = good.substr(0, good.size() / 2);
  std::string non_numeric = good;
  non_numeric.replace(non_numeric.find(' ') + 1, 1, "x");
  const std::string past_end = good.substr(0, good.rfind(' ') + 1) + "313";
  for (const std::string& bad :
       {std::string(), truncated, non_numeric, past_end}) {
    std::istringstream is(bad);
    g.load(is);
    EXPECT_TRUE(is.fail());
    EXPECT_EQ(gen_text(g), good);
    EXPECT_THROW(resil::apply_generator_bytes(bad, g), Error);
    EXPECT_EQ(gen_text(g), good);
  }
  // The stream's formatting flags survive both directions.
  std::ostringstream os;
  os << std::hex;
  g.save(os);
  EXPECT_TRUE(os.flags() & std::ios_base::hex);
}

TEST(RandomEngine, ShuffleThroughEngineMatchesStd) {
  Generator g(42);
  std::mt19937_64 ref(42);
  std::vector<int> a(1000), b(1000);
  std::iota(a.begin(), a.end(), 0);
  std::iota(b.begin(), b.end(), 0);
  std::shuffle(a.begin(), a.end(), g.engine());
  std::shuffle(b.begin(), b.end(), ref);
  EXPECT_EQ(a, b);
  std::poisson_distribution<int> pa(3.5), pb(3.5);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(pa(g.engine()), pb(ref));
  EXPECT_EQ(g.engine()(), ref());
}

}  // namespace
}  // namespace tx
