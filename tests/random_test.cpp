// Oracle tests for tx::Generator: every draw, engine word and saved state
// must equal std::mt19937_64 driven by a freshly constructed std distribution
// per draw, which is what Generator was before it got its own engine and the
// block normal fill. Values are compared as bit patterns, so -0.0 vs +0.0
// and last-ulp differences both fail.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "resil/io.h"
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

double std_normal(std::mt19937_64& e) {
  return std::normal_distribution<double>(0.0, 1.0)(e);
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

const std::size_t kSizes[] = {0, 1, 2, 155, 311, 312, 313, 4097};

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

TEST(RandomOracle, DoubleFillMatchesStdBitwise) {
  for (std::uint64_t seed : {0ULL, 1ULL, 0x5eed5eedULL, 987654321ULL}) {
    Generator g(seed);
    std::mt19937_64 ref(seed);
    for (std::size_t round = 0; round < 3; ++round) {
      for (std::size_t n : kSizes) {
        offset(2 * round + 1, g, ref);
        std::vector<double> got(n);
        g.normal_fill(got.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(bits(got[i]), bits(std_normal(ref)))
              << "seed " << seed << " n " << n << " i " << i;
        }
        ASSERT_EQ(g.engine()(), ref()) << "seed " << seed << " n " << n;
      }
    }
  }
}

TEST(RandomOracle, FloatFillMatchesStdBitwise) {
  for (std::uint64_t seed : {3ULL, 0x5eed5eedULL}) {
    Generator g(seed);
    std::mt19937_64 ref(seed);
    for (std::size_t round = 0; round < 3; ++round) {
      for (std::size_t n : kSizes) {
        offset(round + 1, g, ref);
        std::vector<float> got(n);
        g.normal_fill(got.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(bits(got[i]), bits(static_cast<float>(std_normal(ref))))
              << "seed " << seed << " n " << n << " i " << i;
        }
        ASSERT_EQ(g.engine()(), ref()) << "seed " << seed << " n " << n;
      }
    }
  }
}

TEST(RandomOracle, ScalarNormalMatchesStdBitwise) {
  Generator g(11);
  std::mt19937_64 ref(11);
  // Enough draws to cross many twists at both word parities.
  for (int i = 0; i < 5000; ++i) {
    if (i % 7 == 0) offset(1, g, ref);
    ASSERT_EQ(bits(g.normal()), bits(std_normal(ref))) << "draw " << i;
    ASSERT_EQ(bits(g.normal(-1.5, 0.25)),
              bits(std::normal_distribution<double>(-1.5, 0.25)(ref)))
        << "draw " << i;
  }
  EXPECT_EQ(g.engine()(), ref());
}

TEST(RandomOracle, MixedDrawsLeaveStdIdenticalState) {
  Generator g(2024);
  std::mt19937_64 ref(2024);
  std::vector<double> buf;
  for (int i = 0; i < 10000; ++i) {
    switch (i % 6) {
      case 0:
        ASSERT_EQ(bits(g.normal()), bits(std_normal(ref)));
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
        for (double v : buf) ASSERT_EQ(bits(v), bits(std_normal(ref)));
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

// Engine state text whose next two outputs are `first` and `second`.
std::string state_with_outputs(std::uint64_t first, std::uint64_t second) {
  std::mt19937_64 seeded(5);
  std::ostringstream os;
  for (std::size_t i = 0; i < 312; ++i) {
    std::uint64_t w = seeded();
    if (i == 0) w = untemper(first);
    if (i == 1) w = untemper(second);
    os << w << ' ';
  }
  os << 0;
  std::mt19937_64 probe;
  std::istringstream(os.str()) >> probe;
  EXPECT_EQ(probe(), first);
  EXPECT_EQ(probe(), second);
  return os.str();
}

// The first draw from `state` through normal(), the double fill and the
// float fill, each bitwise equal to std's first draw.
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

TEST(RandomOracle, UnitRadiusKeepsPositiveZeroTail) {
  // Outputs 0 and 2^63 give x = -1, y = 0, so r2 == 1 exactly, mult is
  // sqrt(-0.0) == -0.0, y * mult == -0.0, and only the `* 1 + 0` tail of
  // std::normal_distribution makes the draw +0.0.
  const std::string state = state_with_outputs(0, std::uint64_t(1) << 63);
  std::mt19937_64 ref;
  std::istringstream(state) >> ref;
  const double want = std_normal(ref);
  ASSERT_EQ(bits(want), bits(0.0));
  expect_first_draw(state, want);
}

TEST(RandomOracle, ZeroRadiusPairIsRejected) {
  // Outputs 2^63 and 2^63 give x = y = 0, so r2 == 0: std rejects the pair
  // and the first draw comes from the next one.
  const std::uint64_t half = std::uint64_t(1) << 63;
  const std::string state = state_with_outputs(half, half);
  std::mt19937_64 ref;
  std::istringstream(state) >> ref;
  const double want = std_normal(ref);
  ASSERT_TRUE(std::isfinite(want));
  expect_first_draw(state, want);
}

TEST(RandomOracle, TopWordClampsBelowOne) {
  // 2^64 - 1 rounds to 2^64, which generate_canonical clamps to the double
  // below 1: x = 1 - 2^-52. With y = 2^-29, r2 rounds to 1 - 2^-51 and the
  // draw is tiny but nonzero; unclamped, r2 would round to 1 and give 0.
  const std::string state =
      state_with_outputs(~std::uint64_t(0), (std::uint64_t(1) << 63) +
                                                (std::uint64_t(1) << 34));
  std::mt19937_64 ref;
  std::istringstream(state) >> ref;
  const double want = std_normal(ref);
  ASSERT_NE(want, 0.0);
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
  for (double v : got) ASSERT_EQ(bits(v), bits(std_normal(ref)));
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
