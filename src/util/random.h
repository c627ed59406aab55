// Global and local random number generation. All stochastic components in the
// library draw from a Generator; the global one is controlled by manual_seed()
// so every experiment is replayable from a printed seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <random>

namespace tx {

/// MT19937-64 with the same outputs, seeding and text state format as
/// std::mt19937_64, so every stream and saved state matches the standard
/// engine word for word. It is its own class so a run of outputs can be
/// read at once (generate, behind normal_fill) instead of paying one opaque
/// call and one twist check per word. Satisfies UniformRandomBitGenerator,
/// so the standard distributions and std::shuffle take it directly.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t state_size = 312;

  explicit Mt19937_64(result_type s) { seed(s); }

  void seed(result_type s);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type(0); }

  result_type operator()() {
    if (p_ >= state_size) twist();
    return temper(x_[p_++]);
  }

  /// out[0, n) = the next n outputs, as n calls of operator() return them,
  /// tempered a run of state words at a time.
  void generate(result_type* out, std::size_t n);

  /// The standard's text format for mt19937_64: the 312 state words, then
  /// the position, separated by spaces.
  friend std::ostream& operator<<(std::ostream& os, const Mt19937_64& e);
  /// Reads that format. Truncated or non-numeric text, or a position past
  /// the state, sets failbit and leaves the engine unchanged.
  friend std::istream& operator>>(std::istream& is, Mt19937_64& e);

 private:
  static result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

  /// Regenerates all state words and rewinds the position to 0.
  void twist();

  result_type x_[state_size];
  std::size_t p_;
};

/// Mt19937_64 plus the sampling primitives the library needs. Copyable;
/// copies continue the same stream independently.
class Generator {
 public:
  explicit Generator(std::uint64_t seed = 0x5eed5eedULL) : engine_(seed) {}

  void seed(std::uint64_t s) { engine_.seed(s); }

  /// Uniform in [0, 1).
  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Fills out[0, n) with standard normals by the Box-Muller transform:
  /// engine word k gives draws 2k (r cos) and 2k + 1 (r sin), so a fill
  /// consumes exactly ceil(n / 2) words and a fill of n is the prefix of a
  /// fill of any m > n from the same state. For odd n the sin half of the
  /// last word is dropped, so the engine stays the whole state. The values
  /// are floats (tx::simd::box_muller_n, the same bits at every SIMD
  /// level); the double overload widens them.
  /// The normal members are defined in src/tensor/random_normal.cpp, since
  /// the transform is a tx::simd kernel: calling them needs tx_tensor.
  void normal_fill(double* out, std::size_t n);
  void normal_fill(float* out, std::size_t n);

  /// Standard normal: the one-element normal_fill (one engine word).
  double normal();

  /// N(mean, stddev^2): normal() * stddev + mean, in double.
  double normal(double mean, double stddev);

  /// Integer in [lo, hi] inclusive.
  std::int64_t randint(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Bernoulli draw with success probability p.
  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  double gamma(double shape, double scale) {
    return std::gamma_distribution<double>(shape, scale)(engine_);
  }

  Mt19937_64& engine() { return engine_; }

  /// Exact engine-state serialization in the standard's mt19937_64 text
  /// format. No draw keeps state outside the engine (each std primitive
  /// acts like a freshly constructed std distribution, and normal_fill
  /// keeps no spare draw), so save/load round-trips reproduce the stream
  /// bit-for-bit, which is what makes checkpoint resume exact.
  void save(std::ostream& os) const { os << engine_; }
  void load(std::istream& is) { is >> engine_; }

 private:
  Mt19937_64 engine_;
};

/// Process-wide generator used by default tensor factories and samplers.
Generator& global_generator();

/// Seed the global generator (analogue of torch.manual_seed).
void manual_seed(std::uint64_t seed);

}  // namespace tx
