// Generator's normal draws. They live in tx_tensor, not next to the engine
// in tx_util, because the transform is the tx::simd::box_muller_n kernel.
#include <algorithm>
#include <cstdint>

#include "tensor/simd.h"
#include "util/random.h"

namespace tx {

namespace {
// Draws per round; even, so every round but the last uses whole words and
// a fill of n stays the prefix of a longer fill.
constexpr std::size_t kBlock = 512;
}  // namespace

void Generator::normal_fill(float* out, std::size_t n) {
  std::uint64_t w[kBlock / 2];
  while (n > 0) {
    const std::size_t draws = std::min(n, kBlock);
    engine_.generate(w, (draws + 1) / 2);
    simd::box_muller_n(w, out, static_cast<std::int64_t>(draws));
    out += draws;
    n -= draws;
  }
}

void Generator::normal_fill(double* out, std::size_t n) {
  float z[kBlock];
  while (n > 0) {
    const std::size_t draws = std::min(n, kBlock);
    normal_fill(z, draws);
    std::copy(z, z + draws, out);
    out += draws;
    n -= draws;
  }
}

double Generator::normal() {
  float z = 0.0f;
  normal_fill(&z, 1);
  return z;
}

double Generator::normal(double mean, double stddev) {
  return normal() * stddev + mean;
}

}  // namespace tx
