#include "util/random.h"

#include <algorithm>

namespace tx {

namespace {

constexpr std::size_t kN = Mt19937_64::state_size;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t(0) << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;

std::uint64_t twisted(std::uint64_t hi, std::uint64_t lo, std::uint64_t mid) {
  const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return mid ^ (y >> 1) ^ ((std::uint64_t(0) - (y & 1)) & kMatrixA);
}

}  // namespace

void Mt19937_64::seed(result_type s) {
  x_[0] = s;
  for (std::size_t i = 1; i < kN; ++i) {
    const result_type prev = x_[i - 1];
    x_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
  p_ = kN;
}

void Mt19937_64::twist() {
  std::size_t k = 0;
  for (; k < kN - kM; ++k) x_[k] = twisted(x_[k], x_[k + 1], x_[k + kM]);
  for (; k < kN - 1; ++k) x_[k] = twisted(x_[k], x_[k + 1], x_[k + kM - kN]);
  x_[kN - 1] = twisted(x_[kN - 1], x_[0], x_[kM - 1]);
  p_ = 0;
}

void Mt19937_64::generate(result_type* out, std::size_t n) {
  while (n > 0) {
    if (p_ >= kN) twist();
    const std::size_t run = std::min(n, kN - p_);
    for (std::size_t k = 0; k < run; ++k) out[k] = temper(x_[p_ + k]);
    p_ += run;
    out += run;
    n -= run;
  }
}

std::ostream& operator<<(std::ostream& os, const Mt19937_64& e) {
  const std::ios_base::fmtflags flags = os.flags();
  const char fill = os.fill();
  os.flags(std::ios_base::dec | std::ios_base::fixed | std::ios_base::left);
  os.fill(' ');
  for (const std::uint64_t w : e.x_) os << w << ' ';
  os << e.p_;
  os.flags(flags);
  os.fill(fill);
  return os;
}

std::istream& operator>>(std::istream& is, Mt19937_64& e) {
  const std::ios_base::fmtflags flags = is.flags();
  is.flags(std::ios_base::dec | std::ios_base::skipws);
  std::uint64_t x[kN] = {};
  std::size_t p = 0;
  for (std::uint64_t& w : x) is >> w;
  is >> p;
  is.flags(flags);
  if (!is.fail() && p > kN) is.setstate(std::ios_base::failbit);
  if (is.fail()) return is;
  std::copy(x, x + kN, e.x_);
  e.p_ = p;
  return is;
}

Generator& global_generator() {
  static Generator gen;
  return gen;
}

void manual_seed(std::uint64_t seed) { global_generator().seed(seed); }

}  // namespace tx
