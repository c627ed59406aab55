#include "util/random.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

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

static_assert(std::numeric_limits<double>::is_iec559,
              "the block normal fill relies on IEEE-754 binary64");

/// v < 2^32 as a double, exactly: the bit pattern of 2^52 + v, minus 2^52.
/// Unlike an int64 -> double conversion this vectorizes on baseline SSE2.
double exact_u32(std::uint64_t v) {
  return std::bit_cast<double>(0x4330000000000000ULL | v) - 0x1p52;
}

/// std::generate_canonical<double, 53> of one engine output w: the nearest
/// double to w, divided by 2^64, clamped below 1. The two 32-bit halves are
/// exact doubles, hi * 2^32 is exact, and their sum rounds once, so this is
/// the same double as a single uint64 -> double conversion, without its
/// branch on the top bit.
double canonical(std::uint64_t w) {
  const double hi = exact_u32(w >> 32);
  const double lo = exact_u32(w & 0xffffffffu);
  const double u = (hi * 0x1p32 + lo) / 0x1p64;
  return u >= 1.0 ? 0x1.fffffffffffffp-1 : u;  // nextafter(1.0, 0.0)
}

/// The value std::normal_distribution<double>(mean, stddev) returns for an
/// accepted polar pair (x, y) with r2 = x^2 + y^2, in the same operation
/// order. The tail runs for (0, 1) too: r2 == 1 gives mult == -0.0, and
/// `+ 0.0` turns y * -0.0 into +0.0.
double polar_value(double y, double r2, double mean, double stddev) {
  const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
  const double ret = y * mult;
  return ret * stddev + mean;
}

/// std rejects r2 > 1 and r2 == 0. A sum of squares is never negative or
/// NaN, so that is 0 < r2 <= 1, written with `&` so the block loop compiles
/// it without a branch (a fifth of pairs are rejected, at random).
bool polar_accept(double r2) { return (r2 > 0.0) & (r2 <= 1.0); }

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

// The polar method exactly as a fresh std::normal_distribution runs it per
// draw: two canonical doubles per attempt, rejection of r2 > 1 and r2 == 0,
// and y * sqrt(-2 log r2 / r2) kept (x * mult, which the distribution saves
// for its next call, dies with it). Instead of one engine call per word,
// each round tempers and converts a run of buffered state words (a loop
// the compiler vectorizes), evaluates all its pairs, packs the accepted ones
// without branching, and only then takes the logs.
// The engine advances by exactly the words those draws consumed, so its
// state afterwards matches the per-draw path too. A pair that straddles a
// twist takes the scalar path through operator().
template <typename T>
void Generator::polar_fill(T* out, std::size_t n, double mean,
                           double stddev) {
  constexpr std::size_t kBlockPairs = 64;
  // Left uninitialized: each round reads only the entries it wrote, and
  // normal() runs this for one element per call.
  double u[2 * kBlockPairs], ys[kBlockPairs], r2s[kBlockPairs];
  std::uint32_t kept[kBlockPairs];
  Mt19937_64& e = engine_;
  while (n > 0) {
    if (e.p_ >= kN) e.twist();
    const std::size_t avail = (kN - e.p_) / 2;
    if (avail == 0) {
      const double x = 2.0 * canonical(e()) - 1.0;
      const double y = 2.0 * canonical(e()) - 1.0;
      const double r2 = x * x + y * y;
      if (!polar_accept(r2)) continue;
      *out++ = static_cast<T>(polar_value(y, r2, mean, stddev));
      --n;
      continue;
    }
    // About n / (pi / 4) pairs finish the request; tempering a few more
    // than needed only costs time, never words.
    const std::size_t pairs = std::min({avail, kBlockPairs, n + n / 4 + 1});
    const std::uint64_t* w = e.x_ + e.p_;
    for (std::size_t k = 0; k < 2 * pairs; ++k) {
      u[k] = canonical(Mt19937_64::temper(w[k]));
    }
    // Accepted pairs are packed to the front: every pair is written at m,
    // and m only advances past the accepted ones.
    std::size_t m = 0;
    for (std::size_t k = 0; k < pairs; ++k) {
      const double x = 2.0 * u[2 * k] - 1.0;
      const double y = 2.0 * u[2 * k + 1] - 1.0;
      const double r2 = x * x + y * y;
      ys[m] = y;
      r2s[m] = r2;
      kept[m] = static_cast<std::uint32_t>(k);
      m += polar_accept(r2);
    }
    const std::size_t take = std::min(m, n);
    for (std::size_t j = 0; j < take; ++j) {
      out[j] = static_cast<T>(polar_value(ys[j], r2s[j], mean, stddev));
    }
    // The request ends at its last accepted pair; otherwise the rejected
    // tail of the block was consumed by the next draw's attempts.
    e.p_ += m >= n ? 2 * (std::size_t{kept[n - 1]} + 1) : 2 * pairs;
    out += take;
    n -= take;
  }
}

void Generator::normal_fill(double* out, std::size_t n) {
  polar_fill(out, n, 0.0, 1.0);
}

void Generator::normal_fill(float* out, std::size_t n) {
  polar_fill(out, n, 0.0, 1.0);
}

double Generator::normal() {
  double v;
  polar_fill(&v, 1, 0.0, 1.0);
  return v;
}

double Generator::normal(double mean, double stddev) {
  double v;
  polar_fill(&v, 1, mean, stddev);
  return v;
}

Generator& global_generator() {
  static Generator gen;
  return gen;
}

void manual_seed(std::uint64_t seed) { global_generator().seed(seed); }

}  // namespace tx
