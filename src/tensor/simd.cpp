// Runtime dispatch + portable canonical implementations for tx::simd.
//
// The scalar kernels below are the specification: every vector backend must
// match them bitwise. Reductions therefore use the same 8-lane virtual
// accumulator layout and fixed combine tree the vector backends use, and no
// kernel relies on FP contraction (the build passes -ffp-contract=off).
#include "tensor/simd.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/manifest.h"
#include "tensor/simd_poly.h"

namespace tx::simd {

#if defined(TX_SIMD_BUILD_AVX2)
namespace avx2 {
void add_n(const float* a, const float* b, float* o, std::int64_t n);
void sub_n(const float* a, const float* b, float* o, std::int64_t n);
void mul_n(const float* a, const float* b, float* o, std::int64_t n);
void div_n(const float* a, const float* b, float* o, std::int64_t n);
void max_n(const float* a, const float* b, float* o, std::int64_t n);
void min_n(const float* a, const float* b, float* o, std::int64_t n);
void mul_add_n(const float* a, const float* b, const float* c, float* o,
               std::int64_t n);
void axpy_n(float s, const float* x, float* o, std::int64_t n);
void scale_n(const float* a, float s, float* o, std::int64_t n);
void neg_n(const float* a, float* o, std::int64_t n);
void abs_n(const float* a, float* o, std::int64_t n);
void relu_n(const float* a, float* o, std::int64_t n);
void sqrt_n(const float* a, float* o, std::int64_t n);
void clamp_n(const float* a, float lo, float hi, float* o, std::int64_t n);
float dot8(const float* a, const float* b, std::int64_t n);
float sum8f(const float* x, std::int64_t n);
double sum8(const float* x, std::int64_t n);
double sumsq8(const float* x, std::int64_t n);
void gemm_acc(const float* a, std::int64_t a_rs, std::int64_t a_cs,
              const float* b, float* c, std::int64_t m, std::int64_t k,
              std::int64_t n);
void gemm_bt_acc(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n);
void box_muller_n(const std::uint64_t* w, float* o, std::int64_t n);
}  // namespace avx2
#endif

namespace {

// ---- Scalar canonical kernels ----

void scalar_add_n(const float* a, const float* b, float* o, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
}
void scalar_sub_n(const float* a, const float* b, float* o, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) o[i] = a[i] - b[i];
}
void scalar_mul_n(const float* a, const float* b, float* o, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) o[i] = a[i] * b[i];
}
void scalar_div_n(const float* a, const float* b, float* o, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) o[i] = a[i] / b[i];
}
// max/min mirror vmaxps/vminps exactly: (a OP b) ? a : b, second operand on
// unordered comparisons.
void scalar_max_n(const float* a, const float* b, float* o, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) o[i] = (a[i] > b[i]) ? a[i] : b[i];
}
void scalar_min_n(const float* a, const float* b, float* o, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) o[i] = (a[i] < b[i]) ? a[i] : b[i];
}
void scalar_mul_add_n(const float* a, const float* b, const float* c, float* o,
                      std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float prod = a[i] * b[i];
    o[i] = prod + c[i];
  }
}
void scalar_axpy_n(float s, const float* x, float* o, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float prod = s * x[i];
    o[i] = o[i] + prod;
  }
}
void scalar_scale_n(const float* a, float s, float* o, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) o[i] = s * a[i];
}
void scalar_neg_n(const float* a, float* o, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) o[i] = -a[i];
}
void scalar_abs_n(const float* a, float* o, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) o[i] = std::fabs(a[i]);
}
void scalar_relu_n(const float* a, float* o, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) o[i] = (a[i] > 0.0f) ? a[i] : 0.0f;
}
void scalar_sqrt_n(const float* a, float* o, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) o[i] = std::sqrt(a[i]);
}
void scalar_clamp_n(const float* a, float lo, float hi, float* o,
                    std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = (a[i] > lo) ? a[i] : lo;
    o[i] = (v < hi) ? v : hi;
  }
}

float scalar_dot8(const float* a, const float* b, std::int64_t n) {
  float p[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  const std::int64_t main_n = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < main_n; i += 8) {
    for (int l = 0; l < 8; ++l) {
      const float prod = a[i + l] * b[i + l];
      p[l] = p[l] + prod;
    }
  }
  float total = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]));
  for (std::int64_t i = main_n; i < n; ++i) {
    const float prod = a[i] * b[i];
    total = total + prod;
  }
  return total;
}

float scalar_sum8f(const float* x, std::int64_t n) {
  float p[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  const std::int64_t main_n = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < main_n; i += 8) {
    for (int l = 0; l < 8; ++l) p[l] = p[l] + x[i + l];
  }
  float total = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]));
  for (std::int64_t i = main_n; i < n; ++i) total = total + x[i];
  return total;
}

double scalar_sum8(const float* x, std::int64_t n) {
  double p[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  const std::int64_t main_n = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < main_n; i += 8) {
    for (int l = 0; l < 8; ++l) p[l] = p[l] + static_cast<double>(x[i + l]);
  }
  double total = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]));
  for (std::int64_t i = main_n; i < n; ++i) {
    total = total + static_cast<double>(x[i]);
  }
  return total;
}

double scalar_sumsq8(const float* x, std::int64_t n) {
  double p[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  const std::int64_t main_n = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < main_n; i += 8) {
    for (int l = 0; l < 8; ++l) {
      const float sq = x[i + l] * x[i + l];
      p[l] = p[l] + static_cast<double>(sq);
    }
  }
  double total = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]));
  for (std::int64_t i = main_n; i < n; ++i) {
    const float sq = x[i] * x[i];
    total = total + static_cast<double>(sq);
  }
  return total;
}

void scalar_gemm_acc(const float* a, std::int64_t a_rs, std::int64_t a_cs,
                     const float* b, float* c, std::int64_t m, std::int64_t k,
                     std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      scalar_axpy_n(a[i * a_rs + p * a_cs], b + p * n, c + i * n, n);
    }
  }
}

void scalar_gemm_bt_acc(const float* a, const float* b, float* c,
                        std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      c[i * n + j] = c[i * n + j] + scalar_dot8(a + i * k, b + j * k, k);
    }
  }
}

// ---- Gaussian draws ----
//
// The operation order below is the specification: simd_avx2.cpp performs
// the same operations lane for lane, and the selects are written as the
// vector blends and min compute them.

void scalar_box_muller_n(const std::uint64_t* w, float* o, std::int64_t n) {
  for (std::int64_t j = 0; j < n; j += 2) {
    const std::uint64_t word = w[j / 2];
    const auto a = static_cast<std::uint32_t>(word >> 40);
    const std::uint32_t b = static_cast<std::uint32_t>(word) >> 8;
    const float v =
        static_cast<float>(static_cast<std::int32_t>(2 * a + 1)) * 0x1p-25f;
    const float u1 = (v < poly::kBelowOne) ? v : poly::kBelowOne;
    const float r = std::sqrt(log_poly(u1) * -2.0f);
    float s = 0.0f, c = 0.0f;
    sincos_turn24(b, &s, &c);
    o[j] = r * c;
    if (j + 1 < n) o[j + 1] = r * s;
  }
}

// ---- Level selection ----

Level detect_best() {
#if defined(TX_SIMD_BUILD_AVX2)
  if (__builtin_cpu_supports("avx2")) return Level::kAVX2;
#endif
#if defined(TX_SIMD_BUILD_NEON)
  return Level::kNEON;
#endif
  return Level::kScalar;
}

Level resolve_startup_level() {
  const char* env = std::getenv("TYXE_SIMD");
  if (env == nullptr || *env == '\0') return detect_best();
  const std::string v(env);
  Level want = Level::kScalar;
  if (v == "auto") return detect_best();
  if (v == "off" || v == "scalar") {
    want = Level::kScalar;
  } else if (v == "avx2") {
    want = Level::kAVX2;
  } else if (v == "neon") {
    want = Level::kNEON;
  } else {
    std::fprintf(stderr,
                 "tx::simd: unknown TYXE_SIMD value '%s' "
                 "(expected off|scalar|avx2|neon|auto); using auto\n",
                 env);
    return detect_best();
  }
  if (!level_available(want)) {
    std::fprintf(stderr,
                 "tx::simd: TYXE_SIMD=%s not available on this machine/build; "
                 "falling back to scalar\n",
                 env);
    return Level::kScalar;
  }
  return want;
}

std::atomic<Level>& level_slot() {
  static std::atomic<Level> slot{resolve_startup_level()};
  return slot;
}

inline Level level() { return level_slot().load(std::memory_order_relaxed); }

}  // namespace

Level active_level() { return level(); }

const char* level_name() {
  switch (level()) {
    case Level::kAVX2:
      return "avx2";
    case Level::kNEON:
      return "neon";
    default:
      return "off";
  }
}

namespace {
// Publish the dispatch level actually selected (not the requested one) into
// the tx.manifest.v1 run manifest, so bench_diff.py can refuse to compare
// an AVX2 baseline against a scalar candidate.
const bool g_manifest_provider_registered = [] {
  obs::manifest::register_provider(
      [] { obs::manifest::set_field("simd_level", level_name()); });
  return true;
}();
}  // namespace

bool level_available(Level l) {
  switch (l) {
    case Level::kScalar:
      return true;
    case Level::kAVX2:
#if defined(TX_SIMD_BUILD_AVX2)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Level::kNEON:
#if defined(TX_SIMD_BUILD_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

Level set_level_for_testing(Level l) {
  if (!level_available(l)) l = Level::kScalar;
  level_slot().store(l, std::memory_order_relaxed);
  return l;
}

// ---- Dispatch ----
//
// A single branch per kernel call; calls are chunk-granular (thousands of
// elements), so the dispatch cost is noise. NEON would slot in here the same
// way AVX2 does; until an aarch64 backend lands, kNEON resolves to scalar at
// the dispatch layer (level_available(kNEON) is false on this build anyway).

#if defined(TX_SIMD_BUILD_AVX2)
#define TX_SIMD_DISPATCH(fn, ...)                                 \
  do {                                                            \
    if (level() == Level::kAVX2) return avx2::fn(__VA_ARGS__);    \
    return scalar_##fn(__VA_ARGS__);                              \
  } while (0)
#else
#define TX_SIMD_DISPATCH(fn, ...) return scalar_##fn(__VA_ARGS__)
#endif

void add_n(const float* a, const float* b, float* o, std::int64_t n) {
  TX_SIMD_DISPATCH(add_n, a, b, o, n);
}
void sub_n(const float* a, const float* b, float* o, std::int64_t n) {
  TX_SIMD_DISPATCH(sub_n, a, b, o, n);
}
void mul_n(const float* a, const float* b, float* o, std::int64_t n) {
  TX_SIMD_DISPATCH(mul_n, a, b, o, n);
}
void div_n(const float* a, const float* b, float* o, std::int64_t n) {
  TX_SIMD_DISPATCH(div_n, a, b, o, n);
}
void max_n(const float* a, const float* b, float* o, std::int64_t n) {
  TX_SIMD_DISPATCH(max_n, a, b, o, n);
}
void min_n(const float* a, const float* b, float* o, std::int64_t n) {
  TX_SIMD_DISPATCH(min_n, a, b, o, n);
}
void mul_add_n(const float* a, const float* b, const float* c, float* o,
               std::int64_t n) {
  TX_SIMD_DISPATCH(mul_add_n, a, b, c, o, n);
}
void axpy_n(float s, const float* x, float* o, std::int64_t n) {
  TX_SIMD_DISPATCH(axpy_n, s, x, o, n);
}
void scale_n(const float* a, float s, float* o, std::int64_t n) {
  TX_SIMD_DISPATCH(scale_n, a, s, o, n);
}
void neg_n(const float* a, float* o, std::int64_t n) {
  TX_SIMD_DISPATCH(neg_n, a, o, n);
}
void abs_n(const float* a, float* o, std::int64_t n) {
  TX_SIMD_DISPATCH(abs_n, a, o, n);
}
void relu_n(const float* a, float* o, std::int64_t n) {
  TX_SIMD_DISPATCH(relu_n, a, o, n);
}
void sqrt_n(const float* a, float* o, std::int64_t n) {
  TX_SIMD_DISPATCH(sqrt_n, a, o, n);
}
void clamp_n(const float* a, float lo, float hi, float* o, std::int64_t n) {
  TX_SIMD_DISPATCH(clamp_n, a, lo, hi, o, n);
}
void copy_n(const float* src, float* dst, std::int64_t n) {
  // An empty buffer's data() may be null, which memcpy must never receive.
  if (n > 0) {
    std::memcpy(dst, src, static_cast<std::size_t>(n) * sizeof(float));
  }
}
float dot8(const float* a, const float* b, std::int64_t n) {
  TX_SIMD_DISPATCH(dot8, a, b, n);
}
float sum8f(const float* x, std::int64_t n) { TX_SIMD_DISPATCH(sum8f, x, n); }
double sum8(const float* x, std::int64_t n) { TX_SIMD_DISPATCH(sum8, x, n); }
double sumsq8(const float* x, std::int64_t n) {
  TX_SIMD_DISPATCH(sumsq8, x, n);
}
void gemm_acc(const float* a, std::int64_t a_rs, std::int64_t a_cs,
              const float* b, float* c, std::int64_t m, std::int64_t k,
              std::int64_t n) {
  TX_SIMD_DISPATCH(gemm_acc, a, a_rs, a_cs, b, c, m, k, n);
}
void gemm_bt_acc(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n) {
  TX_SIMD_DISPATCH(gemm_bt_acc, a, b, c, m, k, n);
}

void box_muller_n(const std::uint64_t* w, float* o, std::int64_t n) {
  // One word (normal()) costs less in scalar code than in a padded vector;
  // the bits are the same either way.
  if (n <= 2) return scalar_box_muller_n(w, o, n);
  TX_SIMD_DISPATCH(box_muller_n, w, o, n);
}

#undef TX_SIMD_DISPATCH

float log_poly(float x) {
  const auto bits = std::bit_cast<std::uint32_t>(x);
  // x = m * 2^(e + 1) with m in [1/2, 1); below sqrt(1/2), m moves up an
  // octave so f = m - 1 lies in [sqrt(1/2) - 1, sqrt(2) - 1). Both forms of
  // f are exact.
  const float m = std::bit_cast<float>((bits & 0x007fffffu) | 0x3f000000u);
  const float e =
      static_cast<float>(static_cast<std::int32_t>(bits >> 23) - 126);
  const bool low = m < poly::kSqrtHalf;
  const float ef = e - (low ? 1.0f : 0.0f);
  const float f = (m - 1.0f) + (low ? m : 0.0f);
  const float z = f * f;
  float y = poly::kLogP[0];
  for (int i = 1; i < 9; ++i) y = y * f + poly::kLogP[i];
  y = (y * f) * z;
  y = y + ef * poly::kLn2Lo;
  y = y - 0.5f * z;
  const float l = f + y;
  return l + ef * poly::kLn2Hi;
}

void sincos_turn24(std::uint32_t b, float* s, float* c) {
  // b / 2^22 quarter turns: q the nearest whole one (0..4), i the rest in
  // 2^-22 steps, in [-2^21, 2^21), so x is in [-pi/4, pi/4).
  const std::uint32_t q = (b + 0x200000u) >> 22;
  const auto i = static_cast<std::int32_t>(b - (q << 22));
  const float x = static_cast<float>(i) * poly::kQuarterStep;
  const float z = x * x;
  float ps = poly::kSinP[0];
  ps = ps * z + poly::kSinP[1];
  ps = ps * z + poly::kSinP[2];
  ps = (ps * z) * x;
  ps = ps + x;
  float pc = poly::kCosP[0];
  pc = pc * z + poly::kCosP[1];
  pc = pc * z + poly::kCosP[2];
  pc = (pc * z) * z;
  pc = pc - 0.5f * z;
  pc = pc + 1.0f;
  // Rotate by q quarter turns: an odd q swaps sin and cos; cos is negated
  // for q mod 4 in {1, 2}, sin for q mod 4 in {2, 3}.
  const bool swap = (q & 1u) != 0;
  const std::uint32_t s_sign = (q & 2u) << 30;
  const std::uint32_t c_sign = ((q + 1u) & 2u) << 30;
  *s = std::bit_cast<float>(std::bit_cast<std::uint32_t>(swap ? pc : ps) ^
                            s_sign);
  *c = std::bit_cast<float>(std::bit_cast<std::uint32_t>(swap ? ps : pc) ^
                            c_sign);
}

}  // namespace tx::simd
