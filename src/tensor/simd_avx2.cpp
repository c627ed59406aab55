// AVX2 backend for tx::simd. Compiled with -mavx2 (and ONLY -mavx2: FMA is
// deliberately not enabled, and the build passes -ffp-contract=off, so every
// multiply and add rounds separately — exactly like the scalar canonical
// kernels). Only the dispatch layer calls into this file, and only after
// __builtin_cpu_supports("avx2") confirmed the ISA at startup.
//
// Reductions keep 8 accumulator lanes in ymm registers; lane l holds the
// partial over elements l, l+8, l+16, ... — the identical layout the scalar
// canonical implementation maintains in its p[8] array — and the final
// combine uses the same fixed tree ((p0+p1)+(p2+p3)) + ((p4+p5)+(p6+p7)).
#if defined(TX_SIMD_BUILD_AVX2)

#include <immintrin.h>

#include <cstdint>
#include <cstring>

#include "tensor/simd_poly.h"

namespace tx::simd::avx2 {

namespace {

// Combine one float accumulator register with the canonical tree.
inline float combine8(__m256 acc) {
  alignas(32) float p[8];
  _mm256_store_ps(p, acc);
  return ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]));
}

// Combine two double accumulator registers (lanes 0-3 and 4-7).
inline double combine8d(__m256d lo, __m256d hi) {
  alignas(32) double a[4];
  alignas(32) double b[4];
  _mm256_store_pd(a, lo);
  _mm256_store_pd(b, hi);
  return ((a[0] + a[1]) + (a[2] + a[3])) + ((b[0] + b[1]) + (b[2] + b[3]));
}

}  // namespace

void add_n(const float* a, const float* b, float* o, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                          _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] + b[i];
}

void sub_n(const float* a, const float* b, float* o, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                          _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] - b[i];
}

void mul_n(const float* a, const float* b, float* o, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                          _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] * b[i];
}

void div_n(const float* a, const float* b, float* o, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_div_ps(_mm256_loadu_ps(a + i),
                                          _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] / b[i];
}

void max_n(const float* a, const float* b, float* o, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_max_ps(_mm256_loadu_ps(a + i),
                                          _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = (a[i] > b[i]) ? a[i] : b[i];
}

void min_n(const float* a, const float* b, float* o, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_min_ps(_mm256_loadu_ps(a + i),
                                          _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = (a[i] < b[i]) ? a[i] : b[i];
}

void mul_add_n(const float* a, const float* b, const float* c, float* o,
               std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod =
        _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    _mm256_storeu_ps(o + i, _mm256_add_ps(prod, _mm256_loadu_ps(c + i)));
  }
  for (; i < n; ++i) {
    const float prod = a[i] * b[i];
    o[i] = prod + c[i];
  }
}

void axpy_n(float s, const float* x, float* o, std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(vs, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(o + i, _mm256_add_ps(_mm256_loadu_ps(o + i), prod));
  }
  for (; i < n; ++i) {
    const float prod = s * x[i];
    o[i] = o[i] + prod;
  }
}

void scale_n(const float* a, float s, float* o, std::int64_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_mul_ps(vs, _mm256_loadu_ps(a + i)));
  }
  for (; i < n; ++i) o[i] = s * a[i];
}

void neg_n(const float* a, float* o, std::int64_t n) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_xor_ps(_mm256_loadu_ps(a + i), sign));
  }
  for (; i < n; ++i) o[i] = -a[i];
}

void abs_n(const float* a, float* o, std::int64_t n) {
  const __m256 mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_and_ps(_mm256_loadu_ps(a + i), mask));
  }
  for (; i < n; ++i) o[i] = __builtin_fabsf(a[i]);
}

void relu_n(const float* a, float* o, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_max_ps(_mm256_loadu_ps(a + i), zero));
  }
  for (; i < n; ++i) o[i] = (a[i] > 0.0f) ? a[i] : 0.0f;
}

void sqrt_n(const float* a, float* o, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_sqrt_ps(_mm256_loadu_ps(a + i)));
  }
  for (; i < n; ++i) o[i] = __builtin_sqrtf(a[i]);
}

void clamp_n(const float* a, float lo, float hi, float* o, std::int64_t n) {
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vhi = _mm256_set1_ps(hi);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_max_ps(_mm256_loadu_ps(a + i), vlo);
    _mm256_storeu_ps(o + i, _mm256_min_ps(v, vhi));
  }
  for (; i < n; ++i) {
    const float v = (a[i] > lo) ? a[i] : lo;
    o[i] = (v < hi) ? v : hi;
  }
}

float dot8(const float* a, const float* b, std::int64_t n) {
  __m256 acc = _mm256_setzero_ps();
  const std::int64_t main_n = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < main_n; i += 8) {
    const __m256 prod =
        _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc = _mm256_add_ps(acc, prod);
  }
  float total = combine8(acc);
  for (std::int64_t i = main_n; i < n; ++i) {
    const float prod = a[i] * b[i];
    total = total + prod;
  }
  return total;
}

float sum8f(const float* x, std::int64_t n) {
  __m256 acc = _mm256_setzero_ps();
  const std::int64_t main_n = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < main_n; i += 8) {
    acc = _mm256_add_ps(acc, _mm256_loadu_ps(x + i));
  }
  float total = combine8(acc);
  for (std::int64_t i = main_n; i < n; ++i) total = total + x[i];
  return total;
}

double sum8(const float* x, std::int64_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  const std::int64_t main_n = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < main_n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    acc_lo = _mm256_add_pd(acc_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    acc_hi = _mm256_add_pd(acc_hi, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  double total = combine8d(acc_lo, acc_hi);
  for (std::int64_t i = main_n; i < n; ++i) {
    total = total + static_cast<double>(x[i]);
  }
  return total;
}

double sumsq8(const float* x, std::int64_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  const std::int64_t main_n = n & ~std::int64_t{7};
  for (std::int64_t i = 0; i < main_n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 sq = _mm256_mul_ps(v, v);
    acc_lo = _mm256_add_pd(acc_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(sq)));
    acc_hi =
        _mm256_add_pd(acc_hi, _mm256_cvtps_pd(_mm256_extractf128_ps(sq, 1)));
  }
  double total = combine8d(acc_lo, acc_hi);
  for (std::int64_t i = main_n; i < n; ++i) {
    const float sq = x[i] * x[i];
    total = total + static_cast<double>(sq);
  }
  return total;
}

namespace {

// One R x (8 * V) tile of C += A * B, held in R * V registers across the
// whole p loop. Every lane does c = c + a*b per p, p ascending, which is the
// axpy_n sequence. Masked tiles (V == 1) cover the last n % 8 columns; their
// dead lanes load zeros and are never stored.
template <int R, int V, bool kMasked>
inline void gemm_tile(const float* a, std::int64_t a_rs, std::int64_t a_cs,
                      const float* b, float* c, std::int64_t k, std::int64_t n,
                      __m256i mask) {
  __m256 acc[R][V];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      acc[r][v] = kMasked ? _mm256_maskload_ps(c + r * n, mask)
                          : _mm256_loadu_ps(c + r * n + 8 * v);
    }
  }
  for (std::int64_t p = 0; p < k; ++p) {
    const float* bp = b + p * n;
    const float* ap = a + p * a_cs;
    __m256 bv[V];
    for (int v = 0; v < V; ++v) {
      bv[v] = kMasked ? _mm256_maskload_ps(bp, mask)
                      : _mm256_loadu_ps(bp + 8 * v);
    }
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(ap + r * a_rs);
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(av, bv[v]));
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      if (kMasked) {
        _mm256_maskstore_ps(c + r * n, mask, acc[r][v]);
      } else {
        _mm256_storeu_ps(c + r * n + 8 * v, acc[r][v]);
      }
    }
  }
}

// All m rows of one column strip, four rows per tile.
template <int V, bool kMasked>
void gemm_strip(const float* a, std::int64_t a_rs, std::int64_t a_cs,
                const float* b, float* c, std::int64_t m, std::int64_t k,
                std::int64_t n, __m256i mask) {
  std::int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    gemm_tile<4, V, kMasked>(a + i * a_rs, a_rs, a_cs, b, c + i * n, k, n,
                             mask);
  }
  const float* ai = a + i * a_rs;
  float* ci = c + i * n;
  switch (m - i) {
    case 3:
      gemm_tile<3, V, kMasked>(ai, a_rs, a_cs, b, ci, k, n, mask);
      break;
    case 2:
      gemm_tile<2, V, kMasked>(ai, a_rs, a_cs, b, ci, k, n, mask);
      break;
    case 1:
      gemm_tile<1, V, kMasked>(ai, a_rs, a_cs, b, ci, k, n, mask);
      break;
    default:
      break;
  }
}

}  // namespace

void gemm_acc(const float* a, std::int64_t a_rs, std::int64_t a_cs,
              const float* b, float* c, std::int64_t m, std::int64_t k,
              std::int64_t n) {
  // Column strips outermost, so one k x 16 strip of B stays hot while every
  // row tile streams over it.
  const __m256i all = _mm256_set1_epi32(-1);
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    gemm_strip<2, false>(a, a_rs, a_cs, b + j, c + j, m, k, n, all);
  }
  if (j + 8 <= n) {
    gemm_strip<1, false>(a, a_rs, a_cs, b + j, c + j, m, k, n, all);
    j += 8;
  }
  if (j < n) {
    const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i mask =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n - j)), lanes);
    gemm_strip<1, true>(a, a_rs, a_cs, b + j, c + j, m, k, n, mask);
  }
}

void gemm_bt_acc(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n) {
  const std::int64_t main_k = k & ~std::int64_t{7};
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    std::int64_t j = 0;
    // Four canonical dots at once over shared loads of A's row: lane l of
    // acc[q] folds elements l, l+8, ... of row j+q, exactly as dot8 does.
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + j * k;
      const float* b1 = b0 + k;
      const float* b2 = b1 + k;
      const float* b3 = b2 + k;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      for (std::int64_t p = 0; p < main_k; p += 8) {
        const __m256 va = _mm256_loadu_ps(arow + p);
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, _mm256_loadu_ps(b0 + p)));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(va, _mm256_loadu_ps(b1 + p)));
        acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(va, _mm256_loadu_ps(b2 + p)));
        acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(va, _mm256_loadu_ps(b3 + p)));
      }
      // The canonical tree for all four at once: two rounds of pairwise
      // hadd give (p0+p1)+(p2+p3) in the low half and (p4+p5)+(p6+p7) in
      // the high half of lane q; adding the halves finishes the tree.
      const __m256 h = _mm256_hadd_ps(_mm256_hadd_ps(acc0, acc1),
                                      _mm256_hadd_ps(acc2, acc3));
      __m128 total = _mm_add_ps(_mm256_castps256_ps128(h),
                                _mm256_extractf128_ps(h, 1));
      for (std::int64_t p = main_k; p < k; ++p) {
        const __m128 bq = _mm_setr_ps(b0[p], b1[p], b2[p], b3[p]);
        total = _mm_add_ps(total, _mm_mul_ps(_mm_set1_ps(arow[p]), bq));
      }
      _mm_storeu_ps(crow + j, _mm_add_ps(_mm_loadu_ps(crow + j), total));
    }
    for (; j < n; ++j) crow[j] = crow[j] + dot8(arow, b + j * k, k);
  }
}

namespace {

// log_poly of eight lanes, operation for operation.
inline __m256 log8(__m256 x) {
  const __m256i bits = _mm256_castps_si256(x);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 m = _mm256_castsi256_ps(
      _mm256_or_si256(_mm256_and_si256(bits, _mm256_set1_epi32(0x007fffff)),
                      _mm256_set1_epi32(0x3f000000)));
  const __m256 e = _mm256_cvtepi32_ps(
      _mm256_sub_epi32(_mm256_srli_epi32(bits, 23), _mm256_set1_epi32(126)));
  const __m256 low =
      _mm256_cmp_ps(m, _mm256_set1_ps(poly::kSqrtHalf), _CMP_LT_OQ);
  const __m256 ef = _mm256_sub_ps(e, _mm256_and_ps(low, one));
  const __m256 f =
      _mm256_add_ps(_mm256_sub_ps(m, one), _mm256_and_ps(low, m));
  const __m256 z = _mm256_mul_ps(f, f);
  __m256 y = _mm256_set1_ps(poly::kLogP[0]);
  for (int i = 1; i < 9; ++i) {
    y = _mm256_add_ps(_mm256_mul_ps(y, f), _mm256_set1_ps(poly::kLogP[i]));
  }
  y = _mm256_mul_ps(_mm256_mul_ps(y, f), z);
  y = _mm256_add_ps(y, _mm256_mul_ps(ef, _mm256_set1_ps(poly::kLn2Lo)));
  y = _mm256_sub_ps(y, _mm256_mul_ps(_mm256_set1_ps(0.5f), z));
  const __m256 l = _mm256_add_ps(f, y);
  return _mm256_add_ps(l, _mm256_mul_ps(ef, _mm256_set1_ps(poly::kLn2Hi)));
}

// sincos_turn24 of eight lanes, operation for operation.
inline void sincos8(__m256i b, __m256* s, __m256* c) {
  const __m256i q =
      _mm256_srli_epi32(_mm256_add_epi32(b, _mm256_set1_epi32(0x200000)), 22);
  const __m256i i = _mm256_sub_epi32(b, _mm256_slli_epi32(q, 22));
  const __m256 x =
      _mm256_mul_ps(_mm256_cvtepi32_ps(i), _mm256_set1_ps(poly::kQuarterStep));
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 ps = _mm256_set1_ps(poly::kSinP[0]);
  ps = _mm256_add_ps(_mm256_mul_ps(ps, z), _mm256_set1_ps(poly::kSinP[1]));
  ps = _mm256_add_ps(_mm256_mul_ps(ps, z), _mm256_set1_ps(poly::kSinP[2]));
  ps = _mm256_mul_ps(_mm256_mul_ps(ps, z), x);
  ps = _mm256_add_ps(ps, x);
  __m256 pc = _mm256_set1_ps(poly::kCosP[0]);
  pc = _mm256_add_ps(_mm256_mul_ps(pc, z), _mm256_set1_ps(poly::kCosP[1]));
  pc = _mm256_add_ps(_mm256_mul_ps(pc, z), _mm256_set1_ps(poly::kCosP[2]));
  pc = _mm256_mul_ps(_mm256_mul_ps(pc, z), z);
  pc = _mm256_sub_ps(pc, _mm256_mul_ps(_mm256_set1_ps(0.5f), z));
  pc = _mm256_add_ps(pc, _mm256_set1_ps(1.0f));
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i two = _mm256_set1_epi32(2);
  const __m256 swap = _mm256_castsi256_ps(
      _mm256_cmpeq_epi32(_mm256_and_si256(q, one), one));
  const __m256 s_sign =
      _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_and_si256(q, two), 30));
  const __m256 c_sign = _mm256_castsi256_ps(_mm256_slli_epi32(
      _mm256_and_si256(_mm256_add_epi32(q, one), two), 30));
  *s = _mm256_xor_ps(_mm256_blendv_ps(ps, pc, swap), s_sign);
  *c = _mm256_xor_ps(_mm256_blendv_ps(pc, ps, swap), c_sign);
}

// Sixteen draws from eight words.
inline void box_muller16(const std::uint64_t* w, float* o) {
  const __m256 w0 = _mm256_castsi256_ps(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w)));
  const __m256 w1 = _mm256_castsi256_ps(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + 4)));
  // 32-bit lanes of a word pair are (low half, high half). Gather the eight
  // high halves and the eight low halves in word order.
  const __m256i hi = _mm256_permute4x64_epi64(
      _mm256_castps_si256(_mm256_shuffle_ps(w0, w1, _MM_SHUFFLE(3, 1, 3, 1))),
      _MM_SHUFFLE(3, 1, 2, 0));
  const __m256i lo = _mm256_permute4x64_epi64(
      _mm256_castps_si256(_mm256_shuffle_ps(w0, w1, _MM_SHUFFLE(2, 0, 2, 0))),
      _MM_SHUFFLE(3, 1, 2, 0));
  const __m256i a = _mm256_srli_epi32(hi, 8);
  const __m256i b = _mm256_srli_epi32(lo, 8);
  const __m256 v = _mm256_mul_ps(
      _mm256_cvtepi32_ps(_mm256_add_epi32(_mm256_slli_epi32(a, 1),
                                          _mm256_set1_epi32(1))),
      _mm256_set1_ps(0x1p-25f));
  const __m256 u1 = _mm256_min_ps(v, _mm256_set1_ps(poly::kBelowOne));
  const __m256 r =
      _mm256_sqrt_ps(_mm256_mul_ps(log8(u1), _mm256_set1_ps(-2.0f)));
  __m256 s = _mm256_setzero_ps(), c = s;
  sincos8(b, &s, &c);
  const __m256 zc = _mm256_mul_ps(r, c);
  const __m256 zs = _mm256_mul_ps(r, s);
  // Interleave to c0 s0 c1 s1 ...: unpack works within 128-bit halves.
  const __m256 ab = _mm256_unpacklo_ps(zc, zs);  // words 0 1 | 4 5
  const __m256 cd = _mm256_unpackhi_ps(zc, zs);  // words 2 3 | 6 7
  _mm256_storeu_ps(o, _mm256_permute2f128_ps(ab, cd, 0x20));
  _mm256_storeu_ps(o + 8, _mm256_permute2f128_ps(ab, cd, 0x31));
}

}  // namespace

void box_muller_n(const std::uint64_t* w, float* o, std::int64_t n) {
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) box_muller16(w + j / 2, o + j);
  if (j < n) {
    // The tail runs the same lanes on zero-padded words.
    const auto rest = static_cast<std::size_t>(n - j);
    std::uint64_t tw[8] = {};
    float to[16];
    std::memcpy(tw, w + j / 2, (rest + 1) / 2 * sizeof(std::uint64_t));
    box_muller16(tw, to);
    std::memcpy(o + j, to, rest * sizeof(float));
  }
}

}  // namespace tx::simd::avx2

#endif  // TX_SIMD_BUILD_AVX2
