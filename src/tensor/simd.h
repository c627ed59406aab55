// tx::simd — runtime-dispatched SIMD kernels with a bitwise-determinism
// contract.
//
// Every kernel here is implemented once per instruction-set level (scalar,
// AVX2 on x86-64, NEON on aarch64) but all levels compute THE SAME canonical
// arithmetic, element for element and — for reductions — in the same fixed
// association order. Consequences:
//
//   * Elementwise kernels (add/sub/mul/div/min/max/axpy/mul_add/...) are
//     lane-independent: each output element is one IEEE-754 expression of its
//     inputs, so vector and scalar levels agree bitwise by construction.
//     Hardware FMA is never used (mul and add round separately at every
//     level), and the build disables FP contraction globally.
//   * Reduction kernels (dot / sum / sumsq) use 8 virtual accumulator lanes:
//     lane l accumulates elements l, l+8, l+16, ... in ascending order, the
//     eight partials are combined with the fixed tree
//     ((p0+p1)+(p2+p3)) + ((p4+p5)+(p6+p7)), and any tail (n % 8) is folded
//     in sequentially after the tree. The scalar level implements exactly
//     this algorithm, so SIMD on/off produces bitwise-identical sums.
//
// The active level is resolved once at startup from CPU capabilities and the
// TYXE_SIMD environment variable (off|scalar|avx2|neon|auto); tests can
// force a level with set_level_for_testing(). Because the choice is runtime
// (one binary serves every level), CI's simd-equivalence job builds once and
// runs the bench under TYXE_SIMD=off and =auto.
#pragma once

#include <cstdint>

namespace tx::simd {

enum class Level {
  kScalar = 0,  // portable canonical implementation ("off")
  kAVX2 = 1,    // x86-64 AVX2 (no FMA)
  kNEON = 2,    // aarch64 NEON
};

// Level selected at startup (CPU detection + TYXE_SIMD override).
Level active_level();
// Human-readable name of the active level: "off", "avx2", "neon".
const char* level_name();
// True if the given level can run on this machine/build.
bool level_available(Level level);
// Force a level for tests; clamped to scalar if unavailable. Returns the
// level actually installed.
Level set_level_for_testing(Level level);

// --- Elementwise kernels (lane-independent, full overwrite of o[0..n)) ---
void add_n(const float* a, const float* b, float* o, std::int64_t n);
void sub_n(const float* a, const float* b, float* o, std::int64_t n);
void mul_n(const float* a, const float* b, float* o, std::int64_t n);
void div_n(const float* a, const float* b, float* o, std::int64_t n);
void max_n(const float* a, const float* b, float* o, std::int64_t n);
void min_n(const float* a, const float* b, float* o, std::int64_t n);
// o[i] = a[i] * b[i] + c[i], rounded twice (no FMA).
void mul_add_n(const float* a, const float* b, const float* c, float* o,
               std::int64_t n);
// o[i] += s * x[i], rounded twice (no FMA).
void axpy_n(float s, const float* x, float* o, std::int64_t n);
// o[i] = s * a[i].
void scale_n(const float* a, float s, float* o, std::int64_t n);
void neg_n(const float* a, float* o, std::int64_t n);
void abs_n(const float* a, float* o, std::int64_t n);
void relu_n(const float* a, float* o, std::int64_t n);
void sqrt_n(const float* a, float* o, std::int64_t n);
void clamp_n(const float* a, float lo, float hi, float* o, std::int64_t n);
void copy_n(const float* src, float* dst, std::int64_t n);

// --- Canonical reductions (8 virtual lanes + fixed combine tree) ---
// Float accumulation: sum_i a[i]*b[i], each product rounded before adding.
float dot8(const float* a, const float* b, std::int64_t n);
// Float accumulation of a[i] (used for per-cell axis reductions).
float sum8f(const float* x, std::int64_t n);
// Double accumulation of a[i] (full-tensor sum; each float promoted exactly).
double sum8(const float* x, std::int64_t n);
// Double accumulation of a[i]^2 (square rounded in float, promoted exactly).
double sumsq8(const float* x, std::int64_t n);

// --- GEMM micro-kernels (every tensor-level matrix product runs on these) ---
// C(m,n) += A(m,k) * B(k,n) with A[i][p] = a[i * a_rs + p * a_cs], so A may be
// row-major (a_rs = k, a_cs = 1) or a transposed view (a_rs = 1, a_cs = m);
// B and C are row-major with leading dimension n. Every cell adds one
// product per p, p ascending, c = c + a*b rounded twice: the same sequence
// as k axpy_n calls per output row. Vector levels hold tiles of C in
// registers across the whole p loop.
void gemm_acc(const float* a, std::int64_t a_rs, std::int64_t a_cs,
              const float* b, float* c, std::int64_t m, std::int64_t k,
              std::int64_t n);
// C(m,n) += A(m,k) * B(n,k)^T, A and B row-major with leading dimension k:
// c[i][j] = c[i][j] + dot8(A row i, B row j, k), one canonical dot per cell.
void gemm_bt_acc(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n);

// --- Gaussian draws (block Box-Muller) ---
// o[0..n) = standard normals from engine words w[0..ceil(n/2)). Word k
// gives two 24-bit uniforms: u1 = (2a + 1) * 2^-25 from its top 24 bits a,
// rounded to float and kept below 1, so u1 is in [2^-25, 1 - 2^-24]; and
// u2 = b * 2^-24 from its bits 8-31 b, in [0, 1). With
// r = sqrt(-2 log u1), o[2k] = r cos(2 pi u2) and o[2k + 1] = r sin(2 pi u2);
// for odd n the sin half of the last word is not written. log, sin and cos
// are the float polynomials below, evaluated in one fixed operation order
// at every level, so every level returns the same bits.
void box_muller_n(const std::uint64_t* w, float* o, std::int64_t n);

// The canonical float polynomials behind box_muller_n (scalar), exposed so
// tests can bound their error against libm.
// Natural log of a positive normal float (Cephes logf).
float log_poly(float x);
// sin and cos of 2 pi b / 2^24 for a 24-bit b: the nearest quarter turn
// exactly in integers, then polynomials on the rest, in [-pi/4, pi/4].
void sincos_turn24(std::uint32_t b, float* s, float* c);

}  // namespace tx::simd
