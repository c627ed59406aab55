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

}  // namespace tx::simd
