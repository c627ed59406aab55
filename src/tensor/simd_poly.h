// Constants of the canonical float polynomials behind tx::simd::box_muller_n,
// shared by the scalar specification (simd.cpp) and the AVX2 kernel
// (simd_avx2.cpp) so the two cannot drift apart.
#pragma once

namespace tx::simd::poly {

// log: x = m * 2^e, m moved into [sqrt(1/2), sqrt(2)), f = m - 1,
// log x = f - f^2 / 2 + f^3 P(f) + e ln 2, with ln 2 split in two parts
// (Cephes logf).
inline constexpr float kSqrtHalf = 0.707106781186547524f;
inline constexpr float kLogP[9] = {
    7.0376836292e-2f,  -1.1514610310e-1f, 1.1676998740e-1f,
    -1.2420140846e-1f, 1.4249322787e-1f,  -1.6668057665e-1f,
    2.0000714765e-1f,  -2.4999993993e-1f, 3.3333331174e-1f};
inline constexpr float kLn2Lo = -2.12194440e-4f;
inline constexpr float kLn2Hi = 0.693359375f;

// sin and cos on [-pi/4, pi/4] (Cephes sinf/cosf), highest power first.
inline constexpr float kSinP[3] = {-1.9515295891e-4f, 8.3321608736e-3f,
                                   -1.6666654611e-1f};
inline constexpr float kCosP[3] = {2.443315711809948e-5f,
                                   -1.388731625493765e-3f,
                                   4.166664568298827e-2f};
// One step of a 24-bit turn inside a quarter: pi/2 / 2^22.
inline constexpr float kQuarterStep = 3.14159265358979323846f * 0x1p-23f;

// u1 = (2a + 1) * 2^-25 is kept below 1: the largest a rounds up to 1.0.
inline constexpr float kBelowOne = 0x1.fffffep-1f;

}  // namespace tx::simd::poly
