// Matrix products. Every product runs on the tx::simd GEMM micro-kernels:
// gemm_acc for A*B and A^T*B (A^T as a strided view, no copy), gemm_bt_acc
// for A*B^T. Each cell accumulates its products p-ascending (A*B, A^T*B) or
// as one canonical 8-lane dot (A*B^T), at every dispatch level.
//
// Above kParFlopThreshold flops the products split over output rows via
// tx::par. A cell's arithmetic does not depend on which rows share its
// chunk or tile, so results are bitwise-identical for every
// TYXE_NUM_THREADS and every TYXE_SIMD level.
#include "obs/event_sink.h"
#include "obs/prof.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "par/pool.h"
#include "resil/fault.h"
#include "tensor/alloc.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace tx {

namespace {

/// Trace-slice args for a (possibly batched) matrix product. Only called
/// behind obs::tracing() so the JSON cost is trace-mode-only.
std::string gemm_trace_args(std::int64_t batch, std::int64_t m, std::int64_t k,
                            std::int64_t n) {
  obs::Event e;
  if (batch > 1) e.set("batch", batch);
  e.set("m", m).set("k", k).set("n", n).set("flops", 2 * batch * m * k * n);
  return e.to_json();
}

/// Flop count (m*k*n) above which a product is worth fanning out.
constexpr std::int64_t kParFlopThreshold = std::int64_t{1} << 16;
/// Minimum output rows per chunk.
constexpr std::int64_t kRowGrain = 4;

/// C(K,N) += A(M,K)^T * B(M,N), restricted to output rows [p0, p1). A is
/// read as the transposed view (row stride 1, column stride k); per cell the
/// accumulation over i is ascending whatever the row range, so chunks with
/// disjoint rows can run in parallel.
void gemm_at_rows(const float* a, const float* b, float* c, std::int64_t m,
                  std::int64_t k, std::int64_t n, std::int64_t p0,
                  std::int64_t p1) {
  simd::gemm_acc(a + p0, 1, k, b, c + p0 * n, p1 - p0, m, n);
}

/// Row-parallel C(M,N) += A(M,K) * B(K,N) above the flop threshold.
void gemm_dispatch(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n) {
  if (m * k * n < kParFlopThreshold) {
    simd::gemm_acc(a, k, 1, b, c, m, k, n);
    return;
  }
  par::parallel_for(0, m, kRowGrain, [&](std::int64_t i0, std::int64_t i1) {
    simd::gemm_acc(a + i0 * k, k, 1, b, c + i0 * n, i1 - i0, k, n);
  });
}

/// Row-parallel C(M,N) += A(M,K) * B(N,K)^T above the flop threshold.
void gemm_bt_dispatch(const float* a, const float* b, float* c, std::int64_t m,
                      std::int64_t k, std::int64_t n) {
  if (m * k * n < kParFlopThreshold) {
    simd::gemm_bt_acc(a, b, c, m, k, n);
    return;
  }
  par::parallel_for(0, m, kRowGrain, [&](std::int64_t i0, std::int64_t i1) {
    simd::gemm_bt_acc(a + i0 * k, b, c + i0 * n, i1 - i0, k, n);
  });
}

/// Output-row-parallel C(K,N) += A(M,K)^T * B(M,N) above the flop threshold.
void gemm_at_dispatch(const float* a, const float* b, float* c, std::int64_t m,
                      std::int64_t k, std::int64_t n) {
  if (m * k * n < kParFlopThreshold) {
    gemm_at_rows(a, b, c, m, k, n, 0, k);
    return;
  }
  par::parallel_for(0, k, kRowGrain, [&](std::int64_t p0, std::int64_t p1) {
    gemm_at_rows(a, b, c, m, k, n, p0, p1);
  });
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  fault::check_alloc("tensor.matmul");
  TX_CHECK(a.rank() == 2 && b.rank() == 2, "matmul expects 2-D tensors, got [",
           join(a.shape()), "] x [", join(b.shape()), "]");
  const std::int64_t m = a.dim(0), k = a.dim(1), k2 = b.dim(0), n = b.dim(1);
  TX_CHECK(k == k2, "matmul inner dims mismatch: ", k, " vs ", k2);
  std::vector<float> out = alloc::buffer(m * n);
  {
    obs::ScopedTimer span("par.matmul", obs::tracing()
                                            ? gemm_trace_args(1, m, k, n)
                                            : std::string());
    // Roofline model: 2mkn flops; each operand read once, output written once.
    obs::prof::KernelScope prof("matmul", 2 * m * k * n,
                                4 * (m * k + k * n + m * n));
    gemm_dispatch(a.data(), b.data(), out.data(), m, k, n);
  }
  return make_tensor_from_op(
      "matmul", Shape{m, n}, std::move(out), {a, b},
      [a, b, m, k, n](const Tensor& g) {
        // dA = g * B^T, dB = A^T * g; an input that does not require grad
        // gets an undefined gradient and its product never runs.
        const bool need_a = a.requires_grad(), need_b = b.requires_grad();
        Tensor ga = need_a ? zeros(Shape{m, k}) : Tensor();
        Tensor gb = need_b ? zeros(Shape{k, n}) : Tensor();
        obs::ScopedTimer span("par.matmul_bwd", obs::tracing()
                                                    ? gemm_trace_args(1, m, k, n)
                                                    : std::string());
        // Per product that runs: 2mkn flops, g and the other operand read
        // once and the gradient written once.
        const std::int64_t products = int{need_a} + int{need_b};
        obs::prof::KernelScope prof("matmul_bwd", products * 2 * m * k * n,
                                    products * 4 * (m * n + m * k + k * n));
        if (need_a) gemm_bt_dispatch(g.data(), b.data(), ga.data(), m, n, k);
        if (need_b) gemm_at_dispatch(a.data(), g.data(), gb.data(), m, k, n);
        return std::vector<Tensor>{ga, gb};
      });
}

Tensor bmm(const Tensor& a, const Tensor& b) {
  TX_CHECK(a.rank() == 3 && b.rank() == 3, "bmm expects 3-D tensors");
  const std::int64_t batch = a.dim(0), m = a.dim(1), k = a.dim(2);
  TX_CHECK(b.dim(0) == batch && b.dim(1) == k, "bmm shape mismatch: [",
           join(a.shape()), "] x [", join(b.shape()), "]");
  const std::int64_t n = b.dim(2);
  std::vector<float> out = alloc::buffer(batch * m * n);
  {
    obs::ScopedTimer span("par.bmm", obs::tracing()
                                         ? gemm_trace_args(batch, m, k, n)
                                         : std::string());
    obs::prof::KernelScope prof("bmm", 2 * batch * m * k * n,
                                4 * batch * (m * k + k * n + m * n));
    // Batch entries are independent; below the threshold parallel_for
    // collapses to one inline call, the legacy loop.
    const std::int64_t grain =
        batch * m * k * n < kParFlopThreshold ? batch : 1;
    par::parallel_for(0, batch, grain, [&](std::int64_t b0, std::int64_t b1) {
      for (std::int64_t i = b0; i < b1; ++i) {
        simd::gemm_acc(a.data() + i * m * k, k, 1, b.data() + i * k * n,
                       out.data() + i * m * n, m, k, n);
      }
    });
  }
  return make_tensor_from_op(
      "bmm", Shape{batch, m, n}, std::move(out), {a, b},
      [a, b, batch, m, k, n](const Tensor& g) {
        // As in matmul: only the inputs that require grad get a product.
        const bool need_a = a.requires_grad(), need_b = b.requires_grad();
        Tensor ga = need_a ? zeros(Shape{batch, m, k}) : Tensor();
        Tensor gb = need_b ? zeros(Shape{batch, k, n}) : Tensor();
        obs::ScopedTimer span("par.bmm_bwd", obs::tracing()
                                                 ? gemm_trace_args(batch, m, k, n)
                                                 : std::string());
        const std::int64_t products = int{need_a} + int{need_b};
        obs::prof::KernelScope prof(
            "bmm_bwd", products * 2 * batch * m * k * n,
            products * 4 * batch * (m * n + m * k + k * n));
        const std::int64_t grain =
            batch * m * k * n < kParFlopThreshold ? batch : 1;
        par::parallel_for(
            0, batch, grain, [&](std::int64_t b0, std::int64_t b1) {
              for (std::int64_t i = b0; i < b1; ++i) {
                if (need_a) {
                  simd::gemm_bt_acc(g.data() + i * m * n,
                                    b.data() + i * k * n,
                                    ga.data() + i * m * k, m, n, k);
                }
                if (need_b) {
                  gemm_at_rows(a.data() + i * m * k, g.data() + i * m * n,
                               gb.data() + i * k * n, m, k, n, 0, k);
                }
              }
            });
        return std::vector<Tensor>{ga, gb};
      });
}

Tensor linear(const Tensor& x, const Tensor& weight, const Tensor& bias) {
  TX_CHECK(x.rank() >= 1 && weight.rank() == 2,
           "linear expects x rank >= 1 and 2-D weight");
  const std::int64_t in_features = weight.dim(1);
  const std::int64_t out_features = weight.dim(0);
  TX_CHECK(x.dim(-1) == in_features, "linear: x last dim ", x.dim(-1),
           " != in_features ", in_features);
  // Flatten leading dims into a row dimension and use matmul.
  Shape lead(x.shape().begin(), x.shape().end() - 1);
  Tensor x2 = reshape(x, Shape{-1, in_features});
  Tensor out = matmul(x2, transpose(weight, 0, 1));
  if (bias.defined()) {
    TX_CHECK(bias.rank() == 1 && bias.dim(0) == out_features,
             "linear: bias shape mismatch");
    out = add(out, bias);
  }
  Shape out_shape = lead;
  out_shape.push_back(out_features);
  return reshape(out, out_shape);
}

}  // namespace tx
