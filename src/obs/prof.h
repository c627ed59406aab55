// Kernel roofline profiling and allocator-churn attribution.
//
// Two measurement streams, both off by default (one relaxed atomic load per
// hook while disabled):
//
//  * Kernels: every traced kernel slice (matmul/bmm/conv2d forward+backward,
//    fanned-out elementwise/unary/reduce chains) reports its closed-form FLOP
//    count and a minimal-traffic bytes-moved model (each operand read once,
//    each output written once) plus measured wall time. Aggregated per
//    kernel into calls / flops / bytes / seconds, from which the snapshot
//    derives achieved GFLOP/s, GB/s, and arithmetic intensity (flops/byte) —
//    a software roofline that says which kernels are memory- vs
//    compute-bound before anyone writes a line of SIMD.
//  * Churn: every positive tensor-buffer byte delta (TensorImpl::account on
//    data/grad (re)allocation) is attributed to the innermost open span path
//    (obs/timer.h), with an alloc count, byte total, and a power-of-two-ish
//    size-class histogram per path. The ranked table turns the
//    allocated-vs-peak churn ratio into named offenders.
//
// Churn updates land in a per-thread shard (obs/shard.h), so aggregates are
// complete once a parallel region returns and — because merging is integer
// addition — bitwise-identical at every TYXE_NUM_THREADS.
//
// The whole layer serializes as a "prof" section (schema tx.prof.v1) inside
// the tx.obs.v1 BENCH snapshot; scripts/bench_diff.py compares two snapshots
// and CI gates on FLOP/byte drift. See docs/observability.md ("Performance
// profiling").
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "obs/timer.h"

namespace tx::obs {
class MetricsRegistry;
}  // namespace tx::obs

namespace tx::obs::prof {

/// Upper bounds (bytes) of the churn size-class histogram; the final class
/// is the overflow (> 64 MiB). Geometric, factor 16.
inline constexpr std::array<std::int64_t, 6> kSizeClassBounds = {
    64, 1024, 16384, 262144, 4194304, 67108864};
inline constexpr std::size_t kNumSizeClasses = kSizeClassBounds.size() + 1;

/// Aggregate of one named kernel (see kernel_table()).
struct KernelStats {
  std::int64_t calls = 0;
  std::int64_t flops = 0;
  std::int64_t bytes = 0;
  double seconds = 0.0;
};

/// Aggregate churn of one span path (see churn_table()).
struct SpanChurn {
  std::int64_t allocs = 0;
  std::int64_t bytes = 0;
  std::array<std::int64_t, kNumSizeClasses> size_classes{};

  bool operator==(const SpanChurn& o) const {
    return allocs == o.allocs && bytes == o.bytes &&
           size_classes == o.size_classes;
  }
};

/// Master switch. Defaults to off; while off every hook below is one relaxed
/// atomic load and an early return. Enabling records the current
/// obs::mem::total_allocated_bytes() as the churn coverage baseline.
bool enabled();
void set_enabled(bool on);

/// Drop all kernel aggregates, churn tables, and counters (benches and tests
/// call this between phases; do not call while a parallel region is live).
void reset();

/// True once anything was recorded (or profiling is currently enabled) —
/// gates whether write_snapshot emits a "prof" section at all.
bool has_data();

// ---- kernel stream ---------------------------------------------------------

/// Accumulate one kernel invocation. Normally via KernelScope.
void on_kernel(const char* kernel, std::int64_t flops, std::int64_t bytes,
               double seconds);

/// RAII kernel slice: times the enclosed scope and accumulates into the
/// named kernel's aggregate on destruction. One relaxed load when disabled.
class KernelScope {
 public:
  KernelScope(const char* kernel, std::int64_t flops, std::int64_t bytes)
      : armed_(enabled()), kernel_(kernel), flops_(flops), bytes_(bytes) {
    if (armed_) start_ = now_seconds();
  }
  ~KernelScope() {
    if (armed_) on_kernel(kernel_, flops_, bytes_, now_seconds() - start_);
  }
  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

 private:
  bool armed_;
  const char* kernel_;
  std::int64_t flops_;
  std::int64_t bytes_;
  double start_ = 0.0;
};

// ---- churn stream ----------------------------------------------------------

/// A tensor buffer grew by `bytes` (> 0). Attributed to the calling thread's
/// innermost open span path ("(root)" when none). Called from
/// TensorImpl::account().
void on_alloc(std::int64_t bytes);

/// An optimization step finished (SVI::step). Divides churn into
/// bytes-allocated-per-step in the snapshot.
void on_step();

/// Merge this thread's churn shard into the global table (obs/shard.h).
void flush_thread_cache();

// ---- aggregates ------------------------------------------------------------

std::int64_t steps();
/// Per-kernel aggregates (flushes nothing; kernels are recorded globally).
std::map<std::string, KernelStats> kernel_table();
/// Per-span churn (flushes the calling thread's shard first).
std::map<std::string, SpanChurn> churn_table();
/// Sum of churn_table() bytes.
std::int64_t attributed_bytes();
/// obs::mem::total_allocated_bytes() growth since profiling was enabled —
/// the denominator of churn coverage.
std::int64_t window_allocated_bytes();

/// The "prof" snapshot section (schema tx.prof.v1) as a pre-rendered JSON
/// object, or "" when has_data() is false. `indent` is the prefix of nested
/// lines when embedding into a larger document.
std::string section_json(const std::string& indent = "  ");

/// Mirror headline aggregates into `reg` as gauges ("prof.kernels",
/// "prof.kernel_flops", "prof.attributed_bytes", "prof.steps").
/// write_snapshot calls this when has_data().
void publish(MetricsRegistry& reg);

}  // namespace tx::obs::prof
