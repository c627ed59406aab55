// Process-wide tensor memory accounting.
//
// tx::Tensor storage (TensorImpl data + grad buffers) reports its lifecycle
// here: creation/destruction bumps the live-tensor count, and every material
// buffer resize reports a byte delta. The module keeps live bytes, a
// monotone high-water mark, and cumulative allocation totals, all as relaxed
// atomics — a handful of uncontended atomic ops per tensor, cheap enough to
// stay on unconditionally.
//
// The tracer (obs/trace.h) surfaces live_bytes as a Chrome-trace counter
// track, ScopedTimer attributes per-span net allocation, and
// EventSink::write_snapshot publishes the gauges into every tx.obs.v1
// snapshot. See docs/observability.md ("Memory accounting").
#pragma once

#include <cstdint>

namespace tx::obs {
class MetricsRegistry;
}  // namespace tx::obs

namespace tx::obs::mem {

/// A tensor storage object came into / went out of existence.
void on_tensor_create();
void on_tensor_destroy();

/// Live buffer bytes changed by `delta` (negative on shrink/free). Positive
/// deltas also feed the high-water mark and the cumulative allocation total.
void on_bytes_delta(std::int64_t delta);

/// Currently live tensor storage objects.
std::int64_t live_tensors();
/// Currently live buffer bytes across all tensors.
std::int64_t live_bytes();
/// High-water mark of live_bytes since process start (or last reset_peak).
std::int64_t peak_bytes();
/// Cumulative bytes ever allocated (sum of positive deltas).
std::int64_t total_allocated_bytes();

/// Reset the high-water mark to the current live_bytes — lets a caller
/// measure the peak footprint of one region (e.g. one HMC trajectory).
void reset_peak();

/// Mirror the current accounting into `reg` as gauges ("mem.live_tensors",
/// "mem.live_bytes", "mem.peak_bytes", "mem.total_allocated_bytes").
/// write_snapshot calls this so every tx.obs.v1 snapshot carries them.
void publish(MetricsRegistry& reg);

}  // namespace tx::obs::mem
