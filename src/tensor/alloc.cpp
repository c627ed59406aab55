#include "tensor/alloc.h"

#include <atomic>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>

#include "obs/manifest.h"
#include "obs/mem.h"

namespace tx::alloc {

namespace {

constexpr std::int64_t kBytesPerFloat =
    static_cast<std::int64_t>(sizeof(float));

// Per-thread ledger cap; donations beyond it are freed normally.
constexpr std::int64_t kPoolCapBytes = std::int64_t{256} << 20;

bool enabled_from_env() {
  const char* env = std::getenv("TYXE_ARENA");
  if (env == nullptr) return true;
  const std::string v(env);
  return !(v == "off" || v == "0" || v == "false");
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{enabled_from_env()};
  return flag;
}

std::atomic<int> g_step_depth{0};

// Arena state for the tx.manifest.v1 run manifest — whether recycling is on,
// so provenance records the allocator configuration.
const bool g_manifest_provider_registered = [] {
  obs::manifest::register_provider([] {
    obs::manifest::set_field("arena",
                             enabled_flag().load(std::memory_order_relaxed)
                                 ? std::string("on")
                                 : std::string("off"));
  });
  return true;
}();

struct ThreadPool {
  // capacity (floats) -> idle buffers of that capacity.
  std::multimap<std::size_t, std::vector<float>> buckets;
  std::int64_t ledger_bytes = 0;
  Stats stats;

  ~ThreadPool() { release_all(); }

  void release_all() {
    if (ledger_bytes != 0) obs::mem::on_bytes_delta(-ledger_bytes);
    buckets.clear();
    ledger_bytes = 0;
  }

  // Pull a buffer with capacity in [n, 2n]; empty optional-style miss is
  // signalled by a zero-capacity vector alongside `hit == false`.
  bool acquire(std::int64_t n, std::vector<float>& out) {
    const auto want = static_cast<std::size_t>(n);
    auto it = buckets.lower_bound(want);
    if (it == buckets.end() || it->first > 2 * want) return false;
    out = std::move(it->second);
    buckets.erase(it);
    const std::int64_t bytes =
        static_cast<std::int64_t>(out.capacity()) * kBytesPerFloat;
    ledger_bytes -= bytes;
    return true;
  }
};

ThreadPool& pool() {
  thread_local ThreadPool tp;
  return tp;
}

thread_local std::int64_t t_credit_bytes = 0;

}  // namespace

StepScope::StepScope() {
  g_step_depth.fetch_add(1, std::memory_order_relaxed);
}

StepScope::~StepScope() {
  const int prev = g_step_depth.fetch_sub(1, std::memory_order_relaxed);
  if (prev == 1 && t_credit_bytes != 0) {
    // A buffer was acquired but never adopted by a tensor (error path):
    // its bytes left the ledger and then died unobserved. Settle the books.
    obs::mem::on_bytes_delta(-t_credit_bytes);
    t_credit_bytes = 0;
  }
}

bool active() {
  return enabled_flag().load(std::memory_order_relaxed) &&
         g_step_depth.load(std::memory_order_relaxed) > 0;
}

void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

std::vector<float> buffer_uninit(std::int64_t n) {
  if (n <= 0) return {};
  if (active() && n * kBytesPerFloat <= kMaxPooledBytes) {
    ThreadPool& tp = pool();
    std::vector<float> v;
    if (tp.acquire(n, v)) {
      ++tp.stats.hits;
      t_credit_bytes +=
          static_cast<std::int64_t>(v.capacity()) * kBytesPerFloat;
      v.resize(static_cast<std::size_t>(n));
      return v;
    }
    ++tp.stats.misses;
  }
  return std::vector<float>(static_cast<std::size_t>(n));
}

std::vector<float> buffer(std::int64_t n) {
  if (n <= 0) return {};
  if (active() && n * kBytesPerFloat <= kMaxPooledBytes) {
    ThreadPool& tp = pool();
    std::vector<float> v;
    if (tp.acquire(n, v)) {
      ++tp.stats.hits;
      t_credit_bytes +=
          static_cast<std::int64_t>(v.capacity()) * kBytesPerFloat;
      v.assign(static_cast<std::size_t>(n), 0.0f);
      return v;
    }
    ++tp.stats.misses;
  }
  return std::vector<float>(static_cast<std::size_t>(n));
}

std::int64_t donate(std::vector<float>& v) {
  const std::int64_t bytes =
      static_cast<std::int64_t>(v.capacity()) * kBytesPerFloat;
  if (bytes == 0) return 0;
  if (!active() || bytes > kMaxPooledBytes) return 0;
  ThreadPool& tp = pool();
  if (tp.ledger_bytes + bytes > kPoolCapBytes) {
    ++tp.stats.rejected;
    return 0;
  }
  const auto cap = v.capacity();
  tp.buckets.emplace(cap, std::move(v));
  v = std::vector<float>();
  tp.ledger_bytes += bytes;
  ++tp.stats.donated;
  return bytes;
}

std::int64_t consume_credit(std::int64_t want) {
  if (want <= 0 || t_credit_bytes <= 0) return 0;
  const std::int64_t used = want < t_credit_bytes ? want : t_credit_bytes;
  t_credit_bytes -= used;
  return used;
}

void trim_thread_pool() { pool().release_all(); }

Stats thread_stats() {
  ThreadPool& tp = pool();
  Stats s = tp.stats;
  s.pooled_bytes = tp.ledger_bytes;
  s.pooled_buffers = static_cast<std::int64_t>(tp.buckets.size());
  return s;
}

void reset_thread_stats() { pool().stats = Stats{}; }

}  // namespace tx::alloc
