#include "par/pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>

#include "obs/event_sink.h"
#include "obs/manifest.h"
#include "obs/registry.h"
#include "obs/shard.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "resil/fault.h"
#include "resil/guard.h"
#include "util/common.h"

namespace tx::par {

namespace {

thread_local bool t_in_worker = false;

// Pool width for the tx.manifest.v1 run manifest: timing comparisons across
// different thread counts are apples-to-oranges, so provenance records it.
const bool g_manifest_provider_registered = [] {
  obs::manifest::register_provider([] {
    obs::manifest::set_field("threads",
                             static_cast<std::int64_t>(num_threads()));
  });
  return true;
}();

// Propagate the submitter's span path into pool workers: a ScopedTimer
// opened inside a worker-side chunk then nests under the caller's path
// (e.g. "svi.step/elbo.model/par.matmul/par.chunk") instead of starting a
// fresh root, keeping span histograms and trace slices attributed.
const bool g_span_capture_registered = [] {
  register_context_capture([]() -> ContextInstaller {
    std::string path = obs::current_span_path();
    return [path]() -> std::function<void()> {
      std::string prev = obs::detail::set_span_base(path);
      return [prev]() mutable { obs::detail::set_span_base(std::move(prev)); };
    };
  });
  return true;
}();

// Propagate the submitter's guard budget into pool workers, so a deadline
// installed around a fit or predict is polled inside every parallel chunk
// of that work, whichever thread claims it.
const bool g_guard_capture_registered = [] {
  register_context_capture([]() -> ContextInstaller {
    guard::Budget* budget = guard::current();
    return [budget]() -> std::function<void()> {
      guard::Budget* prev = guard::detail::install(budget);
      return [prev] { guard::detail::install(prev); };
    };
  });
  return true;
}();

/// Registered thread-local context propagators (Meyer singleton so
/// registration from other TUs' static initializers is order-safe).
struct CaptureRegistry {
  std::mutex mu;
  std::vector<ContextCapture> captures;
};

CaptureRegistry& capture_registry() {
  static CaptureRegistry reg;
  return reg;
}

std::vector<ContextInstaller> capture_all() {
  CaptureRegistry& reg = capture_registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<ContextInstaller> installers;
  installers.reserve(reg.captures.size());
  for (const auto& capture : reg.captures) installers.push_back(capture());
  return installers;
}

/// One submitted parallel job: a chunk counter workers race on plus the
/// caller's captured context. Completion is tracked per chunk so the caller
/// can block until every body invocation finished.
struct Job {
  std::int64_t chunks = 0;
  std::function<void(std::int64_t, std::int64_t)> body;  // chunk bounds
  std::vector<ContextInstaller> installers;

  std::atomic<std::int64_t> next{0};
  std::atomic<std::int64_t> completed{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex mu;
  std::condition_variable done_cv;

  /// Claim and run chunks until none remain (or a chunk failed).
  void drain(std::int64_t range) {
    while (true) {
      const std::int64_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      if (!failed.load(std::memory_order_acquire)) {
        try {
          // Cooperative cancellation point: a hard-cancelled budget stops
          // claiming work here; the Cancelled exception rides the existing
          // failure path to the submitting caller.
          guard::check("par.chunk");
          const auto [b, e] = chunk_bounds(range, chunks, c);
          obs::TraceSpan chunk_span(
              "par.chunk", obs::tracing() ? obs::Event()
                                                .set("chunk", c)
                                                .set("begin", b)
                                                .set("end", e)
                                                .to_json()
                                          : std::string());
          body(b, e);
          // Merge this thread's obs shards before completion is counted:
          // once the caller wakes from wait() the aggregates must be final.
          obs::flush_thread_shards();
        } catch (...) {
          bool expected = false;
          if (failed.compare_exchange_strong(expected, true,
                                             std::memory_order_acq_rel)) {
            std::lock_guard<std::mutex> lock(mu);
            error = std::current_exception();
          }
        }
      }
      if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
        std::lock_guard<std::mutex> lock(mu);
        done_cv.notify_all();
      }
    }
  }

  void wait(std::int64_t) {
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [&] {
      return completed.load(std::memory_order_acquire) == chunks;
    });
  }
};

class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  int threads() {
    std::lock_guard<std::mutex> lock(config_mu_);
    return configured_;
  }

  void set_threads(int n) {
    TX_CHECK(n >= 1, "set_num_threads: need n >= 1, got ", n);
    TX_CHECK(!t_in_worker, "set_num_threads: cannot resize from a pool task");
    std::lock_guard<std::mutex> lock(config_mu_);
    if (n == configured_) return;
    stop_workers();
    configured_ = n;
    // Workers restart lazily on the next parallel job.
  }

  /// Run `job` on up to `threads()` threads; the caller participates.
  void execute(const std::shared_ptr<Job>& job, std::int64_t range) {
    {
      std::lock_guard<std::mutex> lock(config_mu_);
      start_workers_locked();
      std::lock_guard<std::mutex> qlock(queue_mu_);
      // One helper entry per worker that could usefully claim a chunk.
      const std::int64_t helpers =
          std::min<std::int64_t>(static_cast<std::int64_t>(workers_.size()),
                                 job->chunks - 1);
      for (std::int64_t i = 0; i < helpers; ++i) queue_.emplace_back(job, range);
      if (obs::enabled()) {
        obs::registry().gauge("par.queue_depth").set(
            static_cast<double>(queue_.size()));
      }
      queue_cv_.notify_all();
    }
    job->drain(range);
    job->wait(range);
    if (job->error) std::rethrow_exception(job->error);
  }

  ~ThreadPool() {
    std::lock_guard<std::mutex> lock(config_mu_);
    stop_workers();
  }

 private:
  ThreadPool() : configured_(default_num_threads()) {}

  void start_workers_locked() {
    const int wanted = configured_ - 1;
    if (static_cast<int>(workers_.size()) == wanted) return;
    stop_workers();
    stopping_ = false;
    for (int i = 0; i < wanted; ++i) {
      workers_.emplace_back([this, i] {
        obs::set_trace_thread_name("par-worker-" + std::to_string(i + 1));
        worker_loop();
      });
    }
  }

  void stop_workers() {
    {
      std::lock_guard<std::mutex> qlock(queue_mu_);
      stopping_ = true;
      queue_.clear();  // callers drain their own chunks; helpers are optional
      queue_cv_.notify_all();
    }
    for (auto& w : workers_) w.join();
    workers_.clear();
  }

  void worker_loop() {
    t_in_worker = true;
    while (true) {
      std::shared_ptr<Job> job;
      std::int64_t range = 0;
      {
        std::unique_lock<std::mutex> lock(queue_mu_);
        queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
        if (stopping_) return;
        job = std::move(queue_.front().job);
        range = queue_.front().range;
        queue_.pop_front();
      }
      // Install the caller's thread-local context, run, restore in reverse.
      std::vector<std::function<void()>> restores;
      restores.reserve(job->installers.size());
      for (const auto& install : job->installers) restores.push_back(install());
      fault::check_stall("par.worker");
      job->drain(range);
      for (auto it = restores.rbegin(); it != restores.rend(); ++it) (*it)();
    }
  }

  struct QueueEntry {
    std::shared_ptr<Job> job;
    std::int64_t range = 0;
    QueueEntry(std::shared_ptr<Job> j, std::int64_t r)
        : job(std::move(j)), range(r) {}
  };

  std::mutex config_mu_;  // guards configured_ / workers_ lifecycle
  int configured_;
  std::vector<std::thread> workers_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<QueueEntry> queue_;
  bool stopping_ = false;
};

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

}  // namespace

int default_num_threads() {
  if (const char* env = std::getenv("TYXE_NUM_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 1024) {
      return static_cast<int>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int num_threads() { return ThreadPool::instance().threads(); }

void set_num_threads(int n) { ThreadPool::instance().set_threads(n); }

bool in_worker() { return t_in_worker; }

std::int64_t chunk_count(std::int64_t range, std::int64_t grain,
                         int nthreads) {
  if (range <= 0) return 0;
  grain = std::max<std::int64_t>(grain, 1);
  const std::int64_t by_grain = ceil_div(range, grain);
  const std::int64_t cap = static_cast<std::int64_t>(nthreads) * 4;
  return std::max<std::int64_t>(1, std::min(by_grain, cap));
}

std::pair<std::int64_t, std::int64_t> chunk_bounds(std::int64_t range,
                                                   std::int64_t chunks,
                                                   std::int64_t index) {
  const std::int64_t size = ceil_div(range, chunks);
  const std::int64_t b = index * size;
  return {std::min(b, range), std::min(b + size, range)};
}

void register_context_capture(ContextCapture capture) {
  TX_CHECK(capture != nullptr, "register_context_capture: null capture");
  CaptureRegistry& reg = capture_registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.captures.push_back(std::move(capture));
}

void parallel_for(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  const std::int64_t range = end - begin;
  if (range <= 0) return;
  const int nthreads = t_in_worker ? 1 : num_threads();
  const std::int64_t chunks = chunk_count(range, grain, nthreads);
  if (nthreads == 1 || chunks == 1) {
    // Exact legacy path: one inline call over the whole range. Same
    // cancellation point as the pooled path so hard cancels behave
    // identically at every thread count.
    guard::check("par.chunk");
    body(begin, end);
    return;
  }
  if (obs::enabled()) {
    auto& reg = obs::registry();
    reg.counter("par.jobs").add(1);
    reg.counter("par.chunks").add(chunks);
    reg.gauge("par.threads").set(static_cast<double>(nthreads));
  }
  auto job = std::make_shared<Job>();
  job->chunks = chunks;
  job->installers = capture_all();
  job->body = [begin, &body](std::int64_t b, std::int64_t e) {
    body(begin + b, begin + e);
  };
  ThreadPool::instance().execute(job, range);
}

double parallel_reduce(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<double(std::int64_t, std::int64_t)>& chunk_fn) {
  const std::int64_t range = end - begin;
  if (range <= 0) return 0.0;
  grain = std::max<std::int64_t>(grain, 1);
  // Chunking depends on grain only, so the partial tree — and therefore the
  // rounding — is identical for every thread count.
  const std::int64_t chunks = ceil_div(range, grain);
  std::vector<double> partials(static_cast<std::size_t>(chunks), 0.0);
  parallel_for(0, chunks, 1, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t c = c0; c < c1; ++c) {
      const std::int64_t b = begin + c * grain;
      const std::int64_t e = std::min(b + grain, end);
      partials[static_cast<std::size_t>(c)] = chunk_fn(b, e);
    }
  });
  double total = 0.0;
  for (const double p : partials) total += p;
  return total;
}

void run_tasks(const std::vector<std::function<void()>>& tasks) {
  if (tasks.empty()) return;
  if (obs::enabled()) {
    obs::registry().counter("par.tasks").add(
        static_cast<std::int64_t>(tasks.size()));
  }
  parallel_for(0, static_cast<std::int64_t>(tasks.size()), 1,
               [&](std::int64_t b, std::int64_t e) {
                 for (std::int64_t i = b; i < e; ++i) {
                   tasks[static_cast<std::size_t>(i)]();
                 }
               });
}

}  // namespace tx::par
