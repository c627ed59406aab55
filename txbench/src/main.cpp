// tyxe-cpp benchmark: one closed-loop workload per process, driven through
// the library's public fit/predict interface. See ../README.md for the
// workloads, the metrics and how each per-layer metric maps to an
// end-to-end one.
//
//   txbench --workload <fig1_regression|resnet_svi|mlp_serve>
//           --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 they are the per-layer ones, measured by spans the
// benchmark records around calls into the library and by probes run after
// the loop. Exit code 1 when any correctness check failed.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "benchlib.h"
#include "core/tyxe.h"
#include "data/datasets.h"
#include "nn/functional.h"
#include "obs/prof.h"
#include "obs/registry.h"
#include "par/pool.h"
#include "tensor/alloc.h"

namespace {

using Clock = std::chrono::steady_clock;
using tx::Tensor;
using txbench::median;
using txbench::percentile;

std::int64_t now_ns() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

// ---------------------------------------------------------------------------
// Spans, recorded only from this file around calls into the library. Kept in
// memory and written out at exit. Only the main thread records.

class Tracer {
 public:
  void set_on(bool on) { on_ = on; }
  bool on() const { return on_; }
  void next_op() { ++op_; }

  int open(const char* name) {
    if (!on_ || std::this_thread::get_id() != owner_) return -1;
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back(
        {name, now_ns(), 0, stack_.empty() ? -1 : stack_.back(), op_});
    stack_.push_back(idx);
    return idx;
  }
  void close(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }
  const std::vector<txbench::Span>& spans() const { return spans_; }

 private:
  bool on_ = false;
  std::int64_t op_ = 0;
  std::vector<txbench::Span> spans_;
  std::vector<int> stack_;
  std::thread::id owner_ = std::this_thread::get_id();
};

Tracer& tracer() {
  static Tracer t;
  return t;
}

class SpanScope {
 public:
  explicit SpanScope(const char* name) : idx_(tracer().open(name)) {}
  ~SpanScope() { tracer().close(idx_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int idx_;
};

// ELBO, optimizer and HMC kernel subclasses that add spans around the
// library's own implementation and change nothing else.
class TimedELBO : public tx::infer::TraceELBO {
 public:
  Tensor differentiable_loss(const tx::infer::Program& model,
                             const tx::infer::Program& guide) override {
    if (!tracer().on()) return TraceELBO::differentiable_loss(model, guide);
    SpanScope span("infer.elbo");
    return TraceELBO::differentiable_loss(
        [&] {
          SpanScope s("core.model");
          model();
        },
        [&] {
          SpanScope s("core.guide");
          guide();
        });
  }
};

class TimedAdam : public tx::infer::Adam {
 public:
  using Adam::Adam;
  void step() override {
    SpanScope span("infer.optim");
    Adam::step();
  }
};

class TimedHMC : public tx::infer::HMC {
 public:
  using HMC::HMC;
  void setup(tx::infer::Program model, tx::Generator* gen) override {
    HMC::setup(
        [model = std::move(model)] {
          SpanScope s("core.model");
          model();
        },
        gen);
  }
  std::vector<double> step(const std::vector<double>& q, bool warmup) override {
    last_ = HMC::step(q, warmup);
    return last_;
  }
  const std::vector<double>& last() const { return last_; }

 private:
  std::vector<double> last_;
};

// Times every nn::functional linear/conv2d call. It must be the newest
// interceptor: it takes itself off the stack, lets the remaining stack (for
// example local reparameterization) compute the op exactly as it would
// have, and puts itself back. Popping and re-pushing the top element keeps
// the stack's storage in place, so the dispatcher's iterator stays valid.
class TimingInterceptor : public tx::nn::functional::LinearOpInterceptor {
 public:
  TimingInterceptor() { tx::nn::functional::push_interceptor(this); }
  ~TimingInterceptor() override { tx::nn::functional::pop_interceptor(this); }
  TimingInterceptor(const TimingInterceptor&) = delete;
  TimingInterceptor& operator=(const TimingInterceptor&) = delete;

  Tensor linear(const Tensor& x, const Tensor& w, const Tensor& b) override {
    SpanScope span("nn.linear");
    Aside aside(this);
    return tx::nn::functional::linear(x, w, b);
  }
  Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b,
                std::int64_t stride, std::int64_t padding) override {
    SpanScope span("nn.conv2d");
    Aside aside(this);
    return tx::nn::functional::conv2d(x, w, b, stride, padding);
  }

 private:
  struct Aside {
    explicit Aside(TimingInterceptor* self) : self_(self) {
      tx::nn::functional::pop_interceptor(self_);
    }
    ~Aside() { tx::nn::functional::push_interceptor(self_); }
    Aside(const Aside&) = delete;
    Aside& operator=(const Aside&) = delete;
    TimingInterceptor* self_;
  };
};

// Counts sample sites and handler dispatches: installed outermost, it sees
// every site once, when the whole stack (handler_depth() messengers) has
// processed it.
class CountingMessenger : public tx::ppl::Messenger {
 public:
  void process_message(tx::ppl::SampleMsg&) override {
    ++sites;
    messages += static_cast<std::int64_t>(tx::ppl::handler_depth());
  }
  std::int64_t sites = 0;
  std::int64_t messages = 0;
};

// ---------------------------------------------------------------------------
// Host readings, recorded next to every run and never used to filter runs.

txbench::CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::stringstream ss;
  ss << in.rdbuf();
  return txbench::parse_proc_stat(ss.str());
}

double load1() {
  std::ifstream in("/proc/loadavg");
  double v = 0.0;
  in >> v;
  return v;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Host calibration. On a shared host the speed of this process swings by up
// to ~2x over minutes with the neighbours' load, far more than any change
// worth measuring. So a fixed kernel compiled from this file runs before
// each timed op (at most every 50 ms) and before each set-up: eight 64x64 float
// matmuls (vector arithmetic) and a burst of small heap allocations
// (allocator and cache traffic). Its time against the reference times below,
// as the median of the last three runs, is the host factor, and every op is
// also reported divided by it: as it would read on a host where the kernel
// takes the reference times. Library changes cannot move the kernel; the
// host's state moves both. Raw times are printed next to the calibrated
// ones.

class Calibration {
 public:
  // Kernel times on this 4-core VM when its neighbours were quiet.
  static constexpr double kMatmulRefMs = 0.24;
  static constexpr double kAllocRefMs = 0.34;

  Calibration() : a_(kN * kN), b_(kN * kN), c_(kN * kN) {
    for (std::size_t i = 0; i < a_.size(); ++i) {
      a_[i] = static_cast<float>(i % 7) * 0.25f;
      b_[i] = static_cast<float>(i % 5) * 0.5f;
    }
  }

  /// Runs the kernel if `force` or 50 ms have passed since it last ran.
  void measure(bool force = false) {
    if (!force && elapsed_s(last_) < 0.05) return;
    auto t0 = Clock::now();
    for (int rep = 0; rep < 8; ++rep) matmul();
    const double mm_ms = 1e3 * elapsed_s(t0);
    t0 = Clock::now();
    allocations();
    const double alloc_ms = 1e3 * elapsed_s(t0);
    recent_[next_++ % recent_.size()] =
        0.5 * (mm_ms / kMatmulRefMs + alloc_ms / kAllocRefMs);
    last_ = Clock::now();
  }

  /// Host slowness, 1 on the reference host: the median of the last three
  /// kernel runs.
  double factor() const {
    std::vector<double> v(recent_.begin(),
                          recent_.begin() + std::min<std::size_t>(next_, 3));
    return v.empty() ? 1.0 : median(v);
  }

 private:
  static constexpr std::size_t kN = 64;

  void matmul() {
    std::fill(c_.begin(), c_.end(), 0.0f);
    for (std::size_t i = 0; i < kN; ++i) {
      for (std::size_t k = 0; k < kN; ++k) {
        const float aik = a_[i * kN + k];
        for (std::size_t j = 0; j < kN; ++j) c_[i * kN + j] += aik * b_[k * kN + j];
      }
    }
    sink_ = sink_ + c_[kN + 1];
  }

  void allocations() {
    std::vector<std::unique_ptr<std::vector<float>>> live(64);
    for (std::size_t i = 0; i < 1000; ++i) {
      auto v = std::make_unique<std::vector<float>>(16 + (i * 37) % 1500);
      (*v)[0] = static_cast<float>(i);
      sink_ = sink_ + (*v)[0];
      live[i % live.size()] = std::move(v);
    }
  }

  std::vector<float> a_, b_, c_;
  volatile float sink_ = 0.0f;
  std::array<double, 3> recent_{};
  std::size_t next_ = 0;
  Clock::time_point last_ = Clock::now();
};

Calibration& calibration() {
  static Calibration c;
  return c;
}

// One timed call: wall time and calibrated time, both in milliseconds.
struct Lap {
  double raw_ms = 0.0;
  double cal_ms = 0.0;
};

template <typename F>
Lap timed(F&& f) {
  calibration().measure();
  const auto t0 = Clock::now();
  f();
  const double ms = 1e3 * elapsed_s(t0);
  return {ms, ms / calibration().factor()};
}

// ---------------------------------------------------------------------------
// Models.

std::shared_ptr<tyxe::IIDPrior> std_normal_prior(tyxe::HideExpose f = {}) {
  return std::make_shared<tyxe::IIDPrior>(
      std::make_shared<tx::dist::Normal>(0.0f, 1.0f), std::move(f));
}

constexpr int kHmcLeapfrogs = 30;

// The Fig. 1 HMC: MLP 1-50-1 tanh on the Foong data, HMC(5e-4, 30 steps).
// The kernel factory holds `this`, so the object stays where it was built.
struct Fig1Hmc {
  tx::Generator gen;
  std::shared_ptr<TimedHMC> kernel;
  std::unique_ptr<tyxe::MCMC_BNN> bnn;
  std::vector<double> q;
  std::vector<double> accepts;

  Fig1Hmc(const tx::data::RegressionData& data, std::uint64_t seed)
      : gen(seed + 11) {
    auto net = tx::nn::make_mlp({1, 50, 1}, "tanh", &gen);
    auto lik = std::make_shared<tyxe::HomoskedasticGaussian>(
        data.x.shape()[0], 0.1f);
    bnn = std::make_unique<tyxe::MCMC_BNN>(net, std_normal_prior(), lik,
                                           [this] {
                                             kernel = std::make_shared<TimedHMC>(
                                                 5e-4, kHmcLeapfrogs);
                                             return kernel;
                                           });
    // Warm-up adapts the step size; the loop continues the chain from here.
    bnn->fit({data.x}, data.y, /*num_samples=*/1, /*warmup=*/30, &gen);
    q = kernel->last();
  }
  Fig1Hmc(const Fig1Hmc&) = delete;
  Fig1Hmc& operator=(const Fig1Hmc&) = delete;

  /// One sampling transition; returns false on a non-finite position.
  bool transition() {
    q = kernel->step(q, /*warmup=*/false);
    accepts.push_back(kernel->last_accept_prob());
    for (const double v : q) {
      if (!std::isfinite(v)) return false;
    }
    return true;
  }
};

// Everything one workload needs after set-up. The step callback holds the
// Model's address, so it stays where it was built.
struct Model {
  Model() = default;
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  std::unique_ptr<tx::Generator> gen;
  std::shared_ptr<tyxe::VariationalBNN> bnn;
  std::shared_ptr<TimedAdam> optim;
  bool local_reparam = false;
  bool categorical = false;
  // Training ops walk `train` cyclically, `block_batches` batches at a
  // time, each block doing `block_epochs` passes over its batches.
  std::vector<tyxe::Batch> train;
  std::size_t block_batches = 1;
  int block_epochs = 1;
  bool online_updates = false;         // mlp_serve: each op is one update
  std::vector<Tensor> requests;        // predict inputs, cycled
  Tensor test_x, test_y;               // accuracy after set-up
  std::function<tx::nn::ModulePtr(tx::Generator*)> make_net;
  std::unique_ptr<Fig1Hmc> hmc;        // fig1_regression only
  std::vector<double> losses;          // every SVI step, in order
};

void attach(Model& m, tx::nn::ModulePtr net, tyxe::LikelihoodPtr lik,
            tyxe::HideExpose filter,
            tyxe::guides::GuideFactory guide, double lr) {
  m.bnn = std::make_shared<tyxe::VariationalBNN>(
      std::move(net), std_normal_prior(std::move(filter)), std::move(lik),
      std::move(guide));
  m.bnn->set_elbo(std::make_shared<TimedELBO>());
  m.bnn->set_generator(m.gen.get());
  Model* mp = &m;
  m.bnn->set_step_callback(
      [mp](const tx::infer::SVIStepInfo& s) { mp->losses.push_back(s.loss); });
  m.optim = std::make_shared<TimedAdam>(lr);
}

tx::data::RegressionData fig1_data(std::uint64_t seed) {
  tx::Generator g(seed);
  return tx::data::make_foong_regression(64, g);
}

std::unique_ptr<Model> build_fig1(std::uint64_t seed) {
  auto m = std::make_unique<Model>();
  m->gen = std::make_unique<tx::Generator>(seed + 1);
  const auto data = fig1_data(seed);
  m->make_net = [](tx::Generator* g) {
    return tx::nn::make_mlp({1, 50, 1}, "tanh", g);
  };
  attach(*m, m->make_net(m->gen.get()),
         std::make_shared<tyxe::HomoskedasticGaussian>(64, 0.1f), {},
         tyxe::guides::auto_normal_factory(), 1e-2);
  m->local_reparam = true;
  m->train = {{{data.x}, data.y}};
  m->block_epochs = 50;
  m->requests = {tx::linspace(-1.5f, 1.5f, 41).reshape({41, 1})};
  {
    // The first step initializes the guide lazily; it belongs to set-up.
    tyxe::poutine::LocalReparameterization lr;
    m->bnn->fit(m->train, m->optim, 1);
  }
  m->hmc = std::make_unique<Fig1Hmc>(data, seed);
  return m;
}

tx::data::ImageDataset images(std::int64_t channels, std::int64_t size,
                              std::int64_t per_class, float noise,
                              tx::Generator& g) {
  tx::data::SyntheticImageConfig c;
  c.channels = channels;
  c.size = size;
  c.per_class = per_class;
  c.noise = noise;
  return tx::data::make_pattern_images(c, g);
}

std::vector<tyxe::Batch> batches_of(const tx::data::ImageDataset& d,
                                    std::int64_t batch, tx::Generator& g) {
  tx::data::DataLoader loader(d.images, d.labels, batch);
  return loader.batches(&g);
}

Tensor cross_entropy(const Tensor& logits, const Tensor& labels) {
  return tx::neg(
      tx::mean(tx::gather_last(tx::log_softmax(logits, -1), labels)));
}

std::unique_ptr<Model> build_resnet(std::uint64_t seed) {
  auto m = std::make_unique<Model>();
  m->gen = std::make_unique<tx::Generator>(seed + 1);
  tx::Generator& g = *m->gen;
  const auto train = images(3, 16, 32, 0.5f, g);  // 320 = 5 batches of 64
  const auto test = images(3, 16, 8, 0.5f, g);    // 80; predicts use 64
  m->make_net = [](tx::Generator* gen) -> tx::nn::ModulePtr {
    return tx::nn::make_resnet8(10, 8, 3, gen);
  };
  // Table 1 recipe: maximum-likelihood pre-training, then mean-field VI
  // from the pre-trained means with clipped scales and BatchNorm hidden.
  auto net = tx::nn::make_resnet8(10, 8, 3, &g);
  m->train = batches_of(train, 64, g);
  {
    tx::infer::Adam ml(1e-2);
    for (auto& slot : net->named_parameter_slots()) ml.add_param(*slot.slot);
    net->train();
    for (int epoch = 0; epoch < 2; ++epoch) {
      for (const auto& [inputs, targets] : m->train) {
        ml.zero_grad();
        cross_entropy(net->forward(inputs[0]), targets).backward();
        ml.step();
      }
    }
    // Re-estimate the BatchNorm running statistics at the final weights, so
    // eval-mode predictions reflect the short pre-training.
    tx::NoGradGuard ng;
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& batch : m->train) net->forward(batch.first[0]);
    }
  }
  tyxe::guides::AutoNormalConfig cfg;
  cfg.init_loc = tyxe::guides::init_to_value(
      tyxe::guides::pretrained_dict(*net));
  cfg.init_scale = 1e-4f;
  cfg.max_scale = 0.1f;
  tyxe::HideExpose hide_bn;
  hide_bn.hide_module_types = {"BatchNorm2d"};
  attach(*m, net, std::make_shared<tyxe::Categorical>(320), hide_bn,
         tyxe::guides::auto_normal_factory(cfg), 1e-3);
  m->local_reparam = true;
  m->categorical = true;
  m->block_batches = 2;
  m->test_x = tx::slice(test.images, 0, 0, 64);
  m->test_y = tx::slice(test.labels, 0, 0, 64);
  m->requests = {m->test_x};
  {
    tyxe::poutine::LocalReparameterization lr;
    m->bnn->fit({m->train[0]}, m->optim, 1);
  }
  return m;
}

std::unique_ptr<Model> build_mlp(std::uint64_t seed) {
  auto m = std::make_unique<Model>();
  m->gen = std::make_unique<tx::Generator>(seed + 1);
  tx::Generator& g = *m->gen;
  const auto train = images(1, 28, 64, 1.0f, g);   // 640 = 5 batches of 128
  const auto fresh = images(1, 28, 128, 1.0f, g);  // 10 update batches
  const auto test = images(1, 28, 32, 1.0f, g);    // 10 requests of 32
  // SNIPPETS train_mnist_tyxe.py: Flatten, 784-64-64-10 ReLU.
  m->make_net = [](tx::Generator* gen) -> tx::nn::ModulePtr {
    return std::make_shared<tx::nn::Sequential>(std::vector<tx::nn::ModulePtr>{
        std::make_shared<tx::nn::Flatten>(),
        tx::nn::make_mlp({784, 64, 64, 10}, "relu", gen)});
  };
  tyxe::guides::AutoNormalConfig cfg;
  cfg.init_loc = tyxe::guides::init_to_normal_fan("radford", &g);
  cfg.init_scale = 1e-2f;
  attach(*m, m->make_net(&g), std::make_shared<tyxe::Categorical>(640), {},
         tyxe::guides::auto_normal_factory(cfg), 1e-3);
  m->categorical = true;
  const auto prefit = batches_of(train, 128, g);
  for (const auto& [inputs, targets] : batches_of(test, 32, g)) {
    m->requests.push_back(inputs[0]);
  }
  m->test_x = test.images;
  m->test_y = test.labels;
  // Pre-fit: the model a server would load. The loop then updates it
  // online, one step per fresh batch.
  m->bnn->fit(prefit, m->optim, 6);
  m->train = batches_of(fresh, 128, g);
  m->online_updates = true;
  return m;
}

// ---------------------------------------------------------------------------
// Workloads.

// A burst is `count` back-to-back predict requests with S posterior samples.
struct Burst {
  int s;
  int count;
};

// Every workload runs at one pool thread (TYXE_NUM_THREADS=1, set by
// run.py): at two threads resnet_svi's run-to-run spread was too wide, so
// two-thread scaling is only the par.speedup_2t probe.
constexpr int kThreads = 1;

struct Workload {
  const char* name;
  std::function<std::unique_ptr<Model>(std::uint64_t)> build;
  std::vector<Burst> bursts;  // one round's predicts, shuffled per round
  int hmc_per_round;
  double round_s;             // nominal round time, sizes the window
  int setup_reps;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"fig1_regression", build_fig1, {{1, 4}, {8, 4}, {32, 2}}, 2, 0.11, 5},
      {"resnet_svi", build_resnet, {{1, 4}, {8, 1}}, 0, 1.0, 3},
      {"mlp_serve", build_mlp,
       {{1, 1}, {1, 1}, {1, 1}, {1, 1}, {8, 1}, {8, 1}, {8, 1}, {8, 1}, {8, 1},
        {8, 1}, {32, 1}, {32, 1}},
       0, 0.72, 3},
  };
  return w;
}

struct Ops {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, std::int64_t> failures;

  // Runs one op: it fails if it throws or returns false.
  template <typename F>
  bool run(const char* what, F&& f) {
    ++attempted;
    tracer().next_op();
    bool ok = false;
    try {
      ok = f();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "op %s threw: %s\n", what, e.what());
    }
    if (!ok) {
      ++failed;
      ++failures[what];
    }
    return ok;
  }
};

bool all_finite(const Tensor& t) {
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(t.at(i))) return false;
  }
  return true;
}

bool rows_sum_to_one(const Tensor& probs) {
  const std::int64_t cols = probs.shape().back();
  for (std::int64_t r = 0; r < probs.numel() / cols; ++r) {
    double s = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) s += probs.at(r * cols + c);
    if (std::fabs(s - 1.0) > 1e-5) return false;
  }
  return true;
}

double accuracy(const Tensor& probs, const Tensor& labels) {
  const Tensor pred = tx::argmax(probs, -1);
  std::int64_t hit = 0;
  for (std::int64_t i = 0; i < labels.numel(); ++i) {
    hit += pred.at(i) == labels.at(i) ? 1 : 0;
  }
  return static_cast<double>(hit) / static_cast<double>(labels.numel());
}

// One SVI block: fit(batches, optim, epochs) under the workload's poutine.
// Returns the block's time and steps, or nullopt on a check failure.
struct Block {
  Lap lap;
  int steps = 0;
  double mean_loss = 0.0;
};

std::optional<Block> svi_block(Model& m, const std::vector<tyxe::Batch>& data,
                               int epochs) {
  const std::size_t first = m.losses.size();
  std::optional<tyxe::poutine::LocalReparameterization> lr;
  if (m.local_reparam) lr.emplace();
  std::optional<TimingInterceptor> timing;
  if (tracer().on()) timing.emplace();
  Block b;
  {
    SpanScope root("infer.svi_block");
    b.lap = timed([&] {
      m.bnn->train();
      m.bnn->fit(data, m.optim, epochs);
    });
  }
  b.steps = static_cast<int>(m.losses.size() - first);
  if (b.steps != epochs * static_cast<int>(data.size())) return std::nullopt;
  for (std::size_t i = first; i < m.losses.size(); ++i) {
    if (!std::isfinite(m.losses[i])) return std::nullopt;
    b.mean_loss += m.losses[i] / b.steps;
  }
  return b;
}

// The training op of one round: the round's SVI block (for mlp_serve, one
// online update on the next fresh batch).
std::optional<Block> train_op(Model& m, std::int64_t round) {
  std::vector<tyxe::Batch> data;
  for (std::size_t i = 0; i < m.block_batches; ++i) {
    data.push_back(m.train[(static_cast<std::size_t>(round) * m.block_batches + i) %
                           m.train.size()]);
  }
  return svi_block(m, data, m.block_epochs);
}

std::optional<Lap> predict_op(Model& m, int s, std::size_t k) {
  const Tensor& x = m.requests[k % m.requests.size()];
  std::optional<TimingInterceptor> timing;
  if (tracer().on()) timing.emplace();
  Tensor out;
  Lap lap;
  {
    SpanScope root("core.predict");
    lap = timed([&] {
      m.bnn->eval();
      out = m.bnn->predict(x, s);
    });
  }
  if (out.shape()[0] != x.shape()[0] || !all_finite(out)) return std::nullopt;
  if (m.categorical && !rows_sum_to_one(out)) return std::nullopt;
  return lap;
}

std::optional<Lap> hmc_op(Fig1Hmc& h) {
  std::optional<TimingInterceptor> timing;
  if (tracer().on()) timing.emplace();
  SpanScope root("infer.hmc_transition");
  bool ok = false;
  const Lap lap = timed([&] { ok = h.transition(); });
  if (!ok) return std::nullopt;
  return lap;
}

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t n;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(const std::string& name, double v, const std::string& unit,
           std::size_t n) {
    metrics.push_back({name, v, unit, n});
  }
};

// "p50 (n=.., p90 .. with .. beyond)" for a latency series.
std::string describe(const std::vector<double>& xs) {
  const auto p50 = percentile(xs, 0.5);
  // Highest of p99/p90/p75 that still has ten samples beyond it.
  std::string tail;
  for (const double q : {0.99, 0.9, 0.75}) {
    const auto t = percentile(xs, q);
    if (t.beyond >= 10) {
      char buf[96];
      std::snprintf(buf, sizeof buf, ", p%.0f %.4g (%zu beyond)", q * 100,
                    t.value, t.beyond);
      tail = buf;
      break;
    }
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "p50 %.4g n=%zu", p50.value, p50.n);
  return buf + tail;
}

struct LoopResult {
  std::vector<Block> window;                 // training ops in the window
  std::vector<Block> traced, untraced;       // trace mode: alternating rounds
  std::map<int, std::vector<Lap>> predict;  // by S
  std::vector<Lap> hmc;
  std::int64_t rounds = 0;
  std::size_t window_rounds = 0;
  double window_peak_rss_mb = 0.0;  // VmHWM when the window completed
};

LoopResult run_loop(const Workload& w, Model& m, Ops& ops, std::uint64_t seed,
                    double seconds, bool trace) {
  LoopResult r;
  // The fixed step window: the first `window_rounds` rounds after warm-up,
  // sized from the nominal round time so it ends well inside --seconds.
  r.window_rounds = static_cast<std::size_t>(
      std::max(4.0, std::floor(0.7 * seconds / w.round_s)));
  std::mt19937_64 schedule(seed * 0x9e3779b97f4a7c15ULL + 7);
  std::vector<Burst> bursts = w.bursts;
  std::size_t request = 0;

  // One round: the training op, the predict bursts in a seeded order, then
  // the HMC transitions. Warm-up rounds are checked but not recorded.
  auto round = [&](std::int64_t index, bool record) {
    const bool traced = record && trace && (r.rounds % 2 == 1);
    tracer().set_on(traced);
    ops.run("svi_block", [&] {
      auto b = train_op(m, index);
      if (!b || !record) return b.has_value();
      if (r.window.size() < r.window_rounds) {
        r.window.push_back(*b);
        if (r.window.size() == r.window_rounds) {
          r.window_peak_rss_mb = peak_rss_mb();
        }
      }
      (traced ? r.traced : r.untraced).push_back(*b);
      return true;
    });
    std::shuffle(bursts.begin(), bursts.end(), schedule);
    for (const Burst& burst : bursts) {
      for (int i = 0; i < burst.count; ++i) {
        ops.run("predict", [&] {
          auto lap = predict_op(m, burst.s, request++);
          if (lap && record) r.predict[burst.s].push_back(*lap);
          return lap.has_value();
        });
      }
    }
    for (int h = 0; h < w.hmc_per_round; ++h) {
      ops.run("hmc_transition", [&] {
        auto lap = hmc_op(*m.hmc);
        if (lap && record) r.hmc.push_back(*lap);
        return lap.has_value();
      });
    }
    tracer().set_on(false);
  };

  round(0, false);
  round(1, false);
  const auto t0 = Clock::now();
  // A run must end within 180 s: give up on an unfinished window at 120 s.
  const double hard_stop = std::max(seconds, 120.0);
  while ((elapsed_s(t0) < seconds || r.window.size() < r.window_rounds) &&
         elapsed_s(t0) < hard_stop) {
    round(r.rounds + 2, true);
    ++r.rounds;
  }
  return r;
}

std::vector<double> ms_of(const std::vector<Lap>& laps, bool calibrated) {
  std::vector<double> v;
  for (const Lap& l : laps) v.push_back(calibrated ? l.cal_ms : l.raw_ms);
  return v;
}

std::vector<double> rates_of(const std::vector<Block>& blocks, bool calibrated) {
  std::vector<double> v;
  for (const Block& b : blocks) {
    v.push_back(1e3 * b.steps / (calibrated ? b.lap.cal_ms : b.lap.raw_ms));
  }
  return v;
}

double steps_per_s(const std::vector<Block>& blocks, bool calibrated) {
  return median(rates_of(blocks, calibrated));
}

// Block p50 of the last quarter of the window over the first quarter, from
// calibrated per-step times, so host drift does not read as training-position
// drift.
double drift_ratio(const std::vector<Block>& window) {
  std::vector<double> per_step;
  for (const Block& b : window) per_step.push_back(b.lap.cal_ms / b.steps);
  const auto quarters = txbench::block_medians(
      per_step, std::max<std::size_t>(1, per_step.size() / 4));
  if (quarters.size() < 2) return 1.0;
  return quarters.back() / quarters.front();
}

// The ELBO check: mean loss of the window's last quarter below its first.
bool elbo_decreased(const std::vector<Block>& window) {
  const std::size_t q = std::max<std::size_t>(1, window.size() / 4);
  if (window.size() < 2) return false;
  double first = 0.0, last = 0.0;
  for (std::size_t i = 0; i < q; ++i) {
    first += window[i].mean_loss;
    last += window[window.size() - 1 - i].mean_loss;
  }
  return last < first;
}

// ---------------------------------------------------------------------------
// Per-layer probes (trace mode only), run after the loop at the workload's
// pinned thread count.

// Median seconds of `f` over repetitions filling about `budget_s`, and the
// number of repetitions.
struct Timing {
  double s = 0.0;
  std::size_t n = 0;
};

template <typename F>
Timing probe(F&& f, double budget_s) {
  std::vector<double> t;
  const auto start = Clock::now();
  while (t.size() < 5 || (elapsed_s(start) < budget_s && t.size() < 2000)) {
    const auto t0 = Clock::now();
    f();
    t.push_back(elapsed_s(t0));
  }
  return {median(t), t.size()};
}

// GFLOP/s over a set of shapes: total FLOPs over the sum of per-shape
// median times. Reports the total repetitions through `reps`.
double conv2d_gflops(std::size_t& reps) {
  tx::Generator g(5);
  double flops = 0.0, secs = 0.0;
  // ResNet-8 width-8 stage shapes on a batch of 64 16x16 images.
  for (const auto& [c, hw] : std::vector<std::pair<std::int64_t, std::int64_t>>{
           {8, 16}, {16, 8}, {32, 4}}) {
    const Tensor x = tx::randn({64, c, hw, hw}, &g);
    const Tensor w = tx::randn({c, c, 3, 3}, &g);
    const Tensor b = tx::zeros({c});
    const Timing t = probe([&] { tx::conv2d(x, w, b, 1, 1); }, 0.3);
    secs += t.s;
    reps += t.n;
    flops += 2.0 * 64 * c * hw * hw * c * 9;
  }
  return flops / secs / 1e9;
}

double matmul_gflops(std::size_t& reps) {
  tx::Generator g(6);
  double flops = 0.0, secs = 0.0;
  // mlp_serve layer shapes for an update batch of 128.
  for (const auto& [k, n] : std::vector<std::pair<std::int64_t, std::int64_t>>{
           {784, 64}, {64, 64}, {64, 10}}) {
    const Tensor a = tx::randn({128, k}, &g);
    const Tensor b = tx::randn({k, n}, &g);
    const Timing t = probe([&] { tx::matmul(a, b); }, 0.2);
    secs += t.s;
    reps += t.n;
    flops += 2.0 * 128 * k * n;
  }
  return flops / secs / 1e9;
}

Tensor plain_loss(Model& m, tx::nn::Module& net, const tyxe::Batch& batch) {
  const Tensor out = net.forward(batch.first);
  if (m.categorical) return cross_entropy(out, batch.second);
  return tx::mean(tx::square(tx::sub(out, batch.second)));
}

void run_probes(Model& m, const LoopResult& loop, Report& rep, Ops& ops) {
  tx::Generator g(99);
  auto net = m.make_net(&g);
  const tyxe::Batch& batch = m.train[0];

  net->train();
  {
    // Backward alone: the forward that builds the tape is not timed.
    std::vector<double> bw;
    const auto start = Clock::now();
    while (bw.size() < 5 || elapsed_s(start) < 0.5) {
      const Tensor loss = plain_loss(m, *net, batch);
      const auto t0 = Clock::now();
      loss.backward();
      bw.push_back(elapsed_s(t0));
    }
    rep.add("tensor.backward_ms_p50", 1e3 * median(bw), "ms", bw.size());
  }

  {
    tx::infer::Adam adam(1e-3);
    for (auto& slot : net->named_parameter_slots()) adam.add_param(*slot.slot);
    const Timing t = probe(
        [&] {
          adam.zero_grad();
          plain_loss(m, *net, batch).backward();
          adam.step();
        },
        0.5);
    rep.add("nn.ml_step_ms_p50", 1e3 * t.s, "ms", t.n);
  }
  net->eval();
  {
    tx::NoGradGuard ng;
    const Timing t = probe([&] { net->forward(m.requests[0]); }, 0.3);
    rep.add("nn.forward_ms_p50", 1e3 * t.s, "ms", t.n);
  }
  {
    std::size_t conv_reps = 0, matmul_reps = 0;
    const double conv = conv2d_gflops(conv_reps);
    const double mm = matmul_gflops(matmul_reps);
    rep.add("tensor.conv2d_gflops", conv, "GFLOP/s", conv_reps);
    rep.add("tensor.matmul_gflops", mm, "GFLOP/s", matmul_reps);
  }

  {
    std::vector<tx::dist::Normal> qs;
    std::int64_t elems = 0;
    for (const auto& site : m.bnn->sites()) {
      const tx::Shape& shape = site.initial_value.shape();
      qs.emplace_back(tx::zeros(shape), tx::ones(shape));
      elems += site.initial_value.numel();
    }
    const Timing t = probe(
        [&] {
          for (const auto& q : qs) q.rsample(&g);
        },
        0.3);
    rep.add("dist.normal_rsample_ns_per_elem", 1e9 * t.s / elems, "ns", t.n);
  }

  // Training ops for the counting, threading and observer probes; mlp_serve
  // takes four updates at a time so each timing covers ~80 ms.
  std::int64_t probe_round = 0;
  auto block_s = [&] {
    double ms = 0.0;
    int steps = 0;
    ops.run("svi_block", [&] {
      for (int i = 0; i < (m.online_updates ? 4 : 1); ++i) {
        auto one = train_op(m, probe_round++);
        if (!one) return false;
        ms += one->lap.raw_ms;
        steps += one->steps;
      }
      return true;
    });
    return steps > 0 ? ms / 1e3 / steps : 0.0;
  };

  {
    CountingMessenger counter;
    const auto before = tx::alloc::thread_stats();
    const std::size_t steps0 = m.losses.size();
    tx::obs::prof::set_enabled(true);
    {
      tx::ppl::HandlerScope scope(counter);
      block_s();
    }
    tx::obs::prof::set_enabled(false);
    const double steps = static_cast<double>(m.losses.size() - steps0);
    const auto after = tx::alloc::thread_stats();
    rep.add("ppl.sites_per_step", counter.sites / steps, "count", 1);
    rep.add("ppl.messages_per_step", counter.messages / steps, "count", 1);
    rep.add("alloc.hits_per_step", (after.hits - before.hits) / steps,
            "count", 1);
    rep.add("alloc.misses_per_step", (after.misses - before.misses) / steps,
            "count", 1);
    std::string kernels = "prof kernels per step:";
    for (const auto& [name, ks] : tx::obs::prof::kernel_table()) {
      char buf[128];
      std::snprintf(buf, sizeof buf, " %s %.1f calls %.3g MFLOP;", name.c_str(),
                    ks.calls / steps, ks.flops / steps / 1e6);
      kernels += buf;
    }
    rep.notes.push_back(kernels);
  }

  {
    std::vector<double> t1, t2;
    for (int i = 0; i < 4; ++i) {
      tx::par::set_num_threads(1);
      t1.push_back(block_s());
      tx::par::set_num_threads(2);
      t2.push_back(block_s());
    }
    tx::par::set_num_threads(kThreads);
    rep.add("par.speedup_2t", median(t1) / median(t2), "x", t1.size());
  }
  {
    std::vector<double> off, on;
    for (int i = 0; i < 4; ++i) {
      tx::obs::set_enabled(false);
      off.push_back(block_s());
      tx::obs::set_enabled(true);
      on.push_back(block_s());
    }
    rep.add("obs.metrics_overhead_frac", median(on) / median(off) - 1.0,
            "frac", on.size());
  }

  // HMC: fig1's own chain, or the same Fig. 1 HMC as a control elsewhere.
  std::unique_ptr<Fig1Hmc> own;
  Fig1Hmc* hmc = m.hmc.get();
  std::vector<double> transitions = ms_of(loop.hmc, false);
  if (hmc == nullptr) {
    own = std::make_unique<Fig1Hmc>(fig1_data(1), 1);
    hmc = own.get();
    tracer().set_on(true);
    for (int i = 0; i < 15; ++i) {
      ops.run("hmc_transition", [&] {
        auto lap = hmc_op(*hmc);
        if (lap) transitions.push_back(lap->raw_ms);
        return lap.has_value();
      });
    }
    tracer().set_on(false);
  }
  rep.add("infer.hmc_transition_ms_p50", median(transitions), "ms",
          transitions.size());
  {
    std::vector<double> grad;
    const Timing t = probe(
        [&] { hmc->kernel->potential().value_and_grad(hmc->q, grad); }, 0.3);
    rep.add("infer.potential_grad_ms_p50", 1e3 * t.s, "ms", t.n);
  }
}

// Per-layer self time summed per root span, printed against the root so the
// unlabelled residual (the root's own self time) is visible. SVI blocks are
// normalized per step (one infer.optim span per step), the other roots per
// call.
void ledger(const std::vector<txbench::Span>& spans, Report& rep) {
  const auto self = txbench::self_times(spans);
  struct RootStats {
    double ns = 0.0;
    double units = 0.0;
    std::map<std::string, double> self_ns;
  };
  std::map<std::string, RootStats> roots;
  std::vector<double> elbo_ms, optim_ms, residual_ms;
  std::map<std::size_t, double> block_parts_ns;  // ELBO + optimizer per block
  std::map<std::size_t, int> block_steps;
  std::vector<std::size_t> root_of(spans.size());
  auto dur = [&](std::size_t i) {
    return static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    // A parent is opened before its children, so its root is known.
    const int parent = spans[i].parent;
    root_of[i] = parent < 0 ? i : root_of[static_cast<std::size_t>(parent)];
    const std::size_t r = root_of[i];
    const std::string name = spans[i].name;
    RootStats& rs = roots[spans[r].name];
    rs.self_ns[name] += static_cast<double>(self[i]);
    if (i == r) {
      rs.ns += dur(i);
      rs.units += 1.0;
    }
    if (name == "infer.elbo") {
      elbo_ms.push_back(dur(i) / 1e6);
      block_parts_ns[r] += dur(i);
    } else if (name == "infer.optim") {
      optim_ms.push_back(dur(i) / 1e6);
      block_parts_ns[r] += dur(i);
      ++block_steps[r];
    }
  }
  double steps = 0.0;
  for (const auto& [r, n] : block_steps) {
    residual_ms.push_back((dur(r) - block_parts_ns[r]) / n / 1e6);
    steps += n;
  }
  if (steps > 0) roots["infer.svi_block"].units = steps;

  for (const auto& [root, rs] : roots) {
    std::string line = "ledger " + root +
                       (root == "infer.svi_block" ? " per step:" : " per call:");
    char buf[128];
    std::snprintf(buf, sizeof buf, " root %.4f ms =", rs.ns / rs.units / 1e6);
    line += buf;
    for (const auto& [layer, ns] : rs.self_ns) {
      if (layer == root) continue;
      std::snprintf(buf, sizeof buf, " %s %.4f +", layer.c_str(),
                    ns / rs.units / 1e6);
      line += buf;
    }
    const auto it = rs.self_ns.find(root);
    const double residual = it == rs.self_ns.end() ? 0.0 : it->second;
    std::snprintf(buf, sizeof buf,
                  " residual %.4f ms (%.1f%% of root unlabelled, n=%.0f)",
                  residual / rs.units / 1e6, 100.0 * residual / rs.ns, rs.units);
    line += buf;
    rep.notes.push_back(line);
  }
  rep.add("infer.elbo_ms_p50", median(elbo_ms), "ms", elbo_ms.size());
  rep.add("infer.optim_ms_p50", median(optim_ms), "ms", optim_ms.size());
  rep.add("infer.step_residual_ms_p50", median(residual_ms), "ms",
          residual_ms.size());
}

void write_spans(const std::string& path, const std::vector<txbench::Span>& s) {
  if (path.empty()) return;
  std::ofstream out(path);
  for (const auto& x : s) {
    out << "{\"name\":\"" << x.name << "\",\"start_ns\":" << x.start_ns
        << ",\"end_ns\":" << x.end_ns << ",\"parent\":" << x.parent
        << ",\"op\":" << x.op << "}\n";
  }
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--spans") a.spans_path = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const auto& c : workloads()) {
    if (args.workload == c.name) w = &c;
  }
  if (w == nullptr) throw std::invalid_argument("unknown workload " + args.workload);
  // Threads are pinned by the caller through TYXE_NUM_THREADS; refuse to
  // measure with anything else.
  const char* env = std::getenv("TYXE_NUM_THREADS");
  if (env == nullptr || std::atoi(env) != kThreads ||
      tx::par::num_threads() != kThreads) {
    std::fprintf(stderr, "%s needs TYXE_NUM_THREADS=%d\n", w->name, kThreads);
    return 2;
  }
  tx::manual_seed(args.seed);
  const auto cpu0 = read_cpu_times();
  const double load_before = load1();

  Ops ops;
  Report rep;
  bool checks_ok = true;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) {
      checks_ok = false;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  };

  // Set-up, repeated; the last model is kept.
  std::vector<Lap> setups;
  std::unique_ptr<Model> model;
  const int reps = args.trace ? 1 : w->setup_reps;
  for (int i = 0; i < reps; ++i) {
    model.reset();
    calibration().measure(/*force=*/true);
    setups.push_back(timed([&] { model = w->build(args.seed); }));
  }
  Model& m = *model;
  if (m.categorical) {
    double acc = 0.0;
    ops.run("accuracy", [&] {
      m.bnn->eval();
      const Tensor probs = m.bnn->predict(m.test_x, 8);
      acc = accuracy(probs, m.test_y);
      return rows_sum_to_one(probs) && acc >= 0.5;
    });
    rep.notes.push_back("test accuracy after set-up " + json_number(acc) +
                        " (chance 0.1, check >= 0.5)");
  }

  const LoopResult loop = run_loop(*w, m, ops, args.seed, args.seconds,
                                   args.trace);
  check(loop.window.size() == loop.window_rounds, "fixed window completed");
  check(elbo_decreased(loop.window), "ELBO decreased over the fixed window");
  if (m.hmc) {
    const double acc = median(m.hmc->accepts);
    check(m.hmc->kernel->mean_accept_prob() > 0.0 &&
              m.hmc->kernel->mean_accept_prob() <= 1.0,
          "HMC mean acceptance in (0, 1]");
    rep.notes.push_back("hmc accept p50 " + json_number(acc));
  }

  const double drift = drift_ratio(loop.window);
  if (!args.trace) {
    rep.add("setup_s", median(ms_of(setups, true)) / 1e3, "s", setups.size());
    rep.add("peak_rss_mb", loop.window_peak_rss_mb, "MB", 1);
    rep.add("svi_steps_per_s", steps_per_s(loop.window, true), "1/s",
            loop.window.size());
    for (const int s : {1, 8}) {
      const auto& v = loop.predict.at(s);
      rep.add("predict_s" + std::to_string(s) + "_ms_p50",
              median(ms_of(v, true)), "ms", v.size());
    }
  } else {
    run_probes(m, loop, rep, ops);
    ledger(tracer().spans(), rep);
    write_spans(args.spans_path, tracer().spans());
    const double traced = 1.0 / steps_per_s(loop.traced, true);
    const double untraced = 1.0 / steps_per_s(loop.untraced, true);
    rep.add("trace.overhead_frac", traced / untraced - 1.0, "frac",
            loop.traced.size());
    rep.add("svi.drift_ratio", drift, "ratio", loop.window.size());
    double ml_step_ms = 0.0;
    for (const auto& x : rep.metrics) {
      if (x.name == "nn.ml_step_ms_p50") ml_step_ms = x.value;
    }
    // Raw times, like the nn.ml_step probe they are compared with.
    const double svi_step_ms = 1e3 / steps_per_s(loop.untraced, false);
    rep.add("core.bayes_overhead_frac", (svi_step_ms - ml_step_ms) / svi_step_ms,
            "frac", loop.untraced.size());
    std::vector<double> xs, ys;
    for (const auto& [s, v] : loop.predict) {
      xs.push_back(s);
      ys.push_back(median(ms_of(v, false)));
    }
    const auto line = txbench::least_squares(xs, ys);
    rep.add("core.predict_fixed_ms", line.intercept, "ms", xs.size());
    rep.add("core.predict_per_sample_ms", line.slope, "ms", xs.size());
  }
  const double steal = txbench::steal_frac(cpu0, read_cpu_times());
  if (args.trace) rep.add("host.steal_frac", steal, "frac", 1);

  // Human-readable lines: every metric with unit and sample count, then the
  // metric/workload pairs this workload owns, then host readings.
  std::printf("workload %s seed %llu threads %d seconds %.0f trace %d\n",
              w->name, static_cast<unsigned long long>(args.seed), kThreads,
              args.seconds, args.trace ? 1 : 0);
  for (const auto& x : rep.metrics) {
    std::printf("metric %-34s %14.6g %-8s n=%zu\n", x.name.c_str(), x.value,
                x.unit.c_str(), x.n);
  }
  // A pair line gives the calibrated series (p50, n, tail) and the raw p50.
  auto pair = [&](const std::string& metric, const std::vector<double>& cal,
                  const std::vector<double>& raw, const char* unit) {
    std::printf("pair %s %s %s %s (raw p50 %.4g)\n", w->name, metric.c_str(),
                unit, describe(cal).c_str(), median(raw));
  };
  if (!args.trace) {
    std::vector<double> setup_cal, setup_raw;
    for (const Lap& l : setups) {
      setup_cal.push_back(l.cal_ms / 1e3);
      setup_raw.push_back(l.raw_ms / 1e3);
    }
    pair("setup_s", setup_cal, setup_raw, "s");
    if (!m.online_updates) {
      pair("svi_steps_per_s", rates_of(loop.window, true),
           rates_of(loop.window, false), "1/s");
    } else {
      std::vector<Lap> laps;
      for (const Block& b : loop.window) laps.push_back(b.lap);
      pair("update_ms_p50", ms_of(laps, true), ms_of(laps, false), "ms");
    }
    if (!loop.hmc.empty()) {
      std::vector<double> cal, raw;
      for (const Lap& l : loop.hmc) {
        cal.push_back(kHmcLeapfrogs * 1e3 / l.cal_ms);
        raw.push_back(kHmcLeapfrogs * 1e3 / l.raw_ms);
      }
      pair("hmc_leapfrogs_per_s", cal, raw, "1/s");
    }
    for (const auto& [s, v] : loop.predict) {
      pair("predict_s" + std::to_string(s) + "_ms", ms_of(v, true),
           ms_of(v, false), "ms");
    }
  }
  for (const auto& note : rep.notes) std::printf("%s\n", note.c_str());
  std::printf(
      "ops %lld ops_failed %lld rounds %lld window %zu/%zu drift_ratio %.4f\n",
      static_cast<long long>(ops.attempted), static_cast<long long>(ops.failed),
      static_cast<long long>(loop.rounds), loop.window.size(),
      loop.window_rounds, drift);
  for (const auto& [what, n] : ops.failures) {
    std::printf("failed %s %lld\n", what.c_str(), static_cast<long long>(n));
  }
  std::printf("host steal_frac %.5f load1 %.2f -> %.2f\n", steal, load_before,
              load1());

  const bool correct = checks_ok && ops.failed == 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(ops.attempted) +
                     ", \"failed\": " + std::to_string(ops.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const auto& x = rep.metrics[i];
    json += (i ? ", " : "") + ("\"" + x.name + "\": {\"value\": ") +
            json_number(x.value) + ", \"unit\": \"" + x.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "txbench: %s\n", e.what());
    return 2;
  }
}
