#include "infer/mcmc.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>

#include "infer/diagnostics.h"
#include "obs/obs.h"
#include "par/pool.h"
#include "ppl/messenger.h"
#include "resil/io.h"
#include "util/textio.h"

namespace tx::infer {

namespace {

/// Feed per-site R̂/ESS into tx::obs::diag from equal-length slices
/// [begin, begin + len) of the chain-major draws, one slice per chain. For
/// each site span the per-coordinate estimates (single-chain for one slice,
/// the real multi-chain split-R̂ / ESS for several) are aggregated
/// conservatively: min ESS, max R̂ over the site's coordinates. Short slices
/// simply produce NaN (the diagnostics.h contract), which
/// mcmc_update_site_health ignores.
void refresh_site_health(const std::vector<obs::diag::SiteSpan>& spans,
                         const std::vector<std::vector<double>>& draws,
                         const std::vector<std::size_t>& begins,
                         std::size_t len) {
  if (len == 0) return;
  std::vector<std::vector<double>> chains(begins.size());
  for (const auto& span : spans) {
    double ess_min = std::numeric_limits<double>::infinity();
    double rhat_max = -std::numeric_limits<double>::infinity();
    for (std::size_t c = span.begin; c < span.end; ++c) {
      for (std::size_t k = 0; k < begins.size(); ++k) {
        chains[k].clear();
        for (std::size_t i = begins[k]; i < begins[k] + len; ++i) {
          chains[k].push_back(draws[i][c]);
        }
      }
      const double ess = effective_sample_size(chains);
      const double rhat = split_r_hat(chains);
      if (std::isfinite(ess) && ess < ess_min) ess_min = ess;
      if (std::isfinite(rhat) && rhat > rhat_max) rhat_max = rhat;
    }
    obs::diag::mcmc_update_site_health(
        span.name,
        std::isfinite(ess_min) ? ess_min
                               : std::numeric_limits<double>::quiet_NaN(),
        std::isfinite(rhat_max) ? rhat_max
                                : std::numeric_limits<double>::quiet_NaN());
  }
}

/// One kernel transition with progress emission shared by both phases. When
/// `sync` is set (multi-chain runs) metric emission and the callback are
/// serialized across chains.
std::vector<double> instrumented_step(MCMCKernel& kernel,
                                      const std::vector<double>& q,
                                      bool warmup, std::int64_t step,
                                      std::int64_t total,
                                      const ProgressCallback& progress,
                                      std::int64_t chain = 0,
                                      std::mutex* sync = nullptr) {
  const bool instrument = obs::enabled() || progress;
  const double t0 = instrument ? obs::now_seconds() : 0.0;
  const bool trace = obs::tracing();
  if (trace) {
    obs::trace_begin("mcmc.step", obs::Event()
                                      .set("chain", chain)
                                      .set("step", step)
                                      .set("warmup", warmup)
                                      .to_json());
  }
  const std::int64_t divergences_before =
      obs::diag::enabled() ? kernel.divergence_count() : 0;
  std::vector<double> next = kernel.step(q, warmup);
  if (trace) {
    obs::trace_end("mcmc.step",
                   obs::Event()
                       .set("accept_prob", kernel.last_accept_prob())
                       .set("divergences", kernel.divergence_count())
                       .to_json());
  }
  if (obs::diag::enabled()) {
    obs::diag::mcmc_record_transition(
        diag_layout(kernel.potential()), static_cast<int>(chain), step, warmup,
        kernel.last_accept_prob(),
        kernel.divergence_count() > divergences_before, q, next);
  }
  if (!instrument) return next;

  MCMCProgress p;
  p.warmup = warmup;
  p.step = step;
  p.total = total;
  p.chain = chain;
  p.accept_prob = kernel.last_accept_prob();
  p.mean_accept_prob = kernel.mean_accept_prob();
  p.divergences = kernel.divergence_count();
  p.seconds = obs::now_seconds() - t0;
  const auto emit = [&] {
    if (obs::enabled()) {
      auto& reg = obs::registry();
      reg.counter(warmup ? "mcmc.warmup_steps" : "mcmc.samples").add(1);
      // Several chains emit in scheduling order, so their gauge is set
      // from the chain-ordered mean at each round barrier instead.
      if (!sync) reg.gauge("mcmc.accept_prob").set(p.mean_accept_prob);
      // Log-bucketed so per-chain timings merge exactly (obs/hist.h); the
      // heartbeat feeds the live server's /healthz staleness check.
      reg.log_histogram("mcmc.step_seconds").record(p.seconds);
      obs::heartbeat();
    }
    if (progress) progress(p);
  };
  if (sync) {
    std::lock_guard<std::mutex> lock(*sync);
    emit();
  } else {
    emit();
  }
  return next;
}

void bump(const char* name) {
  if (obs::enabled()) obs::registry().counter(name).add(1);
}

std::string chain_section(std::size_t c, const char* what) {
  return "chain" + std::to_string(c) + "." + what;
}

/// A chain's state at a round start, restored on a divergence storm.
struct RoundStart {
  std::string kernel_state;
  Generator gen{0};
  std::vector<double> q;
  std::int64_t done = 0;
  std::int64_t divergences = 0;
};

}  // namespace

MCMC::MCMC(std::shared_ptr<MCMCKernel> kernel, int num_samples,
           int warmup_steps)
    : kernel_(std::move(kernel)),
      num_samples_(num_samples),
      warmup_(warmup_steps) {
  TX_CHECK(kernel_ != nullptr, "MCMC: null kernel");
  TX_CHECK(num_samples >= 1 && warmup_steps >= 0, "MCMC: bad sample counts");
}

MCMC::MCMC(KernelFactory factory, int num_samples, int warmup_steps,
           int num_chains, MCMCPolicy policy)
    : factory_(std::move(factory)),
      num_samples_(num_samples),
      warmup_(warmup_steps),
      num_chains_(num_chains),
      policy_(std::move(policy)) {
  TX_CHECK(factory_ != nullptr, "MCMC: null kernel factory");
  TX_CHECK(num_samples >= 1 && warmup_steps >= 0, "MCMC: bad sample counts");
  TX_CHECK(num_chains >= 1, "MCMC: num_chains must be >= 1");
  TX_CHECK(policy_.checkpoint_every >= 1,
           "MCMC: checkpoint_every must be >= 1");
}

void MCMC::run(Program model, Generator* gen,
               const ProgressCallback& progress) {
  obs::ScopedTimer span("mcmc.run");
  const bool multi = num_chains_ > 1;
  const bool has_file = !policy_.checkpoint_path.empty();
  const bool storms = policy_.storm_threshold >= 0;

  // A single chain keeps its kernel across runs and steps on the caller's
  // generator. Multiple chains get fresh kernels and sequentially derived
  // generators, so every chain's trajectory is a pure function of the
  // caller's generator state regardless of how chains are scheduled.
  if (!multi && !kernel_) kernel_ = factory_();
  chains_.assign(static_cast<std::size_t>(num_chains_), Chain{});
  for (auto& chain : chains_) {
    chain.kernel = multi ? factory_() : kernel_;
    TX_CHECK(chain.kernel != nullptr, "MCMC: kernel factory returned null");
  }
  chain_gens_.clear();
  if (multi) {
    Generator& ambient = gen ? *gen : global_generator();
    chain_gens_.reserve(chains_.size());
    for (std::size_t c = 0; c < chains_.size(); ++c) {
      chain_gens_.emplace_back(Generator(ambient.engine()()));
      chains_[c].gen = &chain_gens_[c];
    }
    if (obs::enabled()) {
      obs::registry().gauge("mcmc.chains").set(
          static_cast<double>(num_chains_));
    }
  } else {
    chains_.front().gen = gen;
  }
  kernel_ = chains_.front().kernel;  // unflatten / potential accessors
  std::int64_t divergences_before = 0;
  for (const auto& chain : chains_) {
    divergences_before += chain.kernel->divergence_count();
  }
  draws_.assign(chains_.size() * static_cast<std::size_t>(num_samples_), {});

  // Setup traces the model (the Potential layout), so multi-chain runs do it
  // under the chain's GeneratorScope: model code must never draw from the
  // shared global generator there.
  const auto setup = [&model](Chain& chain) {
    chain.kernel->setup(model, chain.gen);
    chain.q = chain.kernel->initial_position();
  };
  // Resuming and storm snapshots need every kernel set up before the first
  // round; otherwise each chain sets itself up inside its first task.
  const bool resume = has_file && policy_.resume &&
                      resil::file_exists(policy_.checkpoint_path);
  bool set_up = false;
  if (resume || storms) {
    for (auto& chain : chains_) {
      std::optional<ppl::GeneratorScope> scope;
      if (multi) scope.emplace(chain.gen);
      setup(chain);
    }
    set_up = true;
  }
  resumed_ = false;
  if (resume) {
    apply_bundle(resil::Bundle::read_file(policy_.checkpoint_path));
    resumed_ = true;
    bump("resil.mcmc.resumes");
  }

  const std::int64_t total = static_cast<std::int64_t>(warmup_) +
                             static_cast<std::int64_t>(num_samples_);
  const std::int64_t round_len =
      has_file || storms ? policy_.checkpoint_every : total;
  const bool diag_on = obs::diag::enabled();
  const int refresh = diag_on ? obs::diag::config().refresh_interval : 0;
  std::mutex progress_mu;
  std::mutex* sync = multi ? &progress_mu : nullptr;

  // Advance one chain to the end of the current round. Incremental
  // per-chain health: single-chain estimates over this chain's draws so far;
  // the cross-chain refresh after the last round supersedes it.
  const auto advance = [&](std::size_t c, std::int64_t until) {
    Chain& chain = chains_[c];
    if (!set_up) setup(chain);
    std::vector<obs::diag::SiteSpan> spans;
    if (diag_on) spans = diag_layout(chain.kernel->potential());
    const std::size_t base = c * static_cast<std::size_t>(num_samples_);
    for (; chain.done < until; ++chain.done) {
      const bool warmup = chain.done < warmup_;
      const std::int64_t step = warmup ? chain.done : chain.done - warmup_;
      chain.q = instrumented_step(*chain.kernel, chain.q, warmup, step,
                                  warmup ? warmup_ : num_samples_, progress,
                                  static_cast<std::int64_t>(c), sync);
      if (warmup) continue;
      const std::size_t at = base + static_cast<std::size_t>(step);
      draws_[at] = chain.q;
      if (diag_on && refresh > 0 && (step + 1) % refresh == 0) {
        refresh_site_health(spans, draws_, {base},
                            static_cast<std::size_t>(step) + 1);
      }
    }
  };

  while (true) {
    bool pending = false;
    for (const auto& chain : chains_) pending |= chain.done < total;
    if (!pending) break;

    // Round-start snapshots: a storm rollback loses at most this round, and
    // because rounds are barriers the snapshot is taken at a deterministic
    // point of every chain's trajectory.
    std::vector<RoundStart> starts;
    if (storms) {
      for (const auto& chain : chains_) {
        std::ostringstream ks;
        chain.kernel->save_state(ks);
        starts.push_back({ks.str(), chain.rng(), chain.q, chain.done,
                          chain.kernel->divergence_count()});
      }
    }

    if (multi) {
      std::vector<std::function<void()>> tasks;
      tasks.reserve(chains_.size());
      for (std::size_t c = 0; c < chains_.size(); ++c) {
        if (chains_[c].done >= total) continue;
        tasks.push_back([&, c] {
          obs::ScopedTimer chain_span(
              "mcmc.chain",
              obs::tracing() ? obs::Event()
                                   .set("chain", static_cast<std::int64_t>(c))
                                   .to_json()
                             : std::string());
          ppl::GeneratorScope gen_scope(chains_[c].gen);
          advance(c, std::min(total, chains_[c].done + round_len));
        });
      }
      par::run_tasks(tasks);
    } else {
      advance(0, std::min(total, chains_.front().done + round_len));
    }
    set_up = true;

    // Storm check per chain, sequential and deterministic.
    for (std::size_t c = 0; storms && c < chains_.size(); ++c) {
      Chain& chain = chains_[c];
      const RoundStart& start = starts[c];
      const std::int64_t round_div =
          chain.kernel->divergence_count() - start.divergences;
      if (round_div <= policy_.storm_threshold) continue;
      ++chain.restarts;
      bump("resil.mcmc.restarts");
      TX_CHECK(chain.restarts <= policy_.max_restarts, "MCMC: chain ", c,
               " exceeded ", policy_.max_restarts,
               " divergence-storm restarts (", round_div,
               " divergences in the last round); forensics: ",
               obs::diag::last_forensic_reason());
      // Restore the chain to the round start and back off the step size.
      std::istringstream ks(start.kernel_state);
      chain.kernel->load_state(ks);
      chain.rng() = start.gen;
      chain.q = start.q;
      chain.done = start.done;
      auto* hmc = dynamic_cast<HMC*>(chain.kernel.get());
      TX_CHECK(hmc != nullptr,
               "MCMC: storm handling needs an HMC-family kernel");
      hmc->set_step_size(hmc->step_size() * policy_.step_size_factor);
      if (obs::enabled()) {
        obs::registry()
            .gauge("resil.mcmc.step_size.chain" + std::to_string(c))
            .set(hmc->step_size());
      }
    }

    if (obs::enabled()) {
      obs::registry().gauge("mcmc.accept_prob").set(mean_accept_prob());
    }
    if (has_file) {
      bump(make_bundle().write_file(policy_.checkpoint_path)
               ? "resil.ckpt.writes"
               : "resil.ckpt.write_failures");
    }
  }

  if (diag_on) {
    std::vector<std::size_t> begins;
    for (std::size_t c = 0; c < chains_.size(); ++c) {
      begins.push_back(c * static_cast<std::size_t>(num_samples_));
    }
    refresh_site_health(diag_layout(kernel_->potential()), draws_, begins,
                        static_cast<std::size_t>(num_samples_));
  }
  if (obs::enabled()) {
    obs::registry()
        .counter("mcmc.divergences")
        .add(divergence_count() - divergences_before);
    if (storms) {
      obs::registry().gauge("resil.mcmc.restarts_total")
          .set(static_cast<double>(restarts()));
    }
  }
}

resil::Bundle MCMC::make_bundle() const {
  resil::Bundle b;
  std::ostringstream meta;
  meta << "mcmc chains " << num_chains_ << " warmup " << warmup_
       << " samples " << num_samples_ << '\n';
  b.set("mcmc.meta", meta.str());
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    const Chain& chain = chains_[c];
    const std::int64_t kept = std::max<std::int64_t>(0, chain.done - warmup_);
    std::ostringstream cm;
    cm << "done " << chain.done << " restarts " << chain.restarts << '\n';
    cm << "q ";
    textio::write_vec_d(cm, chain.q);
    cm << "draws " << kept << '\n';
    const std::size_t base = c * static_cast<std::size_t>(num_samples_);
    for (std::int64_t i = 0; i < kept; ++i) {
      textio::write_vec_d(cm, draws_[base + static_cast<std::size_t>(i)]);
    }
    b.set(chain_section(c, "state"), cm.str());
    std::ostringstream ks;
    chain.kernel->save_state(ks);
    b.set(chain_section(c, "kernel"), ks.str());
    b.set(chain_section(c, "gen"), resil::generator_bytes(chain.rng()));
  }
  return b;
}

void MCMC::apply_bundle(const resil::Bundle& b) {
  std::istringstream meta(b.get("mcmc.meta"));
  textio::expect_tag(meta, "mcmc");
  textio::expect_tag(meta, "chains");
  TX_CHECK(textio::read_int(meta, "chains") == num_chains_,
           "tx.ckpt.v1: checkpoint chain count does not match this run");
  textio::expect_tag(meta, "warmup");
  TX_CHECK(textio::read_int(meta, "warmup") == warmup_,
           "tx.ckpt.v1: checkpoint warmup does not match this run");
  textio::expect_tag(meta, "samples");
  TX_CHECK(textio::read_int(meta, "samples") == num_samples_,
           "tx.ckpt.v1: checkpoint sample count does not match this run");

  // Stage every chain completely before touching live state.
  struct Staged {
    std::int64_t done = 0, restarts = 0;
    std::vector<double> q;
    std::vector<std::vector<double>> draws;
  };
  std::vector<Staged> staged(chains_.size());
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    Staged& s = staged[c];
    std::istringstream cm(b.get(chain_section(c, "state")));
    textio::expect_tag(cm, "done");
    s.done = textio::read_int(cm, "done");
    textio::expect_tag(cm, "restarts");
    s.restarts = textio::read_int(cm, "restarts");
    textio::expect_tag(cm, "q");
    s.q = textio::read_vec_d(cm, "chain position");
    textio::expect_tag(cm, "draws");
    const std::int64_t ndraws = textio::read_int(cm, "draw count");
    TX_CHECK(s.done >= 0 && s.done <= warmup_ + num_samples_ &&
                 ndraws == std::max<std::int64_t>(0, s.done - warmup_),
             "tx.ckpt.v1: chain progress does not match its draw count");
    for (std::int64_t i = 0; i < ndraws; ++i) {
      s.draws.push_back(textio::read_vec_d(cm, "draw"));
    }
    const auto dim = static_cast<std::size_t>(
        chains_[c].kernel->potential().dim());
    bool sized = s.q.size() == dim;
    for (const auto& d : s.draws) sized &= d.size() == dim;
    TX_CHECK(sized, "tx.ckpt.v1: chain position size does not match the model");
  }
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    Chain& chain = chains_[c];
    Staged& s = staged[c];
    std::istringstream ks(b.get(chain_section(c, "kernel")));
    chain.kernel->load_state(ks);
    resil::apply_generator_bytes(b.get(chain_section(c, "gen")),
                                 chain.rng());
    chain.done = s.done;
    chain.restarts = s.restarts;
    chain.q = std::move(s.q);
    const std::size_t base = c * static_cast<std::size_t>(num_samples_);
    for (std::size_t i = 0; i < s.draws.size(); ++i) {
      draws_[base + i] = std::move(s.draws[i]);
    }
  }
}

std::int64_t MCMC::restarts() const {
  std::int64_t total = 0;
  for (const auto& chain : chains_) total += chain.restarts;
  return total;
}

double MCMC::mean_accept_prob() const {
  if (chains_.size() <= 1) {
    TX_CHECK(kernel_ != nullptr, "MCMC: run() first");
    return kernel_->mean_accept_prob();
  }
  double s = 0.0;
  for (const auto& chain : chains_) s += chain.kernel->mean_accept_prob();
  return s / static_cast<double>(chains_.size());
}

std::int64_t MCMC::divergence_count() const {
  if (chains_.size() <= 1) {
    TX_CHECK(kernel_ != nullptr, "MCMC: run() first");
    return kernel_->divergence_count();
  }
  std::int64_t total = 0;
  for (const auto& chain : chains_) total += chain.kernel->divergence_count();
  return total;
}

std::vector<Tensor> MCMC::get_samples(const std::string& site) const {
  TX_CHECK(!draws_.empty(), "MCMC: no samples (run() first)");
  std::vector<Tensor> out;
  out.reserve(draws_.size());
  for (const auto& q : draws_) {
    auto values = kernel_->potential().unflatten(q);
    auto it = values.find(site);
    TX_CHECK(it != values.end(), "MCMC: no site named '", site, "'");
    out.push_back(it->second);
  }
  return out;
}

std::map<std::string, Tensor> MCMC::sample_at(std::size_t i) const {
  TX_CHECK(i < draws_.size(), "MCMC: sample index out of range");
  return kernel_->potential().unflatten(draws_[i]);
}

std::vector<double> MCMC::coordinate_chain(std::size_t coord) const {
  std::vector<double> chain;
  chain.reserve(draws_.size());
  for (const auto& q : draws_) {
    TX_CHECK(coord < q.size(), "MCMC: coordinate out of range");
    chain.push_back(q[coord]);
  }
  return chain;
}

std::vector<double> MCMC::coordinate_chain(std::size_t coord,
                                           int chain) const {
  TX_CHECK(chain >= 0 && chain < num_chains_, "MCMC: chain out of range");
  TX_CHECK(draws_.size() ==
               static_cast<std::size_t>(num_chains_) *
                   static_cast<std::size_t>(num_samples_),
           "MCMC: no samples (run() first)");
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(num_samples_));
  const std::size_t base = static_cast<std::size_t>(chain) *
                           static_cast<std::size_t>(num_samples_);
  for (int i = 0; i < num_samples_; ++i) {
    const auto& q = draws_[base + static_cast<std::size_t>(i)];
    TX_CHECK(coord < q.size(), "MCMC: coordinate out of range");
    out.push_back(q[coord]);
  }
  return out;
}

}  // namespace tx::infer
