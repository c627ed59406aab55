#include "obs/diag.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <set>

#include "obs/event_sink.h"
#include "obs/timer.h"

namespace tx::obs::diag {

double Welford::variance() const {
  if (count < 2) return std::numeric_limits<double>::quiet_NaN();
  return m2 / static_cast<double>(count - 1);
}

double Welford::stddev() const { return std::sqrt(variance()); }

void Welford::merge(const Welford& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  const double n = static_cast<double>(count + other.count);
  const double delta = other.mean - mean;
  const double nb = static_cast<double>(other.count);
  const double na = static_cast<double>(count);
  mean += delta * nb / n;
  m2 += other.m2 + delta * delta * na * nb / n;
  count += other.count;
}

namespace {

constexpr std::size_t kMaxStepIndices = 1 << 20;  // snapshot "steps" cap

struct SviSiteStats {
  Welford mean_w;            // Welford over the per-step value means
  double last_mean = 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  std::int64_t numel = 0;
  std::int64_t nonfinite = 0;
  Welford kl_w;              // analytic KL(q‖p) over steps, when registered
  double kl_last = 0.0;
};

struct ParamStats {
  Welford gmean_w;  // Welford over per-step mean gradient elements
  Welford gnorm_w;  // Welford over per-step gradient L2 norms
  std::int64_t nonfinite = 0;
};

/// One accumulator per chain, merged in chain order when read: chains run
/// concurrently, so a single running accumulator would depend on the order
/// in which their transitions happened to arrive.
using PerChain = std::map<int, Welford>;

Welford chain_ordered(const PerChain& by_chain) {
  Welford all;
  for (const auto& [chain, w] : by_chain) all.merge(w);
  return all;
}

struct McmcSiteStats {
  PerChain value_w;  // per-draw site means (sampling phase)
  std::int64_t moved = 0;        // transitions where this site's block changed
  std::int64_t transitions = 0;  // sampling-phase transitions seen
  double ess = std::numeric_limits<double>::quiet_NaN();
  double rhat = std::numeric_limits<double>::quiet_NaN();
  std::int64_t blame = 0;  // divergences localized to this site
};

// Everything reset() is allowed to wipe. Kept apart from the mutex (and the
// Config, which survives resets) so reset() can assign a fresh value without
// ever destroying a locked mutex.
struct HealthState {
  // Flight recorder.
  std::deque<std::string> ring;  // pre-rendered JSON records, oldest first
  std::int64_t seq = 0;          // global monotone record index
  std::vector<std::int64_t> steps;  // recorded indices (snapshot "steps")

  // SVI health.
  std::int64_t svi_steps = 0;
  std::int64_t cur_svi_step = -1;
  Welford elbo;
  double elbo_last = 0.0;
  std::map<std::string, SviSiteStats> sites;
  std::map<std::string, ParamStats> params;

  // MCMC health.
  std::int64_t mcmc_transitions = 0;
  std::int64_t mcmc_divergences = 0;
  PerChain accept_w;  // sampling-phase Metropolis accept_prob per transition
  std::set<int> chains_seen;
  std::map<std::string, McmcSiteStats> mcmc_sites;

  // Sentinel / forensics.
  std::int64_t records = 0;
  std::int64_t nan_trips = 0;
  std::int64_t dumps = 0;
  std::string last_reason;
  std::string last_site;
};

struct State : HealthState {
  std::mutex mu;
  Config cfg;
};

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_in_svi_step{false};
std::atomic<std::int64_t> g_cur_svi_step{-1};

State& state() {
  static State* s = new State();  // leaked: usable during static destruction
  return *s;
}

void push_record(State& s, std::string json) {
  ++s.seq;
  ++s.records;
  if (s.steps.size() < kMaxStepIndices) s.steps.push_back(s.seq);
  s.ring.push_back(std::move(json));
  while (s.ring.size() > s.cfg.ring_capacity) s.ring.pop_front();
}

/// Write the forensic bundle: header + ring (oldest first) + offending
/// values. Called with the state mutex held; failures never throw.
void dump_bundle(State& s, const std::string& reason, const std::string& site,
                 Event detail, const std::vector<double>& values,
                 bool force = false) {
  if (!force &&
      s.dumps >= static_cast<std::int64_t>(s.cfg.max_forensic_dumps)) {
    return;
  }
  // last_* describe the forensic bundle, so they freeze with the first dump
  // — the first failure is the one worth reading, and later cascade trips
  // (a NaN site usually drags loss and gradients down with it) only count.
  s.last_reason = reason;
  s.last_site = site;
  std::ofstream out(s.cfg.forensic_path, std::ios::trunc);
  if (!out.is_open()) {
    registry().counter("obs.sink_errors").add(1);
    return;
  }
  Event header;
  header.set("schema", "tx.diag.forensic.v1")
      .set("reason", reason)
      .set("offending_site", site)
      .set("span_path", current_span_path())
      .set("step", s.seq)
      .set("recent_records", static_cast<std::int64_t>(s.ring.size()));
  out << header.to_json() << '\n';
  out << detail.to_json() << '\n';
  for (const auto& line : s.ring) out << line << '\n';
  if (!values.empty()) {
    std::string vals = "{\"offending_values\": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) vals += ", ";
      vals += render_json_number(values[i]);
    }
    vals += "]}";
    out << vals << '\n';
  }
  out.flush();
  if (!out.good()) {
    registry().counter("obs.sink_errors").add(1);
    return;
  }
  ++s.dumps;
}

/// Sentinel trip for non-finite loss / gradient / site value.
void trip_nonfinite(State& s, const std::string& reason,
                    const std::string& site, Event detail,
                    const std::vector<double>& values) {
  ++s.nan_trips;
  dump_bundle(s, reason, site, std::move(detail), values);
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool in_svi_step() { return g_in_svi_step.load(std::memory_order_relaxed); }

std::int64_t current_svi_step() {
  return g_cur_svi_step.load(std::memory_order_relaxed);
}

void configure(Config cfg) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (cfg.ring_capacity == 0) cfg.ring_capacity = 1;
  if (cfg.refresh_interval < 1) cfg.refresh_interval = 1;
  s.cfg = std::move(cfg);
  while (s.ring.size() > s.cfg.ring_capacity) s.ring.pop_front();
}

Config config() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.cfg;
}

void reset() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  // Assigning the HealthState base wipes every accumulator while keeping the
  // mutex (held right now!) and the Config alive.
  static_cast<HealthState&>(s) = HealthState();
  g_in_svi_step.store(false, std::memory_order_relaxed);
  g_cur_svi_step.store(-1, std::memory_order_relaxed);
}

void svi_step_begin(std::int64_t svi_step) {
  if (!enabled()) return;
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.cur_svi_step = svi_step;
  g_in_svi_step.store(true, std::memory_order_relaxed);
  g_cur_svi_step.store(svi_step, std::memory_order_relaxed);
}

void record_site_value(const std::string& site, double mean, double lo,
                       double hi, std::int64_t numel, bool finite,
                       const std::vector<double>& sample_values) {
  if (!enabled()) return;
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  SviSiteStats& st = s.sites[site];
  st.numel = numel;
  if (finite) {
    st.mean_w.add(mean);
    st.last_mean = mean;
    if (lo < st.lo) st.lo = lo;
    if (hi > st.hi) st.hi = hi;
    return;
  }
  ++st.nonfinite;
  Event detail;
  detail.set("site", site)
      .set("numel", numel)
      .set("svi_step", s.cur_svi_step);
  trip_nonfinite(s, "nonfinite_site", site, std::move(detail), sample_values);
}

void record_site_kl(const std::string& site, double kl) {
  if (!enabled()) return;
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!std::isfinite(kl)) return;  // non-finite KL follows from a value trip
  SviSiteStats& st = s.sites[site];
  st.kl_w.add(kl);
  st.kl_last = kl;
}

void record_param_grad(const std::string& param, double grad_mean,
                       double grad_norm, bool finite) {
  if (!enabled()) return;
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  ParamStats& st = s.params[param];
  if (finite) {
    st.gmean_w.add(grad_mean);
    st.gnorm_w.add(grad_norm);
    return;
  }
  ++st.nonfinite;
  Event detail;
  detail.set("param", param).set("svi_step", s.cur_svi_step);
  trip_nonfinite(s, "nonfinite_grad", param, std::move(detail), {});
}

void svi_step_end(double loss, double grad_norm) {
  if (!enabled()) {
    g_in_svi_step.store(false, std::memory_order_relaxed);
    g_cur_svi_step.store(-1, std::memory_order_relaxed);
    return;
  }
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  g_in_svi_step.store(false, std::memory_order_relaxed);
  g_cur_svi_step.store(-1, std::memory_order_relaxed);
  ++s.svi_steps;
  const bool finite = std::isfinite(loss) && std::isfinite(grad_norm);
  if (std::isfinite(loss)) {
    s.elbo.add(-loss);  // loss is -ELBO
    s.elbo_last = -loss;
  }
  Event rec;
  rec.set("kind", "svi")
      .set("step", s.cur_svi_step)
      .set("loss", loss)
      .set("grad_norm", grad_norm)
      .set("elbo_mean", s.elbo.mean)
      .set("elbo_std", s.elbo.count >= 2 ? s.elbo.stddev() : 0.0)
      .set("sites", static_cast<std::int64_t>(s.sites.size()));
  push_record(s, rec.to_json());
  if (!finite) {
    Event detail;
    detail.set("loss", loss)
        .set("grad_norm", grad_norm)
        .set("svi_step", s.cur_svi_step);
    trip_nonfinite(s, std::isfinite(loss) ? "nonfinite_grad" : "nonfinite_loss",
                   "", std::move(detail), {});
  }
}

void mcmc_record_transition(const std::vector<SiteSpan>& spans, int chain,
                            std::int64_t step, bool warmup, double accept_prob,
                            bool divergent, const std::vector<double>& prev,
                            const std::vector<double>& next) {
  if (!enabled()) return;
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  ++s.mcmc_transitions;
  s.chains_seen.insert(chain);
  if (!warmup && std::isfinite(accept_prob)) {
    s.accept_w[chain].add(accept_prob);
  }
  std::string bad_site;
  std::vector<double> bad_values;
  for (const SiteSpan& span : spans) {
    double sum = 0.0;
    bool moved = false;
    bool finite = true;
    for (std::size_t i = span.begin; i < span.end && i < next.size(); ++i) {
      const double v = next[i];
      sum += v;
      // A non-finite coordinate never counts as "moved" — NaN != NaN would
      // otherwise inflate the moved-fraction of a broken chain.
      if (!std::isfinite(v)) {
        finite = false;
      } else if (i < prev.size() && v != prev[i]) {
        moved = true;
      }
    }
    if (!finite && bad_site.empty()) {
      bad_site = span.name;
      for (std::size_t i = span.begin;
           i < span.end && i < next.size() &&
           bad_values.size() < s.cfg.max_dump_values;
           ++i) {
        bad_values.push_back(next[i]);
      }
    }
    if (warmup) continue;  // health statistics cover the sampling phase
    McmcSiteStats& st = s.mcmc_sites[span.name];
    ++st.transitions;
    if (moved) ++st.moved;
    const auto n = static_cast<double>(span.end - span.begin);
    if (finite && n > 0) st.value_w[chain].add(sum / n);
  }
  Event rec;
  rec.set("kind", "mcmc")
      .set("chain", chain)
      .set("step", step)
      .set("warmup", warmup)
      .set("accept_prob", accept_prob)
      .set("divergent", divergent);
  push_record(s, rec.to_json());
  if (!bad_site.empty()) {
    Event detail;
    detail.set("site", bad_site).set("chain", chain).set("mcmc_step", step);
    trip_nonfinite(s, "nonfinite_site", bad_site, std::move(detail),
                   bad_values);
  }
}

void mcmc_record_divergence(const std::vector<SiteSpan>& spans,
                            const std::vector<double>& q,
                            const std::vector<double>& p,
                            const std::vector<double>& grad,
                            const std::vector<double>& inv_mass, double h0,
                            double h1) {
  if (!enabled()) return;
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  ++s.mcmc_divergences;
  // Blame the site with the largest energy contribution at the blow-up
  // point: kinetic (momentum) plus squared-gradient terms summed over the
  // site's coordinates. Any non-finite coordinate wins outright — the first
  // site to go non-finite is exactly the forensic answer we want.
  std::string blamed;
  double best = -1.0;
  std::vector<double> blamed_values;
  for (const SiteSpan& span : spans) {
    double score = 0.0;
    bool finite = true;
    for (std::size_t i = span.begin; i < span.end; ++i) {
      const double pi = i < p.size() ? p[i] : 0.0;
      const double gi = i < grad.size() ? grad[i] : 0.0;
      const double qi = i < q.size() ? q[i] : 0.0;
      const double mi = i < inv_mass.size() ? inv_mass[i] : 1.0;
      if (!std::isfinite(pi) || !std::isfinite(gi) || !std::isfinite(qi)) {
        finite = false;
        break;
      }
      score += 0.5 * mi * pi * pi + gi * gi;
    }
    if (!finite) score = std::numeric_limits<double>::infinity();
    if (score > best) {
      best = score;
      blamed = span.name;
      blamed_values.clear();
      for (std::size_t i = span.begin;
           i < span.end && i < q.size() &&
           blamed_values.size() < s.cfg.max_dump_values;
           ++i) {
        blamed_values.push_back(q[i]);
      }
    }
  }
  if (!blamed.empty()) ++s.mcmc_sites[blamed].blame;
  Event rec;
  rec.set("kind", "divergence")
      .set("site", blamed)
      .set("h0", h0)
      .set("h1", h1)
      .set("score", best);
  push_record(s, rec.to_json());
  Event detail;
  detail.set("site", blamed).set("h0", h0).set("h1", h1).set("score", best);
  dump_bundle(s, "divergence", blamed, std::move(detail), blamed_values);
}

void mcmc_update_site_health(const std::string& site, double ess,
                             double rhat) {
  if (!enabled()) return;
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  McmcSiteStats& st = s.mcmc_sites[site];
  if (std::isfinite(ess)) st.ess = ess;
  if (std::isfinite(rhat)) st.rhat = rhat;
}

std::int64_t records() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.records;
}

std::int64_t nan_trips() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.nan_trips;
}

std::int64_t forensic_dumps() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.dumps;
}

std::string last_forensic_reason() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.last_reason;
}

std::string last_offending_site() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.last_site;
}

bool force_forensic_dump(const std::string& reason,
                         const std::string& blame_site) {
  // No enabled() gate and force=true: an external failure detector's one
  // trigger must produce a bundle even when the flight recorder never ran or
  // an earlier NaN trip already spent max_forensic_dumps.
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  const std::int64_t before = s.dumps;
  Event detail;
  detail.set("reason", reason).set("blame_site", blame_site).set("forced",
                                                                 true);
  dump_bundle(s, reason, blame_site, std::move(detail), {}, /*force=*/true);
  return s.dumps == before + 1;
}

void publish(MetricsRegistry& reg) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  reg.gauge("diag.svi.steps").set(static_cast<double>(s.svi_steps));
  reg.gauge("diag.svi.sites").set(static_cast<double>(s.sites.size()));
  if (s.elbo.count > 0) {
    reg.gauge("diag.svi.elbo_mean").set(s.elbo.mean);
    reg.gauge("diag.svi.elbo_last").set(s.elbo_last);
    if (s.elbo.count >= 2) reg.gauge("diag.svi.elbo_std").set(s.elbo.stddev());
  }
  reg.gauge("diag.mcmc.transitions")
      .set(static_cast<double>(s.mcmc_transitions));
  reg.gauge("diag.mcmc.divergences")
      .set(static_cast<double>(s.mcmc_divergences));
  reg.gauge("diag.mcmc.chains").set(static_cast<double>(s.chains_seen.size()));
  const Welford accept = chain_ordered(s.accept_w);
  if (accept.count > 0 && std::isfinite(accept.mean)) {
    reg.gauge("diag.mcmc.accept_prob_mean").set(accept.mean);
  }
  double rhat_max = -std::numeric_limits<double>::infinity();
  double ess_min = std::numeric_limits<double>::infinity();
  for (const auto& [name, st] : s.mcmc_sites) {
    if (std::isfinite(st.rhat) && st.rhat > rhat_max) rhat_max = st.rhat;
    if (std::isfinite(st.ess) && st.ess < ess_min) ess_min = st.ess;
  }
  if (std::isfinite(rhat_max)) reg.gauge("diag.mcmc.rhat_max").set(rhat_max);
  if (std::isfinite(ess_min)) reg.gauge("diag.mcmc.ess_min").set(ess_min);
  reg.gauge("diag.nan_trips").set(static_cast<double>(s.nan_trips));
  reg.gauge("diag.forensic_dumps").set(static_cast<double>(s.dumps));
  reg.gauge("diag.records").set(static_cast<double>(s.records));
}

namespace {

/// Append `"key": number` to `out` only when the value is finite — the
/// tx.diag.v1 contract is that every emitted per-site statistic is finite.
void emit_field(std::string& out, bool& first, const std::string& key,
                double v) {
  if (!std::isfinite(v)) return;
  out += first ? "" : ", ";
  out += "\"" + escape_json(key) + "\": " + render_json_number(v);
  first = false;
}

void emit_field(std::string& out, bool& first, const std::string& key,
                std::int64_t v) {
  out += first ? "" : ", ";
  out += "\"" + escape_json(key) + "\": " + std::to_string(v);
  first = false;
}

}  // namespace

bool write_snapshot(const std::string& path, const std::string& bench_name) {
  publish(registry());
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    registry().counter("obs.sink_errors").add(1);
    return false;
  }

  out << "{\n";
  out << "  \"bench\": \"" << escape_json(bench_name) << "\",\n";
  out << "  \"schema\": \"tx.diag.v1\",\n";

  out << "  \"steps\": [";
  for (std::size_t i = 0; i < s.steps.size(); ++i) {
    if (i > 0) out << ", ";
    out << s.steps[i];
  }
  out << "],\n";

  out << "  \"svi\": {\n";
  out << "    \"steps\": " << s.svi_steps << ",\n";
  {
    std::string agg;
    bool first = true;
    emit_field(agg, first, "elbo_mean", s.elbo.count > 0 ? s.elbo.mean
                                                         : 0.0);
    emit_field(agg, first, "elbo_std",
               s.elbo.count >= 2 ? s.elbo.stddev() : 0.0);
    emit_field(agg, first, "elbo_last", s.elbo.count > 0 ? s.elbo_last : 0.0);
    out << "    " << agg << ",\n";
  }
  out << "    \"sites\": {";
  bool first_site = true;
  for (const auto& [name, st] : s.sites) {
    out << (first_site ? "\n" : ",\n") << "      \"" << escape_json(name)
        << "\": {";
    std::string body;
    bool first = true;
    emit_field(body, first, "count", st.mean_w.count);
    emit_field(body, first, "numel", st.numel);
    emit_field(body, first, "nonfinite", st.nonfinite);
    if (st.mean_w.count > 0) {
      emit_field(body, first, "mean", st.mean_w.mean);
      emit_field(body, first, "last_mean", st.last_mean);
      emit_field(body, first, "drift",
                 st.mean_w.count >= 2 ? st.mean_w.stddev() : 0.0);
      emit_field(body, first, "min", st.lo);
      emit_field(body, first, "max", st.hi);
    }
    if (st.kl_w.count > 0) {
      emit_field(body, first, "kl_count", st.kl_w.count);
      emit_field(body, first, "kl_mean", st.kl_w.mean);
      emit_field(body, first, "kl_last", st.kl_last);
    }
    out << body << "}";
    first_site = false;
  }
  out << (first_site ? "" : "\n    ") << "},\n";

  out << "    \"params\": {";
  bool first_param = true;
  for (const auto& [name, st] : s.params) {
    out << (first_param ? "\n" : ",\n") << "      \"" << escape_json(name)
        << "\": {";
    std::string body;
    bool first = true;
    emit_field(body, first, "steps", st.gnorm_w.count);
    emit_field(body, first, "nonfinite", st.nonfinite);
    if (st.gnorm_w.count > 0) {
      emit_field(body, first, "grad_norm_mean", st.gnorm_w.mean);
      emit_field(body, first, "grad_mean", st.gmean_w.mean);
    }
    if (st.gnorm_w.count >= 2) {
      emit_field(body, first, "grad_norm_std", st.gnorm_w.stddev());
      // Signal-to-noise of the mean gradient element over steps, and the
      // relative variance of the gradient norm (a gradient-noise-scale
      // proxy). Both guarded so degenerate streams stay finite.
      const double gstd = st.gmean_w.stddev();
      if (gstd > 0.0) {
        emit_field(body, first, "grad_snr", std::abs(st.gmean_w.mean) / gstd);
      }
      if (st.gnorm_w.mean != 0.0) {
        emit_field(body, first, "grad_noise_scale",
                   st.gnorm_w.variance() /
                       (st.gnorm_w.mean * st.gnorm_w.mean));
      }
    }
    out << body << "}";
    first_param = false;
  }
  out << (first_param ? "" : "\n    ") << "}\n";
  out << "  },\n";

  out << "  \"mcmc\": {\n";
  out << "    \"chains\": " << s.chains_seen.size() << ",\n";
  out << "    \"transitions\": " << s.mcmc_transitions << ",\n";
  out << "    \"divergences\": " << s.mcmc_divergences << ",\n";
  const Welford accept = chain_ordered(s.accept_w);
  if (accept.count > 0 && std::isfinite(accept.mean)) {
    out << "    \"accept_prob_mean\": " << render_json_number(accept.mean)
        << ",\n";
  }
  out << "    \"sites\": {";
  bool first_msite = true;
  for (const auto& [name, st] : s.mcmc_sites) {
    out << (first_msite ? "\n" : ",\n") << "      \"" << escape_json(name)
        << "\": {";
    std::string body;
    bool first = true;
    const Welford values = chain_ordered(st.value_w);
    emit_field(body, first, "draws", values.count);
    emit_field(body, first, "transitions", st.transitions);
    emit_field(body, first, "moved", st.moved);
    emit_field(body, first, "divergence_blame", st.blame);
    if (st.transitions > 0) {
      // Fraction of sampling-phase transitions on which the block changed —
      // not the Metropolis acceptance rate (see mcmc.accept_prob_mean).
      emit_field(body, first, "moved_fraction",
                 static_cast<double>(st.moved) /
                     static_cast<double>(st.transitions));
    }
    if (values.count > 0) {
      emit_field(body, first, "mean", values.mean);
      emit_field(body, first, "std",
                 values.count >= 2 ? values.stddev() : 0.0);
    }
    emit_field(body, first, "ess", st.ess);    // skipped unless finite
    emit_field(body, first, "rhat", st.rhat);  // skipped unless finite
    out << body << "}";
    first_msite = false;
  }
  out << (first_msite ? "" : "\n    ") << "}\n";
  out << "  },\n";

  out << "  \"events\": {\"nan_trips\": " << s.nan_trips
      << ", \"forensic_dumps\": " << s.dumps << ", \"records\": " << s.records
      << ", \"divergences\": " << s.mcmc_divergences << "}\n";
  out << "}\n";
  out.flush();
  if (!out.good()) {
    registry().counter("obs.sink_errors").add(1);
    return false;
  }
  return true;
}

}  // namespace tx::obs::diag
