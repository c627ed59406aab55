// Streaming inference-health diagnostics with per-site attribution and
// failure forensics — the *statistical* observability layer on top of the
// systems layer (registry/trace/mem).
//
// What it tracks while enabled:
//  * SVI: per-site running statistics of the variational draws (mean drift
//    via Welford, value range), per-site analytic KL(q‖p) where registered,
//    per-parameter-group gradient SNR / noise scale, and the ELBO running
//    mean + variance.
//  * MCMC: per-site split-R̂ / ESS refreshed incrementally during sampling
//    (fed by the driver, which reuses src/infer/diagnostics.h), per-site
//    value statistics and moved-fractions, the transition-level Metropolis
//    acceptance mean, and divergence localization —
//    each HMC/NUTS energy blow-up is blamed on the site with the largest
//    momentum/gradient contribution.
//
// A flight recorder keeps a ring buffer of the last N step records; on a
// NaN/Inf sentinel trip (loss, gradient, or site value) or a divergence it
// dumps a forensic JSONL bundle (recent steps + offending site values +
// the current trace span path) before the driver raises/continues.
//
// Everything is OFF by default: every hook is one relaxed atomic load while
// disabled. Enabled updates take one process-global mutex — diagnostics run
// at step/transition frequency, not kernel frequency, so contention is
// negligible even under tx::par multi-chain MCMC (the CI TSan pass pins
// this down).
//
// The subsystem is tensor-free by design: messengers and drivers reduce
// values to scalars before they reach this layer, so tx_obs keeps its
// dependency footprint (tx_util only). See docs/observability.md
// ("Inference health").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace tx::obs::diag {

/// Streaming mean/variance accumulator (Welford). Exposed for reuse by
/// drivers and tests; variance() is NaN until two samples arrived.
struct Welford {
  std::int64_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;

  void add(double x) {
    ++count;
    const double delta = x - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (x - mean);
  }
  /// Folds in another accumulator's samples (Chan et al.'s pairwise
  /// update). Merging into an empty accumulator copies `other` exactly.
  void merge(const Welford& other);
  double variance() const;  // sample variance; NaN when count < 2
  double stddev() const;    // sqrt(variance()); NaN when count < 2
};

/// Flight-recorder / health-stream configuration (set before enabling).
struct Config {
  /// Target file of the forensic JSONL bundle dumped on a sentinel trip.
  std::string forensic_path = "tx_forensic.jsonl";
  /// Ring-buffer depth: the last N step/transition records kept for dumps.
  std::size_t ring_capacity = 64;
  /// MCMC drivers recompute per-site split-R̂/ESS every this many kept draws
  /// (and once more at the end of each chain).
  int refresh_interval = 64;
  /// How many raw values of an offending (non-finite) site the dump keeps.
  std::size_t max_dump_values = 16;
  /// Forensic bundles written per reset() — the first failure is the
  /// interesting one; later trips only bump counters.
  std::size_t max_forensic_dumps = 1;
};

/// Coordinate range of one named site inside a flattened MCMC position
/// vector: [begin, end).
struct SiteSpan {
  std::string name;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Master switch. Defaults to off; while off every hook below is one relaxed
/// atomic load and an early return.
bool enabled();
void set_enabled(bool on);

/// True between svi_step_begin and svi_step_end. The DiagnosticsMessenger
/// consults this so site recording only happens inside SVI steps (an MCMC
/// potential evaluates the model hundreds of times per transition — those
/// sightings are accounted by the driver instead).
bool in_svi_step();

/// Index of the currently open SVI step, -1 outside one. The
/// DiagnosticsMessenger tags pending guide sightings with this so q/p
/// pairing can never cross a step boundary.
std::int64_t current_svi_step();

void configure(Config cfg);
Config config();

/// Drop all accumulated health state, the flight-recorder ring, and the trip
/// counters (benches and tests call this between phases).
void reset();

// ---- SVI stream ------------------------------------------------------------

/// Marks the start of an optimization step. Assigns the monotone global diag
/// step index recorded in snapshots ("steps").
void svi_step_begin(std::int64_t svi_step);

/// Per-site value summary from the DiagnosticsMessenger. With finite ==
/// false this is a sentinel trip: `sample_values` should carry the first few
/// raw values of the offending tensor for the forensic dump.
void record_site_value(const std::string& site, double mean, double lo,
                       double hi, std::int64_t numel, bool finite,
                       const std::vector<double>& sample_values = {});

/// Per-site analytic KL(q‖p), computed by the DiagnosticsMessenger when the
/// guide's q and the model's p pair up under a registered closed form.
void record_site_kl(const std::string& site, double kl);

/// Per-parameter-group gradient summary from the SVI driver (mean element
/// and L2 norm of this step's gradient). Non-finite values trip the
/// sentinel.
void record_param_grad(const std::string& param, double grad_mean,
                       double grad_norm, bool finite);

/// Completes the step: updates the ELBO running mean/variance, pushes the
/// flight-recorder record, and trips the sentinel if loss or grad_norm went
/// non-finite.
void svi_step_end(double loss, double grad_norm);

// ---- MCMC stream -----------------------------------------------------------

/// One kernel transition. `prev`/`next` are the positions before and after;
/// per-site value statistics and moved-fractions are derived from them, and
/// non-finite coordinates in `next` trip the sentinel with the owning site.
void mcmc_record_transition(const std::vector<SiteSpan>& spans, int chain,
                            std::int64_t step, bool warmup, double accept_prob,
                            bool divergent, const std::vector<double>& prev,
                            const std::vector<double>& next);

/// Divergence localization: called by HMC/NUTS kernels at the point of an
/// energy blow-up with the end-of-trajectory state. The site with the
/// largest momentum/gradient contribution (any non-finite coordinate wins
/// outright) is blamed, counted, and named in the forensic dump.
void mcmc_record_divergence(const std::vector<SiteSpan>& spans,
                            const std::vector<double>& q,
                            const std::vector<double>& p,
                            const std::vector<double>& grad,
                            const std::vector<double>& inv_mass, double h0,
                            double h1);

/// Latest per-site split-R̂ / ESS from the driver's incremental refresh.
/// Non-finite values are ignored (the short-chain NaN contract of
/// src/infer/diagnostics.h), so early refreshes can call this untested.
void mcmc_update_site_health(const std::string& site, double ess, double rhat);

// ---- introspection ---------------------------------------------------------

std::int64_t records();         // flight-recorder records ever pushed
std::int64_t nan_trips();       // sentinel trips (non-finite loss/grad/site)
std::int64_t forensic_dumps();  // bundles actually written
std::string last_forensic_reason();  // reason of the forensic bundle; ""
                                     // until the first dump
std::string last_offending_site();   // "" when the dump had no site to blame

/// Write a tx.diag.forensic.v1 bundle unconditionally: works while diag is
/// disabled (the ring is just empty then) and bypasses max_forensic_dumps —
/// callers are external failure detectors (the tx::obs watchdog), whose one
/// trigger must never be swallowed because an earlier NaN already used the
/// per-run dump budget. `blame_site` names what the caller holds responsible
/// (the watchdog passes the last live span path). Returns false on I/O
/// failure (counted in obs.sink_errors).
bool force_forensic_dump(const std::string& reason,
                         const std::string& blame_site);

/// Mirror aggregate health gauges ("diag.*") into `reg` so tx.obs.v1
/// snapshots carry them. write_snapshot() calls this on the global registry.
void publish(MetricsRegistry& reg);

/// Write the tx.diag.v1 snapshot document (see docs/observability.md).
/// Returns false (and counts obs.sink_errors) on I/O failure.
bool write_snapshot(const std::string& path, const std::string& bench_name);

}  // namespace tx::obs::diag
