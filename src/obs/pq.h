// Streaming predictive-quality telemetry: online calibration, uncertainty
// decomposition, and OOD monitoring on the posterior-predictive path.
//
// The rest of the obs stack (trace/diag/prof/live) watches training-time
// health; this layer watches the *predictions* — the paper's actual
// deliverable (Fig 2 calibration curves, Table 1 NLL/ECE/OOD rows). It is
// off by default (one relaxed atomic load per hook while disabled) and is
// enabled by the shared bench flag `--pq` / TYXE_PQ (obs/flags.h).
//
// Feeds arrive as per-example scalars — tx_obs is tensor-free by design
// (it links tx_util only), so the tensor-to-scalar reductions live in the
// callers: metrics/pq_feed.h reduces probability tables and posterior
// sample stacks, and SupervisedBNN::predict/evaluate route through the
// likelihood's record_predictive_quality hook. Examples land in the calling
// thread's *stream*, a label installed with StreamScope ("predict" when no
// scope is open); fig2/table1 label per-strategy test and OOD streams
// ("MF/test", "MF/ood", ...).
//
// Every accumulator is one-pass and exactly mergeable:
//
//  * Reliability bins and streaming NLL / Brier / accuracy — the labelled
//    outcome feed. This header is their one definition: the bin rule, the
//    NLL clamp, the per-labelled means and the ECE formula below are what
//    the batch tx::metrics functions read too, by folding a table's rows
//    into a local StreamStats (add_outcome). A stream fed a table in one
//    call is therefore bitwise equal to the batch metrics on that table;
//    fed in several calls it adds the calls' partial sums, so its NLL and
//    Brier may differ in the last place. pq_test is the gating check; the
//    table1 harness re-checks it on every --pq run, and the fig2 --pq leg
//    runs in the non-gating bench-smoke CI job.
//  * Predictive-entropy decomposition — per example, predictive entropy
//    H[mean_s p_s] splits into aleatoric (mean_s H[p_s]) plus epistemic
//    (mutual information); epistemic is derived at snapshot time as the
//    difference of the two sums, so the identity holds to rounding of one
//    division.
//  * OOD-score histograms — fixed-bin max-probability counts per stream;
//    a binned Mann-Whitney AUROC (ties count half within a bin) is derived
//    at snapshot time for every "<p>/test" vs "<p>/ood" stream pair.
//  * Posterior-sample-pool health — MC sample count and mean across-sample
//    variance of the class probabilities.
//
// Updates land in a per-thread shard (obs/shard.h), so aggregates are
// complete once a parallel region returns. Merging is addition on integers
// and double sums: integer fields are bitwise-identical at every
// TYXE_NUM_THREADS unconditionally, and the double sums are too whenever
// each stream is fed from one thread in a fixed order — which is how every
// in-tree feeder (the predict path) works.
//
// The layer serializes as a "pq" section (schema tx.pq.v1) inside tx.obs.v1
// snapshots, and publish() mirrors headline aggregates as pq.* registry
// gauges (plus a live pq.confidence.<stream> histogram recorded per
// example) for the Prometheus /metrics endpoint. See docs/observability.md
// ("Predictive quality").
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tx::obs {
class MetricsRegistry;
}  // namespace tx::obs

namespace tx::obs::pq {

/// Accumulator shape; reliability_bins must match the `num_bins` of the
/// batch tx::metrics calls for their ECE to equal the streamed one (both
/// default to 10). Reconfiguring drops recorded data.
struct Config {
  int reliability_bins = 10;
  int score_bins = 64;
};

/// One stream's accumulators. All fields merge by addition, except
/// mc_samples (last batch's sample count; merges by max across shards).
struct StreamStats {
  // Label-free prediction feed (record_prediction).
  std::int64_t examples = 0;
  double confidence_sum = 0.0;
  double predictive_entropy_sum = 0.0;
  double aleatoric_entropy_sum = 0.0;
  std::vector<std::int64_t> score_bins;  // max-prob histogram, equal width

  // Labelled outcome feed (record_outcome).
  std::int64_t labeled = 0;
  std::int64_t correct = 0;
  double nll_sum = 0.0;    // sum of clamped -log(p_true) (add_outcome)
  double brier_sum = 0.0;  // sum of per-example squared one-hot error
  std::vector<double> bin_confidence_sum;  // reliability bins
  std::vector<double> bin_accuracy_sum;
  std::vector<std::int64_t> bin_count;

  // Posterior-sample-pool health (record_sample_pool).
  std::int64_t sample_batches = 0;
  std::int64_t mc_samples = 0;
  double variance_sum = 0.0;  // across-sample variance, summed per example
  std::int64_t variance_examples = 0;

  // Batches whose MC sample stack was budget-truncated (guard degradation;
  // record_degraded_batch). Merges by addition.
  std::int64_t degraded_batches = 0;
};

/// One reliability bin read back: mean confidence, empirical accuracy and
/// example count (both means 0 for an empty bin).
struct ReliabilityBin {
  double confidence = 0.0;
  double accuracy = 0.0;
  std::int64_t count = 0;
};

/// An empty accumulator shaped by `config`, as every new stream starts.
StreamStats empty_stream(const Config& config);

/// Fold one labelled outcome into `s`. `confidence` is the row's first-max
/// float probability and `correct` whether that argmax is the label;
/// `p_true` is the probability of the true class (its NLL term clamps it
/// below at 1e-12) and `brier` the squared one-hot error. The confidence
/// picks the reliability bin by float*int truncation, clamped so 1.0 lands
/// in the top bin.
void add_outcome(StreamStats& s, float confidence, bool correct, float p_true,
                 double brier);

/// Read-outs of the labelled examples in `s`: the reliability bins, the
/// count-weighted mean |accuracy - confidence| over non-empty bins (ECE),
/// and the per-labelled means. All zero when nothing is labelled.
std::vector<ReliabilityBin> reliability(const StreamStats& s);
double ece(const StreamStats& s);
double nll(const StreamStats& s);
double accuracy(const StreamStats& s);
double brier(const StreamStats& s);

/// Master switch. Defaults to off; while off every record hook below is one
/// relaxed atomic load and an early return.
bool enabled();
void set_enabled(bool on);

/// Replace the accumulator shape. Drops all recorded data (streams are
/// re-binned from scratch); do not call while a parallel region is live.
void configure(const Config& config);
Config config();

/// Drop every stream (benches and tests call this between phases; do not
/// call while a parallel region is live). Keeps the enabled flag and config.
void reset();

/// True once anything was recorded (or pq is currently enabled) — gates
/// whether write_snapshot emits a "pq" section at all.
bool has_data();

// ---- stream labels ---------------------------------------------------------

/// RAII stream label for the calling thread; record hooks attribute to the
/// innermost open scope ("predict" when none). Labels nest like spans.
class StreamScope {
 public:
  explicit StreamScope(std::string label);
  ~StreamScope();
  StreamScope(const StreamScope&) = delete;
  StreamScope& operator=(const StreamScope&) = delete;

 private:
  std::string prev_;
};

/// The calling thread's current stream label.
const std::string& current_stream();

// ---- record hooks (per-example scalars; see metrics/pq_feed.h) -------------

/// One label-free prediction: `confidence` is the max aggregated-mean class
/// probability (float, as the labelled feed bins it),
/// `predictive_entropy` is H of the mean distribution and
/// `aleatoric_entropy` the mean per-sample entropy; epistemic (mutual
/// information) is derived as their difference at snapshot time.
void record_prediction(float confidence, double predictive_entropy,
                       double aleatoric_entropy);

/// One labelled outcome, folded by add_outcome into the current stream
/// (tx::metrics::row_outcome computes the arguments from a table row).
void record_outcome(float confidence, bool correct, float p_true,
                    double brier);

/// Posterior-sample-pool health for one predicted batch: the MC sample
/// count behind it and the across-sample variance of the class
/// probabilities, summed over the batch's `examples`.
void record_sample_pool(std::int64_t mc_samples, double variance_sum,
                        std::int64_t examples);

/// One predicted batch whose posterior-sample stack was truncated by a
/// guard budget (tx::guard degradation). Degraded batches feed the same
/// quality accumulators as full ones — the draws are honest posterior
/// samples, just fewer — but the count marks the stream so readers never
/// mistake a truncated aggregate for full-quality numbers.
void record_degraded_batch();

/// Merge this thread's shard into the global table (obs/shard.h).
void flush_thread_cache();

// ---- aggregates ------------------------------------------------------------

/// All streams (flushes the calling thread's shard first).
std::map<std::string, StreamStats> stream_table();

/// One stream's counts and the read-outs above, by label. Zero for an
/// unknown or empty stream.
std::int64_t examples(const std::string& stream);
std::int64_t labeled(const std::string& stream);
double streaming_ece(const std::string& stream);
double streaming_nll(const std::string& stream);
double streaming_accuracy(const std::string& stream);
double streaming_brier(const std::string& stream);

/// Binned Mann-Whitney AUROC of `pos_stream` scores over `neg_stream`
/// scores (ties within a bin count half). Zero when either stream has no
/// scores. A binned estimate — it approaches tx::metrics::auroc as
/// score_bins grows but is not bitwise-comparable to it.
double ood_auroc(const std::string& pos_stream, const std::string& neg_stream);

/// The "pq" snapshot section (schema tx.pq.v1) as a pre-rendered JSON
/// object, or "" when has_data() is false. `indent` is the prefix of nested
/// lines when embedding into a larger document.
std::string section_json(const std::string& indent = "  ");

/// Mirror headline aggregates into `reg` as gauges: "pq.streams" plus
/// per-stream "pq.examples.<s>" / "pq.ece.<s>" / "pq.nll.<s>" / ... and
/// "pq.ood_auroc.<prefix>" per test/ood pair. The feeders call this at the
/// end of every observed batch so live /metrics scrapes stay fresh;
/// write_snapshot calls it when has_data().
void publish(MetricsRegistry& reg);

}  // namespace tx::obs::pq
