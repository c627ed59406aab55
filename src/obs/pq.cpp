#include "obs/pq.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <utility>

#include "obs/event_sink.h"
#include "obs/hist.h"
#include "obs/registry.h"
#include "obs/shard.h"
#include "util/common.h"

namespace tx::obs::pq {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_any_data{false};

std::mutex g_config_mu;
Config g_config;

// The calling thread's StreamScope label.
thread_local std::string t_stream = "predict";

/// "<prefix>/test" -> prefix; "" when the label has no such suffix.
std::string test_prefix_of(const std::string& label) {
  const std::string suffix = "/test";
  if (label.size() <= suffix.size()) return "";
  if (label.compare(label.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return "";
  }
  return label.substr(0, label.size() - suffix.size());
}

/// Equal-width bin of a confidence in [0, 1]: float*int truncation,
/// clamped so 1.0 lands in the top bin.
std::size_t bin_of(float confidence, std::size_t bins) {
  const int b = static_cast<int>(confidence * static_cast<int>(bins));
  return static_cast<std::size_t>(std::clamp(b, 0, static_cast<int>(bins) - 1));
}

void merge_stats(StreamStats& dst, const StreamStats& src) {
  // Every shard cell is sized under the current Config (configure drops
  // them all), so a fresh table cell takes its shape from the shard cell
  // without taking the config lock under the table lock.
  if (dst.score_bins.empty()) {
    dst = empty_stream({static_cast<int>(src.bin_count.size()),
                        static_cast<int>(src.score_bins.size())});
  }
  dst.examples += src.examples;
  dst.confidence_sum += src.confidence_sum;
  dst.predictive_entropy_sum += src.predictive_entropy_sum;
  dst.aleatoric_entropy_sum += src.aleatoric_entropy_sum;
  for (std::size_t i = 0; i < src.score_bins.size(); ++i) {
    dst.score_bins[i] += src.score_bins[i];
  }
  dst.labeled += src.labeled;
  dst.correct += src.correct;
  dst.nll_sum += src.nll_sum;
  dst.brier_sum += src.brier_sum;
  for (std::size_t i = 0; i < src.bin_count.size(); ++i) {
    dst.bin_confidence_sum[i] += src.bin_confidence_sum[i];
    dst.bin_accuracy_sum[i] += src.bin_accuracy_sum[i];
    dst.bin_count[i] += src.bin_count[i];
  }
  dst.sample_batches += src.sample_batches;
  dst.mc_samples = std::max(dst.mc_samples, src.mc_samples);
  dst.variance_sum += src.variance_sum;
  dst.variance_examples += src.variance_examples;
  dst.degraded_batches += src.degraded_batches;
}

using Streams = ShardedTable<StreamStats, merge_stats>;

StreamStats& shard_stream() {
  StreamStats& stats = Streams::local(t_stream);
  if (stats.score_bins.empty()) {
    stats = empty_stream(config());
    g_any_data.store(true, std::memory_order_relaxed);
  }
  return stats;
}

/// `sum` over the labelled examples; zero when there are none.
double per_labeled(const StreamStats& s, double sum) {
  return s.labeled == 0 ? 0.0 : sum / static_cast<double>(s.labeled);
}

/// Binned Mann-Whitney U from two max-prob histograms; ties within a bin
/// count half. Bins iterate low to high so `below` tracks negatives with
/// strictly smaller scores.
double auroc_from_bins(const std::vector<std::int64_t>& pos,
                       const std::vector<std::int64_t>& neg) {
  std::int64_t total_pos = 0, total_neg = 0;
  for (std::int64_t c : pos) total_pos += c;
  for (std::int64_t c : neg) total_neg += c;
  if (total_pos == 0 || total_neg == 0) return 0.0;
  double u = 0.0;
  std::int64_t below = 0;
  const std::size_t bins = std::min(pos.size(), neg.size());
  for (std::size_t b = 0; b < bins; ++b) {
    u += static_cast<double>(pos[b]) *
         (static_cast<double>(below) + 0.5 * static_cast<double>(neg[b]));
    below += neg[b];
  }
  return u / (static_cast<double>(total_pos) * static_cast<double>(total_neg));
}

/// The AUROC of every "<p>/test" stream against its "<p>/ood" partner as
/// (p, auroc) pairs, in stream-label order.
std::vector<std::pair<std::string, double>> ood_aurocs(
    const std::map<std::string, StreamStats>& streams) {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [label, s] : streams) {
    const std::string prefix = test_prefix_of(label);
    if (prefix.empty()) continue;
    const auto ood = streams.find(prefix + "/ood");
    if (ood == streams.end()) continue;
    // OOD examples are the positives: an OOD detector scores *low*
    // max-probability as suspicious, so AUROC is P(test score > ood score).
    out.emplace_back(prefix,
                     auroc_from_bins(s.score_bins, ood->second.score_bins));
  }
  return out;
}

}  // namespace

StreamStats empty_stream(const Config& config) {
  StreamStats s;
  s.score_bins.assign(static_cast<std::size_t>(config.score_bins), 0);
  const auto n = static_cast<std::size_t>(config.reliability_bins);
  s.bin_confidence_sum.assign(n, 0.0);
  s.bin_accuracy_sum.assign(n, 0.0);
  s.bin_count.assign(n, 0);
  return s;
}

void add_outcome(StreamStats& s, float confidence, bool correct, float p_true,
                 double brier) {
  s.labeled += 1;
  s.correct += correct ? 1 : 0;
  s.nll_sum -= std::log(std::max(p_true, 1e-12f));
  s.brier_sum += brier;
  const std::size_t bin = bin_of(confidence, s.bin_count.size());
  s.bin_confidence_sum[bin] += confidence;
  s.bin_accuracy_sum[bin] += correct ? 1.0 : 0.0;
  s.bin_count[bin] += 1;
}

std::vector<ReliabilityBin> reliability(const StreamStats& s) {
  std::vector<ReliabilityBin> bins(s.bin_count.size());
  for (std::size_t b = 0; b < bins.size(); ++b) {
    const std::int64_t count = s.bin_count[b];
    bins[b].count = count;
    if (count > 0) {
      bins[b].confidence = s.bin_confidence_sum[b] / static_cast<double>(count);
      bins[b].accuracy = s.bin_accuracy_sum[b] / static_cast<double>(count);
    }
  }
  return bins;
}

double ece(const StreamStats& s) {
  if (s.labeled == 0) return 0.0;
  const double n = static_cast<double>(s.labeled);
  double out = 0.0;
  for (const ReliabilityBin& b : reliability(s)) {
    if (b.count == 0) continue;
    out += (static_cast<double>(b.count) / n) *
           std::fabs(b.accuracy - b.confidence);
  }
  return out;
}

double nll(const StreamStats& s) { return per_labeled(s, s.nll_sum); }

double accuracy(const StreamStats& s) {
  return per_labeled(s, static_cast<double>(s.correct));
}

double brier(const StreamStats& s) { return per_labeled(s, s.brier_sum); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
  if (on) g_any_data.store(true, std::memory_order_relaxed);
}

void configure(const Config& config) {
  TX_CHECK(config.reliability_bins >= 1 && config.score_bins >= 1,
           "pq::configure: bin counts must be >= 1");
  Streams::clear();
  std::lock_guard<std::mutex> lock(g_config_mu);
  g_config = config;
}

Config config() {
  std::lock_guard<std::mutex> lock(g_config_mu);
  return g_config;
}

void reset() {
  Streams::clear();
  g_any_data.store(enabled(), std::memory_order_relaxed);
}

bool has_data() {
  return enabled() || g_any_data.load(std::memory_order_relaxed);
}

StreamScope::StreamScope(std::string label)
    : prev_(std::exchange(t_stream, std::move(label))) {}

StreamScope::~StreamScope() { t_stream = std::move(prev_); }

const std::string& current_stream() { return t_stream; }

void record_prediction(float confidence, double predictive_entropy,
                       double aleatoric_entropy) {
  if (!enabled()) return;
  StreamStats& s = shard_stream();
  s.examples += 1;
  s.confidence_sum += confidence;
  s.predictive_entropy_sum += predictive_entropy;
  s.aleatoric_entropy_sum += aleatoric_entropy;
  s.score_bins[bin_of(confidence, s.score_bins.size())] += 1;
  // Lock-free live mirror so /metrics scrapes see a tx_pq_* histogram
  // filling mid-run, not just the end-of-batch gauges.
  registry()
      .log_histogram("pq.confidence." + current_stream())
      .record(confidence);
}

void record_outcome(float confidence, bool correct, float p_true,
                    double brier) {
  if (!enabled()) return;
  add_outcome(shard_stream(), confidence, correct, p_true, brier);
}

void record_sample_pool(std::int64_t mc_samples, double variance_sum,
                        std::int64_t examples) {
  if (!enabled()) return;
  StreamStats& s = shard_stream();
  s.sample_batches += 1;
  s.mc_samples = mc_samples;
  s.variance_sum += variance_sum;
  s.variance_examples += examples;
}

void record_degraded_batch() {
  if (!enabled()) return;
  shard_stream().degraded_batches += 1;
}

void flush_thread_cache() { Streams::flush(); }

std::map<std::string, StreamStats> stream_table() {
  return Streams::snapshot();
}

std::int64_t examples(const std::string& stream) {
  return Streams::at(stream).examples;
}

std::int64_t labeled(const std::string& stream) {
  return Streams::at(stream).labeled;
}

double streaming_ece(const std::string& stream) {
  return ece(Streams::at(stream));
}

double streaming_nll(const std::string& stream) {
  return nll(Streams::at(stream));
}

double streaming_accuracy(const std::string& stream) {
  return accuracy(Streams::at(stream));
}

double streaming_brier(const std::string& stream) {
  return brier(Streams::at(stream));
}

double ood_auroc(const std::string& pos_stream,
                 const std::string& neg_stream) {
  return auroc_from_bins(Streams::at(pos_stream).score_bins,
                         Streams::at(neg_stream).score_bins);
}

std::string section_json(const std::string& indent) {
  if (!has_data()) return "";
  const Config cfg = config();
  const auto streams = stream_table();
  const std::string in1 = indent + "  ";
  const std::string in2 = in1 + "  ";
  const std::string in3 = in2 + "  ";
  const std::string in4 = in3 + "  ";

  std::string out = "{\n";
  out += in1 + "\"schema\": \"tx.pq.v1\",\n";
  out += in1 + "\"reliability_bins\": " + std::to_string(cfg.reliability_bins) +
         ",\n";
  out += in1 + "\"score_bins\": " + std::to_string(cfg.score_bins) + ",\n";

  const auto render_stream = [&](const StreamStats& s) {
    std::string o = "{\n";
    o += in3 + "\"examples\": " + std::to_string(s.examples) + ",\n";
    o += in3 + "\"labeled\": " + std::to_string(s.labeled) + ",\n";
    o += in3 + "\"correct\": " + std::to_string(s.correct) + ",\n";
    if (s.examples > 0) {
      const double n = static_cast<double>(s.examples);
      const double pred = s.predictive_entropy_sum;
      const double alea = s.aleatoric_entropy_sum;
      o += in3 + "\"confidence_mean\": " +
           render_json_number(s.confidence_sum / n) + ",\n";
      o += in3 + "\"entropy\": {\n";
      o += in4 + "\"predictive_sum\": " + render_json_number(pred) + ",\n";
      o += in4 + "\"aleatoric_sum\": " + render_json_number(alea) + ",\n";
      o += in4 + "\"predictive_mean\": " + render_json_number(pred / n) + ",\n";
      o += in4 + "\"aleatoric_mean\": " + render_json_number(alea / n) + ",\n";
      // Epistemic (mutual information) is the difference of the sums, so
      // aleatoric_mean + epistemic_mean == predictive_mean to the rounding
      // of one division — validate_bench.py holds this to a ulp-scaled tol.
      o += in4 + "\"epistemic_mean\": " +
           render_json_number((pred - alea) / n) + "\n";
      o += in3 + "},\n";
    }
    if (s.labeled > 0) {
      o += in3 + "\"accuracy\": " + render_json_number(accuracy(s)) + ",\n";
      o += in3 + "\"nll\": " + render_json_number(nll(s)) + ",\n";
      o += in3 + "\"brier\": " + render_json_number(brier(s)) + ",\n";
      o += in3 + "\"ece\": " + render_json_number(ece(s)) + ",\n";
    }
    if (s.degraded_batches > 0) {
      // Emitted only when non-zero so snapshots from guard-free runs keep
      // their pre-guard schema byte-for-byte (golden baselines).
      o += in3 + "\"degraded_batches\": " +
           std::to_string(s.degraded_batches) + ",\n";
    }
    if (s.sample_batches > 0) {
      o += in3 + "\"mc_samples\": " + std::to_string(s.mc_samples) + ",\n";
      o += in3 + "\"sample_batches\": " + std::to_string(s.sample_batches) +
           ",\n";
      o += in3 + "\"across_sample_variance_mean\": " +
           render_json_number(
               s.variance_examples > 0
                   ? s.variance_sum /
                         static_cast<double>(s.variance_examples)
                   : 0.0) +
           ",\n";
    }
    o += in3 + "\"reliability\": [";
    for (std::size_t b = 0; b < s.bin_count.size(); ++b) {
      if (b > 0) o += ", ";
      const double le = static_cast<double>(b + 1) /
                        static_cast<double>(cfg.reliability_bins);
      o += "{\"le\": " + render_json_number(le);
      o += ", \"count\": " + std::to_string(s.bin_count[b]);
      o += ", \"confidence_sum\": " +
           render_json_number(s.bin_confidence_sum[b]);
      o += ", \"accuracy_sum\": " + render_json_number(s.bin_accuracy_sum[b]);
      o += "}";
    }
    o += "],\n";
    o += in3 + "\"scores\": [";
    for (std::size_t b = 0; b < s.score_bins.size(); ++b) {
      if (b > 0) o += ", ";
      o += std::to_string(s.score_bins[b]);
    }
    o += "]\n";
    return o + in2 + "}";
  };
  out += in1 + "\"streams\": " +
         render_json_object(streams, in1, render_stream) + ",\n";

  out += in1 + "\"ood\": " +
         render_json_object(ood_aurocs(streams), in1, render_json_number) +
         "\n";
  out += indent + "}";
  return out;
}

void publish(MetricsRegistry& reg) {
  const auto streams = stream_table();
  reg.gauge("pq.streams").set(static_cast<double>(streams.size()));
  for (const auto& [label, s] : streams) {
    reg.gauge("pq.examples." + label).set(static_cast<double>(s.examples));
    if (s.examples > 0) {
      const double n = static_cast<double>(s.examples);
      reg.gauge("pq.confidence_mean." + label).set(s.confidence_sum / n);
      reg.gauge("pq.entropy.predictive." + label)
          .set(s.predictive_entropy_sum / n);
      reg.gauge("pq.entropy.aleatoric." + label)
          .set(s.aleatoric_entropy_sum / n);
      reg.gauge("pq.entropy.epistemic." + label)
          .set((s.predictive_entropy_sum - s.aleatoric_entropy_sum) / n);
    }
    reg.gauge("pq.labeled." + label).set(static_cast<double>(s.labeled));
    if (s.labeled > 0) {
      reg.gauge("pq.accuracy." + label).set(accuracy(s));
      reg.gauge("pq.nll." + label).set(nll(s));
      reg.gauge("pq.brier." + label).set(brier(s));
      reg.gauge("pq.ece." + label).set(ece(s));
    }
    if (s.sample_batches > 0) {
      reg.gauge("pq.mc_samples." + label)
          .set(static_cast<double>(s.mc_samples));
    }
    if (s.degraded_batches > 0) {
      reg.gauge("pq.degraded_batches." + label)
          .set(static_cast<double>(s.degraded_batches));
    }
  }
  for (const auto& [prefix, auroc] : ood_aurocs(streams)) {
    reg.gauge("pq.ood_auroc." + prefix).set(auroc);
  }
}

}  // namespace tx::obs::pq
