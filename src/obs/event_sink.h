// Structured JSONL event stream + BENCH_*.json snapshot writer.
//
// A sink appends one JSON object per line to a file (step, loss, grad-norm,
// accept-prob, wall-time, ... — whatever fields the caller sets); at the end
// of a run EventSink::write_snapshot dumps the metrics registry plus any
// per-step series into the single-document schema the committed BENCH_*.json
// files use (see docs/observability.md for both schemas).
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace tx::obs {

/// JSON string escaping (quotes, backslashes, control characters).
std::string escape_json(const std::string& s);

/// Render a double as a JSON number ("%.17g"); non-finite values render as
/// null, JSON's only honest spelling for them.
std::string render_json_number(double v);

/// `entries` (name -> value pairs) as a JSON object: one
/// `"name": render(value)` line per entry, indented two spaces past
/// `indent`, with the closing brace at `indent` ("{}" when empty).
template <typename Entries, typename Render>
std::string render_json_object(const Entries& entries,
                               const std::string& indent, Render render) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : entries) {
    out += first ? "\n" : ",\n";
    first = false;
    out += indent + "  \"" + escape_json(name) + "\": " + render(value);
  }
  return out + (first ? "" : "\n" + indent) + "}";
}

/// One structured record: ordered key/value pairs rendered as a JSON object.
/// Values are stored pre-rendered (numbers round-trip via %.17g).
class Event {
 public:
  Event& set(const std::string& key, double v);
  Event& set(const std::string& key, std::int64_t v);
  Event& set(const std::string& key, int v) {
    return set(key, static_cast<std::int64_t>(v));
  }
  Event& set(const std::string& key, const std::string& v);
  Event& set(const std::string& key, const char* v) {
    return set(key, std::string(v));
  }
  Event& set(const std::string& key, bool v);

  std::size_t size() const { return fields_.size(); }
  std::string to_json() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;  // key -> rendered
};

/// Append-only JSONL file writer. Thread-safe; each emit writes (and flushes)
/// one line so a crashed run still leaves a readable prefix.
///
/// I/O failures never throw: a sink that cannot open its file (or whose
/// stream goes bad mid-run) reports ok() == false, drops further emits, and
/// bumps the "obs.sink_errors" counter once per failure transition.
class EventSink {
 public:
  explicit EventSink(const std::string& path, bool append = false);

  /// False once the underlying stream failed (open or write). Check after
  /// construction and after the last emit of a run.
  bool ok() const { return ok_; }

  void emit(const Event& e);
  std::int64_t events_written() const { return events_written_; }
  const std::string& path() const { return path_; }

  /// Dump a registry snapshot (counters, gauges, histogram summaries with
  /// quantiles from the LogHistogram buckets) plus named per-step series
  /// as one JSON document — the BENCH_*.json schema. Memory-accounting
  /// gauges (obs/mem.h) are published into `reg` first so every snapshot
  /// carries them. Returns false (and counts obs.sink_errors) on I/O
  /// failure instead of leaving a silently truncated file behind.
  static bool write_snapshot(
      const std::string& path, const std::string& bench_name,
      MetricsRegistry& reg = registry(),
      const std::map<std::string, std::vector<double>>& series = {});

  /// The same tx.obs.v1 document as a string — what write_snapshot writes
  /// and what the live telemetry server (obs/live.h) serves on /snapshot.
  /// Includes the run manifest (obs/manifest.h) and the section of every
  /// sharded stream with data (obs/shard.h).
  static std::string render_snapshot_json(
      const std::string& bench_name, MetricsRegistry& reg = registry(),
      const std::map<std::string, std::vector<double>>& series = {});

 private:
  std::string path_;
  std::ofstream out_;
  std::mutex mu_;
  std::int64_t events_written_ = 0;
  bool ok_ = true;
};

}  // namespace tx::obs
