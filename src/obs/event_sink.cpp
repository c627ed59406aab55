#include "obs/event_sink.h"

#include <cmath>
#include <cstdio>

#include "obs/manifest.h"
#include "obs/mem.h"
#include "obs/shard.h"

namespace tx::obs {

std::string render_json_number(double v) {
  if (!std::isfinite(v)) {
    // JSON has no inf/nan literals; emit null like most telemetry pipelines.
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {

std::string render_series(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ", ";
    out += render_json_number(xs[i]);
  }
  out += "]";
  return out;
}

}  // namespace

std::string escape_json(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

Event& Event::set(const std::string& key, double v) {
  fields_.emplace_back(key, render_json_number(v));
  return *this;
}

Event& Event::set(const std::string& key, std::int64_t v) {
  fields_.emplace_back(key, std::to_string(v));
  return *this;
}

Event& Event::set(const std::string& key, const std::string& v) {
  fields_.emplace_back(key, "\"" + escape_json(v) + "\"");
  return *this;
}

Event& Event::set(const std::string& key, bool v) {
  fields_.emplace_back(key, v ? "true" : "false");
  return *this;
}

std::string Event::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + escape_json(fields_[i].first) + "\": " + fields_[i].second;
  }
  out += "}";
  return out;
}

EventSink::EventSink(const std::string& path, bool append)
    : path_(path),
      out_(path, append ? std::ios::app : std::ios::trunc) {
  if (!out_.is_open()) {
    ok_ = false;
    registry().counter("obs.sink_errors").add(1);
  }
}

void EventSink::emit(const Event& e) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!ok_) return;
  out_ << e.to_json() << '\n';
  out_.flush();
  if (!out_.good()) {
    ok_ = false;
    registry().counter("obs.sink_errors").add(1);
    return;
  }
  ++events_written_;
}

std::string EventSink::render_snapshot_json(
    const std::string& bench_name, MetricsRegistry& reg,
    const std::map<std::string, std::vector<double>>& series) {
  mem::publish(reg);
  std::vector<std::pair<const char*, std::string>> sections;
  for (const ShardedStream& stream : sharded_streams()) {
    std::string json = stream.section_json("  ");
    if (json.empty()) continue;
    stream.publish(reg);
    sections.emplace_back(stream.key, std::move(json));
  }

  std::string out;
  out += "{\n";
  out += "  \"bench\": \"" + escape_json(bench_name) + "\",\n";
  out += "  \"schema\": \"tx.obs.v1\",\n";

  out += "  \"counters\": " +
         render_json_object(reg.counters(), "  ",
                            [](std::int64_t v) { return std::to_string(v); }) +
         ",\n";
  out += "  \"gauges\": " +
         render_json_object(reg.gauges(), "  ", render_json_number) + ",\n";
  const auto render_histogram = [](const auto& h) {
    std::string o = "{\"count\": " + std::to_string(h.count);
    o += ", \"sum\": " + render_json_number(h.sum);
    o += ", \"mean\": " + render_json_number(h.mean());
    o += ", \"min\": " + render_json_number(h.min);
    o += ", \"max\": " + render_json_number(h.max);
    o += ", \"p50\": " + render_json_number(h.quantile(0.5));
    o += ", \"p90\": " + render_json_number(h.quantile(0.9));
    o += ", \"p99\": " + render_json_number(h.quantile(0.99));
    o += ", \"buckets\": [";
    for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
      if (i > 0) o += ", ";
      // The overflow bucket's +inf bound renders as the string "inf" (JSON
      // numbers cannot spell infinity).
      o += "{\"le\": ";
      o += std::isfinite(h.bounds[i]) ? render_json_number(h.bounds[i])
                                      : std::string("\"inf\"");
      o += ", \"count\": " + std::to_string(h.bucket_counts[i]) + "}";
    }
    return o + "]}";
  };
  out += "  \"histograms\": " +
         render_json_object(reg.histograms(), "  ", render_histogram) + ",\n";
  out += "  \"series\": " + render_json_object(series, "  ", render_series) +
         ",\n";

  // Run provenance — which build/SIMD level/thread count/environment
  // produced these numbers. bench_diff.py excludes it from metric diffs.
  out += "  \"manifest\": " + manifest::json("  ");

  // Stream sections are optional so snapshots from runs without them keep
  // their prior shape.
  for (const auto& [key, json] : sections) {
    out += ",\n  \"" + std::string(key) + "\": " + json;
  }
  out += "\n}\n";
  return out;
}

bool EventSink::write_snapshot(
    const std::string& path, const std::string& bench_name,
    MetricsRegistry& reg,
    const std::map<std::string, std::vector<double>>& series) {
  const std::string doc = render_snapshot_json(bench_name, reg, series);
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    registry().counter("obs.sink_errors").add(1);
    return false;
  }
  out << doc;
  out.flush();
  if (!out.good()) {
    registry().counter("obs.sink_errors").add(1);
    return false;
  }
  return true;
}

}  // namespace tx::obs
