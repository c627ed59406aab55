// The benchmark's own arithmetic: percentiles with sample counts, block
// medians, the /proc/stat steal parser, the least-squares predict line, and
// span self time. Header-only and free of tyxe-cpp dependencies so that
// selftest.cpp can check every function without building the library.
#pragma once

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace txbench {

/// A percentile together with how many samples it was taken from and how
/// many samples lie strictly above it (the "ten samples beyond" rule).
struct Quantile {
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

/// Linear-interpolation percentile (q in [0, 1]) of an unsorted sample.
/// An empty sample gives value 0 with n = 0.
inline Quantile percentile(std::vector<double> xs, double q) {
  Quantile out;
  out.n = xs.size();
  if (xs.empty()) return out;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  out.value = xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
  out.beyond = static_cast<std::size_t>(
      xs.end() - std::upper_bound(xs.begin(), xs.end(), out.value));
  return out;
}

inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 0.5).value;
}

/// Medians of consecutive blocks of `block` samples; a trailing partial
/// block is dropped so every block median covers the same amount of work.
inline std::vector<double> block_medians(const std::vector<double>& xs,
                                         std::size_t block) {
  std::vector<double> out;
  if (block == 0) return out;
  for (std::size_t start = 0; start + block <= xs.size(); start += block) {
    out.push_back(median(std::vector<double>(
        xs.begin() + static_cast<std::ptrdiff_t>(start),
        xs.begin() + static_cast<std::ptrdiff_t>(start + block))));
  }
  return out;
}

/// Aggregate CPU jiffies from the "cpu " line of /proc/stat.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  bool ok = false;
};

/// Parses the aggregate "cpu" line: user nice system idle iowait irq
/// softirq steal [guest guest_nice]. Guest time is already counted in user
/// and nice, so it is left out of the total. Needs at least the eight fields
/// up to steal; anything else gives ok = false.
inline CpuTimes parse_proc_stat(const std::string& text) {
  CpuTimes out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("cpu ", 0) != 0) continue;
    std::istringstream fields(line.substr(4));
    std::vector<std::uint64_t> v;
    std::uint64_t x = 0;
    while (v.size() < 8 && fields >> x) v.push_back(x);
    if (v.size() < 8) return out;
    for (const std::uint64_t f : v) out.total += f;
    out.steal = v[7];
    out.ok = true;
    return out;
  }
  return out;
}

/// Share of CPU time stolen by the hypervisor between two readings.
inline double steal_frac(const CpuTimes& before, const CpuTimes& after) {
  if (!before.ok || !after.ok || after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

/// y = intercept + slope * x by ordinary least squares. Needs two distinct
/// x values.
struct Line {
  double intercept = 0.0;
  double slope = 0.0;
  bool ok = false;
};

inline Line least_squares(const std::vector<double>& x,
                          const std::vector<double>& y) {
  Line out;
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return out;
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sxx += (x[i] - mx) * (x[i] - mx);
    sxy += (x[i] - mx) * (y[i] - my);
  }
  if (sxx <= 0.0) return out;
  out.slope = sxy / sxx;
  out.intercept = my - out.slope * mx;
  out.ok = true;
  return out;
}

/// One traced interval. `parent` indexes the enclosing span (-1 for a
/// root); `op` is shared by every span of one benchmark operation.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t op = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (children are clipped to the parent and
/// overlapping children are counted once).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  std::vector<std::int64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = (hi - lo) - covered;
  }
  return out;
}

}  // namespace txbench
