// Self-tests for the benchmark's own arithmetic (benchlib.h). run.py runs
// this binary before every benchmark run and refuses to report numbers if
// it fails. Exit code 0 = all checks passed.
#include <cmath>
#include <cstdio>

#include "benchlib.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b, double tol = 1e-12) {
  return std::fabs(a - b) <= tol;
}

void test_percentile() {
  using txbench::percentile;
  const auto p50 = percentile({5, 1, 4, 2, 3}, 0.5);
  check(near(p50.value, 3.0) && p50.n == 5 && p50.beyond == 2,
        "median of 1..5 is 3 with 2 samples beyond");
  const auto p90 = percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9);
  check(near(p90.value, 9.1) && p90.n == 10 && p90.beyond == 1,
        "p90 of 1..10 interpolates to 9.1 with 1 sample beyond");
  const auto p25 = percentile({10, 20}, 0.25);
  check(near(p25.value, 12.5) && p25.beyond == 1, "p25 of {10,20} is 12.5");
  const auto ties = percentile({2, 2, 2, 2}, 0.5);
  check(near(ties.value, 2.0) && ties.beyond == 0,
        "ties: no sample lies strictly beyond");
  const auto empty = percentile({}, 0.5);
  check(empty.n == 0 && empty.value == 0.0, "empty sample has n = 0");
  check(near(txbench::median({7}), 7.0), "median of one sample");
}

void test_block_medians() {
  using txbench::block_medians;
  const auto b = block_medians({1, 9, 5, 2, 8, 100, 3}, 3);
  check(b.size() == 2 && near(b[0], 5.0) && near(b[1], 8.0),
        "blocks of 3 drop the partial tail");
  check(block_medians({1, 2, 3}, 0).empty(), "block size 0 gives nothing");
  check(block_medians({1, 2}, 3).empty(), "short series gives nothing");
  const auto even = block_medians({4, 1, 3, 2}, 4);
  check(even.size() == 1 && near(even[0], 2.5), "even block interpolates");
}

void test_proc_stat() {
  using txbench::parse_proc_stat;
  const std::string a =
      "cpu  100 0 50 800 10 0 0 40 7 0\n"
      "cpu0 50 0 25 400 5 0 0 20 0 0\n"
      "intr 12345\n";
  const auto ta = parse_proc_stat(a);
  check(ta.ok && ta.total == 1000 && ta.steal == 40,
        "aggregate line: guest excluded from total, steal is field 8");
  const std::string b = "cpu  150 0 60 1000 10 0 0 80 9 0\n";
  const auto tb = parse_proc_stat(b);
  check(near(txbench::steal_frac(ta, tb), 40.0 / 300.0),
        "steal fraction over an interval");
  check(!parse_proc_stat("cpu  1 2 3\n").ok, "too few fields is rejected");
  check(!parse_proc_stat("cpu0 1 2 3 4 5 6 7 8\n").ok,
        "per-core lines alone are rejected");
  check(!parse_proc_stat("").ok, "empty input is rejected");
  check(txbench::steal_frac(tb, ta) == 0.0, "backwards interval gives 0");
  check(parse_proc_stat("cpu  1 2 3 4 5 6 7 8\n").total == 36,
        "kernels without guest fields parse");
}

void test_least_squares() {
  using txbench::least_squares;
  const auto l = least_squares({1, 8, 32}, {7, 49, 193});
  check(l.ok && near(l.intercept, 1.0, 1e-9) && near(l.slope, 6.0, 1e-9),
        "exact line through three points");
  const auto noisy = least_squares({0, 1, 2, 3}, {1, 3, 3, 5});
  check(noisy.ok && near(noisy.slope, 1.2, 1e-12) &&
            near(noisy.intercept, 1.2, 1e-12),
        "least-squares fit of a noisy line");
  check(!least_squares({4, 4}, {1, 2}).ok, "one distinct x is rejected");
  check(!least_squares({1}, {1}).ok, "one point is rejected");
}

void test_self_time() {
  using txbench::Span;
  // root [0,100]; child A [10,40]; child B [30,60] overlaps A; child C
  // [90,120] sticks out of the root; grandchild of A [15,25].
  std::vector<Span> s = {
      {"root", 0, 100, -1, 1},  {"a", 10, 40, 0, 1}, {"b", 30, 60, 0, 1},
      {"c", 90, 120, 0, 1},     {"a.x", 15, 25, 1, 1},
  };
  const auto self = txbench::self_times(s);
  check(self[0] == 100 - 50 - 10, "root: union of children, clipped");
  check(self[1] == 30 - 10, "child minus its own child");
  check(self[2] == 30 && self[3] == 30 && self[4] == 10, "leaves keep all");
  // Disjoint, nested children: self times add up to the root's duration.
  const auto tree = txbench::self_times({{"root", 0, 100, -1, 2},
                                         {"a", 10, 40, 0, 2},
                                         {"b", 50, 70, 0, 2},
                                         {"a.x", 15, 25, 1, 2}});
  check(tree[0] == 50 && tree[0] + tree[1] + tree[2] + tree[3] == 100,
        "self times of a nested tree add up to the root");
  const auto lone = txbench::self_times({{"r", 5, 9, -1, 0}});
  check(lone[0] == 4, "a span without children is all self time");
}

}  // namespace

int main() {
  test_percentile();
  test_block_medians();
  test_proc_stat();
  test_least_squares();
  test_self_time();
  if (failures == 0) std::fprintf(stderr, "selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
