// Stable text-token serialization shared by the optimizer, MCMC-kernel, and
// tx.ckpt.v1 checkpoint writers. Floats are printed as C hexfloats ("%a") and
// parsed with strtof/strtod, so every value round-trips bitwise — the
// property that makes checkpoint resume exact. Tokens are whitespace
// separated; readers throw tx::Error (never half-parse) on truncation or
// malformed numbers.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "util/common.h"

namespace tx::textio {

inline void write_double(std::ostream& os, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  os << buf;
}

inline void write_float(std::ostream& os, float v) {
  // Print as double: float -> double is exact, so the round-trip is too.
  write_double(os, static_cast<double>(v));
}

inline std::string next_token(std::istream& is, const char* what) {
  std::string tok;
  TX_CHECK(static_cast<bool>(is >> tok), "serialized state: truncated while reading ",
           what);
  return tok;
}

inline double read_double(std::istream& is, const char* what) {
  const std::string tok = next_token(is, what);
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  TX_CHECK(end != tok.c_str() && *end == '\0', "serialized state: bad number '",
           tok, "' for ", what);
  return v;
}

inline float read_float(std::istream& is, const char* what) {
  const std::string tok = next_token(is, what);
  char* end = nullptr;
  const float v = std::strtof(tok.c_str(), &end);
  TX_CHECK(end != tok.c_str() && *end == '\0', "serialized state: bad number '",
           tok, "' for ", what);
  return v;
}

inline std::int64_t read_int(std::istream& is, const char* what) {
  const std::string tok = next_token(is, what);
  char* end = nullptr;
  const long long v = std::strtoll(tok.c_str(), &end, 10);
  TX_CHECK(end != tok.c_str() && *end == '\0', "serialized state: bad integer '",
           tok, "' for ", what);
  return static_cast<std::int64_t>(v);
}

inline void expect_tag(std::istream& is, const char* tag) {
  const std::string tok = next_token(is, tag);
  TX_CHECK(tok == tag, "serialized state: expected '", tag, "', got '", tok,
           "'");
}

inline void write_vec_f(std::ostream& os, const std::vector<float>& v) {
  os << v.size();
  for (const float x : v) {
    os << ' ';
    write_float(os, x);
  }
  os << '\n';
}

inline std::vector<float> read_vec_f(std::istream& is, const char* what) {
  const std::int64_t n = read_int(is, what);
  TX_CHECK(n >= 0, "serialized state: negative vector size for ", what);
  std::vector<float> v;  // grown per value: a corrupt size cannot allocate
  for (std::int64_t i = 0; i < n; ++i) v.push_back(read_float(is, what));
  return v;
}

inline void write_vec_d(std::ostream& os, const std::vector<double>& v) {
  os << v.size();
  for (const double x : v) {
    os << ' ';
    write_double(os, x);
  }
  os << '\n';
}

inline std::vector<double> read_vec_d(std::istream& is, const char* what) {
  const std::int64_t n = read_int(is, what);
  TX_CHECK(n >= 0, "serialized state: negative vector size for ", what);
  std::vector<double> v;  // grown per value: a corrupt size cannot allocate
  for (std::int64_t i = 0; i < n; ++i) v.push_back(read_double(is, what));
  return v;
}

}  // namespace tx::textio
