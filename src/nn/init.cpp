#include "nn/init.h"

#include <cmath>
#include <vector>

namespace tx::nn::init {

std::pair<std::int64_t, std::int64_t> fan_in_out(const Shape& weight_shape) {
  TX_CHECK(!weight_shape.empty(), "fan_in_out: scalar weight");
  if (weight_shape.size() == 1) {
    return {weight_shape[0], weight_shape[0]};  // bias-like
  }
  std::int64_t receptive = 1;
  for (std::size_t i = 2; i < weight_shape.size(); ++i) {
    receptive *= weight_shape[i];
  }
  const std::int64_t fan_out = weight_shape[0] * receptive;
  const std::int64_t fan_in = weight_shape[1] * receptive;
  return {fan_in, fan_out};
}

float init_std(const std::string& method, const Shape& weight_shape) {
  const auto [fan_in, fan_out] = fan_in_out(weight_shape);
  if (method == "radford") {
    return 1.0f / std::sqrt(static_cast<float>(fan_in));
  }
  if (method == "xavier") {
    return std::sqrt(2.0f / static_cast<float>(fan_in + fan_out));
  }
  if (method == "kaiming") {
    return std::sqrt(2.0f / static_cast<float>(fan_in));
  }
  TX_THROW("unknown init method '", method,
           "' (expected radford | xavier | kaiming)");
}

void normal_(Tensor& t, float mean, float std, Generator* gen) {
  Generator& g = gen ? *gen : global_generator();
  std::vector<float> z(static_cast<std::size_t>(t.numel()));
  g.normal_fill(z.data(), z.size());
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const double v = static_cast<double>(z[static_cast<std::size_t>(i)]);
    t.at(i) = static_cast<float>(v * std + mean);
  }
}

void uniform_(Tensor& t, float lo, float hi, Generator* gen) {
  Generator& g = gen ? *gen : global_generator();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = static_cast<float>(g.uniform(lo, hi));
  }
}

void constant_(Tensor& t, float v) {
  for (std::int64_t i = 0; i < t.numel(); ++i) t.at(i) = v;
}

void kaiming_normal_(Tensor& t, Generator* gen) {
  normal_(t, 0.0f, init_std("kaiming", t.shape()), gen);
}

void xavier_normal_(Tensor& t, Generator* gen) {
  normal_(t, 0.0f, init_std("xavier", t.shape()), gen);
}

void radford_normal_(Tensor& t, Generator* gen) {
  normal_(t, 0.0f, init_std("radford", t.shape()), gen);
}

}  // namespace tx::nn::init
