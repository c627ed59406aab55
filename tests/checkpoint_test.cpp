// Tests for tensor serialization and module/param-store checkpointing.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>

#include "core/tyxe.h"
#include "nn/checkpoint.h"
#include "tensor/serialize.h"

namespace {

namespace nd = tx::dist;
using tx::Shape;
using tx::Tensor;

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(Serialize, TensorRoundTripIsLossless) {
  tx::Generator gen(1);
  Tensor t = tx::randn({3, 4, 2}, &gen);
  std::stringstream ss;
  tx::save_tensor(ss, t);
  Tensor back = tx::load_tensor(ss);
  EXPECT_EQ(back.shape(), t.shape());
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(back.at(i), t.at(i));  // exact: hexfloat round trip
  }
  EXPECT_TRUE(back.is_leaf());
  EXPECT_FALSE(back.requires_grad());
}

TEST(Serialize, ScalarAndExtremeValues) {
  Tensor t(Shape{}, {-1.5e-30f});
  std::stringstream ss;
  tx::save_tensor(ss, t);
  EXPECT_EQ(tx::load_tensor(ss).item(), -1.5e-30f);
}

TEST(Serialize, RejectsGarbage) {
  std::stringstream ss("NOPE 2 2 2");
  EXPECT_THROW(tx::load_tensor(ss), tx::Error);
  std::stringstream truncated("TXT1 1 4\n0x1p+0 0x1p+0");
  EXPECT_THROW(tx::load_tensor(truncated), tx::Error);
}

TEST(Serialize, FileRoundTrip) {
  const std::string path = temp_path("tensor.txt");
  Tensor t(Shape{2, 2}, {1.0f, -2.5f, 3.25f, 0.0f});
  tx::save_tensor_file(path, t);
  EXPECT_TRUE(tx::allclose(tx::load_tensor_file(path), t));
  std::remove(path.c_str());
  EXPECT_THROW(tx::load_tensor_file(path), tx::Error);
}

TEST(Checkpoint, ModuleStateRoundTrip) {
  tx::Generator gen(2);
  auto a = tx::nn::make_mlp({3, 8, 2}, "relu", &gen);
  auto b = tx::nn::make_mlp({3, 8, 2}, "relu", &gen);
  Tensor x = tx::randn({4, 3}, &gen);
  EXPECT_FALSE(tx::allclose(a->forward(x), b->forward(x)));
  const std::string path = temp_path("mlp.ckpt");
  tx::nn::save_checkpoint(path, *a);
  tx::nn::load_checkpoint(path, *b);
  EXPECT_TRUE(tx::allclose(a->forward(x), b->forward(x)));
  std::remove(path.c_str());
}

TEST(Checkpoint, ResNetWithBuffersRoundTrip) {
  tx::Generator gen(3);
  auto a = tx::nn::make_resnet8(4, 4, 3, &gen);
  // Run a training forward so BatchNorm running stats are non-trivial.
  a->forward(tx::randn({8, 3, 8, 8}, &gen));
  auto b = tx::nn::make_resnet8(4, 4, 3, &gen);
  const std::string path = temp_path("resnet.ckpt");
  tx::nn::save_checkpoint(path, *a);
  tx::nn::load_checkpoint(path, *b);
  a->eval();
  b->eval();
  Tensor x = tx::randn({2, 3, 8, 8}, &gen);
  EXPECT_TRUE(tx::allclose(a->forward(x), b->forward(x), 1e-5f));
  std::remove(path.c_str());
}

TEST(Checkpoint, MismatchedArchitectureThrows) {
  tx::Generator gen(4);
  auto a = tx::nn::make_mlp({3, 8, 2}, "relu", &gen);
  auto b = tx::nn::make_mlp({3, 9, 2}, "relu", &gen);
  const std::string path = temp_path("mismatch.ckpt");
  tx::nn::save_checkpoint(path, *a);
  EXPECT_THROW(tx::nn::load_checkpoint(path, *b), tx::Error);
  std::remove(path.c_str());
}

TEST(Checkpoint, ParamStoreRoundTripThroughLiveHandles) {
  tx::ppl::ParamStore store;
  Tensor p = store.get_or_create("guide.loc.w", tx::full({3}, 2.0f));
  store.get_or_create("guide.scale.w", tx::full({3}, -1.0f));
  const std::string path = temp_path("store.ckpt");
  tx::ppl::save_param_store(path, store);
  p.fill_(9.0f);
  tx::ppl::load_param_store(path, store);
  // The live handle sees the restored values (copy-through semantics).
  EXPECT_FLOAT_EQ(p.at(0), 2.0f);
  // Loading into an empty store recreates params.
  tx::ppl::ParamStore fresh;
  tx::ppl::load_param_store(path, fresh);
  EXPECT_EQ(fresh.size(), 2u);
  EXPECT_TRUE(fresh.get("guide.loc.w").requires_grad());
  std::remove(path.c_str());
}

TEST(Checkpoint, FittedBnnGuideSurvivesReload) {
  // The pretrain-once / Bayesianize-later workflow: fit a BNN, checkpoint
  // the guide params, reload into a fresh BNN of the same architecture, and
  // get the same predictive distribution.
  tx::manual_seed(5);
  tx::Generator gen(5);
  Tensor x = tx::linspace(-1.0f, 1.0f, 16).reshape({16, 1});
  Tensor y = tx::mul(x, x).detach();
  auto make_bnn = [](tx::Generator& g) {
    auto net = tx::nn::make_mlp({1, 8, 1}, "tanh", &g);
    return std::make_shared<tyxe::VariationalBNN>(
        net,
        std::make_shared<tyxe::IIDPrior>(
            std::make_shared<nd::Normal>(0.0f, 1.0f)),
        std::make_shared<tyxe::HomoskedasticGaussian>(16, 0.1f),
        tyxe::guides::auto_normal_factory());
  };
  auto bnn = make_bnn(gen);
  auto optim = std::make_shared<tx::infer::Adam>(1e-2);
  bnn->fit({{{x}, y}}, optim, 150);
  const std::string path = temp_path("bnn_guide.ckpt");
  tx::ppl::save_param_store(path, bnn->param_store());

  tx::Generator gen2(99);
  auto bnn2 = make_bnn(gen2);
  // Touch the guide once so its parameters exist, then load.
  bnn2->predict(x, 1);
  tx::ppl::load_param_store(path, bnn2->param_store());
  // The same guide parameters and the same generator state draw the same
  // posterior samples, so the predictions agree bit for bit.
  tx::manual_seed(17);
  Tensor p1 = bnn->predict(x, 64);
  tx::manual_seed(17);
  Tensor p2 = bnn2->predict(x, 64);
  ASSERT_EQ(p1.shape(), p2.shape());
  for (std::int64_t i = 0; i < p1.numel(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(p1.at(i)),
              std::bit_cast<std::uint32_t>(p2.at(i)))
        << "i " << i;
  }
  std::remove(path.c_str());
}

}  // namespace
