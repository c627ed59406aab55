// Tests for tensor serialization and module/param-store checkpointing
// (tx.ckpt.v1 bundles), including malformed and edited checkpoint files.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>

#include "core/tyxe.h"
#include "nn/checkpoint.h"
#include "resil/io.h"
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
  // strtof alone would read "0x13+1" as 19 and drop the "+1".
  std::stringstream trailing("TXT1 1 1\n0x13+1\n");
  EXPECT_THROW(tx::load_tensor(trailing), tx::Error);
}

TEST(Serialize, NamedTensorsRoundTripExactly) {
  tx::NamedTensors entries = {{"a.w", Tensor(Shape{2}, {1.5f, -0.25f})},
                              {"b", Tensor(Shape{}, {7.0f})},
                              {"empty", Tensor(Shape{0, 3}, {})}};
  const std::string bytes = tx::encode_named_tensors("params", entries);
  EXPECT_EQ(bytes.rfind("params 3\na.w\nTXT1 1 2\n", 0), 0u) << bytes;
  const tx::NamedTensors back = tx::decode_named_tensors(bytes, "params");
  ASSERT_EQ(back.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(back[i].first, entries[i].first);
    EXPECT_EQ(back[i].second.shape(), entries[i].second.shape());
    EXPECT_EQ(back[i].second.to_vector(), entries[i].second.to_vector());
  }
  EXPECT_EQ(tx::encode_named_tensors("params", back), bytes);
  EXPECT_THROW(tx::decode_named_tensors(bytes, "state"), tx::Error);
  EXPECT_THROW(
      tx::encode_named_tensors("params", {{"has space", entries[1].second}}),
      tx::Error);
}

// Every malformed section reaches the parser through a bundle with a valid
// checksum, so it is the section codec, not the container, that must reject
// it — with tx::Error, never std::bad_alloc, std::length_error or a value.
TEST(Checkpoint, MalformedSectionsThrowTxError) {
  struct Case {
    const char* what;
    const char* section;
    const char* bytes;
  };
  const Case cases[] = {
      {"negative count", "store", "params -1\n"},
      {"huge count", "store", "params 4000000000000\n"},
      {"count not a number", "store", "params 1x\n"},
      {"wrong tag", "store", "state 0\n"},
      {"numel overflows int64", "store",
       "params 1\nw\nTXT1 2 4294967296 4294967297\n0x1p+0\n"},
      {"huge numel", "store", "params 1\nw\nTXT1 1 1000000000000\n0x1p+0\n"},
      {"dimension out of range", "store",
       "params 1\nw\nTXT1 1 99999999999999999999\n0x1p+0\n"},
      {"negative dimension", "store", "params 1\nw\nTXT1 1 -2\n0x1p+0\n"},
      {"rank too large", "store", "params 1\nw\nTXT1 17\n"},
      {"bad magic", "store", "params 1\nw\nTXT2 1 1\n0x1p+0\n"},
      {"trailing characters in a value", "store",
       "params 1\nw\nTXT1 1 1\n0x13+1\n"},
      {"truncated values", "store", "params 1\nw\nTXT1 1 2\n0x1p+0\n"},
      {"truncated entries", "store", "params 2\nw\nTXT1 1 1\n0x1p+0\n"},
      {"trailing token", "store", "params 1\nw\nTXT1 1 1\n0x1p+0\nv\n"},
      {"empty section", "store", ""},
      {"no store section", "optim", "params 0\n"},
      {"module: negative count", "module", "state -1\n"},
      {"module: huge count", "module", "state 4000000000000\n"},
      {"module: numel overflows int64", "module",
       "state 1\n0.weight\nTXT1 2 4294967296 4294967297\n0x1p+0\n"},
      {"module: store section", "module", "params 0\n"},
      {"module: unknown slot", "module", "state 1\nnope\nTXT1 0\n0x0p+0\n"},
  };
  const std::string path = temp_path("malformed.ckpt");
  for (const Case& c : cases) {
    tx::resil::Bundle b;
    b.set(c.section, c.bytes);
    ASSERT_TRUE(b.write_file(path));
    if (std::string(c.section) == "module") {
      tx::Generator gen(6);
      auto net = tx::nn::make_mlp({2, 3, 1}, "relu", &gen);
      EXPECT_THROW(tx::nn::load_checkpoint(path, *net), tx::Error) << c.what;
    } else {
      tx::ppl::ParamStore store;
      store.set("w", Tensor(Shape{1}, {2.0f}));
      EXPECT_THROW(tx::ppl::load_param_store(path, store), tx::Error)
          << c.what;
      EXPECT_EQ(store.get("w").at(0), 2.0f) << c.what;
    }
  }
  std::remove(path.c_str());
}

/// Replaces the first occurrence of `from` in the file with `to` (same
/// length), as a one-character edit of a saved checkpoint.
void edit_file(const std::string& path, const std::string& from,
               const std::string& to) {
  std::string data;
  ASSERT_TRUE(tx::resil::read_file(path, &data));
  const std::size_t at = data.find(from);
  ASSERT_NE(at, std::string::npos) << from;
  data.replace(at, from.size(), to);
  ASSERT_TRUE(tx::resil::atomic_write_file(path, data));
}

TEST(Checkpoint, EditedFilesAreRejected) {
  // 2.0f is written as 0x1p+1; "0x13+1" would parse as 19 if the checksum
  // and the trailing-character check both let it through.
  tx::ppl::ParamStore store;
  store.set("w", tx::full({3}, 2.0f));
  const std::string store_path = temp_path("edited_store.ckpt");
  tx::ppl::save_param_store(store_path, store);
  edit_file(store_path, "0x1p+1", "0x13+1");
  tx::ppl::ParamStore fresh;
  EXPECT_THROW(tx::ppl::load_param_store(store_path, fresh), tx::Error);
  EXPECT_EQ(fresh.size(), 0u);
  std::remove(store_path.c_str());

  tx::Generator gen(7);
  auto a = tx::nn::make_mlp({3, 4, 2}, "relu", &gen);
  auto b = tx::nn::make_mlp({3, 4, 2}, "relu", &gen);
  const auto before = b->state_dict();
  const std::string module_path = temp_path("edited_module.ckpt");
  tx::nn::save_checkpoint(module_path, *a);
  edit_file(module_path, "0x1.", "0x3.");  // still a valid hexfloat
  EXPECT_THROW(tx::nn::load_checkpoint(module_path, *b), tx::Error);
  const auto after = b->state_dict();
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].second.to_vector(), after[i].second.to_vector());
  }
  std::remove(module_path.c_str());
}

TEST(Checkpoint, ParamStoreLoadsFromAnSviFitCheckpointBitwise) {
  // A RetryPolicy checkpoint carries the same "store" section that
  // save_param_store writes, so load_param_store reads the fitted guide
  // straight out of it.
  tx::manual_seed(8);
  Tensor data(Shape{4}, {1.2f, 0.8f, 1.1f, 0.9f});
  auto model = [data] {
    Tensor z = tx::ppl::sample("z", std::make_shared<nd::Normal>(0.0f, 1.0f));
    tx::ppl::sample("x",
                    std::make_shared<nd::Normal>(
                        tx::broadcast_to(z, data.shape()),
                        tx::full(data.shape(), 0.5f)),
                    data);
  };
  tx::ppl::ParamStore store;
  auto guide = std::make_shared<tx::infer::AutoNormal>(
      model, tx::infer::AutoNormalConfig{}, "g", &store);
  tx::Generator gen(8);
  tx::infer::SVI svi(model, [guide] { (*guide)(); },
                     std::make_shared<tx::infer::Adam>(0.05),
                     std::make_shared<tx::infer::TraceELBO>(1), &store, &gen);
  tx::infer::RetryPolicy policy;
  policy.checkpoint_path = temp_path("svi_fit_store.ckpt");
  std::remove(policy.checkpoint_path.c_str());
  policy.checkpoint_every = 10;
  svi.fit(20, policy);

  tx::ppl::ParamStore loaded;
  tx::ppl::load_param_store(policy.checkpoint_path, loaded);
  const auto want = store.items();
  const auto got = loaded.items();
  ASSERT_EQ(got.size(), want.size());
  ASSERT_GT(want.size(), 0u);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    const auto w = want[i].second.to_vector();
    const auto g = got[i].second.to_vector();
    ASSERT_EQ(g.size(), w.size());
    for (std::size_t j = 0; j < w.size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(g[j]),
                std::bit_cast<std::uint32_t>(w[j]))
          << want[i].first << "[" << j << "]";
    }
  }
  std::remove(policy.checkpoint_path.c_str());
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
