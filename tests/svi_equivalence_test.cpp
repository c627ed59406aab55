// SVI equivalence: VariationalBNN::fit in each of its forms — a plain epoch
// loop over a batch list, the function-data form with a per-epoch shuffle and
// an early-stopping FitCallback, and a checkpointed RetryPolicy fit run both
// uninterrupted and split with a resume from disk — must reproduce the
// per-step losses, gradient norms, epoch ELBOs and final parameter bytes
// captured as hexfloats from the reference driver, bit for bit. The values
// were re-captured once when unmasked sample sites moved onto the fused
// Gaussian density (gauss_logpdf_sum), and once when normal draws moved to
// the block Box-Muller transform; they are identical across TYXE_SIMD
// off/auto and 1/4 pool threads. Any change to
// the fit path that perturbs a step — an extra draw, a reordered batch, a
// different rollback anchor — fails here first. A ResNet-8 case pins the
// conv + BatchNorm kernels the same way, through training and predict.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/tyxe.h"
#include "data/datasets.h"

namespace tyxe {
namespace {

namespace nd = tx::dist;
using Policy = tx::infer::RetryPolicy;

/// FNV-1a 64 over a byte range, chained through `h`.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Hash of every parameter's name and raw float bytes, in store order.
std::uint64_t param_bytes_hash(tx::ppl::ParamStore& store) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [name, p] : store.items()) {
    h = fnv1a(name.data(), name.size(), h);
    const std::vector<float> values = p.detach().to_vector();
    h = fnv1a(values.data(), values.size() * sizeof(float), h);
  }
  return h;
}

std::uint64_t file_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return fnv1a(bytes.data(), bytes.size());
}

/// `count` Fig. 1 regression batches of 8 points each.
std::vector<Batch> make_batches(int count, tx::Generator& gen) {
  std::vector<Batch> out;
  for (int i = 0; i < count; ++i) {
    auto d = tx::data::make_foong_regression(8, gen);
    out.push_back({{d.x}, d.y});
  }
  return out;
}

std::shared_ptr<VariationalBNN> make_bnn(tx::Generator& gen,
                                         std::int64_t n_data) {
  auto net = tx::nn::make_mlp({1, 8, 1}, "tanh", &gen);
  return std::make_shared<VariationalBNN>(
      net,
      std::make_shared<IIDPrior>(std::make_shared<nd::Normal>(0.0f, 1.0f)),
      std::make_shared<HomoskedasticGaussian>(n_data, 0.1f),
      guides::auto_normal_factory());
}

/// What one fit did, step by step.
struct Record {
  std::vector<std::int64_t> steps;
  std::vector<double> losses;
  std::vector<double> grad_norms;
  std::vector<double> epoch_elbos;
};

void record_steps(VariationalBNN& bnn, Record& rec) {
  bnn.set_step_callback([&rec](const tx::infer::SVIStepInfo& info) {
    rec.steps.push_back(info.step);
    rec.losses.push_back(info.loss);
    rec.grad_norms.push_back(info.grad_norm);
  });
}

void expect_doubles(const std::vector<double>& got,
                    const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << what << "[" << i << "]";
  }
}

void expect_steps(const Record& rec, std::int64_t first, std::size_t count) {
  ASSERT_EQ(rec.steps.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(rec.steps[i], first + static_cast<std::int64_t>(i));
  }
}

std::string ckpt_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          ("tx_svi_equiv_" + std::string(tag) + "_" +
           std::to_string(static_cast<long>(::getpid())) + ".ckpt"))
      .string();
}

// ---- plain fit: two batches, three epochs, pinned generator ----------------
// Captured from the reference driver: manual_seed(11), Generator(5) for data
// and net, Generator(6) for fit-time sampling, Adam(1e-2).
const std::vector<double> kPlainLosses = {
    0x1.06c9cp+13, 0x1.1c12cap+13, 0x1.0306d6p+13, 0x1.06e64ep+13,
    0x1.08a452p+13, 0x1.afc702p+12};
const std::vector<double> kPlainGradNorms = {
    0x1.4bc2da6eba50cp+13, 0x1.4433c3330511ep+13, 0x1.3ce7469d79a6ep+13,
    0x1.323e2104ee292p+13, 0x1.4102bc918cb0fp+13, 0x1.138568279d89dp+13};
const std::uint64_t kPlainParams = 0x0cb2f28d44f6af36ULL;

TEST(SviEquivalence, PlainFitTwoBatchesThreeEpochs) {
  tx::manual_seed(11);
  tx::Generator gen(5);
  const auto batches = make_batches(2, gen);
  auto bnn = make_bnn(gen, 16);
  tx::Generator fit_gen(6);
  bnn->set_generator(&fit_gen);
  Record rec;
  record_steps(*bnn, rec);
  bnn->fit(batches, std::make_shared<tx::infer::Adam>(1e-2), 3);

  expect_steps(rec, 0, 6);
  expect_doubles(rec.losses, kPlainLosses, "loss");
  expect_doubles(rec.grad_norms, kPlainGradNorms, "grad_norm");
  EXPECT_EQ(param_bytes_hash(bnn->param_store()), kPlainParams);
}

// ---- function-data form: per-epoch shuffle, callback stops at epoch 2 ------
// manual_seed(12), Generator(7) for data and net, Generator(8) for the
// shuffle, no fit generator (sampling draws from the global stream), three
// batches, epochs = 10 with the callback stopping after epoch index 2.
const std::vector<double> kShuffleLosses = {
    0x1.7df528p+11, 0x1.3d0484p+11, 0x1.d7b2a6p+11, 0x1.ca20cp+10,
    0x1.b4bdccp+10, 0x1.72642ep+11, 0x1.d05d36p+10, 0x1.33eb9p+10,
    0x1.541472p+10};
const std::vector<double> kShuffleElbos = {
    -0x1.863970aaaaaabp+11, -0x1.109bd15555555p+11, -0x1.72c9bd5555555p+10};
const std::uint64_t kShuffleParams = 0x11cc5a3fdef9c64cULL;

TEST(SviEquivalence, FunctionDataShuffledWithEarlyStop) {
  tx::manual_seed(12);
  tx::Generator gen(7);
  const auto batches = make_batches(3, gen);
  auto bnn = make_bnn(gen, 24);
  tx::Generator shuffle_gen(8);
  int data_calls = 0;
  auto data = [&] {
    ++data_calls;
    std::vector<Batch> order = batches;
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(
          shuffle_gen.uniform() * static_cast<double>(i + 1));
      std::swap(order[i], order[j]);
    }
    return order;
  };
  Record rec;
  record_steps(*bnn, rec);
  bnn->fit(data, std::make_shared<tx::infer::Adam>(1e-2), 10,
           [&rec](int epoch, double elbo) {
             rec.epoch_elbos.push_back(elbo);
             return epoch == 2;
           });

  EXPECT_EQ(data_calls, 3);
  expect_steps(rec, 0, 9);
  expect_doubles(rec.losses, kShuffleLosses, "loss");
  expect_doubles(rec.epoch_elbos, kShuffleElbos, "epoch_elbo");
  EXPECT_EQ(param_bytes_hash(bnn->param_store()), kShuffleParams);
}

// ---- policy fit: checkpoint every 3 steps, uninterrupted and resumed -------
// manual_seed(13), Generator(9) for data and net, Generator(10) for
// fit-time sampling (Generator(99) on the resumed leg: the checkpoint must
// overwrite it), two batches, five epochs = 10 steps; the split run stops
// after two epochs (4 steps) and resumes from the file.
const std::vector<double> kPolicyLosses = {
    0x1.bc2dccp+12, 0x1.94c91ap+12, 0x1.b11032p+12, 0x1.210e9ap+12,
    0x1.f965d2p+11, 0x1.484fbcp+12, 0x1.346272p+12, 0x1.131f6p+12,
    0x1.aaa0e8p+11, 0x1.1ab888p+12};
const double kPolicyFinalLoss = 0x1.1ab888p+12;
const std::uint64_t kPolicyParams = 0x48290e8ec2e3636fULL;
const std::uint64_t kPolicyCkpt = 0x74daa7c0af8da063ULL;

struct PolicyRun {
  Record rec;
  std::uint64_t params = 0;
  std::uint64_t ckpt = 0;
  std::int64_t steps_run = 0;
  std::int64_t steps_completed = 0;
  std::int64_t checkpoints = 0;
  bool resumed = false;
  double final_loss = 0.0;
};

PolicyRun policy_leg(const std::string& path, int epochs,
                     std::uint64_t fit_seed) {
  tx::manual_seed(13);
  tx::Generator gen(9);
  const auto batches = make_batches(2, gen);
  auto bnn = make_bnn(gen, 16);
  tx::Generator fit_gen(fit_seed);
  bnn->set_generator(&fit_gen);
  PolicyRun run;
  record_steps(*bnn, run.rec);
  Policy policy;
  policy.checkpoint_path = path;
  policy.checkpoint_every = 3;
  const auto report =
      bnn->fit(batches, std::make_shared<tx::infer::Adam>(1e-2), epochs,
               policy);
  run.params = param_bytes_hash(bnn->param_store());
  run.ckpt = file_hash(path);
  run.steps_run = report.steps_run;
  run.steps_completed = report.steps_completed;
  run.checkpoints = report.checkpoints;
  run.resumed = report.resumed;
  run.final_loss = report.final_loss;
  return run;
}

TEST(SviEquivalence, PolicyFitCheckpointEveryThreeAndResume) {
  const std::string full_path = ckpt_path("full");
  const std::string split_path = ckpt_path("split");
  std::filesystem::remove(full_path);
  std::filesystem::remove(split_path);

  const PolicyRun full = policy_leg(full_path, 5, 10);
  EXPECT_FALSE(full.resumed);
  EXPECT_EQ(full.steps_run, 10);
  EXPECT_EQ(full.steps_completed, 10);
  EXPECT_EQ(full.checkpoints, 4);  // steps 3, 6, 9 and the final step 10
  expect_steps(full.rec, 0, 10);
  expect_doubles(full.rec.losses, kPolicyLosses, "loss");
  EXPECT_EQ(full.final_loss, kPolicyFinalLoss);
  EXPECT_EQ(full.params, kPolicyParams);
  EXPECT_EQ(full.ckpt, kPolicyCkpt);

  const PolicyRun first = policy_leg(split_path, 2, 10);
  EXPECT_EQ(first.steps_completed, 4);
  const PolicyRun resumed = policy_leg(split_path, 5, 99);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.steps_run, 6);
  EXPECT_EQ(resumed.steps_completed, 10);
  expect_steps(resumed.rec, 4, 6);
  expect_doubles(first.rec.losses,
                 std::vector<double>(kPolicyLosses.begin(),
                                     kPolicyLosses.begin() + 4),
                 "first leg loss");
  expect_doubles(resumed.rec.losses,
                 std::vector<double>(kPolicyLosses.begin() + 4,
                                     kPolicyLosses.end()),
                 "resumed loss");
  EXPECT_EQ(resumed.final_loss, kPolicyFinalLoss);
  EXPECT_EQ(resumed.params, kPolicyParams);
  EXPECT_EQ(resumed.ckpt, kPolicyCkpt);

  std::filesystem::remove(full_path);
  std::filesystem::remove(split_path);
}

// ---- ResNet-8: conv + BatchNorm under local reparameterization -------------
// manual_seed(14), Generator(11) for images, net and batch order,
// Generator(12) for fit-time sampling. make_resnet8 at width 4 on 16x16
// images with BatchNorm hidden (deterministic, batch statistics in train
// mode); two batches of 32, so the stem's [32, 4, 16, 16] activations cross
// the parallel axis-sum threshold; two epochs of train-mode SVI under
// LocalReparameterization, then an eval-mode predict (running statistics)
// of four samples on eight images. Pins the 4-D broadcasts, the {0, 2, 3}
// reductions and the permutes of conv and linear.
const std::vector<double> kResnetLosses = {
    0x1.774adcp+13, 0x1.76942ep+13, 0x1.73b908p+13, 0x1.6d6f78p+13};
const std::uint64_t kResnetParams = 0x84fedbb9b61a4a82ULL;
const std::uint64_t kResnetPredict = 0xc77e060add674f85ULL;

TEST(SviEquivalence, ResnetBatchNormLocalReparamFitThenPredict) {
  tx::manual_seed(14);
  tx::Generator gen(11);
  tx::data::SyntheticImageConfig cfg;
  cfg.per_class = 8;  // 80 images: two batches of 32, then eight to predict
  const auto images = tx::data::make_pattern_images(cfg, gen);
  const tx::Tensor train_x = tx::slice(images.images, 0, 0, 64);
  const tx::Tensor train_y = tx::slice(images.labels, 0, 0, 64);
  const auto batches = tx::data::DataLoader(train_x, train_y, 32).batches(&gen);
  auto net = tx::nn::make_resnet8(10, 4, 3, &gen);
  HideExpose hide_bn;
  hide_bn.hide_module_types = {"BatchNorm2d"};
  auto bnn = std::make_shared<VariationalBNN>(
      net,
      std::make_shared<IIDPrior>(std::make_shared<nd::Normal>(0.0f, 1.0f),
                                 hide_bn),
      std::make_shared<Categorical>(64), guides::auto_normal_factory());
  tx::Generator fit_gen(12);
  bnn->set_generator(&fit_gen);
  Record rec;
  record_steps(*bnn, rec);
  tx::Tensor probs;
  {
    poutine::LocalReparameterization lr;
    bnn->train();
    bnn->fit(batches, std::make_shared<tx::infer::Adam>(1e-2), 2);
    bnn->eval();
    probs = bnn->predict(tx::slice(images.images, 0, 64, 72), 4);
  }

  expect_steps(rec, 0, 4);
  expect_doubles(rec.losses, kResnetLosses, "loss");
  EXPECT_EQ(param_bytes_hash(bnn->param_store()), kResnetParams);
  ASSERT_EQ(probs.shape(), (tx::Shape{8, 10}));
  const std::vector<float> pv = probs.to_vector();
  EXPECT_EQ(fnv1a(pv.data(), pv.size() * sizeof(float)), kResnetPredict);
}

}  // namespace
}  // namespace tyxe
