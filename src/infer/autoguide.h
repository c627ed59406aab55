// Automatic guides (pyro.infer.autoguide). An AutoGuide inspects a model's
// latent sites by tracing it once, allocates variational parameters in the
// ParamStore, and acts as a guide Program that samples every latent site.
//
// AutoNormal here matches the paper's tyxe.guides.AutoNormal rather than
// Pyro's: sites are sampled directly from diagonal Normals (no Delta
// wrapping), which is what makes local reparameterization and closed-form KL
// possible. It additionally supports the paper's pragmatic knobs: clipping
// the posterior standard deviation, freezing means or scales, and
// initializing means to pre-trained values.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dist/normal.h"
#include "infer/elbo.h"

namespace tx::infer {

/// Strategy for initializing a site's variational mean.
using InitLocFn = std::function<Tensor(const ppl::SiteRecord& site)>;

/// Draw from the prior.
InitLocFn init_to_sample(Generator* gen = nullptr);
/// Prior mean (the "median" initializer for symmetric priors).
InitLocFn init_to_median();
/// Fixed values by site name (pre-trained network weights); missing sites
/// fall back to the prior mean.
InitLocFn init_to_value(std::map<std::string, Tensor> values);

class Guide {
 public:
  virtual ~Guide() = default;
  /// The guide program: samples every latent site of the model.
  virtual void operator()() = 0;
  /// A program that samples every latent site like operator()(), for a
  /// caller that runs it many times while the parameters cannot change: the
  /// posterior-predictive draws of one predict call. Each call returns a
  /// fresh program, so nothing it builds outlives the caller's use of it;
  /// the program refers to this guide and must not outlive it. The default
  /// re-runs operator()().
  virtual Program draw_program();
  /// Per-site variational distributions with detached parameters; the hook
  /// variational continual learning uses to turn a posterior into a prior.
  virtual std::map<std::string, dist::DistPtr> get_detached_distributions(
      const std::vector<std::string>& sites) = 0;
};

using GuidePtr = std::shared_ptr<Guide>;
/// Factory signature expected by VariationalBNN: builds a guide for a model,
/// allocating its variational parameters in the given store (null = global).
using GuideFactory =
    std::function<GuidePtr(const Program& model, ppl::ParamStore* store)>;

/// Shared site-discovery logic.
class AutoGuide : public Guide {
 public:
  /// Latent sites of the model (discovered on first use).
  const std::vector<ppl::SiteRecord>& latent_sites();

 protected:
  AutoGuide(Program model, std::string prefix, ppl::ParamStore* store);

  Program model_;
  std::string prefix_;
  ppl::ParamStore* store_;

 private:
  bool discovered_ = false;
  std::vector<ppl::SiteRecord> sites_;
};

struct AutoNormalConfig {
  float init_scale = 0.1f;
  InitLocFn init_loc;        // default: init_to_sample()
  float max_scale = 0.0f;    // > 0 clips the posterior std (paper Sec. 3)
  bool train_loc = true;     // false = "sd only" guide (Table 1, MF sd-only)
  bool train_scale = true;
};

class AutoNormal : public AutoGuide {
 public:
  AutoNormal(Program model, AutoNormalConfig config = {},
             std::string prefix = "guide", ppl::ParamStore* store = nullptr);

  /// One run of a fresh draw_program().
  void operator()() override;
  /// Builds each site's Normal once, during the program's first run, and
  /// samples the same distributions on every later run.
  Program draw_program() override;
  std::map<std::string, dist::DistPtr> get_detached_distributions(
      const std::vector<std::string>& sites) override;

  /// Current (constrained, possibly clipped) posterior over a site.
  std::shared_ptr<dist::Normal> site_distribution(const std::string& site);

 private:
  Tensor loc_param(const ppl::SiteRecord& site);
  Tensor scale_param(const ppl::SiteRecord& site);
  std::shared_ptr<dist::Normal> build_distribution(const ppl::SiteRecord& site);

  AutoNormalConfig config_;
};

/// Point-estimate guide: optimizing the ELBO with AutoDelta is MAP.
class AutoDelta : public AutoGuide {
 public:
  AutoDelta(Program model, InitLocFn init_loc = nullptr,
            std::string prefix = "guide", ppl::ParamStore* store = nullptr);

  void operator()() override;
  std::map<std::string, dist::DistPtr> get_detached_distributions(
      const std::vector<std::string>& sites) override;

 private:
  InitLocFn init_loc_;
};

/// Joint Gaussian guide with low-rank-plus-diagonal covariance over all
/// latent sites (the "LL low rank" configuration of Table 1). The joint draw
/// is emitted at an auxiliary site "<prefix>._latent"; per-model-site values
/// are emitted as Deltas sliced out of the joint sample.
class AutoLowRankMultivariateNormal : public AutoGuide {
 public:
  AutoLowRankMultivariateNormal(Program model, std::int64_t rank,
                                float init_scale = 0.1f,
                                InitLocFn init_loc = nullptr,
                                std::string prefix = "guide",
                                ppl::ParamStore* store = nullptr);

  void operator()() override;
  std::map<std::string, dist::DistPtr> get_detached_distributions(
      const std::vector<std::string>& sites) override;

 private:
  void ensure_params();

  std::int64_t rank_;
  float init_scale_;
  InitLocFn init_loc_;
  std::int64_t total_ = 0;
  std::vector<std::pair<std::string, Shape>> layout_;
};

/// Numerically safe softplus inverse used for scale parameterization.
float softplus_inverse(float y);

}  // namespace tx::infer
