#include "infer/autoguide.h"

#include <cmath>

#include "dist/normal.h"
#include "dist/lowrank_normal.h"

namespace tx::infer {

float softplus_inverse(float y) {
  TX_CHECK(y > 0.0f, "softplus_inverse: input must be positive");
  // log(e^y - 1) = y + log(1 - e^{-y}), stable for large y.
  if (y > 20.0f) return y;
  return std::log(std::expm1(y));
}

InitLocFn init_to_sample(Generator* gen) {
  return [gen](const ppl::SiteRecord& site) {
    return site.distribution->sample(gen);
  };
}

InitLocFn init_to_median() {
  return [](const ppl::SiteRecord& site) { return site.distribution->mean().detach(); };
}

InitLocFn init_to_value(std::map<std::string, Tensor> values) {
  return [values = std::move(values)](const ppl::SiteRecord& site) {
    auto it = values.find(site.name);
    if (it != values.end()) {
      TX_CHECK(it->second.numel() == numel_of(site.distribution->shape()),
               "init_to_value: size mismatch for site ", site.name);
      return reshape(it->second.detach(), site.distribution->shape()).detach();
    }
    return site.distribution->mean().detach();
  };
}

Program Guide::draw_program() {
  return [this] { (*this)(); };
}

AutoGuide::AutoGuide(Program model, std::string prefix, ppl::ParamStore* store)
    : model_(std::move(model)),
      prefix_(std::move(prefix)),
      store_(store ? store : &ppl::param_store()) {
  TX_CHECK(model_ != nullptr, "AutoGuide: null model");
}

const std::vector<ppl::SiteRecord>& AutoGuide::latent_sites() {
  if (!discovered_) {
    NoGradGuard ng;
    // Hide the discovery run from any active outer handlers (a guide may be
    // constructed lazily inside an SVI trace, like Pyro's _setup_prototype).
    ppl::BlockMessenger block_all([](const ppl::SampleMsg&) { return true; });
    ppl::HandlerScope scope(block_all);
    ppl::Trace tr = ppl::trace_fn(model_);
    for (const auto& site : tr.sites()) {
      if (!site.is_observed) sites_.push_back(site);
    }
    discovered_ = true;
  }
  return sites_;
}

AutoNormal::AutoNormal(Program model, AutoNormalConfig config,
                       std::string prefix, ppl::ParamStore* store)
    : AutoGuide(std::move(model), std::move(prefix), store),
      config_(std::move(config)) {
  TX_CHECK(config_.init_scale > 0.0f, "AutoNormal: init_scale must be > 0");
  if (!config_.init_loc) config_.init_loc = init_to_sample();
}

Tensor AutoNormal::loc_param(const ppl::SiteRecord& site) {
  return store_->get_or_create(prefix_ + ".loc." + site.name,
                               [&] { return config_.init_loc(site); });
}

Tensor AutoNormal::scale_param(const ppl::SiteRecord& site) {
  const float u0 = softplus_inverse(config_.init_scale);
  return store_->get_or_create(
      prefix_ + ".scale_unconstrained." + site.name,
      [&] { return full(site.distribution->shape(), u0); });
}

std::shared_ptr<dist::Normal> AutoNormal::build_distribution(
    const ppl::SiteRecord& site) {
  Tensor loc = loc_param(site);
  if (!config_.train_loc) loc = loc.detach();
  Tensor scale = softplus(scale_param(site));
  if (config_.max_scale > 0.0f) scale = clamp_max(scale, config_.max_scale);
  if (!config_.train_scale) scale = scale.detach();
  return std::make_shared<dist::Normal>(loc, scale);
}

std::shared_ptr<dist::Normal> AutoNormal::site_distribution(
    const std::string& name) {
  for (const auto& site : latent_sites()) {
    if (site.name == name) return build_distribution(site);
  }
  TX_THROW("AutoNormal: unknown site '", name, "'");
}

void AutoNormal::operator()() { draw_program()(); }

Program AutoNormal::draw_program() {
  // The first run builds each site's distribution right before sampling it,
  // so parameters created lazily on that run draw their initial values in
  // site order, interleaved with the draws; later runs only sample.
  auto built = std::make_shared<std::vector<dist::DistPtr>>();
  return [this, built] {
    const auto& sites = latent_sites();
    for (std::size_t i = 0; i < sites.size(); ++i) {
      if (i == built->size()) built->push_back(build_distribution(sites[i]));
      ppl::sample(sites[i].name, (*built)[i]);
    }
  };
}

std::map<std::string, dist::DistPtr> AutoNormal::get_detached_distributions(
    const std::vector<std::string>& sites) {
  std::map<std::string, dist::DistPtr> out;
  for (const auto& name : sites) {
    out.emplace(name, site_distribution(name)->detach_params());
  }
  return out;
}

AutoDelta::AutoDelta(Program model, InitLocFn init_loc, std::string prefix,
                     ppl::ParamStore* store)
    : AutoGuide(std::move(model), std::move(prefix), store),
      init_loc_(init_loc ? std::move(init_loc) : init_to_sample()) {}

void AutoDelta::operator()() {
  for (const auto& site : latent_sites()) {
    Tensor value = store_->get_or_create(prefix_ + ".loc." + site.name,
                                         [&] { return init_loc_(site); });
    ppl::sample(site.name, std::make_shared<dist::Delta>(value));
  }
}

std::map<std::string, dist::DistPtr> AutoDelta::get_detached_distributions(
    const std::vector<std::string>& sites) {
  std::map<std::string, dist::DistPtr> out;
  for (const auto& name : sites) {
    Tensor value = store_->get(prefix_ + ".loc." + name);
    out.emplace(name, std::make_shared<dist::Delta>(value.detach()));
  }
  return out;
}

AutoLowRankMultivariateNormal::AutoLowRankMultivariateNormal(
    Program model, std::int64_t rank, float init_scale, InitLocFn init_loc,
    std::string prefix, ppl::ParamStore* store)
    : AutoGuide(std::move(model), std::move(prefix), store),
      rank_(rank),
      init_scale_(init_scale),
      init_loc_(init_loc ? std::move(init_loc) : init_to_sample()) {
  TX_CHECK(rank_ >= 1, "AutoLowRankMultivariateNormal: rank must be >= 1");
  TX_CHECK(init_scale_ > 0.0f, "init_scale must be > 0");
}

void AutoLowRankMultivariateNormal::ensure_params() {
  if (total_ > 0) return;
  for (const auto& site : latent_sites()) {
    layout_.emplace_back(site.name, site.distribution->shape());
    total_ += numel_of(site.distribution->shape());
  }
  TX_CHECK(total_ > 0, "AutoLowRankMultivariateNormal: model has no latents");
  store_->get_or_create(prefix_ + "._loc", [&] {
    std::vector<Tensor> chunks;
    for (const auto& site : latent_sites()) {
      chunks.push_back(reshape(init_loc_(site), {-1}));
    }
    return cat(chunks, 0).detach();
  });
  // Spread the initial variance between the factor and the diagonal the way
  // Pyro does: each contributes init_scale²/2.
  const float part = init_scale_ / std::sqrt(2.0f);
  store_->get_or_create(prefix_ + "._cov_factor", [&] {
    Tensor w = randn({total_, rank_});
    w.mul_(part / std::sqrt(static_cast<float>(rank_)));
    return w;
  });
  store_->get_or_create(prefix_ + "._cov_diag_unconstrained",
                        [&] { return full({total_}, softplus_inverse(part)); });
}

void AutoLowRankMultivariateNormal::operator()() {
  ensure_params();
  Tensor loc = store_->get(prefix_ + "._loc");
  Tensor w = store_->get(prefix_ + "._cov_factor");
  Tensor diag = softplus(store_->get(prefix_ + "._cov_diag_unconstrained"));
  auto joint = std::make_shared<dist::LowRankNormal>(loc, w, diag);
  Tensor draw = ppl::sample(prefix_ + "._latent", joint);
  std::int64_t offset = 0;
  for (const auto& [name, shape] : layout_) {
    const std::int64_t n = numel_of(shape);
    Tensor chunk = reshape(slice(draw, 0, offset, offset + n), shape);
    ppl::sample(name, std::make_shared<dist::Delta>(chunk));
    offset += n;
  }
}

std::map<std::string, dist::DistPtr>
AutoLowRankMultivariateNormal::get_detached_distributions(
    const std::vector<std::string>& sites) {
  ensure_params();
  // Marginals are diagonal Normals with var_i = diag_i² + Σ_r W_ir².
  Tensor loc = store_->get(prefix_ + "._loc").detach();
  Tensor w = store_->get(prefix_ + "._cov_factor").detach();
  Tensor diag =
      softplus(store_->get(prefix_ + "._cov_diag_unconstrained").detach());
  Tensor marg_std = sqrt(add(square(diag), sum(square(w), {1})));
  std::map<std::string, dist::DistPtr> out;
  std::int64_t offset = 0;
  for (const auto& [name, shape] : layout_) {
    const std::int64_t n = numel_of(shape);
    for (const auto& wanted : sites) {
      if (wanted == name) {
        out.emplace(name, std::make_shared<dist::Normal>(
                              reshape(slice(loc, 0, offset, offset + n), shape),
                              reshape(slice(marg_std, 0, offset, offset + n),
                                      shape)));
      }
    }
    offset += n;
  }
  return out;
}

}  // namespace tx::infer
