#include "ppl/param_store.h"

#include <set>

#include "tensor/serialize.h"

namespace tx::ppl {

Tensor ParamStore::get_or_create(const std::string& name, const Tensor& init) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = params_.find(name);
  if (it != params_.end()) return it->second;
  TX_CHECK(init.defined(), "param '", name, "' does not exist and init is undefined");
  Tensor stored = init.detach();
  stored.set_requires_grad(true);
  params_.emplace(name, stored);
  return stored;
}

Tensor ParamStore::get_or_create(const std::string& name,
                                 const std::function<Tensor()>& init) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = params_.find(name);
    if (it != params_.end()) return it->second;
  }
  // init() runs outside the lock (it may itself touch the store). If another
  // thread created the param meanwhile, the create path below returns the
  // existing tensor and this init value is discarded.
  return get_or_create(name, init());
}

bool ParamStore::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return params_.count(name) > 0;
}

Tensor ParamStore::get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = params_.find(name);
  TX_CHECK(it != params_.end(), "no param named '", name, "'");
  return it->second;
}

void ParamStore::set(const std::string& name, Tensor value) {
  TX_CHECK(value.defined(), "set param '", name, "': undefined value");
  if (!value.requires_grad()) {
    value = value.detach();
    value.set_requires_grad(true);
  }
  std::lock_guard<std::mutex> lock(mu_);
  params_[name] = std::move(value);
}

void ParamStore::erase(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  params_.erase(name);
}

void ParamStore::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  params_.clear();
}

std::size_t ParamStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return params_.size();
}

std::vector<std::pair<std::string, Tensor>> ParamStore::items() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {params_.begin(), params_.end()};
}

std::vector<std::pair<std::string, Tensor>> ParamStore::items_with_prefix(
    const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, Tensor>> out;
  for (const auto& [name, t] : params_) {
    if (name.rfind(prefix, 0) == 0) out.emplace_back(name, t);
  }
  return out;
}

std::map<std::string, Tensor> ParamStore::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Tensor> snap;
  for (const auto& [name, t] : params_) snap.emplace(name, t.detach());
  return snap;
}

void ParamStore::restore(const std::map<std::string, Tensor>& snap) {
  std::lock_guard<std::mutex> lock(mu_);
  // Validate before writing anything so a bad snapshot cannot half-apply.
  for (const auto& [name, value] : snap) {
    auto it = params_.find(name);
    TX_CHECK(it != params_.end(), "restore: no param named '", name, "'");
    TX_CHECK(it->second.shape() == value.shape(),
             "restore: shape mismatch for '", name, "'");
  }
  for (const auto& [name, value] : snap) {
    auto it = params_.find(name);
    TX_CHECK(it != params_.end(), "restore: no param named '", name, "'");
    // Write through the existing handle so shared references see the values.
    it->second.copy_(value);
  }
}

std::string param_store_bytes(const ParamStore& store) {
  return encode_named_tensors("params", store.items());
}

void apply_param_store_bytes(const std::string& bytes, ParamStore& store,
                             bool prune_extra) {
  const NamedTensors staged = decode_named_tensors(bytes, "params");
  std::set<std::string> loaded;
  for (const auto& [name, value] : staged) {
    if (store.contains(name)) {
      TX_CHECK(store.get(name).shape() == value.shape(),
               "tx.ckpt.v1: shape mismatch for param '", name, "'");
    }
    loaded.insert(name);
  }
  for (const auto& [name, value] : staged) {
    if (store.contains(name)) {
      store.get(name).copy_(value);  // keep the live handle
    } else {
      store.set(name, value);
    }
  }
  if (prune_extra) {
    for (const auto& [name, _] : store.items()) {
      if (loaded.count(name) == 0) store.erase(name);
    }
  }
}

ParamStore& param_store() {
  static ParamStore store;
  return store;
}

Tensor param(const std::string& name, const Tensor& init) {
  return param_store().get_or_create(name, init);
}

Tensor param(const std::string& name, const std::function<Tensor()>& init) {
  return param_store().get_or_create(name, init);
}

void clear_param_store() { param_store().clear(); }

}  // namespace tx::ppl
