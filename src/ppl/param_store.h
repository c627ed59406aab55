// Global parameter store, the analogue of Pyro's param store. Guides and
// deterministic ("hidden from the prior") network parameters live here; the
// optimizers in tx::infer update whatever it contains.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace tx::ppl {

/// Thread-safe for concurrent lookups and lazy creation (tx::par runs ELBO
/// particles in parallel and every particle's guide touches the store);
/// per-method locking keeps the map consistent, while deterministic creation
/// order is the parallel drivers' job (they run the first particle inline
/// before fanning out).
class ParamStore {
 public:
  /// Returns the stored parameter, creating it from `init` on first use. The
  /// returned tensor is a handle into the store: in-place updates by an
  /// optimizer are visible everywhere it is shared. Created parameters
  /// require grad.
  Tensor get_or_create(const std::string& name, const Tensor& init);
  Tensor get_or_create(const std::string& name,
                       const std::function<Tensor()>& init);

  bool contains(const std::string& name) const;
  Tensor get(const std::string& name) const;
  void set(const std::string& name, Tensor value);
  void erase(const std::string& name);
  /// Remove every parameter (pyro.clear_param_store()).
  void clear();
  std::size_t size() const;

  /// All (name, tensor) pairs, sorted by name.
  std::vector<std::pair<std::string, Tensor>> items() const;
  /// Parameters whose names start with `prefix`.
  std::vector<std::pair<std::string, Tensor>> items_with_prefix(
      const std::string& prefix) const;

  /// Snapshot / restore of all values (used by VCL coreset fine-tuning and by
  /// tests).
  std::map<std::string, Tensor> snapshot() const;
  void restore(const std::map<std::string, Tensor>& snap);

 private:
  mutable std::mutex mu_;
  std::map<std::string, Tensor> params_;
};

/// The store's tx.ckpt.v1 "store" section: "params <n>\n", then each name
/// and its TXT1 tensor in name order (tensor/serialize.h). SVI checkpoints
/// and save_param_store both write it.
std::string param_store_bytes(const ParamStore& store);
/// Stages the whole section and checks every shape against the live store
/// before the first write (throws tx::Error on corruption or a mismatch).
/// Existing same-name params keep their handles (values copied through, so
/// live guides and optimizers see them); new names are created. With
/// `prune_extra` false, params absent from the bytes are left untouched; with
/// it true they are erased, so the store afterwards matches the bytes exactly
/// — what a rollback needs when a failed step lazily created params the
/// anchor has never seen (the guide re-creates them from the restored RNG
/// stream, so the replay is still bitwise-exact).
void apply_param_store_bytes(const std::string& bytes, ParamStore& store,
                             bool prune_extra = false);

/// Process-wide store used by param() below.
ParamStore& param_store();

/// pyro.param analogue.
Tensor param(const std::string& name, const Tensor& init);
Tensor param(const std::string& name, const std::function<Tensor()>& init);

/// pyro.clear_param_store analogue.
void clear_param_store();

}  // namespace tx::ppl
