// Checkpointing: save/load a module's state dict or a ParamStore to a file,
// so trained networks and fitted variational posteriors survive processes
// (e.g. pretrain once, Bayesianize in a later run). Both files are
// tx.ckpt.v1 bundles (resil/io.h) written atomically and verified by their
// checksum before anything is applied: a module checkpoint holds one
// "module" section (the state dict as a "state" named-tensor list, see
// tensor/serialize.h), a param-store checkpoint one "store" section, the
// same section SVI::fit's checkpoints carry.
#pragma once

#include <string>

#include "nn/module.h"
#include "ppl/param_store.h"

namespace tx::nn {

/// Writes all parameters and buffers (named state dict) of the module.
void save_checkpoint(const std::string& path, Module& module);
/// Loads values into the module by name; missing/mismatched entries throw.
void load_checkpoint(const std::string& path, Module& module);

}  // namespace tx::nn

namespace tx::ppl {

/// Persist every parameter of a store (e.g. a fitted guide).
void save_param_store(const std::string& path, const ParamStore& store);
/// Recreate parameters into `store` (existing same-name params keep their
/// handles and receive the values; new names are created requiring grad).
/// Also reads the fitted guide out of an SVI::fit RetryPolicy checkpoint.
void load_param_store(const std::string& path, ParamStore& store);

}  // namespace tx::ppl
