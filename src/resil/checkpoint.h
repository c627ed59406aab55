// tx.ckpt.v1 section serializers for SVI state: the ParamStore and the
// optimizer. The bundle container itself (and the generator section) lives in
// resil/io.h, below tx_infer, so infer::MCMC can checkpoint too.
#pragma once

#include <string>

#include "infer/optim.h"
#include "ppl/param_store.h"
#include "resil/io.h"

namespace tx::resil {

// ---- section serializers ---------------------------------------------------
// Every apply_* stages the parsed state completely (throwing tx::Error on
// corruption) before the first mutation of the live object.

std::string param_store_bytes(const ppl::ParamStore& store);
/// Existing same-name params keep their handles (values copied through, so
/// live guides and optimizers see them); new names are created. With
/// `prune_extra` false, params absent from the bytes are left untouched; with
/// it true they are erased, so the store afterwards matches the bytes exactly
/// — what a rollback needs when a failed step lazily created params the
/// anchor has never seen (the guide re-creates them from the restored RNG
/// stream, so the replay is still bitwise-exact).
void apply_param_store_bytes(const std::string& bytes, ppl::ParamStore& store,
                             bool prune_extra = false);

std::string optimizer_bytes(const infer::Optimizer& opt);
void apply_optimizer_bytes(const std::string& bytes, infer::Optimizer& opt);

}  // namespace tx::resil
