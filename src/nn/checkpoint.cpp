#include "nn/checkpoint.h"

#include "resil/io.h"
#include "tensor/serialize.h"

namespace {

constexpr const char* kModuleSection = "module";
constexpr const char* kModuleTag = "state";
constexpr const char* kStoreSection = "store";

void write_section(const std::string& path, const char* section,
                   std::string bytes, const char* what) {
  tx::resil::Bundle b;
  b.set(section, std::move(bytes));
  TX_CHECK(b.write_file(path), what, ": cannot write ", path);
}

}  // namespace

namespace tx::nn {

void save_checkpoint(const std::string& path, Module& module) {
  write_section(path, kModuleSection,
                encode_named_tensors(kModuleTag, module.state_dict()),
                "save_checkpoint");
}

void load_checkpoint(const std::string& path, Module& module) {
  // The bundle is verified and the section parsed in full, and
  // load_state_dict validates every slot before its first write, so a bad
  // file never half-mutates the module.
  module.load_state_dict(decode_named_tensors(
      resil::Bundle::read_file(path).get(kModuleSection), kModuleTag));
}

}  // namespace tx::nn

namespace tx::ppl {

void save_param_store(const std::string& path, const ParamStore& store) {
  write_section(path, kStoreSection, param_store_bytes(store),
                "save_param_store");
}

void load_param_store(const std::string& path, ParamStore& store) {
  apply_param_store_bytes(resil::Bundle::read_file(path).get(kStoreSection),
                          store);
}

}  // namespace tx::ppl
