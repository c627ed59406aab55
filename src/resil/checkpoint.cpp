#include "resil/checkpoint.h"

#include <sstream>

#include "tensor/serialize.h"
#include "util/textio.h"

namespace tx::resil {

std::string param_store_bytes(const ppl::ParamStore& store) {
  std::ostringstream os;
  const auto items = store.items();
  os << "params " << items.size() << '\n';
  for (const auto& [name, t] : items) {
    os << name << '\n';
    save_tensor(os, t.detach());
  }
  return os.str();
}

void apply_param_store_bytes(const std::string& bytes, ppl::ParamStore& store,
                             bool prune_extra) {
  std::istringstream is(bytes);
  textio::expect_tag(is, "params");
  const std::int64_t count = textio::read_int(is, "param count");
  std::vector<std::pair<std::string, Tensor>> staged;
  staged.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    const std::string name = textio::next_token(is, "param name");
    staged.emplace_back(name, load_tensor(is));
  }
  // Validate shapes against existing entries before the first copy.
  for (const auto& [name, value] : staged) {
    if (store.contains(name)) {
      TX_CHECK(store.get(name).shape() == value.shape(),
               "tx.ckpt.v1: shape mismatch for param '", name, "'");
    }
  }
  for (auto& [name, value] : staged) {
    if (store.contains(name)) {
      store.get(name).copy_(value);  // keep the live handle
    } else {
      store.set(name, value);
    }
  }
  if (prune_extra) {
    for (const auto& [name, _] : store.items()) {
      bool known = false;
      for (const auto& [staged_name, __] : staged) {
        if (staged_name == name) {
          known = true;
          break;
        }
      }
      if (!known) store.erase(name);
    }
  }
}

std::string optimizer_bytes(const infer::Optimizer& opt) {
  std::ostringstream os;
  opt.save_state(os);
  return os.str();
}

void apply_optimizer_bytes(const std::string& bytes, infer::Optimizer& opt) {
  std::istringstream is(bytes);
  opt.load_state(is);
}

}  // namespace tx::resil
