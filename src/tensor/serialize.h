// Tensor serialization: a simple self-describing text format ("TXT1") and a
// named-tensor list built on it. The list is the payload of every tx.ckpt.v1
// tensor section: the ParamStore's "store" section and a module checkpoint's
// "module" section (see resil/io.h for the bundle container). Values are
// written as lossless hexfloats.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace tx {

using NamedTensors = std::vector<std::pair<std::string, Tensor>>;

/// Write one tensor (shape + values). Gradients and autograd state are not
/// serialized; loaded tensors are plain leaves.
void save_tensor(std::ostream& os, const Tensor& t);
/// Throws tx::Error on a bad header, an overflowing shape, truncation or a
/// malformed value; allocates only for values actually read.
Tensor load_tensor(std::istream& is);

/// A whole section: "<tag> <n>\n", then n times "<name>\n" + TXT1 tensor.
/// Names may not be empty or contain whitespace.
std::string encode_named_tensors(const char* tag, const NamedTensors& entries);
/// Parses every entry before returning (throws tx::Error on a wrong tag, a
/// negative count, a bad tensor or trailing tokens), so callers can stage
/// the result and validate it before their first write.
NamedTensors decode_named_tensors(const std::string& bytes, const char* tag);

}  // namespace tx
