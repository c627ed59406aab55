#include "tensor/serialize.h"

#include <sstream>

#include "util/textio.h"

namespace tx {

namespace {
constexpr const char* kMagic = "TXT1";
}  // namespace

void save_tensor(std::ostream& os, const Tensor& t) {
  TX_CHECK(t.defined(), "save_tensor: undefined tensor");
  os << kMagic << ' ' << t.rank();
  for (auto d : t.shape()) os << ' ' << d;
  os << '\n';
  os << std::hexfloat;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    os << t.at(i) << (i + 1 == t.numel() ? '\n' : ' ');
  }
  if (t.numel() == 0) os << '\n';
  os << std::defaultfloat;
  TX_CHECK(os.good(), "save_tensor: stream write failed");
}

Tensor load_tensor(std::istream& is) {
  textio::expect_tag(is, kMagic);
  const std::int64_t rank = textio::read_int(is, "tensor rank");
  TX_CHECK(rank >= 0 && rank <= 16, "load_tensor: bad rank ", rank);
  Shape shape;
  for (std::int64_t i = 0; i < rank; ++i) {
    shape.push_back(textio::read_int(is, "tensor dimension"));
  }
  const std::int64_t numel = numel_of(shape);
  // Grown per value read, never sized from the header: a corrupt shape ends
  // in a truncation error instead of a huge allocation.
  std::vector<float> values;
  for (std::int64_t i = 0; i < numel; ++i) {
    values.push_back(textio::read_float(is, "tensor value"));
  }
  return Tensor(std::move(shape), std::move(values));
}

std::string encode_named_tensors(const char* tag, const NamedTensors& entries) {
  std::ostringstream os;
  os << tag << ' ' << entries.size() << '\n';
  for (const auto& [name, value] : entries) {
    TX_CHECK(!name.empty() && name.find_first_of(" \n\t") == std::string::npos,
             "encode_named_tensors: name '", name,
             "' is empty or has whitespace");
    os << name << '\n';
    save_tensor(os, value);
  }
  return os.str();
}

NamedTensors decode_named_tensors(const std::string& bytes, const char* tag) {
  std::istringstream is(bytes);
  textio::expect_tag(is, tag);
  const std::int64_t count = textio::read_int(is, tag);
  TX_CHECK(count >= 0, "decode_named_tensors: negative ", tag, " count");
  NamedTensors entries;  // grown per entry, like load_tensor's values
  for (std::int64_t i = 0; i < count; ++i) {
    std::string name = textio::next_token(is, "tensor name");
    entries.emplace_back(std::move(name), load_tensor(is));
  }
  std::string extra;
  TX_CHECK(!(is >> extra), "decode_named_tensors: trailing token '", extra,
           "' after ", count, " ", tag);
  return entries;
}

}  // namespace tx
